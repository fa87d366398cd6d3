import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from macdual import apolarity
from macdual import io as io_mod
from macdual.errors import DomainError, ParseError, SchemaError
from macdual.fields import Field
from macdual.io import (corpus_load, corpus_verify, parse_poly, parse_ps,
                        render_decomposition)
from macdual.decomposition import symmetric_decomposition
from macdual.poly import (DPPoly, PSElement, RingSpec, dp_mul,
                          dp_power_of_linear)


def R(vars="XY", char=0):
    return RingSpec(tuple(vars), Field(char))


def test_parse_basic():
    ring = RingSpec(("X", "Y", "Z", "W"), Field(0))
    f = parse_poly("X^[5]+X*Y^[2]*Z+W^[2]", ring)
    assert f.coeffs == {(5, 0, 0, 0): 1, (1, 2, 1, 0): 1, (0, 0, 0, 2): 1}


def test_parse_linear_power_and_conversion():
    ring = R()
    assert parse_poly("(X+Y)^[5]", ring).coeffs == \
        {(i, 5 - i): 1 for i in range(6)}
    # ordinary caret converts through the factorial
    assert parse_poly("X^2", ring) == parse_poly("2*X^[2]", ring)
    assert parse_poly("X^3", RingSpec(("X",), Field(3))).is_zero
    assert parse_poly("3/2*X-1/2*Y", ring).coeffs == \
        {(1, 0): Field(0).fraction(3, 2), (0, 1): Field(0).fraction(-1, 2)}
    assert parse_poly("- X + Y", ring).coeffs == {(1, 0): -1, (0, 1): 1}


def test_ordinary_power_mod_p_computes_no_vanishing_factorial(monkeypatch):
    # k! is 0 mod p for every k >= p: X^100000 over F_101 is zero at once
    seen = []
    monkeypatch.setattr(io_mod, "factorial",
                        lambda k: seen.append(k) or factorial(k))
    ring = RingSpec(("X", "Y"), Field(101))
    assert parse_poly("X^100000+Y^100+X^101", ring) == \
        parse_poly("%d*Y^[100]" % (factorial(100) % 101), ring)
    assert seen == [100]


@pytest.mark.parametrize("char", [0, 2 ** 61 - 1], ids=["Q", "F61"])
def test_ordinary_power_past_the_budget_computes_no_factorial(monkeypatch,
                                                              char):
    """X^k whose degree alone puts C(r+k+1, r) past poly.MAX_IMAGES is
    refused as the PartialFiltration refuses it, before k! is computed, also
    in a term that cancels; X^[k] of the same degree still parses; at the
    budget, k! is computed and the power parses.  A linear-form power
    (L)^[k] is refused at the same degree before L^[k] is built."""
    seen, built = [], []

    def recorded(k):
        if k > 81:
            pytest.fail("computed %d!" % k)
        seen.append(k)
        return factorial(k)

    monkeypatch.setattr(io_mod, "factorial", recorded)
    monkeypatch.setattr(io_mod, "dp_power_of_linear", lambda L, k:
                        built.append(k) or dp_power_of_linear(L, k))
    with pytest.raises(DomainError, match="too large: C\\(r\\+j\\+1, r\\) = "
                       "100002 images, above the budget of 100000"):
        parse_poly("X^100000", R("X", char))
    # C(3 + 82 + 1, 3) = 102,340 images and C(3 + 81 + 1, 3) = 98,770
    with pytest.raises(DomainError, match="too large"):
        parse_poly("X^82+Y", R("XYZ", char))
    with pytest.raises(DomainError, match="too large"):
        parse_poly("X^200-X^200+Y", R("XYZ", char))
    assert parse_poly("X^[200]-X^[200]+Y", R("XYZ", char)) == \
        parse_poly("Y", R("XYZ", char))
    assert parse_poly("X^81+Y", R("XYZ", char)) == \
        parse_poly("%d*X^[81]+Y" % factorial(81), R("XYZ", char))
    assert seen == [81]
    with pytest.raises(DomainError, match="too large"):
        parse_poly("(X+Y)^[82]-(X+Y)^[82]+Z", R("XYZ", char))
    assert built == []
    assert parse_poly("(X+Y)^[81]", R("XYZ", char)) == \
        dp_power_of_linear(parse_poly("X+Y", R("XYZ", char)), 81)
    assert built == [81]


def test_parse_ps_side():
    ring = R()
    phi = parse_ps("y-x^2", ring)
    assert phi.coeffs == {(0, 1): 1, (2, 0): -1}
    # ordinary powers multiply plainly on the local-ring side
    assert parse_ps("x*x", ring) == parse_ps("x^2", ring)


def test_parse_errors():
    ring = R()
    with pytest.raises(ParseError):
        parse_poly("X+Q", ring)          # unknown variable
    with pytest.raises(ParseError):
        parse_poly("(X^[2]+Y)^[2]", ring)  # non-linear base under ^[k]
    with pytest.raises(ParseError):
        parse_poly("1/0*X", ring)        # zero denominator
    with pytest.raises(ParseError):
        parse_poly("X^[2]Y", ring)       # missing *
    with pytest.raises(ParseError):
        parse_poly("", ring)
    with pytest.raises(ParseError):
        parse_ps("x^[2]", ring)          # divided powers not allowed in R
    err = None
    try:
        parse_poly("X + 1/0", ring)
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset > 0 and err.excerpt


def test_parse_render_roundtrip():
    ring = RingSpec(("X", "Y", "Z"), Field(0))
    for src in ("X^[5]+X*Y^[2]*Z", "3*X^[2]-1/2*Y^[2]+Z", "X*Y*Z",
                "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z"):
        f = parse_poly(src, ring)
        assert parse_poly(str(f), ring) == f
    phi = parse_ps("y^2*z-x^4+2*x*y", ring)
    assert parse_ps(str(phi), ring) == phi


def test_render_decomposition_styles():
    ring = RingSpec(("X", "Y", "Z", "W"), Field(0))
    D = symmetric_decomposition(parse_poly("X^[5]+X*Y^[2]*Z+W^[2]", ring))
    table = render_decomposition(D)
    lines = table.splitlines()
    assert lines[0].startswith("H(0)") and lines[-1].startswith("H(A)")
    assert "0  2  4  2  0" in table
    suppressed = render_decomposition(D, suppress_zero=True)
    assert "H(2)" not in suppressed and "H(1)" in suppressed
    js = render_decomposition(D, style="json")
    import json
    doc = json.loads(js)
    assert doc["socle_degree"] == 5
    assert doc["hilbert"] == [1, 4, 5, 3, 1, 1]
    assert doc["n"] == [1, 3, 3, 4]
    assert doc["decomposition"][1] == {"a": 1, "H": [0, 2, 4, 2, 0]}
    assert list(doc) == ["socle_degree", "hilbert", "decomposition", "n"]


def test_corpus_schema(tmp_path):
    good = tmp_path / "good.corpus"
    good.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n")
    entries = corpus_load(good)
    assert len(entries) == 1
    reports = corpus_verify(entries[0])
    assert all(r["ok"] for r in reports)

    bad = tmp_path / "bad.corpus"
    bad.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\n"
        "hilbert 1,1,1,1\nfrobnicate yes\nend\n")
    with pytest.raises(SchemaError):
        corpus_load(bad)

    missing = tmp_path / "missing.corpus"
    missing.write_text("entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\nend\n")
    with pytest.raises(SchemaError):
        corpus_load(missing)

    unterminated = tmp_path / "open.corpus"
    unterminated.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\nhilbert 1,1,1,1\n")
    with pytest.raises(SchemaError):
        corpus_load(unterminated)


@pytest.mark.parametrize("key", ["decomposition", "q_dual_bases_dims"])
def test_corpus_index_must_be_an_integer(tmp_path, key):
    path = tmp_path / "index.corpus"
    for value, message in (("x:1,2,1", "expected an integer index, got 'x'"),
                           ("0:1,a,1", "expected a comma-separated integer"),
                           ("0:9,9,9; 0:1,1,1,1,1; 1:0,1,1,0",
                            "index 0 given twice")):
        path.write_text("entry bad\nvars X,Y\nchar 0\ngenerator X^[3]\n"
                        "hilbert 1,1,1,1\n%s %s\nend\n" % (key, value))
        with pytest.raises(SchemaError) as exc:
            corpus_load(path)
        assert str(exc.value).startswith("entry 'bad': %s: %s"
                                          % (key, message))


def test_corpus_negative_control(tmp_path):
    path = tmp_path / "wrong.corpus"
    path.write_text(
        "entry perturbed\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,3,1,1\ndecomposition 0:1,1,1,1,1; 1:0,1,1,0; 2:0,0,0\n"
        "end\n")
    reports = corpus_verify(corpus_load(path)[0])
    assert not reports[0]["ok"]
    assert reports[0]["mismatches"][0]["field"] == "hilbert"


def test_multi_characteristic_entry(tmp_path):
    path = tmp_path / "multi.corpus"
    path.write_text(
        "entry both\nvars X,Y\nchar 0,101\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n")
    reports = corpus_verify(corpus_load(path)[0])
    assert [r["char"] for r in reports] == [0, 101]
    assert all(r["ok"] for r in reports)


def test_corpus_verify_builds_one_filtration_per_entry(monkeypatch):
    """Every check of an entry, the presentation verifiers and
    detect_exotic included, reuses the PartialFiltration built for it."""
    built = []
    init = apolarity.PartialFiltration.__init__

    def counting(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(apolarity.PartialFiltration, "__init__", counting)
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"
    entries = corpus_load(corpus)
    fields = {k for e in entries for k in e.expect}
    assert {"ideal_gens", "graded_ideal_gens", "exotic_terms"} <= fields
    for entry in entries:
        del built[:]
        reports = corpus_verify(entry)
        assert all(r["ok"] for r in reports)
        assert len(built) == len(entry.chars), entry.name


# -- one-pass parser against the term-by-term route ---------------------------

class _TermByTermParser(io_mod._Parser):
    """The former parser: each term starts from one and multiplies in a
    DPPoly/PSElement per factor (dp_mul or PSElement.mul), and the terms
    are added one by one.  Test-only reference for the one-pass parser."""

    def _one(self):
        zero = self.ring.r * (0,)
        if self.divided:
            return DPPoly(self.ring, {zero: self.ring.field.one})
        return PSElement(self.ring, {zero: self.ring.field.one}, self.trunc)

    def _var_power(self, i, k, bracket):
        f = self.ring.field
        mon = tuple(k if t == i else 0 for t in range(self.ring.r))
        if self.divided:
            return DPPoly(self.ring, {mon: f.one if bracket
                                      else f.from_int(factorial(k))})
        return PSElement(self.ring, {mon: f.one}, self.trunc)

    def _mul(self, a, b):
        return dp_mul(a, b) if self.divided else a.mul(b, self.trunc)

    def parse_poly(self):
        sign = 1
        kind, val, _ = self.ts.peek()
        if kind == "op" and val in "+-":
            self.ts.next()
            sign = -1 if val == "-" else 1
        total = self.parse_term(sign)
        while True:
            kind, val, _ = self.ts.peek()
            if kind == "op" and val in "+-":
                self.ts.next()
                total = total + self.parse_term(-1 if val == "-" else 1)
            else:
                return total

    def parse_term(self, sign):
        f = self.ring.field
        coeff = f.one if sign == 1 else f.neg(f.one)
        kind, val, _ = self.ts.peek()
        if kind == "nat":
            coeff = f.mul(coeff, self.parse_coeff())
            kind, val, _ = self.ts.peek()
            if kind == "op" and val == "*":
                self.ts.next()
            else:
                return self._one().scale(coeff)
        value = self._one()
        while True:
            value = self._mul(value, self.parse_factor())
            kind, val, _ = self.ts.peek()
            if kind == "op" and val == "*":
                self.ts.next()
                continue
            return value.scale(coeff)

    def parse_factor(self):
        kind, val, off = self.ts.next()
        if kind == "name":
            i = self.var_index.get(val)
            if i is None:
                raise ParseError("unknown variable %r" % val, self.ts.src, off)
            kind2, val2, _ = self.ts.peek()
            if kind2 == "op" and val2 == "^":
                self.ts.next()
                kind, val, off2 = self.ts.next()
                if kind == "op" and val == "[":
                    if not self.divided:
                        raise ParseError("divided powers are not allowed here",
                                         self.ts.src, off2)
                    kind3, k, off3 = self.ts.next()
                    if kind3 != "nat":
                        raise ParseError("expected exponent", self.ts.src, off3)
                    self.ts.expect_op("]")
                    return self._var_power(i, k, bracket=True)
                if kind == "nat":
                    return self._var_power(i, val, bracket=False)
                raise ParseError("expected exponent", self.ts.src, off2)
            return self._var_power(i, 1, bracket=True)
        if kind == "op" and val == "(":
            inner = self.parse_poly()
            self.ts.expect_op(")")
            self.ts.expect_op("^")
            self.ts.expect_op("[")
            kind2, k, off2 = self.ts.next()
            if kind2 != "nat":
                raise ParseError("expected exponent", self.ts.src, off2)
            self.ts.expect_op("]")
            if not self.divided:
                raise ParseError("divided powers are not allowed here",
                                 self.ts.src, off)
            if inner.is_zero or not (inner.is_homogeneous() and inner.degree == 1):
                raise ParseError("base of ^[k] must be a homogeneous linear form",
                                 self.ts.src, off)
            return dp_power_of_linear(inner, k)
        raise ParseError("expected a factor", self.ts.src, off)


def _outcome(parser_cls, src, ring, divided, trunc=None):
    """The parsed coefficient dict, or the ParseError's message and offset."""
    try:
        return parser_cls(src, ring, divided, trunc).parse().coeffs
    except ParseError as exc:
        return ("error", exc.expected, exc.offset)


FIXED_DIVIDED = [
    "X*X", "X*Y*X", "X^2", "X^3", "X^2*X^[3]*X", "(X+2*Y)^[3]*X*Z",
    "X*(X+2*Y)^[3]*(Y-Z)^[2]*X", "7", "-3", "0", "2/3", "5/6*X^[2]*Y",
    "X^[2]-X^[2]+Y", "X*Y-Y*X+Z^[2]", "X^4-24*X^[4]", "1/2*X*X-X^[2]",
    "X^[2]*X^[3]*Y^2", "  X \n+\tY*Y \n", "- 3*Z^3 + (Y)^[4]",
    # malformed: messages and offsets must agree
    "", "X+", "X**Y", "X^[2]Y", "X+Q", "(X^[2]+Y)^[2]", "(X+Y)^2", "1/0*X",
    "3/6*X", "X^[", "X^[a]", "X^", "(0*X)^[2]", "2*", "X)", "(X+1)^[2]",
]

FIXED_ORDINARY = [
    "x*x", "x*y*x", "x^2*x^3*y", "x^3*x^2", "x*x*x*x*x*x", "y^4*y^3-x",
    "x^2*y^2*z^2", "5", "2/3*x*z", "x^2-x*x+y", "x*y-y*x", "z^9+1",
    "", "x^[2]", "(x+y)^[2]", "x*^2", "X", "x+", "1/0",
]


def _random_text(rng, names, divided, char):
    def coeff():
        a = rng.randint(1, 12)
        if rng.random() < 0.3:
            b = rng.randint(1, 9)
            while char and b % char == 0:
                b += 1
            return "%d/%d" % (a, b)
        return str(a)

    def factor():
        roll = rng.random()
        name = rng.choice(names)
        if divided and roll < 0.15:
            lin = "+".join("%s*%s" % (coeff(), v)
                           for v in rng.sample(names, rng.randint(1, 3)))
            return "(%s)^[%d]" % (lin, rng.randint(0, 3))
        if roll < 0.45:
            return name
        if divided and roll < 0.75:
            return "%s^[%d]" % (name, rng.randint(0, 4))
        return "%s^%d" % (name, rng.randint(0, 5))

    terms = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.1:
            body = coeff()
        else:
            body = "*".join(factor() for _ in range(rng.randint(1, 4)))
            if roll < 0.5:
                body = coeff() + "*" + body
        terms.append(body)
        if rng.random() < 0.2:
            terms.append(body)  # cancels against the sign drawn below
    signs = [rng.choice("+-") for _ in terms]
    return (signs[0] if signs[0] == "-" else "") + terms[0] + "".join(
        s + t for s, t in zip(signs[1:], terms[1:]))


@pytest.mark.parametrize("char", [0, 2, 3, 101], ids=["Q", "F2", "F3", "F101"])
def test_one_pass_parser_matches_term_by_term(char):
    ring = RingSpec(("X", "Y", "Z"), Field(char))
    rng = random.Random(1100 + char)
    divided = FIXED_DIVIDED + [_random_text(rng, ring.vars, True, char)
                               for _ in range(300)]
    for src in divided:
        assert _outcome(io_mod._Parser, src, ring, True) == \
            _outcome(_TermByTermParser, src, ring, True), src
    ordinary = FIXED_ORDINARY + [_random_text(rng, ring.lvars, False, char)
                                 for _ in range(300)]
    for trunc in (3, 5, 64):
        for src in ordinary:
            assert _outcome(io_mod._Parser, src, ring, False, trunc) == \
                _outcome(_TermByTermParser, src, ring, False, trunc), \
                (src, trunc)


def _tokens_one_match_at_a_time(src):
    """The former tokenizer: one _TOKEN.match per token from the last end,
    stopping at the first position where nothing matches."""
    toks, pos = [], 0
    while pos < len(src):
        m = io_mod._TOKEN.match(src, pos)
        if not m or m.end() == pos:
            break
        if m.group(1) is not None:
            toks.append(("nat", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            toks.append(("name", m.group(2), m.start(2)))
        elif not m.group(3).isspace():
            toks.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return toks


def test_tokenizer_matches_one_match_at_a_time():
    rng = random.Random(11)
    alphabet = ["X", "Y1", "y_2", "12", "0", "+", "-", "*", "/", "^", "[",
                "]", "(", ")", " ", "\t", "\n", "\r\n", "$", "é", ".."]
    texts = FIXED_DIVIDED + FIXED_ORDINARY + ["\n", "X\n", "X \n\n", " \n ",
                                              "X\n\nY", "\n\n+"] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for _ in range(500)]
    for src in texts:
        ts, toks = io_mod._Tokens(src), []
        while ts.peek()[0] != "end":
            toks.append(ts.next())
        assert toks == _tokens_one_match_at_a_time(src), repr(src)
        assert ts.next() == ts.peek() == ("end", None, len(src))


def test_parsing_ignores_the_int_str_digit_cap():
    """Numerals past CPython's 4,300-digit cap on str -> int parse with the
    default cap in force, outside the CLI, and give the ints that str()
    reads with the cap lifted; the rendered text parses back to the same
    generator.  Lengths sit at and around the 4,000-digit chunk edges."""
    import sys
    cap = sys.get_int_max_str_digits()
    Q = R("XY", 0)
    texts = ["7" * 4400 + "*X^[2]", "1" + "0" * 3999 + "*X", "9" * 4000 + "*Y",
             "3" * 8001 + "/" + "2" * 4301 + "*X*Y", "-" + "5" * 12345 + "*Y"]
    try:
        sys.set_int_max_str_digits(4300)
        got = [parse_poly(src, Q) for src in texts]
        again = [parse_poly(str(f), Q) for f in got]
        sys.set_int_max_str_digits(0)
        want = [7 * (10 ** 4400 - 1) // 9, 10 ** 3999, 10 ** 4000 - 1,
                Fraction(int("3" * 8001), int("2" * 4301)),
                -int("5" * 12345)]
    finally:
        sys.set_int_max_str_digits(cap)
    assert [list(f.coeffs.values()) for f in got] == [[c] for c in want]
    assert again == got
