"""Expression parsing, decomposition rendering, and the corpus file format.

Grammar (whitespace-insensitive)::

    poly   := ["-"] term (("+"|"-") term)*
    term   := coeff ["*" factor ("*" factor)*] | factor ("*" factor)*
    factor := var | var "^[" nat "]" | var "^" nat | "(" poly ")" "^[" nat "]"
    coeff  := nat | nat "/" nat

``var^[k]`` is a divided power; ``var^k`` converts to ``k! * var^[k]`` (and
may vanish in positive characteristic); a parenthesized base under ``^[k]``
must be a homogeneous linear form.  Products are divided-power products.
The same grammar with ordinary-power semantics and no brackets parses
elements of the local ring R (lowercase variable names).

The parser scans the text from an offset and keeps no token list.  A term
of variable powers, with or without a coefficient, is read together with
the sign after it in one regular-expression match (_TERM).  Parentheses,
whitespace inside a power such as ``X ^ [2]``, and any other text that
match does not take are read token by token from the same offset
(_Tokens).  Every ParseError comes from those token steps, so its message
and offset do not depend on which route read the text.
"""

from __future__ import annotations

import re
from math import comb, factorial

from .errors import ParseError, SchemaError
from .fields import Field
from .poly import (DPPoly, PSElement, RingSpec, check_image_budget, dp_mul,
                   dp_power_of_linear, natural)

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
# one token after any whitespace: a numeral, a name or one character
_TOKEN = re.compile(r"\s*(?:(\d+)|(%s)|(.))" % _NAME)
_SIGN = re.compile(r"\s*([-+])")
# a term [c[/d]*]factor(*factor)* with factors var, var^[k] or var^k and
# whitespace, if any, only around its "*" and "/", taken only where the
# token steps would end the term too: before a "+" or "-", which it reads
# as well, or before ")" or the end
_FACTORS = r"{0}(?:\s*\*\s*{0})*".format(r"%s(?:\^(?:\[\d+\]|\d+))?" % _NAME)
_TERM = re.compile(r"\s*(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*(%s))?|(%s))"
                   r"\s*(?:([-+])|(?=\)|\Z))" % (_FACTORS, _FACTORS))


class _Tokens:
    """The tokens of src, each (kind, value, offset), read on demand from
    offset pos; kind is "nat", "name", "op" or, past the last, "end".  The
    token at pos is kept once read (ahead: pos, the token and the offset
    after it), so that peek and then next scan it once."""

    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.ahead = (None, None, None)

    def _read(self):
        src, pos = self.src, self.pos
        while True:
            m = _TOKEN.match(src, pos)
            if m is None:  # nothing but whitespace left
                return ("end", None, len(src)), len(src)
            nat, name, ch = m.groups()
            if nat is not None:
                return ("nat", natural(nat), m.start(1)), m.end()
            if name is not None:
                return ("name", name, m.start(2)), m.end()
            if not ch.isspace():
                return ("op", ch, m.start(3)), m.end()
            pos = m.end()

    def peek(self):
        if self.ahead[0] != self.pos:
            self.ahead = (self.pos, *self._read())
        return self.ahead[1]

    def next(self):
        tok = self.peek()
        self.pos = self.ahead[2]
        return tok

    def sign(self):
        """Read a "+" or "-" if one comes next: 1 or -1, else None."""
        m = _SIGN.match(self.src, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return -1 if m.group(1) == "-" else 1

    def expect_op(self, ch):
        kind, val, off = self.next()
        if kind != "op" or val != ch:
            raise ParseError("expected %r" % ch, self.src, off)


class _Parser:
    """Recursive descent over the shared grammar; `divided` switches between
    the dual algebra (X^[k] basis) and the local ring (ordinary powers).
    Terms are summed raw and canonicalised once, by the constructor."""

    def __init__(self, src, ring: RingSpec, divided: bool, trunc=None):
        self.ts = _Tokens(src)
        self.ring = ring
        self.divided = divided
        self.trunc = trunc
        names = ring.vars if divided else ring.lvars
        self.var_index = {v: i for i, v in enumerate(names)}

    # -- grammar ----------------------------------------------------------------

    def parse(self):
        out = self.parse_poly()
        kind, val, off = self.ts.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", self.ts.src, off)
        return out

    def parse_poly(self):
        sign = self.ts.sign() or 1
        total: dict = {}
        while sign:
            read = self._read_term(sign)
            if read is None:
                for m, c in self.parse_term(sign).items():
                    total[m] = total.get(m, 0) + c
                sign = self.ts.sign()
            else:
                m, c, sign = read
                total[m] = total.get(m, 0) + c
        if self.divided:
            return DPPoly(self.ring, total)
        return PSElement(self.ring, total, self.trunc)

    def _read_term(self, sign: int):
        """parse_term's term and the sign after it, read in one match of
        _TERM: (monomial, raw coefficient, next sign), the sign 1, -1, or
        None when no "+" or "-" follows.  None, with nothing read, where
        _TERM does not match or the token steps would raise ParseError: a
        zero denominator, an unknown variable, or X^[k] in the local ring."""
        ts = self.ts
        match = _TERM.match(ts.src, ts.pos)
        if match is None:
            return None
        nat, den, factors, alone, after = match.groups()
        coeff = sign
        exps = [0] * self.ring.r
        if nat is not None:
            f = self.ring.field
            if den is None:
                coeff *= f.from_int(natural(nat))
            else:
                den = natural(den)
                if den == 0 or (f.char and den % f.char == 0):
                    return None
                coeff *= f.fraction(natural(nat), den)
        index, divided = self.var_index, self.divided
        body = alone if nat is None else factors  # None: a bare constant
        for factor in body.split("*") if body else ():
            name, _, k = factor.strip().partition("^")
            i = index.get(name)
            if i is None:
                return None
            if not k:
                k, c = 1, 1
            elif k[0] == "[":
                if not divided:
                    return None
                k, c = natural(k[1:-1]), 1
            else:
                _, k, c = self._power(i, natural(k))
            if divided and exps[i]:
                c *= comb(exps[i] + k, k)
            exps[i] += k
            coeff *= c
        ts.pos = match.end()
        return tuple(exps), coeff, after and (-1 if after == "-" else 1)

    def parse_coeff(self):
        f = self.ring.field
        kind, val, off = self.ts.next()
        assert kind == "nat"
        kind2, val2, _ = self.ts.peek()
        if kind2 == "op" and val2 == "/":
            self.ts.next()
            kind3, den, off3 = self.ts.next()
            if kind3 != "nat":
                raise ParseError("expected denominator", self.ts.src, off3)
            if den == 0 or (f.char and den % f.char == 0):
                raise ParseError("division by zero coefficient", self.ts.src, off3)
            return f.fraction(val, den)
        return f.from_int(val)

    def parse_term(self, sign: int):
        """The term as monomial -> raw coefficient.  Powers of variables
        multiply into one monomial (times binomials for a variable repeated
        in divided mode); parenthesised factors are multiplied by dp_mul."""
        coeff = sign
        exps = [0] * self.ring.r
        kind, val, off = self.ts.peek()
        if kind == "nat":
            coeff *= self.parse_coeff()
            kind, val, _ = self.ts.peek()
            if kind == "op" and val == "*":
                self.ts.next()
            else:
                return {tuple(exps): coeff}  # bare constant term
        value = None
        while True:
            factor = self.parse_factor()
            if isinstance(factor, DPPoly):
                value = factor if value is None else dp_mul(value, factor)
            else:
                i, k, c = factor
                if self.divided and exps[i]:
                    c *= comb(exps[i] + k, k)
                exps[i] += k
                coeff *= c
            kind, val, _ = self.ts.peek()
            if kind == "op" and val == "*":
                self.ts.next()
                continue
            break
        term = {tuple(exps): coeff}
        return term if value is None else \
            dp_mul(value, DPPoly(self.ring, term)).coeffs

    def parse_factor(self):
        """(i, k, c) for c times the k-th (divided) power of variable i, or
        the DPPoly of a parenthesised (L)^[k]."""
        kind, val, off = self.ts.next()
        if kind == "name":
            i = self.var_index.get(val)
            if i is None:
                raise ParseError("unknown variable %r" % val, self.ts.src, off)
            kind2, val2, _ = self.ts.peek()
            if kind2 == "op" and val2 == "^":
                self.ts.next()
                return self._parse_power_suffix(i, off)
            return i, 1, 1
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
            check_image_budget(self.ring.r, k)
            return dp_power_of_linear(inner, k)
        raise ParseError("expected a factor", self.ts.src, off)

    def _parse_power_suffix(self, i: int, off):
        kind, val, off2 = self.ts.next()
        if kind == "op" and val == "[":
            if not self.divided:
                raise ParseError("divided powers are not allowed here",
                                 self.ts.src, off2)
            kind3, k, off3 = self.ts.next()
            if kind3 != "nat":
                raise ParseError("expected exponent", self.ts.src, off3)
            self.ts.expect_op("]")
            return i, k, 1
        if kind == "nat":
            return self._power(i, val)
        raise ParseError("expected exponent", self.ts.src, off2)

    def _power(self, i: int, k: int):
        """(i, k, c) for var^k: x^k itself in the local ring, k! X^[k] in
        divided mode.  Mod p, k! vanishes from k = p on and is not
        computed, and no k! is computed for a degree k past the image
        budget."""
        if not self.divided:
            return i, k, 1
        p = self.ring.field.char
        if p and k >= p:
            return i, k, 0
        check_image_budget(self.ring.r, k)
        return i, k, factorial(k) % p if p else factorial(k)


def parse_poly(src: str, ring: RingSpec) -> DPPoly:
    """Parse a divided-power polynomial over the ring's dual variables.

    An ordinary power X^k = k! X^[k], or a power (L)^[k] of a linear form,
    whose degree alone needs an image table past poly.MAX_IMAGES is refused
    with DomainError as soon as it is read, before k! or a term of L^[k] is
    computed, even in a term that would cancel; in characteristic p, X^k
    with k >= p is zero and never refused, and X^[k] is read at any
    degree."""
    return _Parser(src, ring, divided=True).parse()


def parse_ps(src: str, ring: RingSpec, trunc: int | None = None) -> PSElement:
    """Parse a local-ring element (lowercase variables, ordinary powers)."""
    return _Parser(src, ring, divided=False, trunc=64 if trunc is None else trunc).parse()


# ---------------------------------------------------------------------------
# rendering

def render_decomposition(decomp, style: str = "table", suppress_zero: bool = False,
                         show_bases: bool = False) -> str:
    """Print a symmetric decomposition the way the tables in the literature
    are laid out: one row per component, then the total Hilbert function."""
    H = decomp.hilbert
    comps = decomp.components
    if style == "json":
        doc = {
            "socle_degree": decomp.socle_degree,
            "hilbert": list(H),
            "decomposition": [{"a": a, "H": list(h)} for a, h in enumerate(comps)
                              if not (suppress_zero and not any(h))],
            "n": list(decomp.n_seq),
        }
        if show_bases and decomp.bases is not None:
            doc["q_dual_bases"] = {
                str(a): {str(d): [str(p) for p in polys]
                         for d, polys in sorted(mod.bases.items())}
                for a, mod in sorted(decomp.bases.items())}
        import json  # imported here: only JSON output needs it
        return json.dumps(doc)
    width = max(len(str(x)) for x in list(H) + [h for row in comps for h in row] + [0])
    lines = []
    for a, row in enumerate(comps):
        if suppress_zero and not any(row):
            continue
        lines.append("H(%d)  %s" % (a, "  ".join(str(x).rjust(width) for x in row)))
    lines.append("-" * max(len(s) for s in lines) if lines else "-")
    lines.append("H(A)  %s" % "  ".join(str(x).rjust(width) for x in H))
    if show_bases and decomp.bases is not None:
        for a, mod in sorted(decomp.bases.items()):
            for d, polys in sorted(mod.bases.items()):
                if polys:
                    lines.append("Q^v(%d)_%d = <%s>"
                                 % (a, d, ", ".join(str(p) for p in polys)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpus files: one self-describing record per entry

_ENTRY_FIELDS = {"vars", "char", "generator", "hilbert", "decomposition",
                 "min_gen_orders", "ideal_gens", "graded_ideal_gens",
                 "exotic_terms", "q_dual_bases_dims"}
_REQUIRED = {"vars", "char", "generator", "hilbert"}


class CorpusEntry:
    __slots__ = ("name", "vars", "chars", "generator", "expect")

    def __init__(self, name, vars, chars, generator, expect):
        self.name = name
        self.vars = vars
        self.chars = chars
        self.generator = generator
        self.expect = expect


def _parse_int_list(text, where):
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise SchemaError("%s: expected a comma-separated integer list, got %r"
                          % (where, text)) from None


def _parse_indexed_lists(text, where):
    """'0:1,1,1; 1:0,2,0' -> {0: [1,1,1], 1: [0,2,0]}"""
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise SchemaError("%s: expected 'index:list' items" % where)
        idx, lst = part.split(":", 1)
        try:
            idx = int(idx)
        except ValueError:
            raise SchemaError("%s: expected an integer index, got %r"
                              % (where, idx.strip())) from None
        if idx in out:
            raise SchemaError("%s: index %d given twice" % (where, idx))
        out[idx] = _parse_int_list(lst, where)
    return out


def corpus_load(path) -> list[CorpusEntry]:
    """The entries of a corpus file; one not readable as UTF-8 text, like a
    malformed entry, raises SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc.strerror)) from None
    except UnicodeDecodeError as exc:
        raise SchemaError("%s is not UTF-8 text (byte %d)"
                          % (path, exc.start)) from None
    entries = []
    cur_name = None
    fields: dict = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "entry":
            if cur_name is not None:
                raise SchemaError("line %d: nested entry %r" % (lineno, rest))
            if not rest:
                raise SchemaError("line %d: entry needs a name" % lineno)
            cur_name, fields = rest, {}
        elif key == "end":
            if cur_name is None:
                raise SchemaError("line %d: end outside an entry" % lineno)
            missing = _REQUIRED - fields.keys()
            if missing:
                raise SchemaError("entry %r: missing field(s) %s"
                                  % (cur_name, ", ".join(sorted(missing))))
            entries.append(_build_entry(cur_name, fields))
            cur_name = None
        elif cur_name is None:
            raise SchemaError("line %d: %r outside an entry" % (lineno, key))
        elif key not in _ENTRY_FIELDS:
            raise SchemaError("entry %r: unknown field %r" % (cur_name, key))
        elif key in fields:
            raise SchemaError("entry %r: duplicate field %r" % (cur_name, key))
        else:
            fields[key] = rest
    if cur_name is not None:
        raise SchemaError("entry %r: missing end" % cur_name)
    return entries


def _build_entry(name, fields) -> CorpusEntry:
    where = "entry %r" % name
    vars = tuple(v.strip() for v in fields["vars"].split(",") if v.strip())
    chars = _parse_int_list(fields["char"], where + ": char")
    expect = {"hilbert": _parse_int_list(fields["hilbert"], where + ": hilbert")}
    if "decomposition" in fields:
        expect["decomposition"] = _parse_indexed_lists(
            fields["decomposition"], where + ": decomposition")
    if "min_gen_orders" in fields:
        expect["min_gen_orders"] = sorted(
            _parse_int_list(fields["min_gen_orders"], where + ": min_gen_orders"))
    if "ideal_gens" in fields:
        expect["ideal_gens"] = [g.strip() for g in fields["ideal_gens"].split(";")
                                if g.strip()]
    if "graded_ideal_gens" in fields:
        expect["graded_ideal_gens"] = [g.strip() for g in
                                       fields["graded_ideal_gens"].split(";")
                                       if g.strip()]
    if "exotic_terms" in fields:
        raw = fields["exotic_terms"].strip()
        expect["exotic_terms"] = ([] if raw == "none" else
                                  [g.strip() for g in raw.split(";") if g.strip()])
    if "q_dual_bases_dims" in fields:
        expect["q_dual_bases_dims"] = _parse_indexed_lists(
            fields["q_dual_bases_dims"], where + ": q_dual_bases_dims")
    return CorpusEntry(name, vars, chars, fields["generator"], expect)


def corpus_verify(entry: CorpusEntry) -> list[dict]:
    """Recompute everything an entry asserts and diff exactly.  Returns one
    report per listed characteristic."""
    # Imported here, not at module level: the parser and renderer above are
    # on every command's start-up path, and only `verify` needs the engine
    # (the sanctioned exception to hoisting imports; ROADMAP item 4).
    from . import apolarity, decomposition, normalform
    reports = []
    for char in entry.chars:
        ring = RingSpec(entry.vars, Field(char))
        mism = []

        def check(field_name, expected, got):
            if expected != got:
                mism.append({"field": field_name, "expected": expected, "got": got})

        f = parse_poly(entry.generator, ring)
        P = apolarity.PartialFiltration(f)
        check("hilbert", tuple(entry.expect["hilbert"]), P.hilbert())
        dec = decomposition.symmetric_decomposition(P)
        if "decomposition" in entry.expect:
            exp = entry.expect["decomposition"]
            want = {a: tuple(h) for a, h in exp.items()}
            got = {a: row for a, row in enumerate(dec.components)}
            if set(want) != set(got):
                check("decomposition.rows", sorted(want), sorted(got))
            else:
                for a in sorted(want):
                    check("decomposition.%d" % a, want[a], got[a])
        if "min_gen_orders" in entry.expect:
            check("min_gen_orders", entry.expect["min_gen_orders"],
                  sorted(apolarity.annihilator(P).orders))
        for key, verify in (
                ("ideal_gens", apolarity.verify_ideal_presentation),
                ("graded_ideal_gens", apolarity.verify_graded_presentation)):
            if key in entry.expect:
                gens = [parse_ps(g, ring, f.degree + 2)
                        for g in entry.expect[key]]
                check(key, True, verify(gens, P))
        if "exotic_terms" in entry.expect:
            report = normalform.detect_exotic(P)
            want = sorted(str(parse_poly(t, ring))
                          for t in entry.expect["exotic_terms"])
            got = sorted(str(t) for _, t in report.exotic_terms)
            check("exotic_terms", want, got)
        if "q_dual_bases_dims" in entry.expect:
            for a, dims in sorted(entry.expect["q_dual_bases_dims"].items()):
                check("q_dual_bases_dims.%d" % a, tuple(dims),
                      decomposition.component_dual_dims(P, a))
        reports.append({"name": entry.name, "char": char,
                        "ok": not mism, "mismatches": mism})
    return reports
