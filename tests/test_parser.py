"""The parser against texts written from known term lists, in both
grammars, and a pinned table of the ParseError message and offset of each
malformed input."""

import random
from math import comb, factorial, prod

import pytest

from macdual.errors import ParseError
from macdual.fields import Field
from macdual.io import parse_poly, parse_ps
from macdual.poly import DPPoly, PSElement, RingSpec

CHARS = [0, 101, 2 ** 61 - 1]
CHAR_IDS = ["Q", "F101", "F61"]
SPACES = ["", "", "", "", " ", "  ", "\t", "\n", " \r\n "]


def _random_terms(rng, r, divided, char):
    """(sign, coefficient, factors) per term: the coefficient None, (a,)
    or (a, b) for a/b; each factor (i, k, kind), kind "bare" (k = 1),
    "bracket" (X^[k]), "power" (X^k) or, in divided mode, a tuple of the
    coefficients of a linear form L for (L)^[k], at most one per term."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.3:
            coeff = None
        elif roll < 0.6:
            coeff = (rng.choice([rng.randint(0, 12), 10 ** 24 + 7]),)
        else:
            den = rng.randint(1, 9)
            coeff = (rng.randint(0, 30), den)
        factors = []
        if coeff is None or rng.random() < 0.8:
            linear = divided and rng.random() < 0.2
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(r)  # variables repeat
                kind = rng.choice(["bare", "power"] +
                                  ["bracket"] * 2 * divided)
                k = 1 if kind == "bare" else rng.randint(0, 6)
                if kind == "power" and char == 101 and rng.random() < 0.1:
                    k = rng.randint(101, 103)  # k! = 0 mod 101
                factors.append((i, k, kind))
            if linear:
                coeffs = tuple(rng.randint(0, 5) for _ in range(r))
                if not any(coeffs):
                    coeffs = (1,) + coeffs[1:]
                factors.insert(rng.randint(0, len(factors)),
                               (None, rng.randint(0, 3), coeffs))
        terms.append((rng.choice([1, -1]), coeff, factors))
    return terms


def _text(rng, names, terms, lead):
    """The terms written out with whitespace drawn between tokens; lead
    writes a leading "+" on a positive first term."""
    toks = []
    for n, (sign, coeff, factors) in enumerate(terms):
        if sign < 0 or n or lead:
            toks.append("-" if sign < 0 else "+")
        if coeff is not None:
            toks += [str(coeff[0])] + (["/", str(coeff[1])] if len(coeff) > 1
                                       else [])
            if factors:
                toks.append("*")
        for m, (i, k, kind) in enumerate(factors):
            if m:
                toks.append("*")
            if i is None:
                body = "+".join("%d*%s" % (a, v)
                                for a, v in zip(kind, names) if a)
                toks += ["(", body, ")", "^", "[", str(k), "]"]
            elif kind == "bare":
                toks.append(names[i])
            elif kind == "bracket":
                toks += [names[i], "^", "[", str(k), "]"]
            else:
                toks += [names[i], "^", str(k)]
    return rng.choice(SPACES) + "".join(t + rng.choice(SPACES) for t in toks)


def _dp_from_terms(ring, terms) -> DPPoly:
    """The DPPoly of a divided-mode term list, from the product rules:
    X^k = k! X^[k], X^[a] X^[b] = C(a+b, a) X^[a+b] and (sum a_i X_i)^[k] =
    sum over |m| = k of a^m X^[m]."""
    f, r = ring.field, ring.r
    raw = {}
    for sign, coeff, factors in terms:
        c = sign * (1 if coeff is None else f.fraction(*coeff)
                    if len(coeff) > 1 else f.from_int(coeff[0]))
        exps, divided, linear = [0] * r, [], [((0,) * r, 1)]
        for i, k, kind in factors:
            if i is None:
                linear = [(m, prod(a ** e for a, e in zip(kind, m)))
                          for m in ring.monomials(k)]
                continue
            exps[i] += k
            if kind != "power":
                divided.append(k)
        c *= prod(map(factorial, exps)) // prod(map(factorial, divided))
        for m, a in linear:
            mon = tuple(x + e for x, e in zip(m, exps))
            raw[mon] = raw.get(mon, 0) + c * a * prod(
                comb(x + e, x) for x, e in zip(m, exps))
    return DPPoly(ring, raw)


def _ps_from_terms(ring, terms, trunc) -> PSElement:
    f, raw = ring.field, {}
    for sign, coeff, factors in terms:
        c = sign * (1 if coeff is None else f.fraction(*coeff)
                    if len(coeff) > 1 else f.from_int(coeff[0]))
        exps = [0] * ring.r
        for i, k, _ in factors:
            exps[i] += k
        mon = tuple(exps)
        raw[mon] = raw.get(mon, 0) + c
    return PSElement(ring, raw, trunc)


def _typed(coeffs):
    return sorted((m, type(v), v) for m, v in coeffs.items())


@pytest.mark.parametrize("char", CHARS, ids=CHAR_IDS)
def test_parsed_texts_match_their_term_lists(char):
    """Seeded random texts in both grammars parse to the element built
    directly from the term list they were written from: a/b coefficients,
    numerals past 2^64, X^k and X^[k] (X^k with k >= p vanishing mod 101),
    repeated variables, whitespace between any two tokens, a leading sign
    and (L)^[k] anywhere in a term."""
    rng = random.Random(3800 + char % 997)
    ring = RingSpec(("X", "Y", "Z"), Field(char))
    for n in range(200):
        terms = _random_terms(rng, ring.r, True, char)
        src = _text(rng, ring.vars, terms, lead=n % 5 == 0)
        assert _typed(parse_poly(src, ring).coeffs) == \
            _typed(_dp_from_terms(ring, terms).coeffs), src
    for n in range(200):
        terms = _random_terms(rng, ring.r, False, char)
        src = _text(rng, ring.lvars, terms, lead=n % 5 == 0)
        trunc = rng.choice([None, 3, 8])
        got = parse_ps(src, ring, trunc)
        want = _ps_from_terms(ring, terms, 64 if trunc is None else trunc)
        assert (got.trunc, _typed(got.coeffs)) == \
            (want.trunc, _typed(want.coeffs)), src


# (grammar, characteristic, text, message, offset), recorded before the
# parser read a whole term per match; variables X, Y, Z
MALFORMED = [
    ("poly", 0, "--X", "expected a factor", 1),
    ("poly", 0, "X+-Y", "expected a factor", 2),
    ("poly", 0, "1/0*X", "division by zero coefficient", 2),
    ("poly", 7, "14/7*Y", "division by zero coefficient", 3),
    ("poly", 0, "3 4*X", "unexpected trailing input", 2),
    ("poly", 0, "X**2", "expected a factor", 2),
    ("ps", 0, "x^[2]", "divided powers are not allowed here", 2),
    ("poly", 0, "X+Q", "unknown variable 'Q'", 2),
    ("poly", 0, "", "expected a factor", 0),
    ("poly", 0, " ", "expected a factor", 1),
    ("poly", 0, "X^", "expected exponent", 2),
    ("poly", 0, "X^[", "expected exponent", 3),
    ("poly", 0, "X^[2", "expected ']'", 4),
    ("poly", 0, "X^[a]", "expected exponent", 3),
    ("poly", 0, "X^[2]Y", "unexpected trailing input", 5),
    ("poly", 0, "(X+Y)^2", "expected '['", 6),
    ("poly", 0, "(X^[2]+Y)^[2]",
     "base of ^[k] must be a homogeneous linear form", 0),
    ("poly", 0, "(0*X)^[2]", "base of ^[k] must be a homogeneous linear form",
     0),
    ("poly", 0, "2*", "expected a factor", 2),
    ("poly", 0, "X)", "unexpected trailing input", 1),
    ("poly", 0, "(X+1)^[2]", "base of ^[k] must be a homogeneous linear form",
     0),
    ("poly", 0, "X^2^3", "unexpected trailing input", 3),
    ("poly", 0, "3/X", "expected denominator", 2),
    ("poly", 0, "3/", "expected denominator", 2),
    ("poly", 0, "X*(", "expected a factor", 3),
    ("poly", 0, "X + 1/0", "division by zero coefficient", 6),
    ("poly", 0, "2X", "unexpected trailing input", 1),
    ("poly", 0, "X^-2", "expected exponent", 2),
    ("poly", 0, "x*y", "unknown variable 'x'", 0),
    ("ps", 0, "X", "unknown variable 'X'", 0),
    ("ps", 0, "(x+y)^[2]", "divided powers are not allowed here", 0),
    ("ps", 0, "x^2*y^[3]", "divided powers are not allowed here", 6),
    ("ps", 0, "1/0", "division by zero coefficient", 2),
    ("poly", 0, "é", "expected a factor", 0),
    ("poly", 0, "X$Y", "unexpected trailing input", 1),
    ("poly", 0, "X\n+", "expected a factor", 3),
    ("poly", 0, "\n", "expected a factor", 1),
    ("poly", 0, "X/2", "unexpected trailing input", 1),
    ("poly", 0, "X*2", "expected a factor", 2),
    ("poly", 0, "2/3/4*X", "unexpected trailing input", 3),
    ("poly", 0, "X^[2]^[3]", "unexpected trailing input", 5),
    ("poly", 101, "Y + 2/202*X", "division by zero coefficient", 6),
    ("ps", 101, "x - 5/0", "division by zero coefficient", 6),
    ("poly", 0, "X * (Y+Z)^[2] * W", "unknown variable 'W'", 16),
    ("poly", 0, "-", "expected a factor", 1),
    ("poly", 0, "X+", "expected a factor", 2),
    ("poly", 0, "(X+Y", "expected ')'", 4),
    ("poly", 0, "(X+Y)^[2", "expected ']'", 8),
    ("poly", 0, "X ^ [ 2 ] *", "expected a factor", 11),
]


@pytest.mark.parametrize("grammar, char, src, message, offset", MALFORMED,
                         ids=[repr(case[2]) for case in MALFORMED])
def test_malformed_inputs_keep_their_message_and_offset(grammar, char, src,
                                                        message, offset):
    ring = RingSpec(("X", "Y", "Z"), Field(char))
    with pytest.raises(ParseError) as info:
        (parse_poly if grammar == "poly" else parse_ps)(src, ring)
    assert (info.value.expected, info.value.offset) == (message, offset)
