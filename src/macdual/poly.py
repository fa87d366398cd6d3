"""Divided-power polynomials, truncated local-ring elements, and the
contraction action.

The divided power algebra D = k_DP[X_1..X_r] has basis X^[a] = prod X_i^[a_i];
the local ring R = k{x_1..x_r} acts on it by contraction,

    x_i^k o X_i^[K]  =  X_i^[K-k]   (0 when K < k),

extended bilinearly and variable-wise.  No factorial coefficients appear, so
the action is meaningful in every characteristic.  Products inside D are in
the divided-power sense: X^[a] * X^[b] = C(a+b, a) X^[a+b] per variable.

Monomials are exponent tuples.  Two monomial orders are used throughout:
graded-lex with the declared variable order (first variable dominant), with
degrees ascending on the R side and descending on the D side.  The latter
makes the leading (= highest-degree) term of an element the first nonzero
coordinate, so echelon pivots of spaces of partials sit on leading terms.

DPPoly and PSElement share one sparse core, ``_SparsePoly``: storage (the
ring and a dict monomial -> nonzero scalar) and the linear arithmetic (sum,
difference, negation, scaling, equality, coordinate vectors).  Every
accumulating operation here - those, contraction, divided-power products
and powers, linear substitution, series products and composition - sums raw
int/Fraction products into one dict and hands it to ``Field.canon`` once;
the constructors do the same.  This module never looks at how a field
element is stored.

A RingSpec's monomial lists, coordinate indexes and their degrees, the
map from D's columns to R's reversed ones, contraction and multiplication
tables and step tables depend only on (r, degree), not on the variable
names or the field.  They are shared process-wide by every
RingSpec of that shape, within a fixed bound (_TABLE_SHAPES,
_TABLE_MONOMIALS).  The divisor table (each monomial's divisors b, paired
with m - b) is filled on first read of each entry, and one per r serves
every degree whose monomials number at most _TABLE_MONOMIALS.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import product
from math import comb
from operator import add, neg, sub

from .errors import DomainError, RingMismatchError
from .fields import Field
from .linalg import matrix_inverse

MON = tuple  # exponent tuple


def mdeg(m: MON) -> int:
    return sum(m)


def mon_mul(a: MON, b: MON) -> MON:
    return tuple(map(add, a, b))


def _glex_within(m: MON):
    # earlier variables dominate inside a fixed degree
    return tuple(-e for e in m)


def dmon_key(m: MON):
    """Sort key for D-side coordinates: degree descending, then graded-lex;
    the reference order that dmon_index and rendering follow, for tests."""
    return (-mdeg(m), _glex_within(m))


def rmon_key(m: MON):
    """Sort key for R-side coordinates: degree ascending, then graded-lex;
    the reference order that rmon_index and rendering follow, for tests."""
    return (mdeg(m), _glex_within(m))


# Each builder's table lies on the monomials of degree <= top in r variables.
# It keeps its last maxsize tables of at most _TABLE_MONOMIALS monomials (r=4
# to degree 7, r=3 to 11) and its last _LARGE_TABLES larger ones: a dense
# request builds its tables once, and they do not outlive the next one.
_TABLE_SHAPES = 64
_TABLE_MONOMIALS = 400
_LARGE_TABLES = 2

# The largest image table C(r+j+1, r), the monomials of R_{<= j+1}, that a
# dual generator may need (the largest entry of corpus/paper.corpus needs
# 3,876).  The filtration refuses a larger generator, and the parser a
# power X^k whose degree alone needs a larger table, before k! is computed.
MAX_IMAGES = 100_000


def check_image_budget(r: int, j: int):
    """Refuse a dual generator of degree j in r variables whose image
    table, C(r+j+1, r), exceeds MAX_IMAGES."""
    images = comb(r + j + 1, r)
    if images > MAX_IMAGES:
        raise DomainError("generator too large: C(r+j+1, r) = %s images, "
                          "above the budget of %d"
                          % (_numeral(images), MAX_IMAGES))


def _shared(maxsize: int):
    def wrap(build):
        kept = lru_cache(maxsize=maxsize)(build)
        recent = lru_cache(maxsize=_LARGE_TABLES)(build)

        @wraps(build)
        def table(r: int, top: int, *rest):
            small = comb(r + max(top, 0), r) <= _TABLE_MONOMIALS
            return (kept if small else recent)(r, top, *rest)
        table.caches = (kept, recent)
        return table
    return wrap


@_shared(4 * _TABLE_SHAPES)
def monomials_of_degree(r: int, d: int) -> list[MON]:
    """Exponent tuples of length r and degree d, graded-lex; read-only."""
    if r == 1 or d <= 0:
        return [(d,) + (0,) * (r - 1)] if d >= 0 else []
    out = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in monomials_of_degree(r - 1, d - e))
    return out


@_shared(4 * _TABLE_SHAPES)
def _index(r: int, top: int, order: int) -> dict:
    # degrees top..0 (order -1), top alone (order 0) or 0..top (order 1)
    degrees = (range(top, -1, -1), (top,), range(top + 1))[order + 1]
    return {m: i for i, m in enumerate(
        m for d in degrees for m in monomials_of_degree(r, d))}


@_shared(2 * _TABLE_SHAPES)
def _listed(r: int, top: int, order: int) -> tuple:
    # the monomials of _index(r, top, order) in coordinate order, and the
    # degree of each
    index = _index(r, top, order)
    return tuple(index), tuple(map(mdeg, index))


@_shared(_TABLE_SHAPES)
def _dual_columns(r: int, top: int) -> tuple:
    # column c of D_{<= top} -> its monomial's column in R_{<= top+1}, read
    # backwards
    rindex = _index(r, top + 1, 1)
    last = len(rindex) - 1
    return tuple(last - rindex[m] for m in _index(r, top, -1))


@_shared(2 * _TABLE_SHAPES)
def _shift_tables(r: int, top: int, step: int) -> list[dict]:
    # step -1: contraction over dmon_index; step 1: multiplication over
    # rmon_index.  tables[i] maps column c of m to that of m + step*e_i.
    index = _index(r, top, step)
    tabs = [{} for _ in range(r)]
    for m, c in index.items():
        if step < 0 or mdeg(m) < top:
            for i, e in enumerate(m):
                if e + step >= 0:
                    tabs[i][c] = index[m[:i] + (e + step,) + m[i + 1:]]
    return tabs


@_shared(2 * _TABLE_SHAPES)
def _rmon_steps(r: int, top: int) -> memoryview:
    # packed as int64: no Python object per monomial, no module to import
    index = _index(r, top, 1)
    steps = memoryview(bytearray(8 * len(index))).cast("q")
    for m, k in index.items():
        for i, e in enumerate(m):
            if e:
                steps[k] = r * index[m[:i] + (e - 1,) + m[i + 1:]] + i
                break
    return steps.toreadonly()


class _Divisors(dict):
    """m -> (b_0, m - b_0, b_1, m - b_1, ...) over the divisors b of m, each
    entry built on first read.  Flat, with no 2-tuple per pair, and every
    monomial in it is one object per table (interned in ``same``)."""

    __slots__ = ("same",)

    def __init__(self):
        super().__init__()
        self.same = {}

    def __missing__(self, m):
        put = self.same.setdefault
        m = put(m, m)
        self[m] = entry = tuple(
            put(t, t) for b in product(*(range(e + 1) for e in m))
            for t in (b, tuple(map(sub, m, b))))
        return entry


# r -> the divisor table serving every degree whose monomials number at most
# _TABLE_MONOMIALS, so it never holds more entries than that
_divisors_kept: dict = {}


def _divisor_table(r: int, top: int) -> _Divisors:
    if comb(r + top, r) > _TABLE_MONOMIALS:
        return _Divisors()
    table = _divisors_kept.get(r)
    if table is None:
        table = _divisors_kept[r] = _Divisors()
        if len(_divisors_kept) > _TABLE_SHAPES:
            del _divisors_kept[next(iter(_divisors_kept))]
    return table


class RingSpec:
    """Variable names (order fixed) and the coefficient field of R = k{x_i}
    and its dual D = k_DP[X_i].  Its indexings (in coordinate order) and
    tables are shared by every ring of r variables (see _shared): read-only."""

    __slots__ = ("vars", "lvars", "field", "r")

    def __init__(self, vars, field: Field):
        vars = tuple(vars)
        if not vars or any(not v for v in vars):
            raise DomainError("variable names must be nonempty")
        lvars = tuple(v.lower() for v in vars)
        if len(set(vars)) != len(vars) or len(set(lvars)) != len(lvars):
            raise DomainError("variable names must be distinct (case-insensitively)")
        self.vars = vars
        self.lvars = lvars
        self.field = field
        self.r = len(vars)

    def __eq__(self, other):
        return (isinstance(other, RingSpec) and other.vars == self.vars
                and other.field == self.field)

    def __hash__(self):
        return hash((self.vars, self.field))

    def __repr__(self):
        return "RingSpec(%s; char %d)" % (",".join(self.vars), self.field.char)

    def check_same(self, other: "RingSpec"):
        if self != other:
            raise RingMismatchError("ring mismatch: %r vs %r" % (self, other))

    def dim_of_degree(self, i: int) -> int:
        """dim R_i = dim D_i = C(r+i-1, i)."""
        return comb(self.r + i - 1, i) if i >= 0 else 0

    def monomials(self, d: int) -> list[MON]:
        return monomials_of_degree(self.r, d)

    def monomial_index(self, d: int) -> dict:
        """monomial -> position in monomials(d)."""
        return _index(self.r, d, 0)

    def dmon_index(self, maxdeg: int) -> dict:
        """monomial -> coordinate, degrees maxdeg..0, graded-lex inside."""
        return _index(self.r, maxdeg, -1)

    def dmon_list(self, maxdeg: int) -> tuple:
        """(monomials, degrees): the monomials of dmon_index(maxdeg) in
        coordinate order and the degree of each, two tuples."""
        return _listed(self.r, maxdeg, -1)

    def dual_columns(self, maxdeg: int) -> tuple:
        """For each coordinate of dmon_index(maxdeg), the coordinate of its
        monomial in rmon_index(maxdeg + 1) counted from the end, n-1-k: the
        reversed R columns in which linalg.orthogonal reads R o f."""
        return _dual_columns(self.r, maxdeg)

    def contraction_tables(self, maxdeg: int) -> list[dict]:
        """Contraction by each variable on the coordinates of dmon_index:
        tables[i] maps the column of X^a to that of X^(a-e_i) whenever
        a_i > 0, so {tables[i][c]: v for c, v in vec.items() if c in
        tables[i]} is the vector of x_i o g when vec is that of g."""
        return _shift_tables(self.r, maxdeg, -1)

    def rmon_index(self, maxdeg: int) -> dict:
        """monomial -> coordinate, degrees 0..maxdeg, graded-lex inside."""
        return _index(self.r, maxdeg, 1)

    def rmon_list(self, maxdeg: int) -> tuple:
        """(monomials, degrees): the monomials of rmon_index(maxdeg) in
        coordinate order and the degree of each, two tuples."""
        return _listed(self.r, maxdeg, 1)

    def multiplication_tables(self, maxdeg: int) -> list[dict]:
        """Multiplication by each variable on the coordinates of rmon_index,
        truncated above maxdeg: tables[i] maps the column of x^a to that of
        x^(a+e_i) whenever |a| < maxdeg, so {tables[i][c]: v for c, v in
        vec.items() if c in tables[i]} is the vector of x_i * g, terms of
        degree > maxdeg dropped, when vec is that of g."""
        return _shift_tables(self.r, maxdeg, 1)

    def rmon_steps(self, maxdeg: int) -> memoryview:
        """steps[k] = r * prev + i for each coordinate k > 0 of rmon_index:
        i is the first variable of its monomial m, prev the column of m-e_i."""
        return _rmon_steps(self.r, maxdeg)

    def divisor_table(self, maxdeg: int) -> dict:
        """table[m] = (b_0, m - b_0, b_1, m - b_1, ...) over the divisors b
        of m, for monomials m of degree <= maxdeg: x^b o X^[m] = X^[m-b]
        for exactly these b.  Entries are built on first read; the table is
        shared by every ring of r variables while the monomials of degree
        <= maxdeg number at most _TABLE_MONOMIALS, and new on each call
        above that."""
        return _divisor_table(self.r, maxdeg)

    def extend(self, new_vars) -> "RingSpec":
        return RingSpec(self.vars + tuple(new_vars), self.field)

    def subring(self, idxs) -> "RingSpec":
        return RingSpec(tuple(self.vars[i] for i in idxs), self.field)

    # parsing convenience (grammar lives in macdual.io)
    def ps(self, src: str, trunc: int | None = None) -> "PSElement":
        from . import io as _io
        return _io.parse_ps(src, self, trunc)


# CPython caps int <-> str conversion at 4,300 digits by default
# (sys.set_int_max_str_digits); numerals are written and read this many
# digits at a time, so neither rendering nor parsing depends on the cap in
# force
_DIGITS = 4000
_DIGITS_BASE = 10 ** _DIGITS

# monomials whose text _monomial_text keeps: about 160 KB of strings at r = 4
_MONOMIAL_TEXTS = 1024


def _numeral(c) -> str:
    """An int, or a Fraction as numerator/denominator, in decimal."""
    if type(c) is not int:
        return _numeral(c.numerator) + (
            "/" + _numeral(c.denominator) if c.denominator != 1 else "")
    sign, c = ("-", -c) if c < 0 else ("", c)
    chunks = []
    while c >= _DIGITS_BASE:
        c, low = divmod(c, _DIGITS_BASE)
        chunks.append(str(low).zfill(_DIGITS))
    return sign + str(c) + "".join(reversed(chunks))


def natural(digits: str) -> int:
    """The int a string of decimal digits stands for, read _DIGITS digits
    at a time, as _numeral writes them."""
    if len(digits) <= _DIGITS:
        return int(digits)
    head = len(digits) % _DIGITS or _DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _DIGITS):
        n = n * _DIGITS_BASE + int(digits[i:i + _DIGITS])
    return n


@lru_cache(maxsize=_MONOMIAL_TEXTS)
def _monomial_text(names, m, power_bracket) -> str:
    """x^m in the variables names, factors joined by '*'; '' for m = 0."""
    return "*".join(
        name if e == 1 else ("%s^[%s]" if power_bracket else "%s^%s")
        % (name, _numeral(e)) for name, e in zip(names, m) if e)


def _fmt_term(names, coeff, m, power_bracket, one=1):
    body = _monomial_text(names, m, power_bracket)
    if not body:
        return _numeral(coeff)
    if coeff == one:
        return body
    if coeff == -one:
        return "-" + body
    return "%s*%s" % (_numeral(coeff), body)


def _fmt_poly(names, items, power_bracket):
    if not items:
        return "0"
    parts = []
    for m, c in items:
        t = _fmt_term(names, c, m, power_bracket)
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    return "".join(parts)


class _SparsePoly:
    """Sparse map monomial -> nonzero canonical scalar over ring.field: the
    storage and the linear arithmetic shared by DPPoly and PSElement.
    Results are summed raw and canonicalised once, by Field.canon."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs: dict | None = None):
        self.ring = ring
        self.coeffs = ring.field.canon(coeffs) if coeffs else {}

    def _like(self, raw: dict, other=None):
        """An element of self's kind holding raw sums; other is the second
        operand of a binary operation."""
        return type(self)(self.ring, raw)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree of the highest-degree term; None for zero."""
        return max(map(mdeg, self.coeffs)) if self.coeffs else None

    def homogeneous_component(self, d: int):
        return self._like({m: c for m, c in self.coeffs.items()
                           if mdeg(m) == d})

    def is_homogeneous(self) -> bool:
        return len({mdeg(m) for m in self.coeffs}) <= 1

    def _binop(self, other, op):
        self.ring.check_same(other.ring)
        out = dict(self.coeffs)
        get = out.get
        for m, c in other.coeffs.items():
            out[m] = op(get(m, 0), c)
        return self._like(out, other)

    def __add__(self, other):
        return self._binop(other, add)

    def __sub__(self, other):
        return self._binop(other, sub)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return self._like({m: c * a for m, a in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, type(self)) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def vector(self, index: dict) -> dict:
        return {index[m]: c for m, c in self.coeffs.items()}

    @classmethod
    def from_vector(cls, ring: RingSpec, vec: dict, mons: list, *trunc):
        return cls(ring, {mons[i]: c for i, c in vec.items()}, *trunc)


class DPPoly(_SparsePoly):
    """Element of the divided power algebra D; sparse map monomial -> scalar."""

    __slots__ = ()

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def part_from(self, d: int) -> "DPPoly":
        """f_{>=d}: the components of degree at least d."""
        return DPPoly(self.ring,
                      {m: c for m, c in self.coeffs.items() if mdeg(m) >= d})

    def drop_constant(self) -> "DPPoly":
        if self.ring.r * (0,) in self.coeffs:
            c = dict(self.coeffs)
            del c[self.ring.r * (0,)]
            return DPPoly(self.ring, c)
        return self

    def leading_form(self) -> "DPPoly":
        """Highest-degree homogeneous component (lt of the element)."""
        return self.homogeneous_component(self.degree)

    def variables_used(self) -> set[int]:
        used = set()
        for m in self.coeffs:
            used.update(i for i, e in enumerate(m) if e)
        return used

    def embed(self, big: RingSpec) -> "DPPoly":
        """Reinterpret over a ring whose first variables are ours."""
        if big.vars[:self.ring.r] != self.ring.vars:
            raise DomainError("not a prefix extension of %r" % (self.ring,))
        pad = (0,) * (big.r - self.ring.r)
        return DPPoly(big, {m + pad: c for m, c in self.coeffs.items()})

    def restrict(self, sub: RingSpec, idxs) -> "DPPoly":
        out = {}
        idxs = list(idxs)
        keep = set(idxs)
        for m, c in self.coeffs.items():
            if any(e and i not in keep for i, e in enumerate(m)):
                raise DomainError("polynomial involves variables outside the subring")
            out[tuple(m[i] for i in idxs)] = c
        return DPPoly(sub, out)

    def __str__(self):
        # dmon_key order: (degree, m) descending
        c = self.coeffs
        return _fmt_poly(self.ring.vars, [
            (m, c[m]) for _, m in sorted(zip(map(sum, c), c), reverse=True)],
            power_bracket=True)

    __repr__ = __str__


class PSElement(_SparsePoly):
    """Element of R = k{x_1..x_r}, truncated: monomials of degree > trunc are
    dropped on construction and in every product.  A sum or difference keeps
    the smaller truncation of its operands."""

    __slots__ = ("trunc",)

    def __init__(self, ring: RingSpec, coeffs: dict | None = None, trunc: int = 64):
        super().__init__(ring, coeffs and {m: c for m, c in coeffs.items()
                                           if mdeg(m) <= trunc})
        self.trunc = trunc

    def _like(self, raw: dict, other=None):
        return PSElement(self.ring, raw, self.trunc if other is None
                         else min(self.trunc, other.trunc))

    @property
    def order(self):
        """Degree of the lowest-degree term; None for zero."""
        return min(map(mdeg, self.coeffs)) if self.coeffs else None

    def initial_form(self) -> "PSElement":
        return self.homogeneous_component(self.order)

    def mul(self, other: "PSElement", trunc: int | None = None) -> "PSElement":
        self.ring.check_same(other.ring)
        N = min(self.trunc, other.trunc) if trunc is None else trunc
        return PSElement(self.ring, _MonomialImages([other], N).product(
            self.coeffs, 0), N)

    def mul_monomial(self, m: MON, trunc: int | None = None) -> "PSElement":
        N = self.trunc if trunc is None else trunc
        return PSElement(self.ring,
                         {mon_mul(m, m2): c for m2, c in self.coeffs.items()}, N)

    def __str__(self):
        # rmon_key order: (-degree, m) descending
        c = self.coeffs
        return _fmt_poly(self.ring.lvars, [
            (m, c[m]) for _, m in sorted(zip(map(neg, map(sum, c)), c),
                                         reverse=True)],
            power_bracket=False)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the contraction action

def contract_monomial(beta: MON, g: DPPoly) -> DPPoly:
    """x^beta o g."""
    out = {}
    for m, c in g.coeffs.items():
        shifted = tuple(map(sub, m, beta))
        if min(shifted) >= 0:
            out[shifted] = c
    return DPPoly(g.ring, out)


def contract(phi: PSElement, g: DPPoly) -> DPPoly:
    """phi o g for phi in R."""
    phi.ring.check_same(g.ring)
    out: dict = {}
    get = out.get
    for beta, c in phi.coeffs.items():
        for m, a in g.coeffs.items():
            shifted = tuple(map(sub, m, beta))
            if min(shifted) >= 0:
                out[shifted] = get(shifted, 0) + c * a
    return DPPoly(g.ring, out)


def pairing(phi: PSElement, g: DPPoly):
    """<phi, g> = (phi o g)(0) = sum_m phi_m g_m, the apolarity pairing."""
    phi.ring.check_same(g.ring)
    a, b = phi.coeffs, g.coeffs
    if len(a) > len(b):
        a, b = b, a
    return g.ring.field.canon({0: sum(c * b[m] for m, c in a.items()
                                      if m in b)}).get(0, 0)


# ---------------------------------------------------------------------------
# divided power multiplication and substitution

def dp_mul(a: DPPoly, b: DPPoly) -> DPPoly:
    """Product in the divided power sense:
    X^[m] * X^[n] = C(m+n, m) X^[m+n] variable-wise."""
    a.ring.check_same(b.ring)
    out: dict = {}
    get = out.get
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            coef = c1 * c2
            for e1, e2 in zip(m1, m2):
                if e1 and e2:
                    coef *= comb(e1 + e2, e1)
            m = mon_mul(m1, m2)
            out[m] = get(m, 0) + coef
    return DPPoly(a.ring, out)


def dp_power_of_linear(L: DPPoly, k: int) -> DPPoly:
    """L^[k] for a linear form L = sum a_i X_i: divided powers kill the
    multinomial coefficients, so L^[k] = sum_{|alpha|=k} a^alpha X^[alpha]."""
    if not (L.is_zero or (L.degree == 1 and L.is_homogeneous())):
        raise DomainError("divided power of a non-linear form")
    ring = L.ring
    a = [L.coeffs.get(e, 0) for e in ring.monomials(1)]
    out = {}
    for alpha in ring.monomials(k):
        c = 1
        for ai, e in zip(a, alpha):
            if e:
                c *= ai ** e
        out[alpha] = c
    return DPPoly(ring, out)


def linear_substitute(g: DPPoly, M: list[list]) -> DPPoly:
    """Replace X_i by the linear form in column i of M, re-expanding with
    divided-power products.  M must be an invertible r x r matrix."""
    ring = g.ring
    if len(M) != ring.r:
        raise DomainError("substitution matrix is not r x r")
    matrix_inverse(M, ring.field)  # raises DomainError unless invertible
    units = ring.monomials(1)
    cols = [DPPoly(ring, {units[k]: M[k][i] for k in range(ring.r)})
            for i in range(ring.r)]
    one = DPPoly(ring, {ring.r * (0,): 1})
    # cache divided powers of each column image
    pow_cache: dict = {}

    def col_power(i, e):
        if (i, e) not in pow_cache:
            pow_cache[(i, e)] = dp_power_of_linear(cols[i], e)
        return pow_cache[(i, e)]

    out: dict = {}
    get = out.get
    for m, c in g.coeffs.items():
        term = one
        for i, e in enumerate(m):
            if e:
                term = dp_mul(term, col_power(i, e))
        for mm, a in term.coeffs.items():
            out[mm] = get(mm, 0) + c * a
    return DPPoly(ring, out)


# ---------------------------------------------------------------------------
# substitution and inversion on the R side

class _MonomialImages(dict):
    """m -> prod_k images[k]^{m_k} truncated to degree N, a canonical
    coefficient dict built on first read from a smaller monomial's.  Each
    image's terms are sorted by degree once, so one test ends a product row."""

    __slots__ = ("canon", "factors", "N")

    def __init__(self, images: list[PSElement], N: int):
        ring = images[0].ring
        zero = ring.r * (0,)
        super().__init__({zero: {zero: ring.field.one}})
        self.canon = ring.field.canon
        self.factors = [sorted(((sum(m), m, c) for m, c in im.coeffs.items()),
                               key=lambda t: t[0]) for im in images]
        self.N = N

    def __missing__(self, m: MON) -> dict:
        k = max(i for i, e in enumerate(m) if e)
        self[m] = img = self.canon(
            self.product(self[m[:k] + (m[k] - 1,) + m[k + 1:]], k))
        return img

    def product(self, left: dict, k: int) -> dict:
        """left * images[k] as raw sums, terms of degree > N dropped."""
        out: dict = {}
        get = out.get
        for m1, c1 in left.items():
            room = self.N - sum(m1)
            for d2, m2, c2 in self.factors[k]:
                if d2 > room:
                    break
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return out

    def add(self, out: dict, coeffs: dict) -> dict:
        """out plus coeffs(images), summed raw into out and returned."""
        get = out.get
        for m, c in coeffs.items():
            for mm, a in self[m].items():
                out[mm] = get(mm, 0) + c * a
        return out


def ps_compose(phi: PSElement, images: list[PSElement], N: int) -> PSElement:
    """phi(images[0], ..., images[r-1]) truncated to degree N."""
    return ps_compose_all([phi], images, N)[0]


def ps_compose_all(phis: list[PSElement], images: list[PSElement],
                   N: int) -> list[PSElement]:
    """Each phi(images) truncated to degree N, all from one image table."""
    table = _MonomialImages(images, N)
    return [PSElement(phi.ring, table.add({}, phi.coeffs), N) for phi in phis]


def variable_series(ring: RingSpec, i: int, N: int) -> PSElement:
    return PSElement(ring, {ring.monomials(1)[i]: 1}, N)


def linear_part_inverse(images: list[PSElement]) -> list[list]:
    """The inverse of the matrix of linear parts of a substitution; raises
    DomainError unless every image lies in m and the linear parts are
    independent, i.e. unless the substitution is invertible."""
    for im in images:
        if im.order is None or im.order < 1:
            raise DomainError("substitution images must lie in the maximal ideal")
    ring = images[0].ring
    linear = [[im.coeffs.get(u, 0) for im in images] for u in ring.monomials(1)]
    try:
        return matrix_inverse(linear, ring.field)
    except DomainError:
        raise DomainError("dependent linear parts") from None


def ps_compose_inverse(images: list[PSElement], N: int) -> list[PSElement]:
    """The truncated inverse substitution: tau with tau_i(images) = x_i mod
    m^{N+1}, computed degree by degree on coefficient dicts.  Step d adds
    to tau_i terms of degree d only (lin's images are linear) and updates
    the residual tau_i(images) - x_i by them alone, through monomial-image
    tables shared by every step."""
    ring = images[0].ring
    canon = ring.field.canon
    Linv = linear_part_inverse(images)
    units = ring.monomials(1)
    lin_images = [PSElement(ring, {units[k]: Linv[k][i] for k in range(ring.r)},
                            N) for i in range(ring.r)]
    fwd = _MonomialImages(images, N)
    lin = _MonomialImages(lin_images, N)
    taus = []
    for i in range(ring.r):
        tau, resid = {}, {units[i]: -1}
        for d in range(1, N + 1):
            rho = {m: -c for m, c in resid.items() if sum(m) == d}
            if rho:
                step = canon(lin.add({}, rho))
                tau.update(step)
                resid = canon(fwd.add(resid, step))
        taus.append(PSElement(ring, tau, N))
    return taus
