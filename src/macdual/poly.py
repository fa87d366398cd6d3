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
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, RingMismatchError
from .fields import Field
from .linalg import matrix_inverse

MON = tuple  # exponent tuple


def mdeg(m: MON) -> int:
    return sum(m)


def mon_mul(a: MON, b: MON) -> MON:
    return tuple(x + y for x, y in zip(a, b))


def _glex_within(m: MON):
    # earlier variables dominate inside a fixed degree
    return tuple(-e for e in m)


def dmon_key(m: MON):
    """Sort key for D-side coordinates: degree descending, then graded-lex."""
    return (-mdeg(m), _glex_within(m))


def rmon_key(m: MON):
    """Sort key for R-side coordinates: degree ascending, then graded-lex."""
    return (mdeg(m), _glex_within(m))


def monomials_of_degree(r: int, d: int) -> list[MON]:
    """All exponent tuples of length r and degree d, graded-lex order."""
    if r == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in monomials_of_degree(r - 1, d - e))
    return out


class RingSpec:
    """Variable names (order fixed), the coefficient field, and cached
    monomial indexings shared by R = k{x_i} and its dual D = k_DP[X_i]."""

    __slots__ = ("vars", "lvars", "field", "r", "_dindex", "_rindex", "_hmons",
                 "_hindex")

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
        self._dindex = {}
        self._rindex = {}
        self._hmons = {}
        self._hindex = {}

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
        if d < 0:
            return []
        if d not in self._hmons:
            self._hmons[d] = monomials_of_degree(self.r, d)
        return self._hmons[d]

    def monomial_index(self, d: int) -> dict:
        """monomial -> position in monomials(d)."""
        if d not in self._hindex:
            self._hindex[d] = {m: i for i, m in enumerate(self.monomials(d))}
        return self._hindex[d]

    def dmon_index(self, maxdeg: int) -> dict:
        """monomial -> coordinate, degrees maxdeg..0, graded-lex inside."""
        if maxdeg not in self._dindex:
            mons = [m for d in range(maxdeg, -1, -1) for m in self.monomials(d)]
            self._dindex[maxdeg] = {m: i for i, m in enumerate(mons)}
        return self._dindex[maxdeg]

    def rmon_index(self, maxdeg: int) -> dict:
        """monomial -> coordinate, degrees 0..maxdeg, graded-lex inside."""
        if maxdeg not in self._rindex:
            mons = [m for d in range(maxdeg + 1) for m in self.monomials(d)]
            self._rindex[maxdeg] = {m: i for i, m in enumerate(mons)}
        return self._rindex[maxdeg]

    def extend(self, new_vars) -> "RingSpec":
        return RingSpec(self.vars + tuple(new_vars), self.field)

    def subring(self, idxs) -> "RingSpec":
        return RingSpec(tuple(self.vars[i] for i in idxs), self.field)

    # parsing conveniences (grammar lives in macdual.io)
    def dp(self, src: str) -> "DPPoly":
        from . import io as _io
        return _io.parse_poly(src, self)

    def ps(self, src: str, trunc: int | None = None) -> "PSElement":
        from . import io as _io
        return _io.parse_ps(src, self, trunc)


def _fmt_term(names, coeff, m, power_bracket, one=1):
    factors = []
    for name, e in zip(names, m):
        if e == 0:
            continue
        if e == 1:
            factors.append(name)
        elif power_bracket:
            factors.append("%s^[%d]" % (name, e))
        else:
            factors.append("%s^%d" % (name, e))
    body = "*".join(factors)
    if not body:
        return str(coeff)
    if coeff == one:
        return body
    if coeff == -one:
        return "-" + body
    return "%s*%s" % (coeff, body)


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


class DPPoly:
    """Element of the divided power algebra D; sparse map monomial -> scalar."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs: dict | None = None):
        self.ring = ring
        self.coeffs = {m: c for m, c in (coeffs or {}).items()
                       if not ring.field.is_zero(c)}

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Max degree of a stored monomial; None for the zero polynomial."""
        return max(map(mdeg, self.coeffs)) if self.coeffs else None

    def homogeneous_component(self, d: int) -> "DPPoly":
        return DPPoly(self.ring,
                      {m: c for m, c in self.coeffs.items() if mdeg(m) == d})

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
        if self.is_zero:
            return self
        return self.homogeneous_component(self.degree)

    def variables_used(self) -> set[int]:
        used = set()
        for m in self.coeffs:
            used.update(i for i, e in enumerate(m) if e)
        return used

    def is_homogeneous(self) -> bool:
        degs = {mdeg(m) for m in self.coeffs}
        return len(degs) <= 1

    # -- arithmetic -----------------------------------------------------------

    def _binop(self, other: "DPPoly", op) -> "DPPoly":
        self.ring.check_same(other.ring)
        f = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = op(out.get(m, 0), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return DPPoly(self.ring, out)

    def __add__(self, other):
        return self._binop(other, self.ring.field.add)

    def __sub__(self, other):
        return self._binop(other, self.ring.field.sub)

    def __neg__(self):
        f = self.ring.field
        return DPPoly(self.ring, {m: f.neg(c) for m, c in self.coeffs.items()})

    def scale(self, c) -> "DPPoly":
        f = self.ring.field
        return DPPoly(self.ring, {m: f.mul(c, a) for m, a in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, DPPoly) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    # -- coordinates -----------------------------------------------------------

    def vector(self, index: dict) -> dict:
        return {index[m]: c for m, c in self.coeffs.items()}

    @classmethod
    def from_vector(cls, ring: RingSpec, vec: dict, mons: list) -> "DPPoly":
        return cls(ring, {mons[i]: c for i, c in vec.items()})

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
        items = sorted(self.coeffs.items(), key=lambda kv: dmon_key(kv[0]))
        return _fmt_poly(self.ring.vars, items, power_bracket=True)

    __repr__ = __str__


class PSElement:
    """Element of R = k{x_1..x_r}, truncated: monomials of degree > trunc are
    dropped on construction and in every product."""

    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring: RingSpec, coeffs: dict | None = None, trunc: int = 64):
        self.ring = ring
        self.trunc = trunc
        self.coeffs = {m: c for m, c in (coeffs or {}).items()
                       if not ring.field.is_zero(c) and mdeg(m) <= trunc}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self):
        """Degree of the lowest-degree term; None for zero."""
        return min(map(mdeg, self.coeffs)) if self.coeffs else None

    @property
    def degree(self):
        """Degree of the highest-degree term; None for zero."""
        return max(map(mdeg, self.coeffs)) if self.coeffs else None

    def initial_form(self) -> "PSElement":
        o = self.order
        return PSElement(self.ring,
                         {} if o is None else {m: c for m, c in self.coeffs.items()
                                               if mdeg(m) == o},
                         self.trunc)

    def homogeneous_component(self, d: int) -> "PSElement":
        return PSElement(self.ring,
                         {m: c for m, c in self.coeffs.items() if mdeg(m) == d},
                         self.trunc)

    def is_homogeneous(self) -> bool:
        return len({mdeg(m) for m in self.coeffs}) <= 1

    def _binop(self, other: "PSElement", op) -> "PSElement":
        self.ring.check_same(other.ring)
        f = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = op(out.get(m, 0), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return PSElement(self.ring, out, min(self.trunc, other.trunc))

    def __add__(self, other):
        return self._binop(other, self.ring.field.add)

    def __sub__(self, other):
        return self._binop(other, self.ring.field.sub)

    def __neg__(self):
        f = self.ring.field
        return PSElement(self.ring, {m: f.neg(c) for m, c in self.coeffs.items()},
                         self.trunc)

    def scale(self, c) -> "PSElement":
        f = self.ring.field
        return PSElement(self.ring, {m: f.mul(c, a) for m, a in self.coeffs.items()},
                         self.trunc)

    def mul(self, other: "PSElement", trunc: int | None = None) -> "PSElement":
        self.ring.check_same(other.ring)
        N = min(self.trunc, other.trunc) if trunc is None else trunc
        # other's terms by degree, so one test skips the rest of a row
        right = sorted(((mdeg(m), m, c) for m, c in other.coeffs.items()),
                       key=lambda t: t[0])
        out: dict = {}
        get = out.get
        for m1, c1 in self.coeffs.items():
            room = N - mdeg(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                m = tuple(map(int.__add__, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return PSElement._canonical(self.ring, out, N)

    @classmethod
    def _canonical(cls, ring: RingSpec, raw: dict, trunc: int) -> "PSElement":
        """Wrap raw int/Fraction sums (all of degree <= trunc) as canonical
        field elements, dropping zeros, without the constructor's filter."""
        p = ring.field.char
        el = cls.__new__(cls)
        el.ring = ring
        el.trunc = trunc
        if p:
            el.coeffs = {m: v for m, c in raw.items() if (v := c % p)}
        else:
            el.coeffs = {m: c if c.denominator != 1 else int(c)
                         for m, c in raw.items() if c}
        return el

    def mul_monomial(self, m: MON, trunc: int | None = None) -> "PSElement":
        N = self.trunc if trunc is None else trunc
        d = mdeg(m)
        return PSElement(self.ring,
                         {mon_mul(m, m2): c for m2, c in self.coeffs.items()
                          if mdeg(m2) + d <= N}, N)

    def __eq__(self, other):
        return (isinstance(other, PSElement) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def vector(self, index: dict) -> dict:
        return {index[m]: c for m, c in self.coeffs.items()}

    @classmethod
    def from_vector(cls, ring, vec: dict, mons: list, trunc: int) -> "PSElement":
        return cls(ring, {mons[i]: c for i, c in vec.items()}, trunc)

    def __str__(self):
        items = sorted(self.coeffs.items(), key=lambda kv: rmon_key(kv[0]))
        return _fmt_poly(self.ring.lvars, items, power_bracket=False)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the contraction action

def contract_monomial(beta: MON, g: DPPoly) -> DPPoly:
    """x^beta o g."""
    out = {}
    for m, c in g.coeffs.items():
        shifted = tuple(a - b for a, b in zip(m, beta))
        if min(shifted) >= 0:
            out[shifted] = c
    return DPPoly(g.ring, out)


def contract(phi, g: DPPoly) -> DPPoly:
    """phi o g for phi in R (PSElement or bare exponent tuple)."""
    if isinstance(phi, tuple):
        return contract_monomial(phi, g)
    phi.ring.check_same(g.ring)
    f = g.ring.field
    out: dict = {}
    for beta, c in phi.coeffs.items():
        for m, a in g.coeffs.items():
            shifted = tuple(x - b for x, b in zip(m, beta))
            if min(shifted) >= 0:
                s = f.add(out.get(shifted, 0), f.mul(c, a))
                if f.is_zero(s):
                    out.pop(shifted, None)
                else:
                    out[shifted] = s
    return DPPoly(g.ring, out)


def pairing(phi, g: DPPoly):
    """<phi, g> = (phi o g)(0), the apolarity pairing."""
    zero_mon = g.ring.r * (0,)
    return contract(phi, g).coeffs.get(zero_mon, 0)


# ---------------------------------------------------------------------------
# divided power multiplication and substitution

def dp_mul(a: DPPoly, b: DPPoly) -> DPPoly:
    """Product in the divided power sense:
    X^[m] * X^[n] = C(m+n, m) X^[m+n] variable-wise."""
    a.ring.check_same(b.ring)
    f = a.ring.field
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            coef = f.mul(c1, c2)
            for e1, e2 in zip(m1, m2):
                if e1 and e2:
                    coef = f.mul(coef, f.binomial(e1 + e2, e1))
                if f.is_zero(coef):
                    break
            if f.is_zero(coef):
                continue
            m = mon_mul(m1, m2)
            s = f.add(out.get(m, 0), coef)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return DPPoly(a.ring, out)


def dp_power_of_linear(L: DPPoly, k: int) -> DPPoly:
    """L^[k] for a linear form L = sum a_i X_i: divided powers kill the
    multinomial coefficients, so L^[k] = sum_{|alpha|=k} a^alpha X^[alpha]."""
    if not (L.is_zero or (L.degree == 1 and L.is_homogeneous())):
        raise DomainError("divided power of a non-linear form")
    if k == 0:
        return DPPoly(L.ring, {L.ring.r * (0,): L.ring.field.one})
    if L.is_zero:
        return DPPoly(L.ring)
    f = L.ring.field
    support = sorted(L.variables_used())
    coef = {i: L.coeffs[tuple(1 if t == i else 0 for t in range(L.ring.r))]
            for i in support}
    out: dict = {}

    def rec(pos, left, mon, c):
        if pos == len(support) - 1:
            i = support[pos]
            m = list(mon)
            m[i] = left
            out[tuple(m)] = f.mul(c, f.power(coef[i], left))
            return
        i = support[pos]
        for e in range(left + 1):
            m = list(mon)
            m[i] = e
            rec(pos + 1, left - e, tuple(m), f.mul(c, f.power(coef[i], e)))

    if len(support) == 1:
        i = support[0]
        out[tuple(k if t == i else 0 for t in range(L.ring.r))] = f.power(coef[i], k)
    else:
        rec(0, k, L.ring.r * (0,), f.one)
    return DPPoly(L.ring, out)


def linear_substitute(g: DPPoly, M: list[list]) -> DPPoly:
    """Replace X_i by the linear form in column i of M, re-expanding with
    divided-power products.  M must be invertible."""
    ring = g.ring
    f = ring.field
    matrix_inverse(M, f)  # raises DomainError when singular
    cols = []
    for i in range(ring.r):
        cols.append(DPPoly(ring, {
            tuple(1 if t == k else 0 for t in range(ring.r)): M[k][i]
            for k in range(ring.r) if not f.is_zero(M[k][i])}))
    one = DPPoly(ring, {ring.r * (0,): f.one})
    # cache divided powers of each column image
    pow_cache: dict = {}

    def col_power(i, e):
        if (i, e) not in pow_cache:
            pow_cache[(i, e)] = dp_power_of_linear(cols[i], e)
        return pow_cache[(i, e)]

    out = DPPoly(ring)
    for m, c in g.coeffs.items():
        term = one
        for i, e in enumerate(m):
            if e:
                term = dp_mul(term, col_power(i, e))
        out = out + term.scale(c)
    return out


# ---------------------------------------------------------------------------
# substitution and inversion on the R side

class _MonomialImages:
    """m -> prod_k images[k]^{m_k} truncated to degree N, each monomial's
    image built once from a smaller one and kept for reuse."""

    __slots__ = ("images", "N", "table")

    def __init__(self, images: list[PSElement], N: int):
        ring = images[0].ring
        zero = ring.r * (0,)
        self.images = images
        self.N = N
        self.table = {zero: PSElement(ring, {zero: ring.field.one}, N)}

    def __getitem__(self, m: MON) -> PSElement:
        img = self.table.get(m)
        if img is None:
            k = max(i for i, e in enumerate(m) if e)
            img = self[m[:k] + (m[k] - 1,) + m[k + 1:]].mul(self.images[k],
                                                            self.N)
            self.table[m] = img
        return img

    def compose(self, phi: PSElement) -> PSElement:
        """phi(images) truncated to degree N."""
        out: dict = {}
        get = out.get
        for m, c in phi.coeffs.items():
            for mm, a in self[m].coeffs.items():
                out[mm] = get(mm, 0) + c * a
        return PSElement._canonical(phi.ring, out, self.N)


def ps_compose(phi: PSElement, images: list[PSElement], N: int) -> PSElement:
    """phi(images[0], ..., images[r-1]) truncated to degree N."""
    return _MonomialImages(images, N).compose(phi)


def ps_compose_all(phis: list[PSElement], images: list[PSElement],
                   N: int) -> list[PSElement]:
    """[ps_compose(phi, images, N) for phi in phis], building each monomial
    image once for the whole list."""
    table = _MonomialImages(images, N)
    return [table.compose(phi) for phi in phis]


def variable_series(ring: RingSpec, i: int, N: int) -> PSElement:
    return PSElement(ring, {tuple(1 if t == i else 0 for t in range(ring.r)):
                            ring.field.one}, N)


def linear_parts_matrix(images: list[PSElement]) -> list[list]:
    ring = images[0].ring
    unit_mons = [tuple(1 if t == i else 0 for t in range(ring.r))
                 for i in range(ring.r)]
    return [[images[i].coeffs.get(unit_mons[k], 0) for i in range(ring.r)]
            for k in range(ring.r)]


def linear_part_inverse(images: list[PSElement]) -> list[list]:
    """The inverse of the matrix of linear parts of a substitution; raises
    DomainError unless every image lies in m and the linear parts are
    independent, i.e. unless the substitution is invertible."""
    for im in images:
        if im.order is None or im.order < 1:
            raise DomainError("substitution images must lie in the maximal ideal")
    field = images[0].ring.field
    try:
        return matrix_inverse(linear_parts_matrix(images), field)
    except DomainError:
        raise DomainError("dependent linear parts") from None


def ps_compose_inverse(images: list[PSElement], N: int) -> list[PSElement]:
    """The truncated inverse substitution: tau with tau_i(images) = x_i mod
    m^{N+1}, computed degree by degree.  The residual tau_i(images) - x_i is
    updated by the new terms of tau_i only, from tables of monomial images
    shared by every step."""
    ring = images[0].ring
    f = ring.field
    Linv = linear_part_inverse(images)
    lin_images = []
    for i in range(ring.r):
        lin_images.append(PSElement(ring, {
            tuple(1 if t == k else 0 for t in range(ring.r)): Linv[k][i]
            for k in range(ring.r) if not f.is_zero(Linv[k][i])}, N))
    fwd = _MonomialImages(images, N)
    lin = _MonomialImages(lin_images, N)
    taus = []
    for i in range(ring.r):
        tau = lin_images[i]
        resid = fwd.compose(tau) - variable_series(ring, i, N)
        for d in range(2, N + 1):
            rho = resid.homogeneous_component(d)
            if rho.is_zero:
                continue
            step = lin.compose(rho)
            tau = tau - step
            resid = resid - fwd.compose(step)
        taus.append(tau)
    return taus
