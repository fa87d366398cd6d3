"""The symmetric subquotient decomposition of H(A) for A = R/Ann f.

For each a the component H(a) is the Hilbert function of the reflexive
subquotient Q(a) = C(a)/C(a+1) of the associated graded algebra.  Its dual
avatar inside D is computed from the partial filtration:

    Q^v(a)_i  =  P(j-a-i, i) / [ P(j-a-i, i-1) + P(j+1-a-i, i) ],

of dimension count[j-a-i][i] (macdual.apolarity), while the m-adic
("primal") side

    Q(a)_i    =  P(i, j-a-i) / [ P(i, j-a-1-i) + P(i+1, j-a-i) ]

is kept as a redundant cross-check route (the two agree after reversing the
index: Q(a)_i is dual to Q(a)_{j-a-i}).

The decomposition rows satisfy, for every valid input: symmetry about
(j-a)/2, summation to H(A), and Macaulay growth of every partial sum; these
are asserted before a decomposition is returned, so a violation can only be
an arithmetic bug here, never bad input.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

from .apolarity import (PartialFiltration, _hold, _verify_graded,
                        filtration)
from .errors import DomainError, InternalCheckError
from .linalg import Echelon, orthogonal, reversed_columns, rref_rows
from .poly import DPPoly, PSElement, RingSpec


# ---------------------------------------------------------------------------
# component dimensions

def component_dual_dims(P, a: int) -> tuple:
    """H(a) read off the dual side: entry i is
    dim P(j-a-i, i) - dim [P(j-a-i, i-1) + P(j+1-a-i, i)], the number
    count[j-a-i][i] of rows tagged j-a-i of pivot degree i: the other rows
    of the numerator's basis span the denominator."""
    P = filtration(P)
    j = P.j
    if a < 0 or a > j - 1:
        raise DomainError("component index a out of range")
    return tuple(P.count[j - a - i].get(i, 0) for i in range(j - a + 1))


def component_dims(P, a: int) -> tuple:
    """H(a) computed on the m-adic side (honest subspace quotients); equals
    component_dual_dims reversed by i -> j-a-i."""
    P = filtration(P)
    j = P.j
    if a < 0 or a > j - 1:
        raise DomainError("component index a out of range")
    out = []
    for i in range(j - a + 1):
        num = P.dim_partials(i, j - a - i)
        den = Echelon(P.ring.field, P.rows_upto(i, j - a - 1 - i)
                      + P.rows_upto(i + 1, j - a - i))
        out.append(num - den.dim)
    return tuple(out)


# ---------------------------------------------------------------------------
# dual module bases

class QDualModule:
    """Leading-term embodiment of the dual module of Q(a) inside D: one
    canonical echelon basis per degree, together with the data needed to
    contract classes down a degree."""

    __slots__ = ("a", "dims", "bases", "_filtration")

    def __init__(self, a: int, dims: tuple, bases: dict | None = None,
                 _filtration: PartialFiltration | None = None):
        self.a = a
        self.dims = dims
        self.bases = {} if bases is None else bases    # degree -> [DPPoly]
        self._filtration = _filtration

    def basis_polys(self, d: int) -> list:
        return self.bases.get(d, [])


def dual_component_basis(P, a: int) -> QDualModule:
    """Canonical (reduced echelon) bases of the degree-i pieces of the dual
    module, as complements of L(s+1, i) inside L(s, i), s = j-a-i."""
    P = filtration(P)
    j = P.j
    dims = component_dual_dims(P, a)
    mod = QDualModule(a=a, dims=dims, _filtration=P)
    field = P.ring.field
    for i, d in enumerate(dims):
        if d == 0:
            continue
        s = j - a - i
        full = rref_rows(field, P.lt_rows(s, i))
        # rows of a level have distinct pivots, and L(s+1, i) is spanned by
        # a subset of the rows spanning L(s, i): its pivots are those of
        # the reduced basis
        den_pivots = {min(r) for r in P.lt_rows(s + 1, i)}
        comp = [r for r in full if min(r) not in den_pivots]
        if len(comp) != d:
            raise InternalCheckError("dual basis dimension mismatch")
        mons = P.ring.monomials(i)
        mod.bases[i] = [DPPoly.from_vector(P.ring, r, mons) for r in comp]
    return mod


def component_generator_degrees(mod: QDualModule) -> dict:
    """Degrees in which Q(a) needs minimal generators, with multiplicities.

    A class in the degree-i piece of the dual module is a socle class when
    every x_v contracts it to zero in degree i-1.  The dual module carries
    the contraction action of Q(a) itself (regraded by i -> j-a-i), and the
    reflexive pairing matches soc(Q(a)) in degree j-a-i with the minimal
    generators of Q(a) in degree i, so the socle degrees found here are
    exactly the generation degrees of Q(a).

    The socle classes of degree i are counted as d = H(a)_i minus the rank
    of the map sending a class to its contractions (x_v o class)_v, each
    read modulo L(s+2, i-1), s = j-a-i.  The rows of level s with pivot
    degree i lift all of L(s, i); those of level s+1 among them map into
    L(s+2, i-1), so they add no rank, and a lift's part below degree i is
    contracted below degree i-1.  The rank of the degree-(i-1) parts of
    the x_v o row, one block per v, over r copies of L(s+2, i-1) is
    therefore the rank of the map.  Returns
    {"generator_degrees": {degree: count}, "cyclic": bool,
    "generated_in_degree_one": bool}.
    """
    P = mod._filtration
    if P is None:
        raise DomainError("module was built without a filtration")
    j, a = P.j, mod.a
    field = P.ring.field
    tables = P.ring.contraction_tables(j)
    gendeg: dict = {}
    for i, d in enumerate(mod.dims):
        if d == 0:
            continue
        s = j - a - i
        hidx = P.ring.monomial_index(i - 1)
        n = len(hidx)
        within = Echelon(field, P.lt_rows(s + 1, i - 1))
        images = Echelon(field, ({v * n + c: x for c, x in row.items()}
                                 for v in range(len(tables))
                                 for row in P.lt_rows(s + 2, i - 1)))
        seeded = images.dim
        for row in P.rows_of_degree(s, i):
            image: dict = {}
            for v, tab in enumerate(tables):
                part = {hidx[P.dmons[tab[c]]]: x for c, x in row.items()
                        if P.col_deg[c] == i and c in tab}
                if not within.contains(part):
                    raise InternalCheckError("contraction left the module")
                image.update((v * n + c, x) for c, x in part.items())
            if image:
                images.insert(image)
        rank = images.dim - seeded
        if rank > d:
            raise InternalCheckError("contraction rank above the component")
        if rank < d:
            gendeg[i] = d - rank
    total = sum(gendeg.values())
    return {
        "generator_degrees": gendeg,
        "cyclic": total == 1,
        "generated_in_degree_one": set(gendeg) <= {1} and total > 0,
    }


# ---------------------------------------------------------------------------
# the decomposition object

class SymDecomp:
    __slots__ = ("socle_degree", "hilbert", "components", "n_seq", "bases")

    def __init__(self, socle_degree: int, hilbert: tuple, components: tuple,
                 n_seq: tuple, bases: dict | None = None):
        self.socle_degree = socle_degree
        self.hilbert = hilbert
        self.components = components    # components[a] = H(a), length j-a+1
        self.n_seq = n_seq              # n_a = sum_{u<=a} H(u)_1
        self.bases = bases              # a -> QDualModule when requested

    def nonzero_indices(self) -> set:
        return {a for a, row in enumerate(self.components) if any(row)}


def component_sum(rows, j: int) -> list:
    """The entrywise sum of component rows over degrees 0..j."""
    total = [0] * (j + 1)
    for row in rows:
        for i, v in enumerate(row):
            total[i] += v
    return total


def _check_decomposition(j, H, comps):
    for a, row in enumerate(comps):
        if len(row) != j - a + 1:
            raise InternalCheckError("component H(%d) has wrong length" % a)
        if row != row[::-1] or min(row) < 0:
            raise InternalCheckError("component H(%d) is not symmetric" % a)
    if tuple(component_sum(comps, j)) != tuple(H):
        raise InternalCheckError("components do not sum to the Hilbert function")
    partial = [0] * (j + 1)
    for a, row in enumerate(comps):
        if not any(row):
            continue    # the partial sum is unchanged: it passed already
        for i, v in enumerate(row):
            partial[i] += v
        if not is_o_sequence(tuple(partial)):
            raise InternalCheckError("partial sum through a=%d is not an O-sequence" % a)


def symmetric_decomposition(f, with_bases: bool = False) -> SymDecomp:
    """All components H(a), their structural invariants asserted, and the
    dual-module bases when requested."""
    P = filtration(f)
    j = P.j
    if j < 1:
        raise DomainError("socle degree must be at least 1")
    H = P.hilbert()
    a_max = max(j - 2, 0)
    comps = tuple(component_dual_dims(P, a) for a in range(a_max + 1))
    _check_decomposition(j, H, comps)
    n_seq = tuple(accumulate(row[1] if len(row) > 1 else 0 for row in comps))
    bases = None
    if with_bases:
        bases = {a: dual_component_basis(P, a)
                 for a in range(a_max + 1) if any(comps[a])}
    return SymDecomp(j, H, comps, n_seq, bases)


# ---------------------------------------------------------------------------
# numeric predicates on sequences

def macaulay_bound(h: int, i: int) -> int:
    """Macaulay's upper bound h^<i> for the next value of an O-sequence after
    value h in degree i >= 1, via the i-binomial expansion of h."""
    if i < 1:
        raise DomainError("binomial expansion needs i >= 1")
    if h < 0:
        raise DomainError("negative sequence entry")
    parts = []
    rem, d = h, i
    while rem > 0:
        a = d
        while comb(a + 1, d) <= rem:
            a += 1
        parts.append((a, d))
        rem -= comb(a, d)
        d -= 1
    return sum(comb(a + 1, d + 1) for a, d in parts)


def is_o_sequence(H) -> bool:
    """Macaulay growth test: H is the Hilbert function of some standard
    graded algebra (equivalently of R modulo a lex-segment monomial ideal)."""
    H = list(H)
    if not H:
        return True
    if H[0] not in (0, 1):
        return False
    if H[0] == 0:
        return not any(H)
    for i in range(1, len(H) - 1):
        if H[i] < 0 or H[i + 1] > macaulay_bound(H[i], i):
            return False
    return all(v >= 0 for v in H)


def compressed_hilbert(r: int, j: int) -> tuple:
    """Hilbert function of a compressed AG algebra: min(r_i, r_{j-i})."""
    if r < 1 or j < 1:
        raise DomainError("need r, j >= 1")
    return tuple(min(comb(r + i - 1, i), comb(r + j - i - 1, j - i))
                 for i in range(j + 1))


def max_continuation(prefix, a: int, r: int, j: int) -> tuple:
    """The sharp termwise ceiling for H(a) continuing a partial decomposition:
    r_i minus the prefix total below the center (j-a)/2, reflected above it,
    clamped at zero."""
    if a < 1:
        raise DomainError("continuation index a must be >= 1")
    total = [0] * (j + 1)
    for u, row in enumerate(prefix):
        if len(row) != j - u + 1:
            raise DomainError("prefix row %d has wrong length" % u)
        for i, v in enumerate(row):
            if v != row[j - u - i]:
                raise DomainError("prefix row %d is not symmetric" % u)
            total[i] += v
    out = []
    for i in range(j - a + 1):
        if 2 * i <= j - a:
            out.append(max(0, comb(r + i - 1, i) - total[i]))
        else:
            out.append(out[j - a - i])
    return tuple(out)


def overweight_check(decomp: SymDecomp, a: int) -> str:
    """Classify the tail H(A) - sum_{i<=a} H(i): either symmetric about
    (j-a-1)/2 (then it is exactly the next component) or strictly heavier
    below the center.  One branch always holds."""
    j = decomp.socle_degree
    if a < 0 or a > max(j - 2, 0):
        raise DomainError("tail index out of range")
    tail = [h - v for h, v in
            zip(decomp.hilbert, component_sum(decomp.components[:a + 1], j))]
    width = j - a  # tail lives in degrees 0..j-a-1
    if any(tail[width:]):
        raise InternalCheckError("tail extends past degree j-a-1")
    tail = tail[:width]
    if all(tail[k] == tail[width - 1 - k] for k in range(width)):
        return "symmetric-tail"
    low = sum(v for k, v in enumerate(tail) if 2 * k < width - 1)
    high = sum(v for k, v in enumerate(tail) if 2 * k > width - 1)
    if low > high:
        return "overweighted"
    raise InternalCheckError("tail neither symmetric nor overweighted")


# ---------------------------------------------------------------------------
# the graded ideals cutting out the filtration (pullbacks to R), each
# degree read by duality: C(a)_i = L(j-a+1-i, i)^perp in R_i

class GradedIdealData(NamedTuple):
    """Per-degree spaces (graded-lex coordinates of R_d) of a graded ideal of
    R containing m^{j+2}-tails implicitly; degrees 0..j+1."""

    ring: RingSpec
    socle_degree: int
    dims: tuple
    spaces: list                   # degree -> list of canonical rows


def filtration_ideal(f, a: int) -> GradedIdealData:
    """The graded ideal of R whose degree-i piece consists of the initial
    forms of elements h of m^i with h o f of degree at most j-a-i (the
    pullback of the a-th filtration ideal C(a) of the associated graded
    algebra).  Its degree-i piece is the orthogonal of a leading-term space
    that P already holds:

        C(a)_i = L(j-a+1-i, i)^perp  in R_i,

    so dim C(a)_i = r_i - sum_{u<a} H(u)_i, as H(j-t-i)_i = count[t][i]
    counts the rows of L's basis tagged t, for each t >= j-a+1-i.
    """
    P = filtration(f)
    j, ring = P.j, P.ring
    if a < 0 or a > j - 1:
        raise DomainError("filtration index a out of range")
    dims = [ring.dim_of_degree(i) for i in range(j + 2)]
    spaces = [orthogonal(ring.field,
                         reversed_columns(P.lt_rows(j - a + 1 - i, i), n), n)
              for i, n in enumerate(dims)]
    return GradedIdealData(ring, j, tuple(map(len, spaces)), spaces)


def verify_graded_ideal(gens: list[PSElement], data: GradedIdealData) -> bool:
    """True iff the homogeneous gens generate exactly the graded ideal
    described by data, in every degree up to j+1.  data must be an ideal
    held as reduced pivot-one bases, as filtration_ideal returns.  Placed
    in the columns of rmon_index(j+1) they are one such basis of the ideal
    modulo m^{j+2}, checked as I* is (apolarity._verify_graded): each
    generator must have coordinates on it, and the gens must span it
    modulo m times it (graded Nakayama).  Data holding R_0 describe the
    unit ideal C(0) = R, which non-unit generators never generate; they
    are refused as bad input, as unit generators are."""
    if data.dims[0]:
        raise DomainError("the graded ideal holds 1: C(0) = R is the unit "
                          "ideal, generated by no non-unit generators")
    if any(g.order == 0 for g in gens):
        raise DomainError("graded generators must be nonzero, homogeneous, non-units")
    # each degree's basis moved to its columns of rmon_index(j+1)
    at = [0, *accumulate(map(data.ring.dim_of_degree, range(len(data.dims))))]
    rows = [{at[d] + c: v for c, v in row.items()}
            for d, basis in enumerate(data.spaces) for row in basis]
    top = len(data.dims) - 1
    return _verify_graded(gens, data.ring, _hold(data.ring, rows, top), top)
