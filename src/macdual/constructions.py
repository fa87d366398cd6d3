"""Constructive procedures on dual generators: a-modifications and their
lifts, relatively compressed modifications, extensions linear in fresh
variables with the allowed-component bookkeeping, connected sums, and the
two-variable ancestor-ideal invariant.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from .apolarity import PartialFiltration, filtration
from .decomposition import (component_dual_dims, max_continuation,
                            symmetric_decomposition)
from .errors import DomainError, GenericityError, InternalCheckError
from .fields import Field
from .linalg import (Echelon, orthogonal, reversed_columns, same_span,
                     solve_linear, vec_axpy)
from .poly import (DPPoly, PSElement, RingSpec, check_image_budget, contract,
                   contract_monomial, dp_mul, dp_power_of_linear, mon_mul)


# ---------------------------------------------------------------------------
# randomness: one seeded generator per invocation, reproducible draws

def random_form(ring: RingSpec, degree: int, rng: random.Random,
                coeff_bound: int = 10) -> DPPoly:
    """Dense homogeneous form with nonzero coefficients: the working notion
    of a generic element at desk scale."""
    field = ring.field
    coeffs = {}
    for m in ring.monomials(degree):
        if field.char:
            coeffs[m] = rng.randrange(1, field.char)
        else:
            c = rng.randint(-coeff_bound, coeff_bound)
            coeffs[m] = c if c else 1
    return DPPoly(ring, coeffs)


def _random_terms(coeffs: dict, ring: RingSpec, top: int, rng: random.Random,
                  terms: int, bound: int) -> dict:
    """coeffs with random values drawn on `terms` distinct monomials of
    degree 1..top; a zero draw leaves its monomial as it was."""
    field = ring.field
    mons = [m for d in range(1, top + 1) for m in ring.monomials(d)]
    for m in rng.sample(mons, min(terms, len(mons))):
        c = (rng.randrange(field.char) if field.char
             else rng.randint(-bound, bound))
        if not field.is_zero(c):
            coeffs[m] = c
    return coeffs


def random_poly(ring: RingSpec, degree: int, rng: random.Random, terms: int = 5,
                coeff_bound: int = 10) -> DPPoly:
    """Sparse polynomial of exact top degree with a few lower terms."""
    lead = {rng.choice(ring.monomials(degree)):
            ring.field.from_int(rng.randint(1, coeff_bound))}
    return DPPoly(ring, _random_terms(lead, ring, degree, rng, terms,
                                      coeff_bound))


def random_unit(ring: RingSpec, rng: random.Random, trunc: int,
                terms: int = 4, coeff_bound: int = 5) -> PSElement:
    coeffs = _random_terms({ring.r * (0,): ring.field.one}, ring, trunc - 1,
                           rng, terms, coeff_bound)
    return PSElement(ring, coeffs, trunc)


# ---------------------------------------------------------------------------
# a-modifications

def is_a_modification(f: DPPoly, g: DPPoly, a: int) -> bool:
    """True iff the annihilators agree inside m^{j+1-a}; tested through the
    dual identity R o f + D_{<= j-a} = R o g + D_{<= j-a}."""
    f.ring.check_same(g.ring)
    f, g = f.drop_constant(), g.drop_constant()
    if f.is_zero or g.is_zero or f.degree != g.degree:
        raise DomainError("modification check needs equal degrees")
    j = f.degree
    if a < 0 or a > j:
        raise DomainError("modification index out of range")
    Pf, Pg = PartialFiltration(f), PartialFiltration(g)
    cut = j - a

    def truncated_rows(P):
        return ({c: x for c, x in row.items() if P.col_deg[c] > cut}
                for row in P.rows)

    return same_span(f.ring.field, truncated_rows(Pf), truncated_rows(Pg))


def lift_to_modification(h: PSElement, f: DPPoly, a: int) -> DPPoly:
    """Produce g = f mod D_{<= j-a} with h o g = 0, by the degreewise
    bootstrap: repeatedly cancel the top of h o g against in(h) o w for a
    homogeneous correction w (contraction by a nonzero form is surjective
    onto each lower degree, so the correction always exists)."""
    f = f.drop_constant()
    ring = f.ring
    h.ring.check_same(ring)
    j = f.degree
    t = h.order
    if t is None or t < 1:
        raise DomainError("lift needs a non-unit element of the maximal ideal")
    r0 = contract(h, f)
    if not r0.is_zero and r0.degree > j - a - t:
        raise DomainError(
            "initial form does not reach the filtration ideal: h o f has "
            "degree %d > %d" % (r0.degree, j - a - t))
    ht = h.initial_form()
    g = f
    while True:
        resid = contract(h, g)
        if resid.is_zero:
            return g
        d_top = resid.degree
        top = resid.homogeneous_component(d_top)
        wd = d_top + t
        # solve in(h) o w = top over the monomials of D_{wd}
        mons = ring.monomials(wd)
        hidx = ring.monomial_index(d_top)
        cols = [contract(ht, DPPoly(ring, {m: ring.field.one})).vector(hidx)
                for m in mons]
        sol = solve_linear(ring.field, cols, top.vector(hidx))
        if sol is None:
            raise InternalCheckError("contraction by the initial form failed "
                                     "to be surjective")
        w = DPPoly(ring, {m: c for m, c in zip(mons, sol)
                          if not ring.field.is_zero(c)})
        g = g - w


def relatively_compressed_modification(f: DPPoly, a: int, seed: int = 0,
                                       coeff_bound: int = 10,
                                       retries: int = 5):
    """f + h with h a random dense form of degree j-a, redrawn until the new
    component H(a) reaches the maximal continuation of the partial
    decomposition of f (and everything above a vanishes)."""
    f = f.drop_constant()
    ring = f.ring
    j = f.degree
    if a < 1 or a > j - 1:
        raise DomainError("modification index a must be in 1..j-1")
    if retries < 1 or coeff_bound < 0:
        raise DomainError("retries must be at least 1, coeff_bound at least 0")
    P = filtration(f)
    prefix = [component_dual_dims(P, u) for u in range(a)]
    target = max_continuation(prefix, a, ring.r, j)
    rng = random.Random(seed)
    for _ in range(retries):
        h = random_form(ring, j - a, rng, coeff_bound)
        F = f + h
        D = symmetric_decomposition(F)
        got = D.components[a] if a < len(D.components) else (0,) * (j - a + 1)
        if got == target and \
                all(not any(row) for row in D.components[a + 1:]):
            return F, D
    raise GenericityError(
        "no draw reached the maximal continuation in %d attempts" % retries)


# ---------------------------------------------------------------------------
# extensions linear in fresh variables; their joint kernels are read by
# duality, {phi in R_e : phi o g in S} = (S^perp o g)^perp

class ExtensionSpec:
    """F = f + sum h_t Z_t with f and all h_t homogeneous in the original
    variables, deg h_t = k_t weakly decreasing, and fresh variables Z_t."""

    __slots__ = ("base", "summands", "z_names", "degrees", "socle_degree",
                 "indices")

    def __init__(self, base: DPPoly, summands: list, z_names: tuple):
        f = base.drop_constant()
        ring = f.ring
        if f.is_zero or not f.is_homogeneous():
            raise DomainError("base generator must be homogeneous and nonzero")
        j = f.degree
        degs = []
        for h in summands:
            h.ring.check_same(ring)
            if h.is_zero or not h.is_homogeneous():
                raise DomainError("summands must be nonzero homogeneous forms")
            degs.append(h.degree)
        if len(degs) != len(z_names) or not degs:
            raise DomainError("one fresh variable per summand is required")
        if any(d1 < d2 for d1, d2 in zip(degs, degs[1:])):
            raise DomainError("summand degrees must be weakly decreasing")
        if degs[0] > j - 2 or degs[-1] < 1:
            raise DomainError("summand degrees must lie in 1..j-2")
        check_image_budget(ring.r + len(z_names), j)
        self.base = f
        self.summands = summands
        self.z_names = z_names
        self.degrees = degs
        self.socle_degree = j
        self.indices = [j - (k + 1) for k in degs]

    @property
    def ring(self):
        return self.base.ring


def _fresh_sum(f: DPPoly, hs: list, z_names: tuple) -> DPPoly:
    """f + sum h_t Z_t over f's ring extended by the fresh variables
    z_names, the h_t taken over f's ring."""
    big = f.ring.extend(z_names)
    F = f.embed(big)
    for t, h in enumerate(hs):
        z = tuple(int(i == t) for i in range(len(z_names)))
        F = F + DPPoly(big, {m + z: c for m, c in h.coeffs.items()})
    return F


def linear_extension(spec: ExtensionSpec) -> DPPoly:
    """The generator F = f + sum h_t Z_t over the enlarged ring."""
    return _fresh_sum(spec.base, spec.summands, spec.z_names)


def allowed_component_indices(spec: ExtensionSpec) -> set:
    """The only component indices that can be nonzero for F: 0, each
    a_t = j - (k_t+1), and the pairwise sums a_{t1} + a_{t2}."""
    out = {0}
    out.update(spec.indices)
    out.update(a1 + a2 for i, a1 in enumerate(spec.indices)
               for a2 in spec.indices[i:])
    return out


def _homogeneous_joint_kernel(ring, e, f, gs, hs):
    """Basis (as monomial-coefficient dicts) of the phi in R_e with phi o f
    in S = R o <gs> and phi o h = 0 for every h in hs, all inputs
    homogeneous.  Both are orthogonality conditions: with d = deg f - e,
    phi o f lies in S iff phi pairs to zero with S_d^perp o f, and
    phi o h = 0 iff it pairs to zero with (R o h)_e.  So the space is the
    degree-e orthogonal of S_d^perp o f + sum (R o h)_e.  S is read in
    degree d alone, from the partials x^b o g with |b| = deg g - d, handed
    to orthogonal unreduced: it reduces them anyway."""
    field = ring.field
    idx = ring.monomial_index(e)
    d = f.degree - e
    didx = ring.monomial_index(d)
    n = len(didx)
    span = [contract_monomial(b, g).vector(didx)
            for g in gs for b in ring.monomials(g.degree - d)]
    images = [contract_monomial(b, f).vector(idx) for b in ring.monomials(d)]
    rows = []
    for psi in orthogonal(field, reversed_columns(span, n), n):
        row = {}
        for c, v in psi.items():
            vec_axpy(field, row, v, images[c])
        rows.append(row)
    rows += [contract_monomial(b, h).vector(idx)
             for h in hs for b in ring.monomials(h.degree - e)]
    mons = ring.monomials(e)
    n = len(mons)
    return [{mons[i]: c for i, c in phi.items()}
            for phi in orthogonal(field, reversed_columns(rows, n), n)]


def restricted_components(spec: ExtensionSpec) -> dict:
    """The per-degree dimensions of the modules B_t and B_{t1,t2} carving up
    every Q^v(u) with u > 0 for F = f + sum h_t Z_t, together with the
    verification that they add up to the computed components.

    Returns {"B": {t: {deg: dim}}, "B_pairs": {(t1, t2): {deg: dim}},
    "components": SymDecomp of F}.
    """
    ring = spec.ring
    f = spec.base
    hs = list(spec.summands)
    s = len(hs)
    j = spec.socle_degree
    F = linear_extension(spec)
    PF = PartialFiltration(F)
    D = symmetric_decomposition(PF)
    bigindex = F.ring.dmon_index(j)
    pad = len(spec.z_names)

    def embed_vec(poly: DPPoly, zslot=None) -> dict:
        zexp = tuple(1 if i == zslot else 0 for i in range(pad))
        return {bigindex[m + zexp]: c for m, c in poly.coeffs.items()}

    @cache
    def joint(t2, t1, e):
        """(theta - sum z_i eta_i) o F = sum_{l >= t1} (theta o h_l) Z_l,
        the zero ones left out, for a basis of the theta in R_e with
        theta o f in R o <h_1..h_t2> that kill h_1..h_t1."""
        out = []
        for theta in _homogeneous_joint_kernel(ring, e, f, hs[:t2], hs[:t1]):
            phi = PSElement(ring, theta, j + 1)
            vec: dict = {}
            for l in range(t1, s):  # disjoint: each l has its own Z_l
                vec.update(embed_vec(contract(phi, hs[l]), zslot=l))
            if vec:
                out.append(vec)
        return out

    # every displayed module element is a partial of F with a known order,
    # so the graded dimensions are new-class counts inside the windows
    # Q^v(u)_d of the filtration of F, taken piece by piece in the order of
    # the direct sum: first the B_t with a_t = u, then the pairs
    B = {t: {} for t in range(1, s + 1)}
    B_pairs = {(t1, t2): {} for t1 in range(1, s + 1)
               for t2 in range(1, s + 1)}
    indices = spec.indices
    for u in range(1, j - 1):
        relevant_single = [t for t in range(1, s + 1) if indices[t - 1] == u]
        relevant_pairs = [(t1, t2) for t1 in range(1, s + 1)
                          for t2 in range(1, s + 1)
                          if indices[t1 - 1] + indices[t2 - 1] == u]
        want = D.components[u] if u < len(D.components) else ()
        if not (relevant_single or relevant_pairs or any(want)):
            continue
        for d in range(j - u + 1):
            sord = j - u - d
            ech = Echelon(ring.field, PF.rows_upto(sord, d - 1)
                          + PF.rows_upto(sord + 1, d))
            counted = 0
            for t in relevant_single:
                got = 0
                for beta in ring.monomials(spec.degrees[t - 1] - d):
                    img = contract_monomial(beta, hs[t - 1])
                    if not img.is_zero and ech.insert(embed_vec(img)):
                        got += 1
                e = j - u - d
                if e >= 1:
                    got += sum(ech.insert(vec) is not None
                               for vec in joint(0, t - 1, e))
                if got:
                    B[t][d] = got
                counted += got
            for (t1, t2) in relevant_pairs:
                kt2 = spec.degrees[t2 - 1]
                e = 2 * j - u - d - kt2 - 1
                if e < 1 or e > j + 1:
                    continue
                # joint(t2-1, t1-1, e) lies in the span already: for its
                # phi = theta - sum_{i<t2} z_i eta_i, phi o F has degree <=
                # k_t1 - e + 1 = d, theta order e = sord + j - k_t2 - 1 >
                # sord and z_i eta_i order sord + k_i - k_t2.  If t2 = 1 or
                # k_{t2-1} > k_t2 (degrees fall weakly), phi o F lies in
                # P(sord+1, d), in the seed; else the pair (t1, t2-1), of
                # the same u and e, ran just before and inserted all of it.
                got = sum(ech.insert(vec) is not None
                          for vec in joint(t2, t1 - 1, e))
                if got:
                    B_pairs[(t1, t2)][d] = got
                counted += got
            expect = want[d] if d < len(want) else 0
            if counted != expect:
                raise InternalCheckError(
                    "component pieces do not add up at u=%d, degree %d "
                    "(%d vs %d)" % (u, d, counted, expect))
    return {"B": B, "B_pairs": B_pairs, "components": D}


# ---------------------------------------------------------------------------
# the non-cyclic construction and the simple deformation

def annihilator_order(f: DPPoly | PartialFiltration) -> int:
    """The order of Ann f: least i with H_i < dim R_i.  f is the dual
    generator or its PartialFiltration."""
    H = filtration(f).hilbert()
    ring = f.ring
    for i, h in enumerate(H):
        if h < ring.dim_of_degree(i):
            return i
    return len(H)


def noncyclic_extension(f: DPPoly, hs: list, z_names=None) -> DPPoly:
    """F = f + sum h_i Z_i where each h_i has degree k = ord(Ann f), the
    leading forms are independent and disjoint from the degree-k leading
    terms of the partials of f.  For homogeneous f the new component sits at
    a = j - (k+1) and equals (0, s, 0, ..., 0, s, 0)."""
    f = f.drop_constant()
    ring = f.ring
    if not hs:
        raise DomainError("at least one summand is required")
    k = None
    for h in hs:
        h.ring.check_same(ring)
        if h.is_zero or (k is not None and h.degree != k):
            raise DomainError("summands must share one degree")
        k = h.degree if k is None else k
    P = PartialFiltration(f)
    korder = annihilator_order(P)
    if korder != k or k < 2:
        raise DomainError("order-of-annihilator: ord Ann f = %d but "
                          "summands have degree %d" % (korder, k))
    s = len(hs)
    if s > ring.dim_of_degree(k) - P.hilbert()[k]:
        raise DomainError("count: s exceeds r_k - H_f(k)")
    hidx = ring.monomial_index(k)
    span = Echelon(ring.field, P.lt_rows(0, k))
    base_dim = span.dim
    for h in hs:
        lt = h.homogeneous_component(k)
        if not span.insert(lt.vector(hidx)):
            raise DomainError("disjointness: a leading form meets the "
                              "degree-%d partials of f" % k)
    if span.dim != base_dim + s:
        raise DomainError("disjointness: leading forms are dependent")
    if z_names is None:
        z_names = tuple("Z%d" % (i + 1) for i in range(s)) if s > 1 else ("Z",)
    return _fresh_sum(f, hs, z_names)


def simple_deformation(f: DPPoly, h: DPPoly, z_name: str = "Z"):
    """F = f + Z^[j] + Z h for homogeneous f with ord(Ann f) = k in
    [3, j-3] and homogeneous h of degree k+1 outside R_{j-k-1} o f.  Returns
    (F, s, a) with a = j-k-2 and s the resulting component width."""
    f = f.drop_constant()
    ring = f.ring
    h.ring.check_same(ring)
    if f.is_zero or not f.is_homogeneous():
        raise DomainError("base generator must be homogeneous")
    j = f.degree
    P = PartialFiltration(f)
    k = annihilator_order(P)
    if not 3 <= k <= j - 3:
        raise DomainError("order-of-annihilator: need 3 <= k <= j-3, got %d" % k)
    if h.is_zero or not h.is_homogeneous() or h.degree != k + 1:
        raise DomainError("deforming form must be homogeneous of degree k+1")
    span = Echelon(ring.field, P.lt_rows(j - k - 1, k + 1))
    if span.contains(h.vector(ring.monomial_index(k + 1))):
        raise DomainError("deforming form is already a partial of f")
    # s = dim (R_1 o h + R_{j-k} o f) / (R_{j-k} o f)
    kidx = ring.monomial_index(k)
    base = Echelon(ring.field, P.lt_rows(j - k, k))
    s = 0
    for mon in ring.monomials(1):
        img = contract_monomial(mon, h)
        if img.is_zero:
            continue
        if base.insert(img.vector(kidx)):
            s += 1
    F = _fresh_sum(f, [h], (z_name,))
    F = F + DPPoly(F.ring, {ring.r * (0,) + (j,): ring.field.one})
    return F, s, j - k - 2


# ---------------------------------------------------------------------------
# connected sums

def connected_sum(f1: DPPoly, f2: DPPoly):
    """Dual generator f1 + f2 over the disjoint union of the two variable
    sets; returns (sum, combined_ring)."""
    r1, r2 = f1.ring, f2.ring
    if r1.field != r2.field:
        raise DomainError("connected sum needs a common coefficient field")
    if set(v.lower() for v in r1.vars) & set(v.lower() for v in r2.vars):
        raise DomainError("variable sets must be disjoint")
    big = r1.extend(r2.vars)
    pad = (0,) * r1.r
    F = f1.embed(big) + DPPoly(big, {pad + m: c for m, c in f2.coeffs.items()})
    return F, big


def connected_sum_hilbert(H1, H2) -> tuple:
    """H = H1 + H2 - (1, 0, ..., 0, 1_{j_min})."""
    j1, j2 = len(H1) - 1, len(H2) - 1
    if j1 < 1 or j2 < 1:
        raise DomainError("summands need socle degree at least 1")
    out = [0] * (max(j1, j2) + 1)
    for i, h in enumerate(H1):
        out[i] += h
    for i, h in enumerate(H2):
        out[i] += h
    out[0] -= 1
    out[min(j1, j2)] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the two-variable ancestor invariant; the colon spaces are read by
# duality, (V : R_k) = (R_k o V^perp)^perp under the pairing of monomial
# coordinates, in which contraction is the adjoint of multiplication

class AncestorData(NamedTuple):
    degree: int
    dim: int
    tau: int
    colon_dims: tuple   # dim (V : R_i) for i = 0..j


def ancestor_data(V: list, j: int) -> AncestorData:
    """tau and the colon-space dimensions of a space of degree-j forms in two
    variables; tau counts the minimal generators of the ancestor ideal and is
    computed by both displayed routes, which must agree."""
    if not V:
        raise DomainError("empty space of forms")
    if j < 1:
        raise DomainError("ancestor invariant needs forms of degree at least 1")
    ring = V[0].ring
    if ring.r != 2:
        raise DomainError("ancestor invariant is defined for two variables")
    for v in V:
        v.ring.check_same(ring)
        if v.is_zero or not v.is_homogeneous() or v.degree != j:
            raise DomainError("forms must be nonzero homogeneous of degree %d" % j)
    field = ring.field
    hidx = ring.monomial_index(j)
    base = Echelon(field, (v.vector(hidx) for v in V))
    dim = base.dim
    # R_1 V
    up = Echelon(field)
    upidx = ring.monomial_index(j + 1)
    mons_j = ring.monomials(j)
    units = ring.monomials(1)
    for row in base.rows:
        for x in units:
            up.insert({upidx[mon_mul(mons_j[c], x)]: val
                       for c, val in row.items()})
    tau_up = up.dim - dim
    # the colon chain by duality: W_0 = V^perp, W_k = R_1 o W_{k-1}, and
    # dim (V : R_k) = r_{j-k} - dim W_k
    colon_dims = [dim]
    W = orthogonal(field, reversed_columns(base.rows, len(hidx)), len(hidx))
    for d in range(j, 0, -1):
        mons, down = ring.monomials(d), ring.monomial_index(d - 1)
        shifts = (contract_monomial(x, DPPoly.from_vector(ring, w, mons))
                  for w in W for x in units)
        W = Echelon(field, (g.vector(down) for g in shifts)).rows
        colon_dims.append(len(down) - len(W))
    tau_down = dim - colon_dims[1]
    if tau_up != tau_down:
        raise InternalCheckError("the two formulas for tau disagree")
    return AncestorData(j, dim, tau_up, tuple(colon_dims))


# ---------------------------------------------------------------------------
# the codimension-four non-ubiquity instance

# the first two components as published; they agree with exact recomputation
NONUBIQUITY_H0 = (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1)
NONUBIQUITY_H1 = (0, 2, 4, 6, 4, 2, 0, 0, 2, 4, 6, 4, 2, 0)
# H(2) and the total recomputed exactly for the printed generator (the
# published third row is not attainable for it: the published h_3 = 10
# forces each degree-12 binary factor form to have h_2 = 3, and a binary
# Gorenstein Hilbert function is min-shaped, so h_3(a) >= 3 and the total
# h_4 = 5 + h_3(a) + h_3(b) >= 11 exceeds the published 9)
NONUBIQUITY_H2 = (0, 0, 0, 0, 4, 7, 8, 7, 4, 0, 0, 0, 0)
NONUBIQUITY_H = (1, 4, 7, 10, 13, 15, 15, 15, 13, 10, 11, 8, 5, 2, 1)


def nonubiquity_instance() -> DPPoly:
    """The explicit socle-degree-14 generator whose first two components
    cannot be completed by any order-two tail without a positive H(2)_6."""
    base = RingSpec(("X", "Y"), Field(0))

    def lin(a, b):
        return DPPoly(base, {(1, 0): a, (0, 1): b})

    f14 = DPPoly(base, {(7, 7): 1})
    a_form = dp_mul(dp_power_of_linear(lin(1, 1), 6),
                    dp_power_of_linear(lin(1, -1), 6))
    b_form = dp_mul(dp_power_of_linear(lin(1, 2), 6),
                    dp_power_of_linear(lin(1, -2), 6))
    return _fresh_sum(f14, [a_form, b_form], ("Z", "W"))


def nonubiquity_instance_check() -> dict:
    """Recompute the decomposition of the explicit instance and diff it
    against the published table."""
    F = nonubiquity_instance()
    D = symmetric_decomposition(F)
    report = {
        "hilbert": D.hilbert,
        "hilbert_ok": D.hilbert == NONUBIQUITY_H,
        "h0_ok": D.components[0] == NONUBIQUITY_H0,
        "h1_ok": D.components[1] == NONUBIQUITY_H1,
        "h2_ok": D.components[2] == NONUBIQUITY_H2,
        "rest_zero": all(not any(row) for row in D.components[3:]),
    }
    report["h2_6_at_least_4"] = D.components[2][6] >= 4
    report["ok"] = all(v for k, v in report.items() if k.endswith("ok")) \
        and report["rest_zero"] and report["h2_6_at_least_4"]
    return report


def nonubiquity_fuzz_trial(rng: random.Random):
    """One random order-two tail G = g + Z a + W b over F_101 matched to the
    published first two components; conforming draws must have H(2)_6 >= 4
    (non-conforming draws are skipped)."""
    base = RingSpec(("X", "Y"), Field(101))
    g = random_form(base, 14, rng)
    a_form = random_form(base, 12, rng)
    b_form = random_form(base, 12, rng)
    G = _fresh_sum(g, [a_form, b_form], ("Z", "W"))
    D = symmetric_decomposition(G)
    if D.components[0] != NONUBIQUITY_H0 or D.components[1] != NONUBIQUITY_H1:
        return None
    if D.components[2][6] < 4:
        return "conforming tail with H(2)_6 = %d" % D.components[2][6]
    return True
