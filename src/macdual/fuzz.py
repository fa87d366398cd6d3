"""Seeded property suites over random generators.

Each suite draws reproducible random instances (a single PRNG per run,
seeded explicitly) at desk scale - up to four variables, socle degree up to
eight, characteristic 0 or 101 - and checks a structural identity on every
draw.  The CLI exposes them under `fuzz --suite NAME`; the acceptance tests
run each suite at its contracted trial count.
"""

from __future__ import annotations

import random

from .apolarity import PartialFiltration, annihilator, hilbert_function
from .constructions import (ExtensionSpec, allowed_component_indices,
                            connected_sum, connected_sum_hilbert,
                            is_a_modification, linear_extension,
                            nonubiquity_fuzz_trial, random_form,
                            random_poly, random_unit,
                            relatively_compressed_modification,
                            restricted_components)
from .decomposition import (component_dims, component_dual_dims,
                            component_generator_degrees,
                            component_sum, dual_component_basis,
                            max_continuation, symmetric_decomposition)
from .errors import DomainError, GenericityError
from .fields import Field
from .linalg import matrix_inverse
from .normalform import (CoordChange, detect_exotic, normalize,
                         split_connected_summand)
from .poly import (DPPoly, PSElement, RingSpec, contract, linear_substitute,
                   mon_mul, pairing, ps_compose, variable_series)

VAR_POOL = ("X", "Y", "Z", "W")


class FuzzReport:
    __slots__ = ("suite", "trials", "seed", "checked", "skipped", "failures",
                 "errors")

    def __init__(self, suite: str, trials: int, seed: int, checked: int = 0,
                 skipped: int = 0, failures: list | None = None,
                 errors: list | None = None):
        self.suite = suite
        self.trials = trials
        self.seed = seed
        self.checked = checked
        self.skipped = skipped
        # a property did not hold
        self.failures = [] if failures is None else failures
        # a trial raised: a bug
        self.errors = [] if errors is None else errors

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def line(self) -> str:
        parts = []
        if self.failures:
            parts.append("FAIL(%d)" % len(self.failures))
        if self.errors:
            parts.append("ERROR(%d)" % len(self.errors))
        status = " ".join(parts) or "ok"
        return "fuzz %-12s seed=%d trials=%d checked=%d skipped=%d %s" % (
            self.suite, self.seed, self.trials, self.checked, self.skipped,
            status)


def _ring(rng, chars=(0, 101), rmax=4):
    char = rng.choice(chars)
    r = rng.randint(2, rmax)
    return RingSpec(VAR_POOL[:r], Field(char))


def _draw(rng, chars=(0, 101), rmax=4, jmax=8, jmin=2):
    ring = _ring(rng, chars, rmax)
    j = rng.randint(jmin, jmax if ring.r <= 3 else min(jmax, 6))
    return random_poly(ring, j, rng, terms=rng.randint(3, 6))


def _run(name, trials, seed, body):
    rng = random.Random(seed)
    rep = FuzzReport(name, trials, seed)
    for t in range(trials):
        try:
            outcome = body(rng)
        except GenericityError:
            rep.skipped += 1
            continue
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            rep.errors.append("trial %d: error: %r" % (t, exc))
            continue
        if outcome is None:
            rep.skipped += 1
        elif outcome is True:
            rep.checked += 1
        else:
            rep.failures.append("trial %d: %s" % (t, outcome))
    return rep


# -- suite bodies -------------------------------------------------------------

def _suite_symmetry(rng):
    f = _draw(rng)
    D = symmetric_decomposition(f)   # symmetry, sum, O-sequence asserted
    top = symmetric_decomposition(f.leading_form())
    if D.components[0] != top.hilbert:
        return "H(0) differs from the Hilbert function of R/Ann(lt f)"
    return True


def _suite_transpose(rng):
    f = _draw(rng)
    P = PartialFiltration(f)
    for a in range(max(P.j - 1, 1)):
        dual = component_dual_dims(P, a)
        primal = component_dims(P, a)
        if primal != tuple(reversed(dual)):
            return "primal/dual transposition broke at a=%d" % a
    return True


def _suite_unit(rng):
    f = _draw(rng)
    u = random_unit(f.ring, rng, f.degree + 2)
    g = contract(u, f)
    if symmetric_decomposition(g).components != \
            symmetric_decomposition(f).components:
        return "decomposition moved under a unit"
    return True


def _suite_partial(rng):
    f = _draw(rng, jmin=3)
    j = f.degree
    a = rng.randint(1, j - 2)
    head = f.part_from(j - a)
    Df = symmetric_decomposition(f)
    Dh = symmetric_decomposition(head)
    for u in range(a + 1):
        if Df.components[u] != Dh.components[u]:
            return "truncation changed H(%d)" % u
    Hh = Dh.hilbert
    total = component_sum(Df.components[:a + 1], j)
    if any(Hh[i] < total[i] for i in range(j + 1)):
        return "truncated Hilbert function dips below the partial sum"
    return True


def _suite_adjoint(rng):
    ring = _ring(rng)
    N = rng.randint(4, 7)
    f = random_poly(ring, N - 1, rng, terms=4)
    images = []
    for i in range(ring.r):
        img = variable_series(ring, i, N)
        extra = random_poly(ring, rng.randint(2, 3), rng, terms=2)
        images.append(img + PSElement(
            ring, {m: c for m, c in extra.coeffs.items() if sum(m) >= 2}, N))
    sigma = CoordChange.from_images(images, N)
    xf = sigma.adjoint_apply(f)
    if xf.degree is not None and xf.degree > (f.degree or 0):
        return "adjoint raised the degree"
    for _ in range(10):
        g = random_poly(ring, rng.randint(1, N - 1), rng, terms=3)
        phi = PSElement(ring, dict(g.coeffs), N)
        lhs = pairing(ps_compose(phi, sigma.images, sigma.trunc), xf)
        rhs = pairing(phi, f)
        if lhs != rhs:
            return "pairing identity failed"
    if symmetric_decomposition(xf).components != \
            symmetric_decomposition(f).components:
        return "decomposition moved under the adjoint"
    return True


def _draw_extension(rng, ring, j) -> ExtensionSpec:
    """f + h_1 Z1 (+ h_2 Z2): dense forms, f of degree j, each h_t of degree
    in 1..j-2."""
    f = random_form(ring, j, rng, 5)
    s = rng.randint(1, 2)
    ks = sorted((rng.randint(1, j - 2) for _ in range(s)), reverse=True)
    hs = [random_form(ring, k, rng, 5) for k in ks]
    return ExtensionSpec(f, hs, tuple("Z%d" % (i + 1) for i in range(s)))


def _suite_allowed(rng):
    ring = _ring(rng, rmax=2)
    spec = _draw_extension(rng, ring, rng.randint(4, 7))
    F = linear_extension(spec)
    D = symmetric_decomposition(F)
    allowed = allowed_component_indices(spec)
    if not D.nonzero_indices() <= allowed:
        return "nonzero component outside the allowed set"
    return True


def _suite_linearz(rng):
    # a non-linear occurrence of the fresh variables in f_{j-a} rules out
    # interior zeroes: once H(a)_1 != 0 the whole row is positive
    rbase = rng.randint(1, 2)
    base = RingSpec(VAR_POOL[:rbase], Field(rng.choice((0, 101))))
    j = rng.randint(5, 7)
    a = rng.randint(1, j - 4)
    ring = RingSpec(base.vars + ("Z1", "Z2")[:rng.randint(1, 2)], base.field)
    head = DPPoly(ring)
    for d in range(j - a + 1, j + 1):
        piece = random_poly(base, d, rng, terms=2).homogeneous_component(d)
        head = head + piece.embed(ring)
    if head.is_zero or head.degree != j:
        head = head + random_form(base, j, rng).embed(ring)
    zidx = rng.randrange(rbase, ring.r)
    mon = [0] * ring.r
    mon[zidx] = 2
    rest = j - a - 2
    mon[rng.randrange(0, rbase)] += rest
    tail = DPPoly(ring, {tuple(mon): ring.field.one}) + \
        random_poly(ring, j - a, rng, terms=2).homogeneous_component(j - a)
    F = head + tail
    if F.degree != j or not F.part_from(j - a + 1).coeffs:
        return None
    D = symmetric_decomposition(F)
    row = D.components[a]
    if row[1] == 0:
        return None
    if any(row[u] == 0 for u in range(1, j - a)):
        return "interior zero despite a nonlinear fresh-variable term"
    return True


def _suite_hfineq(rng):
    f = _draw(rng, jmin=3)
    j = f.degree
    D = symmetric_decomposition(f)
    for a in range(max(j - 1, 1)):
        head = f.part_from(j - a)
        Hh = hilbert_function(head)
        total = component_sum(D.components[:a + 1], j)
        for i in range(j + 1):
            if (Hh[i] if i < len(Hh) else 0) < total[i]:
                return "termwise inequality failed at a=%d, i=%d" % (a, i)
    return True


def _suite_maxprop(rng):
    ring = _ring(rng, chars=(101,), rmax=3)
    j = rng.randint(3, 6)
    f = random_poly(ring, j, rng, terms=4)
    a = rng.randint(1, j - 1)
    check_generation = rng.random() < .4
    P = PartialFiltration(f)
    prefix = [component_dual_dims(P, u) for u in range(a)]
    bound = max_continuation(prefix, a, ring.r, j)
    D = symmetric_decomposition(P)
    tail = [h - v for h, v in zip(D.hilbert, component_sum(prefix, j))]
    if any(t > b for t, b in zip(tail, list(bound) + [0] * len(tail))):
        return "difference exceeded the maximal continuation"
    F, DF = relatively_compressed_modification(f, a, seed=rng.randrange(2 ** 32))
    got = DF.components[a] if a < len(DF.components) else (0,) * (j - a + 1)
    if got != bound:
        return "generic draw missed the maximal continuation"
    if any(any(row) for row in DF.components[a + 1:]):
        return "components above a survive at the maximum"
    if check_generation and a < len(DF.components) and any(got):
        info = component_generator_degrees(
            dual_component_basis(PartialFiltration(F), a))
        if any(d > (j - a + 1) // 2 for d in info["generator_degrees"]):
            return "maximal continuation generated above ceil((j-a)/2)"
    return True


def _suite_codim2_cyclic(rng):
    # in two variables every nonzero component is a cyclic module
    ring = RingSpec(("X", "Y"), Field(rng.choice((0, 101))))
    f = random_poly(ring, rng.randint(2, 7), rng, terms=rng.randint(2, 6))
    P = PartialFiltration(f)
    D = symmetric_decomposition(P)
    for a, row in enumerate(D.components):
        if not any(row):
            continue
        info = component_generator_degrees(dual_component_basis(P, a))
        if not info["cyclic"]:
            return "non-cyclic component in two variables at a=%d" % a
    return True


def _suite_normalize(rng):
    f = _draw(rng, jmin=2, jmax=6)
    g, sigma = normalize(f)
    if detect_exotic(g).has_exotic:
        return "normal form still has exotic terms"
    if symmetric_decomposition(g).components != \
            symmetric_decomposition(f).components:
        return "normal form changed the decomposition"
    g2, _ = normalize(g)
    if g2 != g:
        return "normalization is not idempotent"
    return True


def _suite_split(rng):
    # manufacture an input with H(j-2) = (0, s, 0) by mixing a disjoint
    # quadric into a generator of socle degree >= 4, then hide it
    char = rng.choice((0, 101))
    field = Field(char)
    r1 = rng.randint(1, 2)
    s = rng.randint(1, 2)
    ring = RingSpec(VAR_POOL[:r1 + s], field)
    head_ring = RingSpec(VAR_POOL[:r1], field)
    j = rng.randint(4, 6)
    f1 = random_poly(head_ring, j, rng, terms=3)
    D1 = symmetric_decomposition(f1)
    if any(D1.components[j - 2]):
        return None
    quad = DPPoly(ring)
    for i in range(r1, r1 + s):
        mon = tuple(2 if t == i else 0 for t in range(ring.r))
        quad = quad + DPPoly(ring, {mon: field.from_int(rng.randint(1, 5))})
    F = f1.embed(ring) + quad
    # hide the split with a random invertible linear change
    while True:
        M = [[field.from_int(rng.randint(-2, 2)) for _ in range(ring.r)]
             for _ in range(ring.r)]
        try:
            matrix_inverse(M, field)
            break
        except DomainError:
            continue
    F = linear_substitute(F, M)
    u = random_unit(ring, rng, j + 2)
    F = contract(u, F)
    D = symmetric_decomposition(F)
    if D.components[j - 2] != (0, s, 0):
        return None
    res = split_connected_summand(F)
    used1 = res.summand_main.variables_used()
    used2 = res.summand_quadric.variables_used()
    if used1 & used2:
        return "summands share variables"
    if symmetric_decomposition(res.generator).components != D.components:
        return "splitting changed the decomposition"
    if not _cross_products_annihilate(res.generator, used1, used2):
        return "a cross product fails to annihilate"
    return True


def _cross_products_annihilate(F: DPPoly, left, right) -> bool:
    """True iff x_i x_k lies in Ann F for every i in left and k in right."""
    I = annihilator(F)
    ring = F.ring
    x = ring.monomials(1)
    return all(I.contains(PSElement(ring, {mon_mul(x[i], x[k]): ring.field.one},
                                    F.degree + 1))
               for i in left for k in right)


def _suite_consum(rng):
    char = rng.choice((0, 101))
    field = Field(char)
    r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
    ring1 = RingSpec(VAR_POOL[:r1], field)
    ring2 = RingSpec(tuple(v + "2" for v in VAR_POOL[:r2]), field)
    f1 = random_poly(ring1, rng.randint(2, 5), rng, terms=3)
    f2 = random_poly(ring2, rng.randint(2, 5), rng, terms=3)
    F, _ = connected_sum(f1, f2)
    H = hilbert_function(F)
    want = connected_sum_hilbert(hilbert_function(f1), hilbert_function(f2))
    if H != want:
        return "connected-sum Hilbert function formula failed"
    if not _cross_products_annihilate(F, range(r1), range(r1, r1 + r2)):
        return "cross product missing from the annihilator"
    return True


def _suite_restricted(rng):
    r = rng.randint(2, 3)
    ring = RingSpec(VAR_POOL[:r], Field(rng.choice((0, 101))))
    spec = _draw_extension(rng, ring, rng.randint(4, 6 if r == 2 else 5))
    restricted_components(spec)  # raises InternalCheckError on mismatch
    return True


def _suite_modification(rng):
    f = _draw(rng, jmin=3)
    j = f.degree
    a = rng.randint(1, j - 1)
    w = random_poly(f.ring, j - a, rng, terms=3)
    g = f + w
    if g.is_zero or g.degree != j:
        return None
    if not is_a_modification(f, g, a):
        return "adding a low tail broke the modification relation"
    if not is_a_modification(g, f, a):
        return "modification relation is not symmetric"
    for b in range(a, 0, -1):
        if not is_a_modification(f, g, b - 1):
            return "monotonicity failed"
    Df, Dg = symmetric_decomposition(f), symmetric_decomposition(g)
    for u in range(min(a, max(j - 1, 1))):
        if Df.components[u] != Dg.components[u]:
            return "low components moved under an a-modification"
    return True


SUITES = {
    "symmetry": _suite_symmetry,
    "transpose": _suite_transpose,
    "unit": _suite_unit,
    "partial": _suite_partial,
    "adjoint": _suite_adjoint,
    "allowed-set": _suite_allowed,
    "linearzlem": _suite_linearz,
    "hfineq": _suite_hfineq,
    "maxprop": _suite_maxprop,
    "normalize": _suite_normalize,
    "split": _suite_split,
    "consum": _suite_consum,
    "restricted": _suite_restricted,
    "modification": _suite_modification,
    "codim2-cyclic": _suite_codim2_cyclic,
    "nonubiquity": nonubiquity_fuzz_trial,
}


def run_suite(name: str, trials: int, seed: int) -> FuzzReport:
    if name not in SUITES:
        raise KeyError("unknown suite %r; choose from %s"
                       % (name, ", ".join(sorted(SUITES))))
    return _run(name, trials, seed, SUITES[name])
