import random
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from macdual.errors import DomainError, RingMismatchError
from macdual.fields import Field
from macdual.io import parse_poly, parse_ps
from macdual.poly import (DPPoly, PSElement, RingSpec, _MonomialImages,
                          contract, contract_monomial, dmon_key,
                          dp_mul, mon_mul, rmon_key, dp_power_of_linear,
                          linear_part_inverse, linear_substitute, pairing,
                          ps_compose, ps_compose_all, ps_compose_inverse,
                          variable_series)


def ring2(char=0):
    return RingSpec(("X", "Y"), Field(char))


def random_dp(ring, rng, maxdeg=4, terms=4):
    mons = [m for d in range(maxdeg + 1) for m in ring.monomials(d)]
    coeffs = {}
    for m in rng.sample(mons, min(terms, len(mons))):
        c = rng.randint(-4, 4)
        if ring.field.char:
            c %= ring.field.char
        if c:
            coeffs[m] = c
    return DPPoly(ring, coeffs)


def random_ps(ring, rng, maxdeg=3, terms=3, trunc=8):
    mons = [m for d in range(maxdeg + 1) for m in ring.monomials(d)]
    coeffs = {}
    for m in rng.sample(mons, min(terms, len(mons))):
        c = rng.randint(-4, 4)
        if ring.field.char:
            c %= ring.field.char
        if c:
            coeffs[m] = c
    return PSElement(ring, coeffs, trunc)


# -- contraction ---------------------------------------------------------------

def test_contract_worked_lines():
    R = ring2()
    f = parse_poly("X^[6]+X^[4]*Y+X^[2]*Y^[2]", R)
    assert contract(R.ps("x^2"), f) == parse_poly("X^[4]+X^[2]*Y+Y^[2]", R)
    assert contract(R.ps("x^2-y"), f) == parse_poly("Y^[2]", R)
    assert contract(R.ps("y"), parse_poly("X^[3]", R)).is_zero


def test_contract_module_axiom_and_bilinearity():
    rng = random.Random(2024)
    for char in (0, 101):
        R = ring2(char)
        for _ in range(40):
            f = random_dp(R, rng)
            phi, psi = random_ps(R, rng), random_ps(R, rng)
            assert contract(phi.mul(psi, 10), f) == contract(phi, contract(psi, f))
            g = random_dp(R, rng)
            assert contract(phi, f + g) == contract(phi, f) + contract(phi, g)
            assert contract(phi + psi, f) == contract(phi, f) + contract(psi, f)


def test_monomial_dual_bases_pairing():
    R = RingSpec(("X", "Y", "Z"), Field(5))
    mons = [m for d in range(4) for m in R.monomials(d)]
    for a in mons:
        for b in mons:
            g = DPPoly(R, {b: R.field.one})
            assert pairing(PSElement(R, {a: R.field.one}, 9), g) == (1 if a == b else 0)


def test_contract_ring_mismatch():
    with pytest.raises(RingMismatchError):
        contract(ring2().ps("x"), parse_poly("X", ring2(7)))


# -- divided power products -------------------------------------------------------

def test_dp_mul_examples():
    R = ring2()
    X2 = parse_poly("X^[2]", R)
    assert dp_mul(X2, X2) == parse_poly("6*X^[4]", R)
    one = parse_poly("1", R)
    f = parse_poly("X^[3]+2*X*Y", R)
    assert dp_mul(one, f) == f


def test_dp_mul_chardep_product():
    # (X+bY)^[2] * (X+cY)^[2] keeps only its X^[2]Y^[2] term in char 3; the
    # cross term XY*XY = 4 X^[2]Y^[2] survives as bc, so the coefficient is
    # b^2 + bc + c^2 (nonzero whenever the two linear forms are independent)
    R = ring2(3)
    for b in (0, 1, 2):
        for c in (0, 1, 2):
            lhs = dp_mul(dp_power_of_linear(parse_poly("X+%d*Y" % b, R), 2),
                         dp_power_of_linear(parse_poly("X+%d*Y" % c, R), 2))
            assert lhs == parse_poly(
                "%d*X^[2]*Y^[2]" % ((b * b + b * c + c * c) % 3), R)
            if b != c:
                assert not lhs.is_zero


def test_dp_mul_commutative_associative_random():
    rng = random.Random(77)
    for char in (0, 101):
        R = ring2(char)
        for _ in range(25):
            a, b, c = (random_dp(R, rng, 3, 3) for _ in range(3))
            assert dp_mul(a, b) == dp_mul(b, a)
            assert dp_mul(dp_mul(a, b), c) == dp_mul(a, dp_mul(b, c))


def test_dp_power_of_linear_examples():
    R = ring2()
    L = parse_poly("X+Y", R)
    p5 = dp_power_of_linear(L, 5)
    assert p5 == parse_poly("+".join("X^[%d]*Y^[%d]" % (i, 5 - i) for i in range(6)), R)
    aX = parse_poly("3*X", R)
    assert dp_power_of_linear(aX, 4) == parse_poly("81*X^[4]", R)
    assert dp_power_of_linear(parse_poly("X+2*Y", R), 2) == \
        parse_poly("X^[2]+2*X*Y+4*Y^[2]", R)
    with pytest.raises(DomainError):
        dp_power_of_linear(parse_poly("X^[2]", R), 2)


def test_dp_power_matches_iterated_product_char0():
    R = ring2()
    rng = random.Random(5)
    for _ in range(10):
        L = DPPoly(R, {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(1, 3)})
        for k in (2, 3, 4):
            prod = L
            for _ in range(k - 1):
                prod = dp_mul(prod, L)
            fact = R.field.from_int(factorial(k))
            assert dp_power_of_linear(L, k).scale(fact) == prod


def test_linear_substitute():
    R = ring2()
    f = parse_poly("X^[2]", R)
    ident = [[1, 0], [0, 1]]
    assert linear_substitute(f, ident) == f
    # X -> X + Y
    M = [[1, 0], [1, 1]]
    assert linear_substitute(f, M) == parse_poly("X^[2]+X*Y+Y^[2]", R)
    with pytest.raises(DomainError):
        linear_substitute(f, [[1, 1], [1, 1]])


def test_linear_substitute_roundtrip_random():
    rng = random.Random(31)
    for char in (0, 101):
        R = ring2(char)
        F = R.field
        for _ in range(15):
            while True:
                M = [[F.from_int(rng.randint(-3, 3)) for _ in range(2)]
                     for _ in range(2)]
                try:
                    from macdual.linalg import matrix_inverse
                    Minv = matrix_inverse(M, F)
                    break
                except DomainError:
                    continue
            f = random_dp(R, rng, 4, 4)
            assert linear_substitute(linear_substitute(f, M), Minv) == f


# -- power series substitution -----------------------------------------------------

def test_ps_compose_inverse_involution_like():
    R = ring2()
    N = 8
    images = [R.ps("x-y^2", N), R.ps("y", N)]
    taus = ps_compose_inverse(images, N)
    assert taus[0] == R.ps("x+y^2", N)
    assert taus[1] == R.ps("y", N)
    ident = ps_compose_inverse([variable_series(R, i, N) for i in range(2)], N)
    assert ident == [variable_series(R, i, N) for i in range(2)]


def test_ps_compose_inverse_random_composition():
    rng = random.Random(13)
    for char in (0, 101):
        R = RingSpec(("X", "Y", "Z"), Field(char))
        N = 6
        for _ in range(8):
            images = []
            perm = rng.sample(range(3), 3)
            for i in range(3):
                coeffs = {tuple(1 if t == perm[i] else 0 for t in range(3)):
                          R.field.one}
                hi = random_ps(R, rng, 3, 2, N)
                img = PSElement(R, coeffs, N) + PSElement(
                    R, {m: c for m, c in hi.coeffs.items() if sum(m) >= 2}, N)
                images.append(img)
            taus = ps_compose_inverse(images, N)
            for i in range(3):
                assert ps_compose(taus[i], images, N) == variable_series(R, i, N)
                assert ps_compose(images[i], taus, N) == variable_series(R, i, N)


def test_ps_mul_truncates_and_stays_canonical():
    R = ring2()
    a = PSElement(R, {(1, 0): Fraction(1, 2), (0, 2): Fraction(1, 3)}, 4)
    b = PSElement(R, {(1, 0): 2, (0, 1): Fraction(3, 2), (3, 0): 5}, 4)
    prod = a.mul(b)
    assert prod == parse_ps("x^2+3/4*x*y+2/3*x*y^2+1/2*y^3+5/2*x^4", R, 4)
    assert type(prod.coeffs[(2, 0)]) is int       # 1/2 * 2, not Fraction(1)
    assert a.mul(b, 2) == parse_ps("x^2+3/4*x*y", R)
    assert a.mul(PSElement(R, {(1, 0): Fraction(2, 3)}, 4)).coeffs == \
        {(2, 0): Fraction(1, 3), (1, 2): Fraction(2, 9)}
    # the x*y terms cancel and are dropped, not stored as zero
    assert parse_ps("x+y", R, 4).mul(parse_ps("x-y", R, 4)).coeffs == \
        {(2, 0): 1, (0, 2): -1}
    F = ring2(7)
    prod = parse_ps("3*x+y", F, 5).mul(parse_ps("5*x-y^2", F, 5))
    assert prod.coeffs == {(2, 0): 1, (1, 1): 5, (1, 2): 4, (0, 3): 6}


def test_ps_compose_inverse_dependent_parts():
    R = ring2()
    with pytest.raises(DomainError):
        ps_compose_inverse([R.ps("x+y", 5), R.ps("x+y+x^2", 5)], 5)


# -- the series layer against its PSElement-based predecessor ----------------------

def ps_mul_reference(a, b, N):
    """PSElement.mul as it ran before the monomial-image table took its
    loop: b's terms sorted by degree on every call, the raw sums handed to
    the PSElement constructor.  A test-only reference."""
    right = sorted(((sum(m), m, c) for m, c in b.coeffs.items()),
                   key=lambda t: t[0])
    out = {}
    for m1, c1 in a.coeffs.items():
        room = N - sum(m1)
        for d2, m2, c2 in right:
            if d2 > room:
                break
            m = mon_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return PSElement(a.ring, out, N)


class MonomialImagesReference:
    """poly._MonomialImages as it ran before its entries became plain
    coefficient dicts: each entry a PSElement, built by ps_mul_reference
    from a smaller one.  A test-only reference."""

    def __init__(self, images, N):
        ring = images[0].ring
        zero = ring.r * (0,)
        self.images = images
        self.N = N
        self.table = {zero: PSElement(ring, {zero: ring.field.one}, N)}

    def __getitem__(self, m):
        img = self.table.get(m)
        if img is None:
            k = max(i for i, e in enumerate(m) if e)
            img = ps_mul_reference(self[m[:k] + (m[k] - 1,) + m[k + 1:]],
                                   self.images[k], self.N)
            self.table[m] = img
        return img

    def compose(self, phi):
        out = {}
        for m, c in phi.coeffs.items():
            for mm, a in self[m].coeffs.items():
                out[mm] = out.get(mm, 0) + c * a
        return PSElement(phi.ring, out, self.N)


def ps_compose_inverse_reference(images, N):
    """ps_compose_inverse as it ran on PSElements: tau_i and the residual
    rebuilt as PSElements at every degree.  A test-only reference."""
    ring = images[0].ring
    Linv = linear_part_inverse(images)
    units = ring.monomials(1)
    lin_images = [PSElement(ring, {units[k]: Linv[k][i] for k in range(ring.r)},
                            N) for i in range(ring.r)]
    fwd = MonomialImagesReference(images, N)
    lin = MonomialImagesReference(lin_images, N)
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


def _items(coeffs):
    # monomials, values, value types and order
    return repr(list(coeffs.items()))


@pytest.mark.parametrize("char", [0, 2, 3, 101])
def test_series_layer_matches_pselement_reference(char):
    rng = random.Random(2200 + char)
    field = Field(char)

    def draw(ring, lo, hi, terms):
        mons = [m for d in range(lo, hi + 1) for m in ring.monomials(d)]
        return {m: _scalar(field, rng)
                for m in rng.sample(mons, min(terms, len(mons)))}

    for r in range(1, 5):
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        units = ring.monomials(1)
        for N in range(1, 9):
            # every image has terms above N; their truncations exceed N too
            wide = N + rng.randint(0, 2)
            perm = rng.sample(range(r), r)
            images = []
            for i in range(r):
                lin = {units[perm[i]]: rng.randrange(1, field.char or 7)}
                if rng.random() < 0.5:
                    lin[units[rng.randrange(r)]] = _scalar(field, rng)
                high = draw(ring, 2, N + 2, rng.randint(1, 4))
                images.append(PSElement(ring, {**lin, **high}, wide))
            phis = [PSElement(ring, draw(ring, 0, N + 1, rng.randint(0, 6)),
                              N + 1) for _ in range(3)]
            table = _MonomialImages(images, N)
            got = ps_compose_all(phis, images, N)
            ref = MonomialImagesReference(images, N)
            for phi, g in zip(phis, got):
                want = ref.compose(phi)
                assert _items(g.coeffs) == _items(want.coeffs), (r, N, phi)
                assert g.trunc == N
                assert _items(ps_compose(phi, images, N).coeffs) == \
                    _items(want.coeffs)
                a, b = rng.sample(images + phis, 2)
                assert _items(a.mul(b, N).coeffs) == \
                    _items(ps_mul_reference(a, b, N).coeffs)
            for m, img in ref.table.items():
                assert _items(table[m]) == _items(img.coeffs), (r, N, m)
            try:
                want = ps_compose_inverse_reference(images, N)
            except DomainError:
                with pytest.raises(DomainError):
                    ps_compose_inverse(images, N)
                continue
            taus = ps_compose_inverse(images, N)
            assert [_items(t.coeffs) for t in taus] == \
                [_items(t.coeffs) for t in want], (r, N)
            assert all(t.trunc == N for t in taus)


def test_poly_structure_helpers():
    R = ring2()
    f = parse_poly("X^[4]+X^[2]*Y+3", R)
    assert f.degree == 4
    assert f.drop_constant() == parse_poly("X^[4]+X^[2]*Y", R)
    assert f.part_from(4) == parse_poly("X^[4]", R)
    assert f.leading_form() == parse_poly("X^[4]", R)
    assert DPPoly(R).degree is None
    assert parse_ps("x^2*y-x^4", R).order == 3
    assert parse_ps("x^2*y-x^4", R).initial_form() == parse_ps("x^2*y", R)


# -- the shared core against a per-operation reference ----------------------
# Every accumulating operation sums raw products and canonicalises once
# (Field.canon).  The oracle below is the per-operation path it replaced:
# each step through Field.add / Field.mul, a zero sum popped at once.

def _ref_accumulate(field, out, m, c):
    s = field.add(out.get(m, 0), c)
    if field.is_zero(s):
        out.pop(m, None)
    else:
        out[m] = s


def _ref_binop(field, a, b, op):
    out = dict(a)
    for m, c in b.items():
        s = op(out.get(m, 0), c)
        if field.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_contract(field, phi, g):
    out = {}
    for beta, c in phi.items():
        for m, a in g.items():
            shifted = tuple(x - b for x, b in zip(m, beta))
            if min(shifted) >= 0:
                _ref_accumulate(field, out, shifted, field.mul(c, a))
    return out


def _ref_dp_mul(field, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            coef = field.mul(c1, c2)
            for e1, e2 in zip(m1, m2):
                coef = field.mul(coef, field.binomial(e1 + e2, e1))
            _ref_accumulate(field, out, tuple(x + y for x, y in zip(m1, m2)),
                            coef)
    return out


def _ref_dp_power_of_linear(ring, L, k):
    field = ring.field
    out = {}
    for alpha in ring.monomials(k):
        c = field.one
        for i, e in enumerate(alpha):
            unit = tuple(int(t == i) for t in range(ring.r))
            c = field.mul(c, field.power(L.get(unit, 0), e))
        if not field.is_zero(c):
            out[alpha] = c
    return out


def _ref_linear_substitute(ring, g, M):
    field = ring.field
    out = {}
    for m, c in g.items():
        term = {ring.r * (0,): field.one}
        for i, e in enumerate(m):
            col = {tuple(int(t == k) for t in range(ring.r)): M[k][i]
                   for k in range(ring.r) if not field.is_zero(M[k][i])}
            term = _ref_dp_mul(field, term,
                               _ref_dp_power_of_linear(ring, col, e))
        for mm, a in term.items():
            _ref_accumulate(field, out, mm, field.mul(c, a))
    return out


def _ref_ps_mul(field, a, b, N):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) <= N:
                _ref_accumulate(field, out, m, field.mul(c1, c2))
    return out


def _ref_ps_compose(ring, phi, images, N):
    field = ring.field
    out = {}
    for m, c in phi.items():
        img = {ring.r * (0,): field.one}
        for k, e in enumerate(m):
            for _ in range(e):
                img = _ref_ps_mul(field, img, images[k], N)
        for mm, a in img.items():
            _ref_accumulate(field, out, mm, field.mul(c, a))
    return out


def _scalar(field, rng):
    if field.char:
        return rng.randrange(field.char)
    if rng.random() < 0.4:
        return field.fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-6, 6)


def _canonical_terms(field, coeffs):
    for c in coeffs.values():
        if c == 0:
            return False
        if field.char:
            if type(c) is not int or not 0 < c < field.char:
                return False
        elif type(c) is not int and c.denominator == 1:
            return False
    return True


@pytest.mark.parametrize("char", [0, 101, 2**61 - 1])
def test_core_matches_per_operation_reference(char):
    rng = random.Random(char % 1000 + 5)
    field = Field(char)
    for trial in range(40):
        ring = RingSpec(("X", "Y", "Z")[:rng.randint(1, 3)], field)
        r = ring.r

        def draw(maxdeg, terms, mindeg=0):
            mons = [m for d in range(mindeg, maxdeg + 1)
                    for m in ring.monomials(d)]
            return {m: _scalar(field, rng)
                    for m in rng.sample(mons, min(terms, len(mons)))}

        def check(got, ref):
            assert got.coeffs == ref, trial
            assert _canonical_terms(field, got.coeffs), (trial, got.coeffs)

        a, b = DPPoly(ring, draw(4, 6)), DPPoly(ring, draw(4, 6))
        A, B = a.coeffs, b.coeffs
        c = _scalar(field, rng)
        check(a + b, _ref_binop(field, A, B, field.add))
        check(a - b, _ref_binop(field, A, B, field.sub))
        check(a - a, {})
        check(b + (-b), {})
        check(-a, {m: field.neg(v) for m, v in A.items()})
        check(a.scale(c), {m: field.mul(c, v) for m, v in A.items()
                           if not field.is_zero(field.mul(c, v))})
        check(dp_mul(a, b), _ref_dp_mul(field, A, B))
        L = DPPoly(ring, draw(1, r, 1))
        for k in range(5):
            check(dp_power_of_linear(L, k),
                  _ref_dp_power_of_linear(ring, L.coeffs, k))
        M = [[_scalar(field, rng) for _ in range(r)] for _ in range(r)]
        try:
            got = linear_substitute(a, M)
        except DomainError:
            got = None
        if got is not None:
            check(got, _ref_linear_substitute(ring, A, M))

        N, N2 = rng.randint(3, 6), rng.randint(3, 6)
        p, q = PSElement(ring, draw(4, 5), N), PSElement(ring, draw(4, 5), N2)
        P, Q = p.coeffs, q.coeffs
        lo = min(N, N2)
        for got, op in ((p + q, field.add), (p - q, field.sub)):
            check(got, {m: v for m, v in _ref_binop(field, P, Q, op).items()
                        if sum(m) <= lo})
            assert got.trunc == lo
        check(-p, {m: field.neg(v) for m, v in P.items()})
        check(p.mul(q), _ref_ps_mul(field, P, Q, lo))
        check(p.mul(q, 2), _ref_ps_mul(field, P, Q, 2))
        check(contract(p, a), _ref_contract(field, P, A))
        images = [PSElement(ring, draw(3, 3, 1), N) for _ in range(r)]
        check(ps_compose(p, images, N),
              _ref_ps_compose(ring, P, [im.coeffs for im in images], N))
        # the constructor canonicalises raw values too
        check(DPPoly(ring, {m: v + char if char else Fraction(v)
                            for m, v in A.items()}), A)


@pytest.mark.parametrize("char", [0, 2, 101, 2**61 - 1])
def test_pairing_is_the_constant_of_the_contraction(char):
    rng = random.Random(char % 1000 + 14)
    field = Field(char)
    for trial in range(200):
        ring = RingSpec(("X", "Y", "Z", "W")[:rng.randint(1, 4)], field)
        mons = [m for d in range(5) for m in ring.monomials(d)]

        def draw(terms):
            return {m: _scalar(field, rng)
                    for m in rng.sample(mons, min(terms, len(mons)))}

        g = DPPoly(ring, draw(rng.randint(0, 12)))
        phi = PSElement(ring, draw(rng.randint(0, 12)), rng.randint(2, 6))
        zero = ring.r * (0,)
        want = contract(phi, g).coeffs.get(zero, 0)
        got = pairing(phi, g)
        assert (got, type(got)) == (want, type(want)), trial
        beta = rng.choice(mons)
        assert g.coeffs.get(beta, 0) == \
            contract_monomial(beta, g).coeffs.get(zero, 0)
    with pytest.raises(RingMismatchError):
        pairing(PSElement(ring2(char), {(1, 0): 1}),
                DPPoly(RingSpec(("X", "Z"), field), {(1, 0): 1}))


# -- ring tables shared by shape -------------------------------------------------

TABLE_BUILDERS = ("monomials_of_degree", "_index", "_shift_tables",
                  "_rmon_steps", "_listed", "_dual_columns", "_divisor_table")


TABLE_CALLS = [("monomials", 3), ("monomials", -1), ("monomial_index", 3),
               ("dmon_index", 4), ("rmon_index", 5), ("contraction_tables", 4),
               ("multiplication_tables", 5), ("rmon_steps", 5),
               ("divisor_table", 5), ("divisor_table", 2), ("dmon_list", 4),
               ("rmon_list", 5), ("dual_columns", 4)]


def test_rings_of_one_shape_share_their_tables():
    a = RingSpec(("X", "Y", "Z"), Field(0))
    b = RingSpec(("U", "V", "W"), Field(101))
    c = RingSpec(("x1", "x2", "x3"), Field(2))
    for name, d in TABLE_CALLS:
        assert getattr(a, name)(d) is getattr(b, name)(d) is \
            getattr(c, name)(d), name
    assert RingSpec(("X", "Y"), Field(0)).dmon_index(4) is not a.dmon_index(4)
    assert not hasattr(a, "__dict__")


def _fresh_tables(monkeypatch, budget=None, count=None):
    """Give every table builder no tables for the test, and count its
    builds: returns built[(name, key)] and last[name], the key each
    builder built last.  budget and count, if given, replace _TABLE_BUDGET
    and _TABLE_COUNT."""
    from collections import Counter
    from macdual import poly

    built, last = Counter(), {}
    for name in TABLE_BUILDERS:
        kept = getattr(poly, name)

        def build(*key, name=name, build=kept.build):
            out = build(*key)
            built[name, key] += 1
            last[name] = key
            return out
        monkeypatch.setattr(kept, "build", build)
        monkeypatch.setattr(kept, "tables", {})
        monkeypatch.setattr(kept, "held", 0)
    if budget is not None:
        monkeypatch.setattr(poly, "_TABLE_BUDGET", budget)
    if count is not None:
        monkeypatch.setattr(poly, "_TABLE_COUNT", count)
    return built, last


def _covered(name, key):
    """The weight of a table: the divisor pairs (b, m - b) of degree at most
    top for the divisor table; else the monomials it lies on, those of
    degree top alone for monomials_of_degree and for _index and _listed of
    order 0, and those of degree at most top for the rest."""
    r, top = key[:2]
    if name == "_divisor_table":
        return comb(2 * r + top, 2 * r)
    if name == "monomials_of_degree" or (name in ("_index", "_listed")
                                         and key[2] == 0):
        return comb(r + top - 1, top)
    return comb(r + top, r)


def _check_tables(last):
    """Each builder weighs what its tables cover, holds at most
    _TABLE_COUNT tables, among them the one it built last, and weighs at
    most _TABLE_BUDGET without that one."""
    from macdual import poly

    for name in TABLE_BUILDERS:
        kept = getattr(poly, name)
        weights = {key: w for key, (_, w) in kept.tables.items()}
        assert kept.held == sum(weights.values()), name
        assert all(w == _covered(name, key)
                   for key, w in weights.items()), name
        assert len(weights) <= poly._TABLE_COUNT, name
        if name in last:
            assert kept.held - weights[last[name]] <= \
                poly._TABLE_BUDGET, name


def _read_request_tables(ring, j):
    """The shared tables a dense request of degree j reads (recorded over a
    dense-modp benchmark period)."""
    ring.monomials(j + 1)
    ring.dmon_list(j)
    ring.rmon_list(j)
    ring.rmon_list(j + 1)
    ring.dual_columns(j)
    ring.contraction_tables(j)
    ring.multiplication_tables(j + 1)
    ring.rmon_steps(j)


def test_heavy_dense_shapes_build_each_large_table_once(monkeypatch):
    """dense-modp cycles four heavy shapes whose tables do not evict each
    other: read twice in turn, each is built once.  _index, the largest
    reader, holds 12 tables of all degrees covering 6,739 monomials."""
    built, last = _fresh_tables(monkeypatch)
    shapes = [(RingSpec(tuple("XYZWUV"[:r]), Field(101)), j)
              for r, j in ((4, 8), (5, 6), (3, 12), (6, 5))]
    for _ in range(2):
        for ring, j in shapes:
            _read_request_tables(ring, j)
            _check_tables(last)
    assert set(built.values()) == {1}
    index = [key for name, key in built
             if name == "_index" and key[2] != 0]
    assert len(index) == 12
    assert sum(comb(r + top, r) for r, top, _ in index) == 6739


def test_large_tables_are_kept_only_briefly(monkeypatch):
    """A table past the budget is built once for the request that reads
    it, however often it is read, and released when the next table is
    built; tables within the budget are not.  With a budget of 1,000:
    comb(4+8, 4) = 495 monomials, comb(4+10, 4) = 1,001, and the degree-12
    monomials alone comb(3+12, 12) = 455."""
    from macdual import poly

    built, last = _fresh_tables(monkeypatch, budget=1000)
    big = RingSpec(tuple("XYZW"), Field(0))
    small = RingSpec(tuple("XYZ"), Field(0))
    tabs = small.multiplication_tables(7)
    kept = big.rmon_index(8)
    for request in range(1, 4):
        first = big.rmon_index(10)
        assert big.rmon_index(10) is first and big.rmon_index(8) is kept
        assert built["_index", (4, 10, 1)] == request
        assert list(first) == sorted(
            (m for d in range(11) for m in big.monomials(d)), key=rmon_key)
        _check_tables(last)
        # the next request builds a table of its own
        if request % 2:
            big.dmon_index(8)
        else:
            big.monomial_index(12)
        assert (4, 10, 1) not in poly._index.tables
        _check_tables(last)
    assert built["_index", (4, 8, 1)] == 1
    assert small.multiplication_tables(7) is tabs


def test_one_variable_lists_of_one_degree_stay_small(monkeypatch, capsys):
    """hilbert of X^[20000] reads the monomials of each degree up to 20,001
    in one variable, one monomial a list: each builder keeps at most
    _TABLE_COUNT of its tables, each list weighs the one monomial it holds,
    the tables of all degrees are built once, and stdout keeps its bytes."""
    import hashlib
    from macdual import poly
    from macdual.cli import main

    built, last = _fresh_tables(monkeypatch)
    assert main(["hilbert", "--vars", "X", "--char", "0", "X^[20000]"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "650268ac1d57ead47aa5b7106dfc0215860313975bf5d8e708cf22c49d4a5fe0")
    _check_tables(last)
    assert len(poly.monomials_of_degree.tables) == poly._TABLE_COUNT
    assert all(w == 1 for _, w in poly.monomials_of_degree.tables.values())
    assert built["_index", (1, 20000, -1)] == 1
    assert built["_index", (1, 20000, 1)] == 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
def test_shared_tables_match_their_definitions(r):
    ring = RingSpec(tuple("XYZWUV"[:r]), Field(0))
    for top in range(7):
        mons = [m for d in range(top + 1) for m in ring.monomials(d)]
        assert list(ring.rmon_index(top)) == sorted(mons, key=rmon_key)
        assert list(ring.dmon_index(top)) == sorted(mons, key=dmon_key)
        for index, (listed, degs) in (
                (ring.dmon_index(top), ring.dmon_list(top)),
                (ring.rmon_index(top), ring.rmon_list(top))):
            assert listed == tuple(index)
            assert degs == tuple(sum(m) for m in index)
        rindex = ring.rmon_index(top + 1)
        assert ring.dual_columns(top) == tuple(
            len(rindex) - 1 - rindex[m] for m in ring.dmon_index(top))
        for index, tables, step in (
                (ring.dmon_index(top), ring.contraction_tables(top), -1),
                (ring.rmon_index(top), ring.multiplication_tables(top), 1)):
            for i, tab in enumerate(tables):
                want = {}
                for m, col in index.items():
                    moved = tuple(e + step if k == i else e
                                  for k, e in enumerate(m))
                    if min(moved) >= 0 and sum(moved) <= top:
                        want[col] = index[moved]
                assert tab == want
        assert ring.monomial_index(top) == \
            {m: k for k, m in enumerate(ring.monomials(top))}
        index, steps = ring.rmon_index(top), ring.rmon_steps(top)
        assert len(steps) == len(index) and steps.readonly
        mons = list(index)
        for k, m in enumerate(mons[1:], 1):
            prev, i = divmod(steps[k], r)
            assert i == next(v for v, e in enumerate(m) if e)
            assert mon_mul(mons[prev], tuple(int(v == i)
                                             for v in range(r))) == m
        # the divisor table pairs each divisor b of m with m - b, one
        # object per monomial; one table per (r, top), which filled holds
        # the comb(2r+top, 2r) pairs it is weighed by
        table = ring.divisor_table(top)
        for m in index:
            flat = table[m]
            assert all(t is table.same[t] for t in flat)
            # prod(m_i + 1) distinct b, each with b + q = m: all divisors
            divs = flat[::2]
            assert len(set(divs)) == len(divs) == prod(e + 1 for e in m)
            assert all(mon_mul(b, q) == m
                       for b, q in zip(divs, flat[1::2]))
        assert all(m is table.same[m] for m in table)
        assert sum(len(flat) // 2 for flat in table.values()) == \
            comb(2 * r + top, 2 * r)
        assert ring.divisor_table(top) is table
        assert top == 0 or ring.divisor_table(top - 1) is not table


def test_shared_tables_unchanged_by_golden_and_corpus_runs(monkeypatch,
                                                           capsys):
    """Every table handed out while the README examples and the paper
    corpus run in process still equals a fresh build afterwards."""
    import test_golden
    from macdual import poly
    from macdual.cli import main

    handed = {}
    for name in TABLE_BUILDERS:
        cached = getattr(poly, name)

        def spy(*key, cached=cached):
            out = cached(*key)
            handed[cached, key, id(out)] = out
            return out
        monkeypatch.setattr(poly, name, spy)
    cases = (test_golden.CASES + test_golden.CASES_MOD_101
             + test_golden.CASES_MOD_P61)
    for argv, expected in cases:
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"
    assert main(["verify", str(corpus), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert len(handed) > 50
    assert any(cached.__name__ == "_divisor_table" for cached, _, _ in handed)
    for (cached, key, _), out in list(handed.items()):
        if cached.__name__ == "_divisor_table":
            assert all(v == poly._Divisors()[m] for m, v in out.items()), key
        else:
            assert out == cached.__wrapped__(*key), (cached.__name__, key)


def test_table_caches_stay_bounded(monkeypatch):
    """Each builder holds at most _TABLE_COUNT tables, weighs what they
    cover and at most its budget besides the table built last, over a
    stream of mixed shapes: one-variable shapes past a count of 16, then
    four-variable ones past a budget of 2,000 entries.  A divisor table
    never holds more pairs than it is weighed by."""
    from macdual import poly

    built, last = _fresh_tables(monkeypatch, count=16)
    small = RingSpec(("X",), Field(0))
    four = RingSpec(tuple("XYZW"), Field(0))
    rng = random.Random(5)

    def read(ring, top, dtop):
        ring.monomial_index(top)
        ring.rmon_index(top)
        ring.contraction_tables(top)
        ring.multiplication_tables(top)
        ring.rmon_steps(top)
        ring.dmon_list(top)
        ring.rmon_list(top)
        ring.dual_columns(top)
        table = ring.divisor_table(dtop)
        for m in ring.rmon_index(dtop):
            table[m]
        assert sum(len(flat) // 2 for flat in table.values()) <= \
            _covered("_divisor_table", (ring.r, dtop))
        _check_tables(last)

    # in one variable, tables for top < 26 weigh at most comb(2+25, 2) =
    # 351 entries each, far inside the budget: the count binds
    for top in range(26):
        read(small, top, top)
    assert all(len(getattr(poly, name).tables) == 16
               for name in TABLE_BUILDERS)
    monkeypatch.setattr(poly, "_TABLE_BUDGET", 2000)
    # comb(4+top, 4) for top = 5..13 runs from 126 to 2,380 monomials, and
    # comb(8+top, 8) for top = 0..6 from 1 to 3,003 divisor pairs
    for _ in range(40):
        read(four, rng.randint(5, 13), rng.randint(0, 6))
    assert max(built.values()) > 1  # the budget did evict
    assert poly._divisor_table.weigh(4, 14) == 319770


@pytest.mark.skipif(not hasattr(__import__("sys"), "set_int_max_str_digits"),
                    reason="no int -> str digit cap in this interpreter")
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rendering_orders_terms_by_the_coordinate_keys(r):
    """str() lists a DPPoly's terms in dmon_key order and a PSElement's in
    rmon_key order, the orders of the coordinate indexes, for every
    monomial of degree <= 5 inserted shuffled.  The same monomials render
    in the names of each ring."""
    from macdual.poly import _fmt_poly
    rng = random.Random(r)
    mons = [m for d in range(6) for m in RingSpec(tuple("XYZW"[:r]),
                                                  Field(0)).monomials(d)]
    rng.shuffle(mons)
    coeffs = {m: rng.choice([-2, -1, 1, 3]) for m in mons}
    for names in ("XYZW", "ABCD"):
        ring = RingSpec(tuple(names[:r]), Field(0))
        assert str(DPPoly(ring, coeffs)) == _fmt_poly(ring.vars, sorted(
            coeffs.items(), key=lambda kv: dmon_key(kv[0])), True)
        assert str(PSElement(ring, coeffs, 6)) == _fmt_poly(
            ring.lvars, sorted(coeffs.items(), key=lambda kv: rmon_key(kv[0])),
            False)
    assert "a^2" in str(PSElement(ring, {(2,) + (0,) * (r - 1): 1}))


def test_huge_exponents_render_and_are_refused_under_the_digit_cap():
    """An exponent of 4,400 digits renders in full, and the filtration
    refuses its generator with DomainError naming the image count in full,
    with the default cap in force."""
    import sys
    from macdual.apolarity import PartialFiltration
    cap = sys.get_int_max_str_digits()
    ring = RingSpec(("X", "Y"), Field(0))
    k = 10 ** 4400 - 1
    try:
        sys.set_int_max_str_digits(4300)
        f = parse_poly("X^[%s]" % ("9" * 4400), ring)
        got = [str(f), str(PSElement(ring, {(0, k): 1}, k + 1))]
        with pytest.raises(DomainError) as err:
            PartialFiltration(f)
        sys.set_int_max_str_digits(0)
        want = ["X^[%d]" % k, "y^%d" % k,
                "= %d images" % ((k + 3) * (k + 2) // 2)]
    finally:
        sys.set_int_max_str_digits(cap)
    assert got == want[:2]
    assert want[2] in str(err.value)


def test_rendering_ignores_the_int_str_digit_cap():
    """Coefficients past CPython's 4,300-digit cap on int -> str render in
    full with the default cap in force, outside the CLI: X^2000 over Q is
    2000! * X^[2000].  Chunk edges, signs and Fractions are checked against
    str() with the cap lifted."""
    import sys
    cap = sys.get_int_max_str_digits()
    Q = RingSpec(("X", "Y"), Field(0))
    big = [10 ** 4000 - 1, 10 ** 4000, 10 ** 8000 + 7, factorial(2000),
           -(10 ** 4000), -factorial(2100)]
    try:
        sys.set_int_max_str_digits(4300)
        got = [str(parse_poly("X^2000", RingSpec(("X",), Field(0))))]
        got += [str(DPPoly(Q, {(1, 0): c, (0, 0): c})) for c in big]
        got.append(str(PSElement(Q, {(0, 2): Fraction(big[2], big[3])})))
        sys.set_int_max_str_digits(0)
        want = ["%d*X^[2000]" % factorial(2000)]
        want += ["%d*X%s%d" % (c, "" if c < 0 else "+", c) for c in big]
        want.append("%s*y^2" % Fraction(big[2], big[3]))
    finally:
        sys.set_int_max_str_digits(cap)
    assert got == want
