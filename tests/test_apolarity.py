import random

import pytest

from macdual.apolarity import (PartialFiltration, annihilator,
                               associated_graded_dims, hilbert_function,
                               verify_graded_presentation,
                               verify_ideal_presentation)
from macdual.errors import DomainError
from macdual.fields import Field
from macdual.io import parse_poly
from macdual.poly import PSElement, RingSpec, contract


def mk(vars, src, char=0):
    R = RingSpec(vars, Field(char))
    return R, parse_poly(src, R)


def random_generator(ring, rng, j, terms=5):
    from macdual.poly import DPPoly
    mons = [m for d in range(1, j + 1) for m in ring.monomials(d)]
    coeffs = {rng.choice(ring.monomials(j)): ring.field.from_int(rng.randint(1, 5))}
    for m in rng.sample(mons, min(terms, len(mons))):
        c = ring.field.from_int(rng.randint(-5, 5))
        if not ring.field.is_zero(c):
            coeffs[m] = c
    return DPPoly(ring, coeffs)


def random_unit(ring, rng, trunc):
    coeffs = {ring.r * (0,): ring.field.one}
    mons = [m for d in range(1, trunc) for m in ring.monomials(d)]
    for m in rng.sample(mons, min(4, len(mons))):
        coeffs[m] = ring.field.from_int(rng.randint(-3, 3))
    return PSElement(ring, coeffs, trunc)


# -- partial filtration --------------------------------------------------------

def test_single_variable_chain():
    R, f = mk(("X",), "X^[3]")
    P = PartialFiltration(f)
    # (m o f)_{<=2} = <X^[2], X, 1>
    assert P.dim_partials(1, 2) == 3
    assert P.dim_partials(0, 3) == 4
    assert P.dim_partials(4, 3) == 0
    assert P.hilbert() == (1, 1, 1, 1)


def test_filtration_rejects_zero():
    R = RingSpec(("X",), Field(0))
    with pytest.raises(DomainError):
        PartialFiltration(parse_poly("7", R))


def test_qdualex_perp_spaces():
    # f = X^[3] + Y^[4]: (0:m^2) o f spans <Y, X, 1>; (0:m) o f spans <Y, 1>
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    P = PartialFiltration(f)
    # W(2,3)^perp = K(2,3) o f = (m^3 + (0:m^2)) o f; its low-degree part is
    # P(0,1) here: check the stated dimensions through the filtration
    assert P.dim_partials(2, 1) == 3   # <X, Y, 1>
    assert P.dim_partials(3, 1) == 2   # <Y, 1>
    assert P.lt_count(2, 1) == 2 and P.lt_count(3, 1) == 1


def test_filtration_monotonicity_random():
    rng = random.Random(42)
    for char in (0, 101):
        for _ in range(10):
            ring = RingSpec(("X", "Y", "Z")[:rng.randint(2, 3)], Field(char))
            f = random_generator(ring, rng, rng.randint(2, 5))
            P = PartialFiltration(f)
            j = P.j
            for s in range(j + 1):
                for t in range(j):
                    assert P.dim_partials(s, t) <= P.dim_partials(s, t + 1)
                    assert P.dim_partials(s + 1, t) <= P.dim_partials(s, t)


# -- Hilbert functions ------------------------------------------------------------

def test_hilbert_examples():
    assert hilbert_function(mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")[1]) \
        == (1, 4, 5, 3, 1, 1)
    assert hilbert_function(mk(("X", "Y"), "X^[4]+X^[2]*Y+Y^[2]")[1]) \
        == (1, 1, 1, 1, 1)
    assert hilbert_function(mk(("X",), "X^[7]")[1]) == (1,) * 8


def test_hilbert_two_routes():
    # h_i = r_i - dim I*_i: the ideal side against the partials side
    rng = random.Random(3)
    for char in (0, 101):
        for _ in range(8):
            ring = RingSpec(("X", "Y", "Z")[:rng.randint(2, 3)], Field(char))
            f = random_generator(ring, rng, rng.randint(2, 5))
            H = hilbert_function(f)
            G = associated_graded_dims(f)
            for i in range(len(H)):
                assert H[i] == ring.dim_of_degree(i) - G[i]


def test_hilbert_unit_invariance():
    rng = random.Random(17)
    for char in (0, 101):
        for _ in range(8):
            ring = RingSpec(("X", "Y"), Field(char))
            f = random_generator(ring, rng, rng.randint(2, 5))
            u = random_unit(ring, rng, f.degree + 2)
            g = contract(u, f)
            assert hilbert_function(g) == hilbert_function(f)


def test_loewy_hilbert():
    R, f = mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")
    P = PartialFiltration(f)
    H = P.hilbert()
    j = P.j
    assert P.loewy_hilbert(j + 1) == H          # (0:m^{j+1}) = A
    assert P.loewy_hilbert(0) == (0,) * (j + 1)
    # total length of (0:m^b) equals h_0 + ... + h_{b-1} (duality of the
    # Loewy and m-adic filtrations); the b = 3 layer of the worked example
    # has length 5 + 4 + 1
    for b in range(j + 2):
        assert sum(P.loewy_hilbert(b)) == sum(H[:b])
    assert sum(P.loewy_hilbert(3)) == 10


# -- annihilator ----------------------------------------------------------------

def test_annihilator_examples():
    R, f = mk(("X", "Y"), "X^[4]+X^[2]*Y+Y^[2]")
    I = annihilator(f)
    assert len(I.min_gens) == 2
    # the order-adapted orders are (1, 3): x^5 = x*(y - x^2)*y + x^3*(y - x^2)
    # + x*y^2 makes the second class representable in order 3 by x*y^2
    assert sorted(I.orders) == [1, 3]
    assert verify_ideal_presentation([R.ps("y-x^2"), R.ps("x^5")], f)
    assert verify_ideal_presentation([R.ps("y-x^2"), R.ps("x*y^2")], f)

    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    I = annihilator(f)
    assert sorted(I.orders) == [2, 3]
    assert verify_ideal_presentation([R.ps("x*y"), R.ps("x^3-y^4")], f)

    R, f = mk(("X",), "X^[2]")
    I = annihilator(f)
    assert I.orders == [3]
    assert verify_ideal_presentation([R.ps("x^3")], f)


def test_annihilator_contains_high_powers():
    R, f = mk(("X", "Y"), "X^[3]+X*Y")
    I = annihilator(f)
    j = f.degree
    for m in R.monomials(j + 1):
        assert I.contains(PSElement(R, {m: 1}, j + 1))
    # x o f = X^[2] + Y and y o f = X are nonzero
    assert not I.contains(R.ps("x", j + 1))
    assert not I.contains(R.ps("x^2+y", j + 1))
    assert I.contains(R.ps("y^2", j + 1))


def test_contains_builds_its_echelon_once(monkeypatch):
    import macdual.apolarity as apolarity

    built = []

    class CountingEchelon(apolarity.Echelon):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    R, f = mk(("X", "Y", "Z"), "X^[4]+X*Y*Z+Z^[3]", 101)
    I = annihilator(f)
    monkeypatch.setattr(apolarity, "Echelon", CountingEchelon)
    assert I.contains(R.ps("y^2", f.degree + 1))
    assert len(built) == 1
    assert not I.contains(R.ps("x*z", f.degree + 1))
    assert I.contains(R.ps("x*y-z^2+y*z-x^3", f.degree + 1))
    assert len(built) == 1
    assert I.rows and I.dim == len(I.rows)


def test_verify_ideal_rejects_unit_and_wrong():
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    assert not verify_ideal_presentation([R.ps("1+x")], f)
    assert not verify_ideal_presentation([R.ps("x*y")], f)
    assert not verify_ideal_presentation([R.ps("x*y"), R.ps("x^3")], f)


def test_symdecompex_ideal_and_graded():
    R, f = mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")
    # y^3 kills every term of f (its Y-exponents stop at 2) and is not
    # generated by the other listed elements, so it belongs in both lists
    gens = ["x*w", "y*w", "z*w", "z^2", "w^2-x*y^2*z", "x^2*y", "x^2*z",
            "y^2*z-x^4", "y^3"]
    assert verify_ideal_presentation([R.ps(g) for g in gens], f)
    assert not verify_ideal_presentation([R.ps(g) for g in gens[:-1]], f)
    ggens = ["x*w", "y*w", "z*w", "z^2", "w^2", "x^2*y", "x^2*z", "y^2*z",
             "y^3", "x^6"]
    assert verify_graded_presentation([R.ps(g) for g in ggens], f)


def test_companion_ideal_and_graded():
    R, g = mk(("X", "Y", "Z", "W"), "X^[5]+Y^[2]*Z^[2]+W^[3]")
    gens = ["x*y", "x*z", "x*w", "y*w", "z*w", "y^3", "z^3", "w^3-y^2*z^2",
            "y^2*z^2-x^5"]
    assert verify_ideal_presentation([R.ps(s) for s in gens], g)
    ggens = ["x*y", "x*z", "x*w", "y*w", "z*w", "y^3", "z^3", "w^3",
             "y^2*z^2", "x^6"]
    assert verify_graded_presentation([R.ps(s) for s in ggens], g)


def test_prop124d_ideal():
    R, f = mk(("X", "Y", "Z"), "X^[6]+X^[2]*Y^[3]+Z*Y^[3]")
    assert hilbert_function(f) == (1, 3, 3, 4, 2, 1, 1)
    gens = ["x*z", "y*z-x^2*y", "z^2", "y^4", "x*y^3-x^5"]
    assert verify_ideal_presentation([R.ps(g) for g in gens], f)


def test_graded_presentation_homogeneous_case():
    # for homogeneous f the associated graded ideal is the ideal itself
    R, f = mk(("X", "Y"), "X^[2]*Y^[2]")
    gens = [R.ps("x^3"), R.ps("y^3")]
    assert verify_ideal_presentation(gens, f)
    assert verify_graded_presentation(gens, f)


def test_min_generator_counts():
    rng = random.Random(23)
    for _ in range(10):
        ring = RingSpec(("X", "Y"), Field(0))
        f = random_generator(ring, rng, rng.randint(2, 5))
        I = annihilator(f)
        assert len(I.min_gens) >= 2  # codimension-two AG algebras are CI
    # complete intersections: exactly two generators
    for src in ("X^[3]+Y^[4]", "X^[5]", "X^[2]*Y^[3]"):
        ring = RingSpec(("X", "Y"), Field(0))
        assert len(annihilator(parse_poly(src, ring)).min_gens) == 2


def test_brute_force_hilbert_small():
    # independent oracle: spans of all monomial contractions, dims via plain
    # integer row reduction mod 5 (no subspace machinery)
    def naive_hilbert(f):
        ring = f.ring
        j = f.degree
        mons = [m for d in range(j + 1) for m in ring.monomials(d)]
        idx = {m: i for i, m in enumerate(mons)}
        partials = []
        for d in range(j + 1):
            for b in ring.monomials(d):
                g = contract(PSElement(ring, {b: 1}, j + 1), f)
                if not g.is_zero:
                    partials.append(g)

        def rank_upto(t):
            rows = []
            for g in partials:
                vec = [0] * len(mons)
                for m, c in g.coeffs.items():
                    vec[idx[m]] = c % 5
                rows.append(vec)
            # append the coordinate subspace D_{<=t} and subtract its dim
            base = 0
            for i, m in enumerate(mons):
                if sum(m) <= t:
                    v = [0] * len(mons)
                    v[i] = 1
                    rows.append(v)
                    base += 1
            # plain Gaussian elimination mod 5
            rank = 0
            cols = len(mons)
            rows = [list(r) for r in rows]
            lead = 0
            for c in range(cols):
                piv = None
                for r in range(lead, len(rows)):
                    if rows[r][c] % 5:
                        piv = r
                        break
                if piv is None:
                    continue
                rows[lead], rows[piv] = rows[piv], rows[lead]
                inv = pow(rows[lead][c], 3, 5)
                rows[lead] = [(x * inv) % 5 for x in rows[lead]]
                for r in range(len(rows)):
                    if r != lead and rows[r][c] % 5:
                        fpiv = rows[r][c]
                        rows[r] = [(x - fpiv * y) % 5
                                   for x, y in zip(rows[r], rows[lead])]
                lead += 1
            rank = lead
            # dim (span + D_{<=t}) - dim D_{<=t} ... we need dim of the
            # intersection with D_{<=t}: use dim(V) + dim(W) - dim(V+W)
            return rank, base

        dimV = rank_upto(-1)[0] - 0
        out = []
        prev = 0
        for t in range(j + 1):
            sum_dim, base = rank_upto(t)
            inter = dimV + base - sum_dim
            out.append(inter - prev)
            prev = inter
        return tuple(out)

    ring = RingSpec(("X", "Y"), Field(5))
    rng = random.Random(7)
    for _ in range(12):
        f = random_generator(ring, rng, rng.randint(1, 4), terms=3)
        assert hilbert_function(f) == naive_hilbert(f)
