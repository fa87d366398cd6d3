import random
from fractions import Fraction

import pytest

from kernel_reference import generator_degrees_by_lifts, kernel
from macdual.apolarity import PartialFiltration
from macdual.decomposition import (component_dims, component_dual_dims,
                                   component_generator_degrees,
                                   compressed_hilbert, dual_component_basis,
                                   filtration_ideal, is_o_sequence,
                                   macaulay_bound, max_continuation,
                                   overweight_check, symmetric_decomposition,
                                   verify_graded_ideal)
from macdual.errors import DomainError, RingMismatchError
from macdual.fields import Field
from macdual.io import parse_poly
from macdual.linalg import Echelon, rref_rows, same_span
from macdual.poly import DPPoly, PSElement, RingSpec, contract_monomial, mdeg


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


# -- worked decompositions ------------------------------------------------------

def test_magic_square_example():
    R, f = mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")
    D = symmetric_decomposition(f)
    assert D.hilbert == (1, 4, 5, 3, 1, 1)
    assert D.components[0] == (1, 1, 1, 1, 1, 1)
    assert D.components[1] == (0, 2, 4, 2, 0)
    assert D.components[2] == (0, 0, 0, 0)
    assert D.components[3] == (0, 1, 0)
    assert D.n_seq == (1, 3, 3, 4)


def test_magic_square_second_decomposition():
    R, g = mk(("X", "Y", "Z", "W"), "X^[5]+Y^[2]*Z^[2]+W^[3]")
    D = symmetric_decomposition(g)
    assert D.hilbert == (1, 4, 5, 3, 1, 1)
    assert D.components[0] == (1, 1, 1, 1, 1, 1)
    assert D.components[1] == (0, 2, 3, 2, 0)
    assert D.components[2] == (0, 1, 1, 0)
    assert D.components[3] == (0, 0, 0)


def test_power_sum_example():
    R, f = mk(("X", "Y", "Z"), "X^[7]+Y^[5]+(X+Y)^[5]+Z^[4]")
    D = symmetric_decomposition(f)
    assert D.hilbert == (1, 3, 4, 4, 2, 1, 1, 1)
    assert D.components[0] == (1,) * 8
    assert not any(D.components[1])
    assert D.components[2] == (0, 1, 2, 2, 1, 0)
    assert D.components[3] == (0, 1, 1, 1, 0)


def test_two_variable_extension_worked_example():
    R, f = mk(("X", "Y", "Z1", "Z2"),
              "X^[4]*Y^[7]+X^[5]*Y^[3]*Z1+X^[6]*Z2+Y^[6]*Z2")
    D = symmetric_decomposition(f)
    assert D.hilbert == (1, 4, 6, 7, 6, 6, 7, 6, 5, 3, 2, 1)
    assert D.components[0] == (1, 2, 3, 4, 5, 5, 5, 5, 4, 3, 2, 1)
    assert D.components[2] == (0, 1, 1, 1, 1, 1, 1, 1, 1, 0)
    assert D.components[4] == (0, 1, 0, 0, 0, 0, 1, 0)
    assert D.components[6] == (0, 0, 2, 2, 0, 0)
    assert D.nonzero_indices() == {0, 2, 4, 6}


def test_primal_dual_transposition():
    rng = random.Random(8)
    cases = [mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")[1],
             mk(("X", "Y"), "X^[6]+X^[4]*Y+X^[2]*Y^[2]")[1]]
    for char in (0, 101):
        ring = RingSpec(("X", "Y", "Z"), Field(char))
        cases.append(random_generator(ring, rng, rng.randint(2, 5)))
    for f in cases:
        P = PartialFiltration(f)
        j = P.j
        for a in range(max(j - 1, 1)):
            dual = component_dual_dims(P, a)
            primal = component_dims(P, a)
            assert primal == tuple(reversed(dual))


def test_qdualex_component_values():
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    P = PartialFiltration(f)
    assert component_dims(P, 1) == (0, 1, 1, 0)  # Q(1)_1 = <x>, Q(1)_2 = <x^2>
    mod = dual_component_basis(P, 1)
    assert mod.dims == (0, 1, 1, 0)
    assert [str(p) for p in mod.basis_polys(1)] == ["X"]


def test_symdecompex_dual_bases():
    R, f = mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")
    P = PartialFiltration(f)
    mod3 = dual_component_basis(P, 3)
    assert [str(p) for p in mod3.basis_polys(1)] == ["W"]
    mod1 = dual_component_basis(P, 1)
    assert mod1.dims == (0, 2, 4, 2, 0)
    deg1 = {str(p) for p in mod1.basis_polys(1)}
    assert deg1 == {"Y", "Z"}


def test_ag_equal_example_dual_bases():
    # same associated graded algebra, two different decompositions
    R, f = mk(("X", "Y", "Z"), "X^[5]+Y^[5]+(X+Y)^[4]+Z^[2]")
    Df = symmetric_decomposition(f)
    assert Df.hilbert == (1, 3, 3, 2, 2, 1)
    assert Df.components[0] == (1, 2, 2, 2, 2, 1)
    assert Df.components[1] == (0, 0, 1, 0, 0)
    assert Df.components[3] == (0, 1, 0)
    R, g = mk(("X", "Y", "Z"), "X^[5]+Y^[5]+X*Y*Z")
    Dg = symmetric_decomposition(g)
    assert Dg.hilbert == (1, 3, 3, 2, 2, 1)
    assert Dg.components[0] == (1, 2, 2, 2, 2, 1)
    assert Dg.components[2] == (0, 1, 1, 0)
    assert not any(Dg.components[1]) and not any(Dg.components[3])
    # Q^v(2) of g is spanned by <Z; XY>
    P = PartialFiltration(g)
    mod = dual_component_basis(P, 2)
    assert [str(p) for p in mod.basis_polys(1)] == ["Z"]
    assert [str(p) for p in mod.basis_polys(2)] == ["X*Y"]


def test_generator_degrees():
    # the compressed-quadric extension: Q(1) needs generators in degrees 1, 4
    R, f = mk(("X", "Y", "Z"), "X^[3]*Y^[3]+X^[4]*Z+Y^[4]*Z")
    P = PartialFiltration(f)
    D = symmetric_decomposition(P)
    assert D.hilbert == (1, 3, 5, 4, 4, 2, 1)
    assert D.components[1] == (0, 1, 0, 0, 1, 0)
    assert D.components[2] == (0, 0, 2, 0, 0)
    info1 = component_generator_degrees(dual_component_basis(P, 1))
    assert info1["generator_degrees"] == {1: 1, 4: 1}
    assert not info1["cyclic"] and not info1["generated_in_degree_one"]
    info2 = component_generator_degrees(dual_component_basis(P, 2))
    assert info2["generator_degrees"] == {2: 2}
    assert not info2["cyclic"]
    # empty component
    R2, g = mk(("X", "Y"), "X^[2]*Y^[2]")
    P2 = PartialFiltration(g)
    info = component_generator_degrees(dual_component_basis(P2, 1))
    assert info["generator_degrees"] == {}


def test_generator_degrees_cyclic():
    R, f = mk(("X", "Y", "Z"), "X^[7]+Y^[5]+(X+Y)^[5]+Z^[4]")
    P = PartialFiltration(f)
    info = component_generator_degrees(dual_component_basis(P, 2))
    assert info["cyclic"]
    assert len(info["generator_degrees"]) == 1


def layered_generator(ring, rng, j, linear_last):
    """One or two terms of degree j and up to three in each degree 2..j-1,
    so that components past H(0) appear; with linear_last the last
    variable occurs at most linearly, as in an extension by it."""
    coeffs = {}
    for d in range(2, j + 1):
        mons = [m for m in ring.monomials(d) if not linear_last or m[-1] <= 1]
        for m in rng.sample(mons, min(rng.randint(*(1, 2) if d == j else
                                                  (0, 3)), len(mons))):
            coeffs[m] = ring.field.from_int(rng.randint(1, 9))
    return DPPoly(ring, coeffs)


@pytest.mark.parametrize("char", [0, 2, 3, 101],
                         ids=["Q", "F2", "F3", "F101"])
def test_generator_degrees_match_the_lift_route(char):
    """The generator degrees counted as one rank per degree are those the
    lift-and-solve route (kernel_reference) reads, for every nonzero
    component of seeded generators in r = 1..4 variables."""
    rng = random.Random(2900 + char)
    field = Field(char)
    pairs, noncyclic = 0, 0
    for trial in range(64):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        f = layered_generator(ring, rng, rng.randint(3, (8, 7, 7, 6)[r - 1]),
                              r > 1 and trial % 3 == 0)
        if f.drop_constant().is_zero:
            continue
        P = PartialFiltration(f)
        for a, row in enumerate(symmetric_decomposition(P).components):
            if any(row):
                info = component_generator_degrees(dual_component_basis(P, a))
                assert info["generator_degrees"] == \
                    generator_degrees_by_lifts(P, a), (str(f), a)
                pairs += 1
                noncyclic += not info["cyclic"]
    assert pairs > 60 and noncyclic > 2


def test_o_sequence():
    assert is_o_sequence((1, 3, 6, 10))
    assert not is_o_sequence((1, 2, 4))
    assert is_o_sequence((1, 2, 3))
    assert is_o_sequence(())
    assert is_o_sequence((1,))
    assert not is_o_sequence((2, 1))
    assert not is_o_sequence((1, 0, 1))
    assert macaulay_bound(2, 1) == 3
    assert macaulay_bound(3, 1) == 6
    assert macaulay_bound(6, 2) == 10
    assert macaulay_bound(4, 2) == 5


def test_o_sequence_against_staircase_oracle():
    # all Hilbert functions of monomial ideals of k[x,y] up to degree 4,
    # enumerated from staircases: a monomial ideal in two variables is
    # determined by the number of surviving monomials per degree, any
    # staircase with h_{d+1} <= h_d + 1 and (h_d < d+1 forcing no growth is
    # wrong: enumerate honestly by choosing surviving sets)
    from itertools import product

    achievable = set()
    # a monomial ideal in k[x,y]: survivors in degree d form a set closed
    # under divisibility; enumerate antichains by choosing for each degree
    # the set of survivors as an interval pattern is not enough, so brute
    # force over all downsets of the 2d staircase grid up to degree 4
    cells = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    for mask in range(1 << len(cells)):
        chosen = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if (0, 0) not in chosen:
            continue
        ok = all((a == 0 or (a - 1, b) in chosen) and
                 (b == 0 or (a, b - 1) in chosen)
                 for (a, b) in chosen)
        if not ok:
            continue
        H = [0] * 5
        for (a, b) in chosen:
            H[a + b] += 1
        achievable.add(tuple(H))
    # the staircase enumeration only sees two variables, so compare on
    # sequences with h_1 <= 2 (the oracle shows e.g. that (1,2,4) is not
    # achievable: max growth after h_2 = 2 is 3)
    for H in product(range(4), repeat=4):
        seq = (1,) + H
        if H[0] <= 2:
            assert is_o_sequence(seq) == (seq in achievable)
    assert any(t[:3] == (1, 2, 3) for t in achievable)
    assert all(t[:3] != (1, 2, 4) for t in achievable)


def test_compressed_hilbert():
    assert compressed_hilbert(2, 4) == (1, 2, 3, 2, 1)
    assert compressed_hilbert(1, 6) == (1,) * 7
    assert compressed_hilbert(3, 3) == (1, 3, 3, 1)


def test_max_continuation_examples():
    # curvilinear start in four variables
    M = max_continuation([(1,) * 6], 1, 4, 5)
    assert M == (0, 3, 9, 3, 0)
    # after the modification example: r = 3, j = 6, a = 2
    M = max_continuation([(1,) * 7, (0, 1, 1, 1, 1, 0)], 2, 3, 6)
    assert M == (0, 1, 4, 1, 0)
    # saturated prefix leaves nothing
    M = max_continuation([(1, 2, 3, 2, 1)], 1, 2, 4)
    assert M == (0, 0, 0, 0)
    with pytest.raises(DomainError):
        max_continuation([(1, 2, 1)], 1, 2, 3)  # asymmetric prefix row


def test_overweight_check():
    R, f = mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")
    D = symmetric_decomposition(f)
    assert overweight_check(D, 0) == "overweighted"
    assert overweight_check(D, D.socle_degree - 2) == "symmetric-tail"
    R, g = mk(("X", "Y", "Z"), "X^[7]+Y^[5]+(X+Y)^[5]+Z^[4]")
    Dg = symmetric_decomposition(g)
    assert overweight_check(Dg, 1) == "overweighted"


def test_watanabe_symmetric_hilbert():
    rng = random.Random(5)
    # symmetric H(A) forces the trivial decomposition
    cases = ["X^[4]+Y^[4]+(X+Y)^[4]", "X^[2]*Y^[2]", "X^[3]*Y^[3]"]
    for src in cases:
        R, f = mk(("X", "Y"), src)
        D = symmetric_decomposition(f)
        H = D.hilbert
        assert H == tuple(reversed(H))
        assert all(not any(row) for row in D.components[1:])
    for char in (0, 101):
        for _ in range(6):
            ring = RingSpec(("X", "Y", "Z"), Field(char))
            j = rng.randint(2, 5)
            coeffs = {}
            for m in ring.monomials(j):
                c = ring.field.from_int(rng.randint(-4, 4))
                if not ring.field.is_zero(c):
                    coeffs[m] = c
            from macdual.poly import DPPoly
            f = DPPoly(ring, coeffs)
            if f.is_zero:
                continue
            D = symmetric_decomposition(f)  # homogeneous: graded algebra
            assert all(not any(row) for row in D.components[1:])


def test_filtration_ideal_modification_example():
    R, f = mk(("X", "Y", "Z"), "X^[6]+X^[3]*Y^[2]+Z^[4]")
    data = filtration_ideal(f, 2)
    gens = [R.ps("z"), R.ps("y^2"), R.ps("y*x^4"), R.ps("x^7")]
    assert verify_graded_ideal(gens, data)
    # wrong generator set is rejected
    assert not verify_graded_ideal([R.ps("z"), R.ps("y^2")], data)


def test_filtration_ideal_chain_and_bottom():
    rng = random.Random(31)
    for char in (0, 101):
        ring = RingSpec(("X", "Y"), Field(char))
        f = random_generator(ring, rng, 4)
        P = PartialFiltration(f)
        datas = [filtration_ideal(P, a) for a in range(P.j)]
        # C(a) contains C(a+1) degreewise
        for a in range(len(datas) - 1):
            for d in range(P.j + 2):
                big = Echelon(ring.field)
                for row in datas[a].spaces[d]:
                    big.insert(row)
                for row in datas[a + 1].spaces[d]:
                    assert big.contains(row)
        # C(0) contains the associated graded ideal (it is everything in
        # positive degrees)
        from macdual.apolarity import annihilator
        I = annihilator(f)
        for d in range(1, P.j + 2):
            assert datas[0].dims[d] == ring.dim_of_degree(d)


def test_verify_graded_ideal_checks_the_ring():
    R, f = mk(("X", "Y", "Z"), "X^[6]+X^[3]*Y^[2]+Z^[4]")
    data = filtration_ideal(f, 2)
    other = RingSpec(("U", "V", "W"), Field(101))
    with pytest.raises(RingMismatchError):
        verify_graded_ideal([other.ps(g) for g in ("w", "v^2", "v*u^4",
                                                   "u^7")], data)
    # units and non-homogeneous generators stay refused as bad input
    for bad in ("1", "3", "1+x", "z+y^2"):
        with pytest.raises(DomainError):
            verify_graded_ideal([R.ps("z"), R.ps(bad)], data)


def test_verify_graded_ideal_refuses_the_unit_ideal():
    """filtration_ideal(f, 0) is C(0) = R (dims[0] = 1), which no set of
    non-unit generators generates: the data are refused up front, as a
    unit generator is, where [x, y] used to return False."""
    R, f = mk(("X", "Y"), "X^[3]+Y^[3]")
    data = filtration_ideal(f, 0)
    assert data.dims == (1, 2, 3, 4, 5)
    for gens in (["x", "y"], ["x^2", "y"], ["1"]):
        with pytest.raises(DomainError, match=r"C\(0\) = R"):
            verify_graded_ideal([R.ps(g) for g in gens], data)
    # from a = 1 on the ideal is proper and the check runs: f is a form,
    # so C(1) = Ann f = (xy, x^3 - y^3)
    data = filtration_ideal(f, 1)
    assert data.dims == (0, 0, 1, 3, 5)
    assert verify_graded_ideal([R.ps("x*y"), R.ps("x^3-y^3")], data)
    assert not verify_graded_ideal([R.ps("x"), R.ps("y")], data)


# -- filtration ideals against the kernel route --------------------------------

def filtration_ideal_kernel_route(P, a):
    """filtration_ideal's spaces as they were computed before they were
    read by duality: for each degree i, one witnessed kernel pass over the
    images x^m o f, |m| >= i, cut to their terms of degree above j-a-i,
    keeping the degree-i part of each kernel vector."""
    j, ring, field = P.j, P.ring, P.ring.field
    spaces = []
    for i in range(j + 2):
        cutoff = j - a - i
        images = ({P.dindex[mm]: c
                   for mm, c in contract_monomial(m, P.f).coeffs.items()
                   if mdeg(mm) > cutoff}
                  for d in range(i, j + 2) for m in ring.monomials(d))
        n_i = ring.dim_of_degree(i)
        proj = [{k: v for k, v in wit.items() if k < n_i}
                for wit in kernel(field, images)]
        spaces.append(rref_rows(field, [v for v in proj if v]))
    return spaces


def verify_graded_ideal_same_span(gens, data):
    """verify_graded_ideal as it ran before it shared the presentation
    check: the degree-d products span exactly data's degree-d space."""
    ring = data.ring
    for d in range(data.socle_degree + 2):
        hidx = ring.monomial_index(d)
        products = (g.mul_monomial(m, d).vector(hidx)
                    for g in gens if g.order <= d
                    for m in ring.monomials(d - g.order))
        if not same_span(ring.field, data.spaces[d], products):
            return False
    return True


def random_form_of_shape(ring, rng, j, dense):
    """A dual generator of degree j: every monomial of degree <= j when
    dense, else a few; over Q half of them with Fraction coefficients."""
    mons = [m for d in range(j + 1) for m in ring.monomials(d)]
    if not dense:
        mons = rng.sample(mons, min(len(mons), rng.randint(1, 5)))
    coeffs = {m: rng.randint(-9, 9) for m in mons}
    p = ring.field.char
    coeffs[rng.choice(ring.monomials(j))] = rng.randint(1, p - 1 if p else 9)
    if not p and rng.random() < .5:
        coeffs = {m: Fraction(c, rng.randint(1, 4)) for m, c in coeffs.items()}
    return DPPoly(ring, ring.field.canon(coeffs))


def _typed_rows(rows):
    return [sorted((k, type(v), v) for k, v in row.items()) for row in rows]


@pytest.mark.parametrize("char", [0, 2, 3, 101], ids=["Q", "F2", "F3", "F101"])
def test_filtration_ideal_matches_kernel_route(char):
    """C(a)_i = L(j-a+1-i, i)^perp gives the kernel route's rows exactly,
    value types included, for every a, on 12 random forms per field (48 in
    all; r 2-4, j 2-7, a quarter of them dense); dims are the row counts,
    and equal r_i - sum_{u<a} H(u)_i."""
    rng = random.Random(2300 + char)
    field = Field(char)
    for trial in range(12):
        r = trial % 3 + 2
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        dense = trial % 4 == 0
        j = rng.randint(2, {2: 7, 3: 6, 4: 5}[r] if dense else 7)
        f = random_form_of_shape(ring, rng, j, dense)
        P = PartialFiltration(f)
        for a in range(P.j):
            data = filtration_ideal(P, a)
            want = filtration_ideal_kernel_route(P, a)
            assert [_typed_rows(s) for s in data.spaces] == \
                [_typed_rows(s) for s in want]
            below = [0] * (P.j + 2)
            for u in range(a):
                for i, v in enumerate(component_dual_dims(P, u)):
                    below[i] += v
            assert data.dims == tuple(len(s) for s in want) == tuple(
                ring.dim_of_degree(i) - below[i] for i in range(P.j + 2))


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_verify_graded_ideal_matches_same_span_route(monkeypatch, char):
    """The shared check answers as the equal-span test did: for a basis of
    every degree (a generating set), for it with one degree's basis cut
    short, with its first element, of the lowest degree, left out (which
    no products make up: False), and with a random form added, which
    leaves the ideal unless it lies in it.  It reads no orthogonal: each
    generator is tested against data's space of its degree.  For a = 0,
    the unit ideal, where the equal-span test said False, the data are
    refused."""
    import macdual.apolarity as apolarity
    import macdual.decomposition as decomposition
    import macdual.linalg as linalg
    rng = random.Random(2310 + char)
    field = Field(char)
    for trial in range(12):
        ring = RingSpec(("X", "Y", "Z")[:trial % 2 + 2], field)
        f = random_form_of_shape(ring, rng, rng.randint(2, 5), trial % 4 == 0)
        P = PartialFiltration(f)
        for a in range(P.j):
            data = filtration_ideal(P, a)
            top = P.j + 1
            gens = [PSElement.from_vector(ring, row, ring.monomials(d),
                                          top + 1)
                    for d in range(1, top + 1) for row in data.spaces[d]]
            drop = rng.randrange(len(gens))
            cut = gens[:drop] + gens[drop + 1:]
            d = rng.randint(1, top)
            extra = PSElement(ring, {m: field.from_int(rng.randint(-3, 3))
                                     for m in ring.monomials(d)}, top + 1)
            cases = [gens, cut, gens[1:]]
            if not extra.is_zero:
                cases += [gens + [extra], cut + [extra]]
            for gs in cases:
                if a == 0:  # C(0) = R: the equal-span test said False
                    assert not verify_graded_ideal_same_span(gs, data)
                    with pytest.raises(DomainError, match="C\\(0\\) = R"):
                        verify_graded_ideal(gs, data)
                    continue
                with monkeypatch.context() as m:
                    for module in (apolarity, decomposition, linalg):
                        m.setattr(module, "orthogonal", None)
                    got = verify_graded_ideal(gs, data)
                assert got == verify_graded_ideal_same_span(gs, data)


def test_decomposition_invariance_under_units():
    from macdual.poly import PSElement, contract
    rng = random.Random(12)
    for char in (0, 101):
        ring = RingSpec(("X", "Y"), Field(char))
        for _ in range(6):
            f = random_generator(ring, rng, rng.randint(2, 5))
            coeffs = {ring.r * (0,): ring.field.one}
            mons = [m for d in range(1, f.degree + 2)
                    for m in ring.monomials(d)]
            for m in rng.sample(mons, 3):
                coeffs[m] = ring.field.from_int(rng.randint(-3, 3))
            u = PSElement(ring, coeffs, f.degree + 2)
            g = contract(u, f)
            assert symmetric_decomposition(g).components == \
                symmetric_decomposition(f).components


def test_magic_square_diagonals():
    # rising diagonals of the component table return the Hilbert function
    # read backwards: h_{j-i} = sum_a H(a)_{i-a}
    rng = random.Random(77)
    cases = [mk(("X", "Y", "Z", "W"), "X^[5]+X*Y^[2]*Z+W^[2]")[1]]
    for char in (0, 101):
        ring = RingSpec(("X", "Y", "Z"), Field(char))
        cases.append(random_generator(ring, rng, rng.randint(2, 5)))
    for f in cases:
        D = symmetric_decomposition(f)
        j = D.socle_degree
        for i in range(j + 1):
            diag = sum(row[i - a] for a, row in enumerate(D.components)
                       if 0 <= i - a < len(row))
            assert diag == D.hilbert[j - i]


def test_socle_degree_one():
    R = RingSpec(("X", "Y"), Field(0))
    D = symmetric_decomposition(parse_poly("X+2*Y", R))
    assert D.hilbert == (1, 1)
    assert D.components == ((1, 1),)


def test_truncation_inequality_strict_case():
    # dropping the low tail can strictly enlarge the Hilbert function: the
    # quartic caution example has H(head) = (1,2,1,1,1) against a partial
    # sum (1,1,1,1,1)
    from macdual.apolarity import hilbert_function
    R, f = mk(("X", "Y"), "X^[4]+X^[2]*Y+Y^[2]")
    head = f.part_from(3)
    Hh = hilbert_function(head)
    D = symmetric_decomposition(f)
    partial = [0] * 5
    for u in range(2):
        for i, v in enumerate(D.components[u]):
            partial[i] += v
    assert Hh == (1, 2, 1, 1, 1)
    assert tuple(partial) == (1, 1, 1, 1, 1)
    assert any(h > p for h, p in zip(Hh, partial))


def test_component_index_range_errors():
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    P = PartialFiltration(f)
    with pytest.raises(DomainError):
        component_dual_dims(P, -1)
    with pytest.raises(DomainError):
        component_dual_dims(P, 4)
    with pytest.raises(DomainError):
        filtration_ideal(P, 4)


def test_o_sequence_test_runs_once_per_nonzero_component(monkeypatch):
    """_check_decomposition tests a partial sum of the H(a) for the
    O-sequence property only when H(a) is not all zero: a zero component
    leaves the sum as it was.  A partial sum that fails still raises, with
    zero components around it."""
    import macdual.decomposition as decomposition
    from macdual.errors import InternalCheckError
    is_o_sequence, seen = decomposition.is_o_sequence, []
    monkeypatch.setattr(decomposition, "is_o_sequence",
                        lambda H: seen.append(H) or is_o_sequence(H))
    decomposition._check_decomposition(
        3, (1, 1, 1, 1), ((1, 1, 1, 1), (0, 0, 0), (0, 0)))
    assert seen == [(1, 1, 1, 1)]
    D = decomposition.symmetric_decomposition(
        parse_poly("X^[6]", RingSpec(("X",), Field(0))))
    assert D.components[1:] == ((0,) * 6, (0,) * 5, (0,) * 4, (0,) * 3)
    assert len(seen) == 2
    with pytest.raises(InternalCheckError, match="through a=1"):
        decomposition._check_decomposition(
            3, (1, 0, 1, 0), ((0, 0, 0, 0), (1, 0, 1), (0, 0)))


def test_decomposition_reads_the_count_table_alone(monkeypatch):
    """Every H(a)_i of X^[300] is one entry of P.count; no level view is
    taken.  Each component of X^[j] is zero but H(0) = (1, ..., 1)."""
    def refused(*args):
        pytest.fail("symmetric_decomposition read a level")

    f = parse_poly("X^[300]", RingSpec(("X",), Field(0)))
    P = PartialFiltration(f)
    monkeypatch.setattr(PartialFiltration, "level", refused)
    D = symmetric_decomposition(P)
    assert D.hilbert == (1,) * 301
    assert D.components[0] == (1,) * 301
    assert not any(map(any, D.components[1:]))
