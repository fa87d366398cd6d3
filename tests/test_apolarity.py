import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest

from kernel_reference import (annihilator_full_reduction, kernel,
                              verify_graded_ideal_plain, verify_graded_plain,
                              verify_ideal_plain)
from macdual.apolarity import (LocalIdeal, PartialFiltration, _Span,
                               _images_descending, annihilator,
                               hilbert_function,
                               verify_graded_presentation,
                               verify_ideal_presentation)
from macdual.decomposition import filtration_ideal, verify_graded_ideal
from macdual.errors import DomainError
from macdual.fields import Field
from macdual.io import corpus_load, parse_poly
from macdual.linalg import Echelon, primitive, rref_rows, same_span, vec_axpy
from macdual.poly import (DPPoly, PSElement, RingSpec, contract,
                          contract_monomial)


def mk(vars, src, char=0):
    R = RingSpec(vars, Field(char))
    return R, parse_poly(src, R)


def random_generator(ring, rng, j, terms=5):
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
    assert len(P.lt_rows(2, 1)) == 2 and len(P.lt_rows(3, 1)) == 1


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
            G = annihilator(f).graded_dims()
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
    # terms of degree >= j+2 lie in m^{j+2}, inside Ann f
    assert I.contains(R.ps("x^5"))
    assert I.contains(R.ps("x^7+y^2"))
    assert not I.contains(R.ps("x^7+y"))


# -- the last filtration, reused ------------------------------------------------

def count_filtrations(monkeypatch) -> list:
    """The generators of the PartialFiltrations constructed from now on, in
    order; the slot of the last one built starts empty."""
    import macdual.apolarity as apolarity
    built = []
    init = PartialFiltration.__init__

    def counted(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(apolarity, "_last", None)
    monkeypatch.setattr(PartialFiltration, "__init__", counted)
    return built


def test_annihilator_reuses_the_last_filtration(monkeypatch):
    built = count_filtrations(monkeypatch)
    R, f = mk(("X", "Y"), "X^[4]+X^[2]*Y+Y^[2]")
    PartialFiltration(f)
    I = annihilator(f)
    assert verify_ideal_presentation(I.min_gens, f)
    assert verify_graded_presentation(graded_generators(f), f)
    # the constant term is dropped at intake, so f + 7 is the same generator
    annihilator(parse_poly("7+X^[4]+X^[2]*Y+Y^[2]", R))
    assert len(built) == 1
    # the same text in another field or another ring, or another generator,
    # is filtered afresh
    for vars, src, char in ((("X", "Y"), "X^[4]+X^[2]*Y+Y^[2]", 101),
                            (("X", "Y", "Z"), "X^[4]+X^[2]*Y+Y^[2]", 0),
                            (("X", "Y"), "X^[4]+X^[2]*Y+2*Y^[2]", 0)):
        g = mk(vars, src, char)[1]
        n = len(built)
        annihilator(g)
        assert len(built) == n + 1 and built[-1] == g


def test_the_last_filtration_is_the_only_one_kept(monkeypatch):
    import gc
    import weakref
    count_filtrations(monkeypatch)
    first = PartialFiltration(mk(("X", "Y"), "X^[3]+Y^[4]")[1])
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is not None     # the slot holds it
    PartialFiltration(mk(("X", "Y"), "X^[3]+Y^[5]")[1])
    gc.collect()
    assert ref() is None


def test_annihilator_of_the_filtration_is_that_of_f(monkeypatch):
    import macdual.apolarity as apolarity
    rng = random.Random(23)
    for char in (0, 101):
        for trial in range(12):
            r = trial % 3 + 1
            ring = RingSpec(("X", "Y", "Z")[:r], Field(char))
            f = random_dual_generator(ring, rng, rng.randint(1, 7 - r),
                                      dense=trial % 2 == 0,
                                      homogeneous=trial % 4 == 0)
            got = annihilator(PartialFiltration(f))
            monkeypatch.setattr(apolarity, "_last", None)
            want = annihilator(f)
            assert got.rows == want.rows
            assert got.min_gens == want.min_gens
            assert got.orders == want.orders
            assert got.graded_dims() == want.graded_dims()


def test_no_reader_changes_a_shared_filtration():
    from copy import deepcopy
    from macdual.normalform import detect_exotic, normalize
    rng = random.Random(29)
    for char in (0, 101):
        for trial in range(8):
            r = trial % 3 + 2
            ring = RingSpec(("X", "Y", "Z", "W")[:r], Field(char))
            f = random_dual_generator(ring, rng, rng.randint(3, 7 - r // 2),
                                      dense=trial % 2 == 0,
                                      homogeneous=False)
            P = PartialFiltration(f)
            before = [deepcopy(P.level(s).rows) for s in range(P.j + 2)]
            I = annihilator(P)
            verify_ideal_presentation(I.min_gens, P)
            verify_graded_presentation(graded_generators(f), P)
            normalize(P)
            detect_exotic(P)
            assert [P.level(s).rows for s in range(P.j + 2)] == before


def test_oversized_generators_are_refused_before_any_index(monkeypatch):
    import macdual.poly as poly
    R = RingSpec(("X", "Y"), Field(0))
    f = parse_poly("X^[10]+Y^[3]", R)
    # r = 2, j = 10: the image table has C(13, 2) = 78 entries
    monkeypatch.setattr(poly, "MAX_IMAGES", 77)
    monkeypatch.setattr(RingSpec, "dmon_index", None)  # never reached
    with pytest.raises(DomainError, match="too large"):
        PartialFiltration(f)
    with pytest.raises(DomainError, match="too large"):
        annihilator(f)
    monkeypatch.undo()
    monkeypatch.setattr(poly, "MAX_IMAGES", 78)
    assert sum(PartialFiltration(f).hilbert()) == 13


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_contains_matches_membership_in_the_rows(char):
    """I.contains(phi), read off I's rows by linalg.coordinates, against
    two oracles: membership of phi truncated at j+1 in the span of I.rows,
    by full reduction, and phi o f = 0 by contraction, the route contains
    took before.  For random phi, for random combinations of the rows
    (members), and for those plus one monomial of degree <= j+1 or one of
    degree j+2 (a member again)."""
    rng = random.Random(char + 83)
    field = Field(char)
    max_j = {1: 7, 2: 6, 3: 4, 4: 3}

    def scalar():
        a = rng.choice([a for a in range(-5, 6) if a])
        if char == 0 and rng.random() < .3:
            return Fraction(a, rng.randint(2, 5))
        return field.from_int(a)

    seen = Counter()
    for trial in range(60):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        j = rng.randint(1, max_j[r])
        f = random_dual_generator(ring, rng, j, dense=trial % 3 == 0,
                                  homogeneous=trial % 2 == 0)
        I = annihilator(f)
        ech = Echelon(field, I.rows)
        index = {m: k for k, m in enumerate(I.rmons)}

        def in_rows(phi):
            return not ech.reduce({index[m]: c for m, c in phi.coeffs.items()
                                   if sum(m) <= j + 1})

        for _ in range(6):
            terms = rng.sample(I.rmons, min(len(I.rmons), rng.randint(1, 4)))
            phi = PSElement(ring, {m: scalar() for m in terms}, j + 2)
            combo = {}
            for row in rng.sample(I.rows, min(len(I.rows), 3)):
                vec_axpy(field, combo, scalar(), row)
            member = PSElement.from_vector(ring, combo, I.rmons, j + 2)
            extra = rng.choice([rng.choice(I.rmons),
                                rng.choice(ring.monomials(j + 2))])
            for psi in (phi, member,
                        member + PSElement(ring, {extra: field.one}, j + 2)):
                got = I.contains(psi)
                assert got == in_rows(psi) == contract(psi, f).is_zero
                seen[got] += 1
            assert I.contains(member)
    assert seen[True] > 100 and seen[False] > 100


def test_contains_checks_the_ring():
    """LocalIdeal.contains refuses an element of another ring, or of the
    same variables over another field, as the contraction did."""
    from macdual.errors import RingMismatchError
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    I = annihilator(f)
    for other in (RingSpec(("X", "Y", "Z"), Field(0)),
                  RingSpec(("X", "Y"), Field(101))):
        for src in ("x*y", "1", "x^9"):
            with pytest.raises(RingMismatchError):
                I.contains(other.ps(src))


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
def test_graded_bases_are_the_orthogonals_of_the_leading_forms(char):
    """The basis of I* read off Ann f's rows (LocalIdeal.graded) is
    homogeneous, and its rows of degree d, moved to monomial_index(d), are,
    value for value and type for type (2 and Fraction(2) differ), the
    canonical basis orthogonal returns for L(0, d), d = 0..j+1, the route
    verify_graded_presentation took before it read I* off Ann f."""
    from macdual.linalg import orthogonal, reversed_columns
    field = Field(char)
    for f in reference_forms(char)[::3]:
        P = PartialFiltration(f)
        I = annihilator(P)
        rows = I.graded().rows
        assert len(rows) == I.dim
        start = 0
        for d in range(P.j + 2):
            n = f.ring.dim_of_degree(d)
            basis = [{c - start: v for c, v in row.items()}
                     for row in rows if start <= min(row) < start + n]
            assert all(max(row) < n for row in basis)
            want = orthogonal(field, reversed_columns(P.lt_rows(0, d), n), n)
            assert typed(basis) == typed(want)
            start += n
        assert start == len(I.rmons)


def test_verify_ideal_rejects_unit_and_wrong():
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    assert not verify_ideal_presentation([R.ps("1+x")], f)
    assert not verify_ideal_presentation([R.ps("x*y")], f)
    assert not verify_ideal_presentation([R.ps("x*y"), R.ps("x^3")], f)


def test_verify_ideal_checks_every_ring_before_units():
    """Generators over F_101 checked against a Q generator raise
    RingMismatchError whichever comes first, a unit or a non-unit: the
    rings are checked before the unit test can answer False."""
    from macdual.errors import RingMismatchError
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    F101 = RingSpec(("X", "Y"), Field(101))
    unit, non_unit = F101.ps("1+x"), F101.ps("x*y")
    for gens in ([unit, non_unit], [non_unit, unit]):
        with pytest.raises(RingMismatchError):
            verify_ideal_presentation(gens, f)


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("src", ["X^[3]*Y+Y^[3]+X*Z^[2]+Z^[4]",
                                 "X^[3]*Y^[2]*Z"])
def test_kept_mi_span_is_built_once_and_left_unchanged(monkeypatch, char,
                                                       src):
    """annihilator builds the m*I span once and keeps it on the LocalIdeal,
    and every verify_ideal_presentation grows a copy of it.  On one
    LocalIdeal a cut-short list, the true list, a list holding a non-member
    and the true list again get False, True, False, True, as the plain
    reference verifier answers; the kept span reads the same after every
    check, and _mi_span ran once in all, on I.  The span of the monomial
    form is all unit coordinates, so its checks grow the copy's units."""
    import macdual.apolarity as apolarity
    built = []
    mi_span = apolarity._mi_span
    monkeypatch.setattr(apolarity, "_mi_span",
                        lambda J: built.append(J) or mi_span(J))
    R, f = mk(("X", "Y", "Z"), src, char)
    P = PartialFiltration(f)
    I = annihilator(P)
    mi = I.mi

    def kept():
        ech = mi.ech
        return (sorted(mi.units), [dict(row) for row in ech.rows],
                list(ech.pivots), dict(ech._by_pivot), mi._free)

    state = kept()
    assert bool(mi.ech.rows) == ("+" in src) and len(I.min_gens) > 2
    lists = [I.min_gens[1:], I.min_gens, I.min_gens + [R.ps("x")],
             I.min_gens]
    got = []
    for gens in lists:
        got.append(verify_ideal_presentation(gens, P))
        assert I.mi is mi and kept() == state
    assert got == [False, True, False, True]
    assert got == [verify_ideal_plain(gens, P) for gens in lists]
    assert len(built) == 1 and built[0] is I


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("src", ["X^[3]*Y+Y^[3]+X*Z^[2]+Z^[4]",
                                 "X^[3]*Y^[2]*Z"])
def test_kept_graded_span_is_built_once_and_left_unchanged(monkeypatch,
                                                           char, src):
    """The first verify_graded_presentation builds I*'s rows and their
    m*I* span and keeps them on the LocalIdeal (LocalIdeal.graded); every
    later graded check grows a copy.  On one filtration a cut-short list,
    the true list, a list holding a non-member and the true list again get
    False, True, False, True, as the plain reference verifier answers; the
    kept rows and span read the same after every check, and _mi_span ran
    twice in all: once for m*I in annihilator, on Ann f, once for m*I*, on
    I*."""
    import macdual.apolarity as apolarity
    built = []
    mi_span = apolarity._mi_span
    monkeypatch.setattr(apolarity, "_mi_span",
                        lambda J: built.append(J) or mi_span(J))
    R, f = mk(("X", "Y", "Z"), src, char)
    P = PartialFiltration(f)
    gens = graded_generators(f)
    lists = [gens[1:], gens, gens + [R.ps("x")], gens]

    def kept(J):
        ech = J.mi.ech
        return ([dict(row) for row in J.rows], dict(J.at), sorted(J.mi.units),
                [dict(row) for row in ech.rows], list(ech.pivots))

    got, states = [], []
    for g in lists:
        got.append(verify_graded_presentation(g, P))
        J = annihilator(P).graded()
        states.append((J, kept(J)))
    assert got == [False, True, False, True]
    assert got == [verify_graded_plain(g, P) for g in lists]
    assert all(J is states[0][0] and state == states[0][1]
               for J, state in states)
    assert len(built) == 2 and len(gens) > 2
    assert built[0] is annihilator(P) and built[1] is states[0][0]


def test_ann_f_its_graded_ideal_and_each_c_a_share_one_held_type():
    """Ann f, I* and C(a) are held by one type, which owns membership and
    the Nakayama test: annihilator returns a subclass of it, and I*'s and
    C(a)'s held ideals are instances of it.  The helpers that held or
    checked them apart are gone, and decomposition builds no span."""
    import inspect

    import macdual.apolarity as apolarity
    import macdual.decomposition as decomposition
    R, f = mk(("X", "Y", "Z"), "X^[3]*Y+Y^[3]+X*Z^[2]+Z^[4]")
    I = annihilator(f)
    held = [I, I.graded(), filtration_ideal(f, 2).held()]
    assert all(isinstance(J, apolarity._Held) for J in held)
    assert type(held[1]) is type(held[2]) is apolarity._Held
    for name in ("_hold", "_generates"):
        assert not hasattr(apolarity, name)
    source = inspect.getsource(decomposition)
    assert "_mi_span" not in source and "_Span" not in source


def test_a_verifier_after_annihilator_reads_no_second_orthogonal(
        monkeypatch):
    """annihilator keeps the LocalIdeal on the filtration, and
    verify_ideal_presentation reads it there: after annihilator(P) the
    verifier calls orthogonal no second time, on the dual generator or on
    its filtration, nor does verify_graded_presentation, which reads I*
    off the same rows; both verifiers answer and refuse as before."""
    import macdual.apolarity as apolarity
    from macdual.errors import RingMismatchError

    calls = []
    orthogonal = apolarity.orthogonal

    def counted(*args):
        calls.append(args)
        return orthogonal(*args)

    monkeypatch.setattr(apolarity, "orthogonal", counted)
    # the verifiers have no route through an equal-span test of Ann f
    assert not hasattr(apolarity, "same_span")
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    other = RingSpec(("X", "Y", "Z"), Field(0))
    # the dual generator or its filtration, each filtered afresh, with the
    # same answers
    for kind in ("f", "P"):
        monkeypatch.setattr(apolarity, "_last", None)
        g = f if kind == "f" else PartialFiltration(f)
        calls.clear()
        I = annihilator(g)
        assert len(calls) == 1
        assert verify_ideal_presentation([R.ps("x*y"), R.ps("x^3-y^4")], g)
        assert not verify_ideal_presentation([R.ps("x*y"), R.ps("x^3")], g)
        assert not verify_ideal_presentation([R.ps("x^3-y^4")], g)
        assert len(calls) == 1 and annihilator(g) is I
        assert not verify_ideal_presentation([R.ps("1+x")], g)
        with pytest.raises(RingMismatchError):
            verify_ideal_presentation([other.ps("x*y")], g)
        with pytest.raises(DomainError):
            verify_graded_presentation([R.ps("x*y-x^3")], g)
        with pytest.raises(RingMismatchError):
            verify_graded_presentation([other.ps("x*y")], g)
        assert verify_graded_presentation(
            [R.ps("x*y"), R.ps("x^3"), R.ps("y^5")], g)
        assert not verify_graded_presentation([R.ps("x*y"), R.ps("y^5")], g)
        assert not verify_graded_presentation([R.ps("x*y"), R.ps("x^2")], g)
        assert len(calls) == 1
    # a zero dual generator is refused, as it was by Ann f
    zero = parse_poly("7", R)
    with pytest.raises(DomainError):
        verify_ideal_presentation([R.ps("x")], zero)
    with pytest.raises(DomainError):
        verify_graded_presentation([R.ps("x")], zero)


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


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("src", ["X^[3]*Y^[2]", "X^[4]+X^[2]*Y+Y^[2]"])
def test_graded_verifiers_on_edge_lists(char, src):
    """Edge lists of both graded verifiers, up to degree top = j+1: a true
    list plus the unit 1 is no presentation of I*; a generator of degree
    j+2 is not read, so the true list plus one still presents I*; the empty
    list presents neither I* nor C(1); a unit generator of C(1) is refused
    as bad input."""
    R, f = mk(("X", "Y"), src, char)
    P = PartialFiltration(f)
    graded = graded_generators(f)
    data = filtration_ideal(P, 1)
    ideal_gens = pick_graded_generators(R, [
        [PSElement.from_vector(R, row, R.monomials(d)) for row in rows]
        for d, rows in enumerate(data.spaces)])
    got = [verify_graded_presentation(graded, P),
           verify_graded_presentation(graded + [R.ps("1")], P),
           verify_graded_presentation(graded + [R.ps("x^%d" % (P.j + 2))],
                                      P),
           verify_graded_presentation([], P),
           verify_graded_ideal(ideal_gens, data),
           verify_graded_ideal([], data)]
    assert got == [True, False, True, False, True, False]
    with pytest.raises(DomainError):
        verify_graded_ideal(ideal_gens + [R.ps("1")], data)


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


# -- annihilator against the two-pass route ------------------------------------

P61 = 2**61 - 1


def annihilator_oracle(f):
    """Canonical rows, minimal generators and orders of Ann f by the direct
    route: rref_rows of the kernel of the forward images x^beta o f, each
    contracted from f, and m*I spanned by the series products x_i * row."""
    f = f.drop_constant()
    ring, field, j = f.ring, f.ring.field, f.degree
    rindex = ring.rmon_index(j + 1)
    rmons = sorted(rindex, key=rindex.get)
    dindex = ring.dmon_index(j)
    rows = rref_rows(field, kernel(
        field, [contract_monomial(beta, f).vector(dindex) for beta in rmons]))
    mi = Echelon(field)
    for row in rows:
        g = PSElement.from_vector(ring, row, rmons, j + 2)
        for x in ring.monomials(1):
            mi.insert(g.mul_monomial(x, j + 1).vector(rindex))
    gens, orders = [], []
    for row in rows:
        if mi.insert(row):
            gens.append(PSElement.from_vector(ring, row, rmons, j + 1))
            orders.append(sum(rmons[min(row)]))
    return rows, gens, orders


def random_dual_generator(ring, rng, j, dense, homogeneous):
    degs = [j] if homogeneous else range(j + 1)
    mons = [m for d in degs for m in ring.monomials(d)]
    if not dense:
        mons = rng.sample(mons, min(len(mons), rng.randint(1, 4)))
    coeffs = {m: rng.randint(-9, 9) for m in mons}
    coeffs[rng.choice(ring.monomials(j))] = rng.randint(1, 9)
    if ring.field.char == 0 and rng.random() < .5:
        coeffs = {m: Fraction(c, rng.randint(1, 4)) for m, c in coeffs.items()}
    return DPPoly(ring, ring.field.canon(coeffs))


def is_canonical(field, a):
    if field.char:
        return type(a) is int and 0 < a < field.char
    return (type(a) is int and a != 0) or (type(a) is Fraction
                                           and a.denominator != 1)


@pytest.mark.parametrize("char", [0, 101, P61], ids=["Q", "F101", "F61"])
def test_annihilator_matches_oracle(char):
    rng = random.Random(char % 1000 + 41)
    field = Field(char)
    max_j = {1: 8, 2: 7, 3: 5, 4: 4}
    for trial in range(40):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        j = rng.randint(1, max_j[r])
        f = random_dual_generator(ring, rng, j, dense=trial % 3 == 0,
                                  homogeneous=trial % 2 == 0)
        I = annihilator(f)
        rows, gens, orders = annihilator_oracle(f)
        assert I.rows == rows
        assert all(is_canonical(field, a) for row in I.rows
                   for a in row.values())
        assert I.pivots == sorted(set(I.pivots))
        assert all(row[p] == 1 for row, p in zip(I.rows, I.pivots))
        assert I.min_gens == gens and I.orders == orders


# -- m*I over Q in integers against the Fraction rows it replaced --------------

def annihilator_fraction_rows(f, scale=None):
    """annihilator() as it ran before its m*I echelon took primitive integer
    rows: the kernel rows, Fractions and all, shifted straight into m*I.
    With scale=primitive over Q, as it ran before unit vectors became
    coordinates: each row scaled by scale, its shifts in one plain Echelon.
    The reference for rows, min_gens, orders and graded_dims; its own m*I
    span is never read."""
    f = f.drop_constant()
    ring, field, j = f.ring, f.ring.field, f.degree
    rmons = list(ring.rmon_index(j + 1))
    n = len(rmons)
    ker = kernel(field, (img for _, img in _images_descending(f, j + 1)))
    rows = [{n - 1 - k: c for k, c in w.items()} for w in reversed(ker)]
    row_of = {min(row): k for k, row in enumerate(rows)}
    var_shift = [{c: row_of[t] for c, t in tab.items() if t in row_of}
                 for tab in ring.multiplication_tables(j + 1)]
    mi = Echelon(field)
    for row in reversed(rows):
        if scale is not None:
            row = scale(row)
        for tab in var_shift:
            w = {tab[c]: v for c, v in row.items() if c in tab}
            if w:
                mi.insert(w)
    I = LocalIdeal(f, rows)
    for k, row in enumerate(rows):
        if mi.insert({k: field.one}):
            I.min_gens.append(PSElement.from_vector(ring, row, rmons, j + 1))
            I.orders.append(sum(rmons[min(row)]))
    return I


def assert_same_ideal(f):
    got = annihilator(f)
    scales = [None, primitive] if f.ring.field.char == 0 else [None]
    for scale in scales:
        want = annihilator_fraction_rows(f, scale)
        assert got.rows == want.rows
        assert got.min_gens == want.min_gens
        assert got.orders == want.orders
        assert got.graded_dims() == want.graded_dims()


def golden_generators():
    """(vars, generator) of every README example in test_golden."""
    from test_golden import CASES, CASES_MOD_101, CASES_MOD_P61
    return sorted({(argv[argv.index("--vars") + 1], argv[-1])
                   for argv, _ in CASES + CASES_MOD_101 + CASES_MOD_P61})


def reference_forms(char):
    """The golden cases, corpus/paper.corpus and 200 random sparse and
    dense forms over Field(char), none of them constant."""
    field = Field(char)
    forms = [parse_poly(src, RingSpec(tuple(vars.split(",")), field))
             for vars, src in golden_generators()]
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"
    forms += [parse_poly(e.generator, RingSpec(e.vars, field))
              for e in corpus_load(corpus)]
    rng = random.Random(char + 61)
    max_j = {1: 8, 2: 7, 3: 5, 4: 4}
    for trial in range(200):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        forms.append(random_dual_generator(
            ring, rng, rng.randint(1, max_j[r]), dense=trial % 3 == 0,
            homogeneous=trial % 2 == 0))
    return [f for f in forms if not f.drop_constant().is_zero]


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_annihilator_matches_fraction_rows_reference(char):
    for f in reference_forms(char):
        assert_same_ideal(f)


def presentation_lists(verify, gens, target, rng):
    """(verify, kind, list, target) for three kinds of list: 0, the true
    list; 1, the list without its last generator; 2, the list with one
    generator g replaced by x * g, x a variable, which still lies in the
    ideal, so that only the rank test can reject it."""
    k = rng.randrange(len(gens))
    x = rng.choice(gens[k].ring.monomials(1))
    return [(verify, 0, gens, target), (verify, 1, gens[:-1], target),
            (verify, 2, gens[:k] + [gens[k].mul_monomial(x)] + gens[k + 1:],
             target)]


def plain_answers(cases) -> list:
    """The answers of the reference verifiers of kernel_reference, plain
    containment and every product ranked, on (verify, kind, gens, target)
    cases."""
    plain = {verify_ideal_presentation: verify_ideal_plain,
             verify_graded_presentation: verify_graded_plain,
             verify_graded_ideal: verify_graded_ideal_plain}
    return [plain[verify](gens, target) for verify, _, gens, target in cases]


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
def test_verifiers_match_plain_echelon_reference(char):
    """All three verifiers give the answers of the old product route
    (kernel_reference.products_reach_plain, after a plain containment test)
    on the true, cut-short and x * g lists of each form's presentations:
    the minimal generators of Ann f, generators of I*, and on every third
    form of degree j <= 8, generators of each C(a), a >= 1.  Each verifier
    says True on every true list and False on some list of each other
    kind."""
    rng = random.Random(char + 2601)
    cases = []
    for i, f in enumerate(reference_forms(char)):
        P = PartialFiltration(f)
        cases += presentation_lists(verify_ideal_presentation,
                                    annihilator(P).min_gens, P, rng)
        cases += presentation_lists(verify_graded_presentation,
                                    graded_generators(f), P, rng)
        for a in range(1, P.j) if i % 3 == 0 and P.j <= 8 else ():
            data = filtration_ideal(P, a)
            gens = pick_graded_generators(f.ring, [
                [PSElement.from_vector(f.ring, row, f.ring.monomials(d))
                 for row in rows] for d, rows in enumerate(data.spaces)])
            cases += presentation_lists(verify_graded_ideal, gens, data, rng)

    got = [verify(gens, target) for verify, _, gens, target in cases]
    assert got == plain_answers(cases)
    tally = Counter((verify, kind, answer)
                    for (verify, kind, *_), answer in zip(cases, got))
    for verify in (verify_ideal_presentation, verify_graded_presentation,
                   verify_graded_ideal):
        assert tally[verify, 0, False] == 0 and tally[verify, 0, True] > 0
        assert tally[verify, 1, False] > 0 and tally[verify, 2, False] > 0


@pytest.mark.parametrize("char", [0, 2, 101, P61],
                         ids=["Q", "F2", "F101", "F61"])
def test_rank_spans_match_the_full_reduction_route(char):
    """annihilator's rows, minimal generators and orders, and the answers of
    all three verifiers on true and cut-short lists, are those of the
    full-reduction route (kernel_reference): every shift and product
    reduced in full into one plain Echelon, no unit coordinates, nothing
    skipped.  The forms are dense and sparse, r 2-4, homogeneous or not,
    and the dense r=4, j=8 shape of dense-modp's heavy requests.  That one
    is checked by verify_ideal_presentation only, and over Q for its Ann f
    alone: the reference route takes over 30 s on its cut-short list
    there (test_dense_cut_short_lists_fail_over_q checks that list)."""
    field = Field(char)
    rng = random.Random(char % 1000 + 2701)
    cases = []

    def add_cases(verify, gens, target):
        nonlocal cases
        cases += [(verify, kind, gens[:len(gens) - kind], target)
                  for kind in (0, 1) if gens[:len(gens) - kind]]

    def check_annihilator(f):
        P = PartialFiltration(f)
        I = annihilator(P)
        rows, gens, orders = annihilator_full_reduction(f)
        assert I.rows == rows
        assert I.min_gens == gens and I.orders == orders
        return P, I

    P, I = check_annihilator(dense_heavy_form(field))
    if char:
        add_cases(verify_ideal_presentation, I.min_gens, P)
    max_j = {2: 7, 3: 5, 4: 4}
    for trial in range(18):
        r = trial % 3 + 2
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        f = random_dual_generator(ring, rng, rng.randint(2, max_j[r]),
                                  dense=trial % 2 == 0,
                                  homogeneous=trial % 4 < 2)
        if f.drop_constant().is_zero:
            continue
        P, I = check_annihilator(f)
        add_cases(verify_ideal_presentation, I.min_gens, P)
        add_cases(verify_graded_presentation, graded_generators(f), P)
        if P.j >= 2:
            data = filtration_ideal(P, 1)
            add_cases(verify_graded_ideal, pick_graded_generators(ring, [
                [PSElement.from_vector(ring, row, ring.monomials(d))
                 for row in rows] for d, rows in enumerate(data.spaces)]),
                data)

    got = [verify(gens, target) for verify, _, gens, target in cases]
    assert got == plain_answers(cases)
    tally = Counter((verify, kind, answer)
                    for (verify, kind, *_), answer in zip(cases, got))
    for verify in (verify_ideal_presentation, verify_graded_presentation,
                   verify_graded_ideal):
        assert tally[verify, 0, False] == 0 and tally[verify, 0, True] > 0
        assert tally[verify, 1, False] > 0


def random_span_vectors(field, rng, n):
    """A shuffled mix of unit and non-unit vectors over range(n), entries
    nonzero (some Fractions over Q)."""
    def entry():
        a = rng.choice([a for a in range(-4, 5) if a])
        if field.char == 0 and rng.random() < .3:
            return Fraction(a, rng.randint(2, 4))
        return field.from_int(a)

    out = []
    for _ in range(rng.randint(0, 2 * n)):
        size = 1 if n == 1 or rng.random() < .5 else rng.randint(2, min(n, 4))
        out.append({k: entry() for k in rng.sample(range(n), size)})
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_span_matches_echelon_rank(char, monkeypatch):
    """add answers as a plain Echelon does, and every vector it skips as
    covered would have reduced to zero."""
    field = Field(char)
    rng = random.Random(char + 73)
    covers, skipped = Echelon.covers, Counter()

    def watched(self, q, n):
        hit = covers(self, q, n)
        skipped[hit] += 1
        return hit

    monkeypatch.setattr(Echelon, "covers", watched)
    for trial in range(400):
        n = rng.randint(1, 9)
        span, ech = _Span(field, n), Echelon(field)
        for v in random_span_vectors(field, rng, n):
            assert span.add(dict(v)) == (ech.insert(v) is not None)
            assert span.dim == ech.dim
            assert not any(k in span.units for row in span.ech.rows
                           for k in row)
    assert skipped[True] > 100 and skipped[False] > 100


def test_span_units_only_before_the_echelon_holds_a_row(monkeypatch):
    field = Field(0)
    # a unit after a non-unit goes to the echelon, and U stays empty
    span = _Span(field, 2)
    assert span.add({0: 1, 1: 2})
    assert span.add({0: 3})
    assert not span.add({1: 1})
    assert span.units == set() and span.dim == 2
    # a projection that leaves a single entry is a unit while the echelon
    # is empty, and an echelon row once it is not
    span = _Span(field, 5)
    assert span.add({0: 1})
    assert span.add({0: 2, 1: Fraction(3, 2)})
    assert span.units == {0, 1} and span.ech.dim == 0
    assert not span.add({1: 5, 0: 1})
    assert span.add({2: 1, 4: 1})
    assert span.add({0: 7, 4: 1})
    assert span.units == {0, 1} and span.ech.dim == 2
    assert not span.add({2: 4})
    assert span.dim == 4
    # columns 2 and 4 are pivots and 3 is free: a projection from column
    # 4 on is covered and not reduced, one from column 2 on is reduced
    no_reduce = lambda *a: pytest.fail("reduced a covered vector")
    with monkeypatch.context() as m:
        m.setattr(Echelon, "reduce", no_reduce)
        m.setattr(Echelon, "grow", no_reduce)
        assert not span.add({1: 2, 4: 3})
        assert not span.add({0: 1, 4: 5})
    assert not span.add({2: 3})
    assert span.add({3: 1, 4: 1}) and span.dim == 5
    with monkeypatch.context() as m:
        m.setattr(Echelon, "reduce", no_reduce)
        m.setattr(Echelon, "grow", no_reduce)
        assert not span.add({2: 1, 3: 2, 4: 1})
    # units between the pivots: columns 0 and 2 are pivots, 1 and 3 units,
    # so every column is covered
    span = _Span(field, 4)
    assert span.add({1: 1}) and span.add({3: 2})
    assert span.add({0: 1, 2: 1, 3: 1}) and span.add({2: 5, 1: 1})
    assert span.units == {1, 3} and span.ech.pivots == [0, 2]
    with monkeypatch.context() as m:
        m.setattr(Echelon, "reduce", no_reduce)
        m.setattr(Echelon, "grow", no_reduce)
        assert not span.add({0: 1, 3: 7}) and not span.add({0: 2, 1: 1})
    assert span.dim == 4


def test_all_monomial_ideal_stays_in_unit_coordinates(monkeypatch):
    """Ann X^[3]Y^[2] = (x^4, y^3): every row, every shift and every
    generator test is a unit vector, and no echelon row is stored.  The
    shifts of the monomial rows join the coordinates in one update, and
    the generator loop skips each row already among them, so _Span.add
    sees only the generator tests of the rows outside m*I: the two
    generators."""
    R, f = mk(("X", "Y"), "X^[3]*Y^[2]")
    added = []
    add = _Span.add
    monkeypatch.setattr(_Span, "add",
                        lambda span, v: added.append(v) or add(span, v))
    # a fresh filtration: one built earlier keeps the ideal it was given
    I = annihilator(PartialFiltration(f))
    index = R.rmon_index(f.degree + 1)
    gens = [I.at[index[m]] for g in I.min_gens for m in g.coeffs]
    assert added == [{k: 1} for k in sorted(gens)] and len(gens) == 2
    assert not I.mi.ech.rows and len(I.mi.units) == I.dim - 2
    assert all(len(row) == 1 for row in I.rows)
    assert [str(g) for g in I.min_gens] == ["y^3", "x^4"]
    assert I.orders == [3, 4]
    assert_same_ideal(f)
    assert I.contains(R.ps("x^4*y-y^3")) and not I.contains(R.ps("x^3*y^2"))
    assert verify_ideal_presentation(I.min_gens, f)
    assert not verify_ideal_presentation(I.min_gens[:1], f)


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_generator_loop_adds_no_row_among_the_units(monkeypatch, char):
    """On a sparse r=4, j=6 form, where most of Ann f is monomial, the
    minimal-generator loop of annihilator hands _Span.add no row index
    that is already a unit coordinate of its span (add would only return
    False), yet still tests every other row, and Ann f comes out as the
    reference route reads it."""
    _, f = mk(("X", "Y", "Z", "W"),
              "X^[2]*Y^[2]*Z*W+X^[3]*Z^[2]-3*Y^[4]+2*X*W^[3]+Z^[2]", char)
    calls = []
    add = _Span.add

    def counted(span, v):
        if sys._getframe(1).f_code.co_name == "annihilator":
            (k,) = v
            calls.append((k, k in span.units))
        return add(span, v)

    monkeypatch.setattr(_Span, "add", counted)
    I = annihilator(PartialFiltration(f))
    monomial = sum(len(row) == 1 for row in I.rows)
    assert monomial > 0.8 * I.dim
    assert calls and not any(unit for _, unit in calls)
    # each row the loop skipped lies in the units of m*I
    skipped = set(range(I.dim)) - {k for k, _ in calls}
    assert skipped and skipped <= I.mi.units
    assert len(I.min_gens) <= len(calls)
    assert_same_ideal(f)


def test_no_fraction_reaches_the_rank_echelons(monkeypatch):
    """Over Q the rank echelons of annihilator and of the three
    presentation checks grow with integer vectors only, and never reduce
    one in full, while the images x^beta o f of the same forms, reduced by
    the PartialFiltration echelon, carry Fractions.  Every rank echelon
    sits inside a _Span, so calls are counted by the function that feeds
    it (_mi_span's shifts, annihilator's unit vectors,
    _Held.generated_by's generator coordinates) and by the route on the
    stack above it: annihilator or one of the three verifiers.  The first
    check of I* or of C(a) builds its m*J span (_Held.mi); every check
    grows a copy of a kept span, so only generated_by feeds an echelon
    there after that.  C(a) is checked for every a >= 1 on its spaces'
    rows, the true list."""
    fractions = Counter()
    helpers = {Echelon.insert.__code__, _Span.add.__code__}
    routes = {"annihilator", "verify_ideal_presentation",
              "verify_graded_presentation", "verify_graded_ideal"}

    def watch(method):
        def watched(self, vec):
            frame = sys._getframe(1)
            while frame.f_code in helpers:
                frame = frame.f_back
            feeder = frame.f_code.co_qualname
            while frame is not None and frame.f_code.co_qualname not in routes:
                frame = frame.f_back
            fractions[method.__name__, feeder, frame and frame.f_code.co_qualname,
                      any(type(a) is Fraction for a in vec.values())] += 1
            return method(self, vec)
        return watched

    for method in (Echelon.reduce, Echelon.grow):
        monkeypatch.setattr(Echelon, method.__name__, watch(method))
    rng = random.Random(67)
    field = Field(0)
    for trial in range(24):
        r = trial % 3 + 2
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        f = random_dual_generator(ring, rng, rng.randint(2, 7 - r),
                                  dense=trial % 2 == 0,
                                  homogeneous=trial % 4 < 2)
        I = annihilator(f)
        assert verify_ideal_presentation(I.min_gens, f)
        assert verify_graded_presentation(graded_generators(f), f)
        for a in range(1, I.socle_degree):
            data = filtration_ideal(f, a)
            gens = [PSElement.from_vector(ring, row, ring.monomials(d))
                    for d, rows in enumerate(data.spaces) for row in rows]
            assert verify_graded_ideal(gens, data)
    graded = ("verify_graded_presentation", "verify_graded_ideal")
    fed = [("annihilator", "_mi_span"), ("annihilator", "annihilator"),
           ("verify_ideal_presentation", "_Held.generated_by")]
    fed += [(route, feeder) for route in graded
            for feeder in ("_mi_span", "_Held.generated_by")]
    for route, feeder in fed:
        assert fractions["grow", feeder, route, False] > 0
        assert fractions["grow", feeder, route, True] == 0
    # no other function grows a rank echelon, and none of these reduces
    assert {(route, feeder) for method, feeder, route, _ in fractions
            if method == "grow"} == set(fed)
    assert not any(n for (method, feeder, route, _), n in fractions.items()
                   if method == "reduce" and (route in graded
                                              or (route, feeder) in fed))
    assert sum(n for (method, feeder, _, frac), n in fractions.items()
               if (method, feeder, frac)
               == ("reduce", "PartialFiltration.__init__", True)) > 0


# -- vectors skipped as covered ----------------------------------------------

def typed(x):
    """x with every dict's values paired with their types, so that 2 and
    Fraction(2) differ."""
    if isinstance(x, dict):
        return sorted((k, type(v), v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return x


def covered_skip_outputs(f, graded):
    """What the skipped reductions could change: the filtration's rows
    with their tags, pivot degrees and count table, Ann f with its minimal
    generators, and both verifiers' answers on true and cut-short
    generator lists."""
    P = PartialFiltration(f)
    I = annihilator(P)
    levels = (P.rows, P.tags, P.degs, P.count)
    answers = ([verify_ideal_presentation(I.min_gens[k:], P) for k in (0, 1)]
               + [verify_graded_presentation(graded[:len(graded) - k], P)
                  for k in (0, 1)])
    return typed([levels, I.rows, [g.coeffs for g in I.min_gens], I.orders,
                  answers])


@pytest.mark.parametrize("char", [0, 2, 101, P61],
                         ids=["Q", "F2", "F101", "F61"])
def test_covered_skips_change_no_output(char, monkeypatch):
    """With Echelon.covers always False every vector is reduced; the
    outputs come out identical.  The forms are sparse, whose m*I spans take
    unit coordinates, and dense, r 2-4, and the binary quadric
    X^[2]+X*Y+Y^[2], whose Ann f holds no monomial below degree 3, so
    that its m*I spans take none over any field; skips are seen in the
    filtration and in spans with and without units."""
    field = Field(char)
    rng = random.Random(char % 1000 + 2401)
    covers, skips = Echelon.covers, Counter()

    def watched(self, q, n):
        hit = covers(self, q, n)
        if hit:
            caller = sys._getframe(1)
            if caller.f_code is _Span.covers.__code__:
                skips["span", bool(caller.f_locals["self"].units)] += 1
            else:
                skips[caller.f_code.co_qualname] += 1
        return hit

    forms = []
    max_j = {2: 7, 3: 5, 4: 4}
    for trial in range(32):
        r = trial % 3 + 2
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        f = random_dual_generator(ring, rng, rng.randint(2, max_j[r]),
                                  dense=trial % 2 == 0,
                                  homogeneous=trial % 4 < 2)
        if not f.drop_constant().is_zero:
            forms.append((f, graded_generators(f)))
    f = parse_poly("X^[2]+X*Y+Y^[2]", RingSpec(("X", "Y"), field))
    forms.append((f, graded_generators(f)))
    monkeypatch.setattr(Echelon, "covers", watched)
    got = [covered_skip_outputs(*case) for case in forms]
    monkeypatch.setattr(Echelon, "covers", lambda self, q, n: False)
    assert got == [covered_skip_outputs(*case) for case in forms]
    assert all(a[0] and a[2] for *_, a in got)
    assert skips["PartialFiltration.__init__"] > 0
    assert skips["span", True] > 0 and skips["span", False] > 0


def dense_heavy_form(field, seed=0):
    """A dense r=4, j=8 form, every degree-8 term and six lower ones, the
    shape of dense-modp's heaviest requests."""
    rng = random.Random(seed)
    ring = RingSpec(("X", "Y", "Z", "W"), field)
    coeffs = {m: rng.randint(1, 100) for m in ring.monomials(8)}
    lower = [m for d in range(1, 8) for m in ring.monomials(d)]
    coeffs.update({m: rng.randint(1, 100) for m in rng.sample(lower, 6)})
    return DPPoly(ring, field.canon(coeffs))


def test_dense_heavy_form_reduces_nothing_to_zero(monkeypatch):
    """A dense r=4, j=8 form over F_101, every degree-8 term and six lower
    ones (the dense-modp heavy shape): no vector that PartialFiltration
    inserts, or annihilator's m*I span grows by, comes out zero.  Those that would have,
    390 images and 1,560 shifts and generator tests, are all covered and
    skipped.  A form whose shifts satisfy a relation the suffix test cannot
    see still reduces one to zero: of ten seeds tried, one did, once."""
    f = dense_heavy_form(Field(101))
    covers = Echelon.covers
    inserts, skips = Counter(), Counter()

    def watch(method):
        def watched(self, vec):
            row = method(self, vec)
            inserts[row is None] += 1
            return row
        return watched

    def watched_covers(self, q, n):
        hit = covers(self, q, n)
        skips[hit] += 1
        return hit

    for method in (Echelon.insert, Echelon.grow):
        monkeypatch.setattr(Echelon, method.__name__, watch(method))
    monkeypatch.setattr(Echelon, "covers", watched_covers)
    P = PartialFiltration(f)
    assert P.hilbert() == (1, 4, 10, 20, 35, 20, 10, 4, 1)
    assert inserts == {False: P.level(0).dim} and skips[True] == 390
    inserts.clear(), skips.clear()
    I = annihilator(P)
    assert inserts[True] == 0 and skips[True] == 1560
    assert len(I.min_gens) == 36


def test_dense_cut_short_lists_fail_over_q():
    """The dense r=4, j=8 form over Q: its 36 minimal generators, all of
    order 5, present Ann f, and their 36 initial forms present I*, which
    is generated in degree 5.  Each list without its last generator is
    refused.  A rank test in I/mI, or degree by degree in I*, stops where
    the list falls short; ranking every product x^m * g took 17-63 s on
    these cut-short lists."""
    f = dense_heavy_form(Field(0))
    P = PartialFiltration(f)
    gens = annihilator(P).min_gens
    assert len(gens) == 36 and {g.order for g in gens} == {5}
    assert verify_ideal_presentation(gens, P)
    assert not verify_ideal_presentation(gens[:-1], P)
    graded = [g.initial_form() for g in gens]
    assert all(g.is_homogeneous() and g.order == 5 for g in graded)
    assert verify_graded_presentation(graded, P)
    assert not verify_graded_presentation(graded[:-1], P)


# -- presentations against the route through Ann f ------------------------------

def ideal_presentation_oracle(gens, f):
    """(gens) = Ann f modulo m^{j+2} by building both spans: the canonical
    rows of Ann f against every product x^m * g truncated at j+1."""
    f = f.drop_constant()
    if any(g.order == 0 for g in gens):
        return False
    ring, j = f.ring, f.degree
    rindex = ring.rmon_index(j + 1)
    products = (g.mul_monomial(m, j + 1).vector(rindex)
                for g in gens if g.order is not None
                for d in range(j + 2 - g.order) for m in ring.monomials(d))
    return same_span(ring.field, annihilator(f).rows, products)


def initial_form_spaces(f):
    """I*_d for d = 0..j+1 as PSElements spanning it: the degree-d parts of
    the canonical rows of Ann f whose pivot has degree d."""
    I = annihilator(f)
    out = [[] for _ in range(I.socle_degree + 2)]
    for row, p in zip(I.rows, I.pivots):
        d = sum(I.rmons[p])
        out[d].append(PSElement(f.ring, {I.rmons[c]: v for c, v in row.items()
                                         if sum(I.rmons[c]) == d}, d + 1))
    return out


def graded_presentation_oracle(gens, f):
    """I* = (gens) degree by degree: each I*_d, as spanned by the initial
    forms of Ann f, against the degree-d multiples of gens."""
    ring = f.ring
    for d, forms in enumerate(initial_form_spaces(f.drop_constant())):
        hidx = ring.monomial_index(d)
        rows = [{hidx[m]: c for m, c in g.coeffs.items()} for g in forms]
        products = ({hidx[k]: v for k, v in g.mul_monomial(m, d).coeffs.items()}
                    for g in gens if g.order <= d
                    for m in ring.monomials(d - g.order))
        if not same_span(ring.field, rows, products):
            return False
    return True


def graded_generators(f):
    """Homogeneous generators of I*, picked degree by degree from the
    initial forms that the earlier picks do not generate."""
    return pick_graded_generators(f.ring,
                                  initial_form_spaces(f.drop_constant()))


def pick_graded_generators(ring, spaces):
    """Generators of the graded ideal with degree-d part spanned by
    spaces[d], picked degree by degree from the forms that the earlier
    picks do not generate."""
    field = ring.field
    gens = []
    for d, forms in enumerate(spaces):
        hidx = ring.monomial_index(d)
        ech = Echelon(field)
        for g in gens:
            for m in ring.monomials(d - g.order):
                ech.insert({hidx[k]: v for k, v in
                            g.mul_monomial(m, d).coeffs.items()})
        gens += [g for g in forms
                 if ech.insert({hidx[m]: c for m, c in g.coeffs.items()})]
    return gens


def presentation_variants(gens, ring, rng, trunc, homogeneous):
    """The true generators, one dropped, one redundant product added, one
    replaced by its sum with another, and a random low-degree element
    added (homogeneous when the presentation is)."""
    out = [list(gens)]
    a = rng.randrange(len(gens))
    out.append(gens[:a] + gens[a + 1:])
    x = rng.choice(ring.monomials(1))
    out.append(gens + [gens[a].mul_monomial(x, trunc)])
    others = [b for b in range(len(gens)) if b != a
              and gens[b].order <= gens[a].order]
    if others:
        b = rng.choice(others)
        m = rng.choice(ring.monomials(gens[a].order - gens[b].order))
        out.append(gens[:a] + [gens[a] + gens[b].mul_monomial(m, trunc)]
                   + gens[a + 1:])
    degs = [rng.randint(1, 2)] if homogeneous else [1, 2]
    mons = [m for d in degs for m in ring.monomials(d)]
    noise = PSElement(ring, ring.field.canon(
        {m: rng.randint(1, 5) for m in rng.sample(mons, min(3, len(mons)))}),
        trunc)
    if not noise.is_zero:
        out.append(gens + [noise])
    return out


@pytest.mark.parametrize("char", [0, 2, 101, P61],
                         ids=["Q", "F2", "F101", "F61"])
def test_presentations_match_the_annihilator_route(char):
    rng = random.Random(char % 1000 + 8)
    field = Field(char)
    max_j = {1: 6, 2: 5, 3: 4, 4: 3}
    seen = {"ideal": set(), "graded": set()}
    trial = 0
    while trial < 24:
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        homogeneous = trial % 3 == 2
        f = random_dual_generator(ring, rng, rng.randint(1, max_j[r]),
                                  dense=trial % 3 == 1,
                                  homogeneous=homogeneous)
        if f.drop_constant().is_zero:  # every coefficient vanished mod p
            continue
        trial += 1
        trunc = f.degree + 2
        P = PartialFiltration(f)
        for gens in presentation_variants(annihilator(f).min_gens, ring, rng,
                                          trunc, homogeneous=False):
            want = ideal_presentation_oracle(gens, f)
            assert verify_ideal_presentation(gens, f) == want, (f, gens)
            assert verify_ideal_presentation(gens, P) == want, (f, gens)
            seen["ideal"].add(want)
        for gens in presentation_variants(graded_generators(f), ring, rng,
                                          trunc, homogeneous=True):
            want = graded_presentation_oracle(gens, f)
            assert verify_graded_presentation(gens, f) == want, (f, gens)
            assert verify_graded_presentation(gens, P) == want, (f, gens)
            seen["graded"].add(want)
    assert seen == {"ideal": {True, False}, "graded": {True, False}}


# -- the tagged pass against references ----------------------------------------

def test_lt_rows_counts_match_at_every_level():
    # a negative level means level 0 in every query, lt_rows included
    R, f = mk(("X", "Y"), "X^[3]+Y^[4]")
    P = PartialFiltration(f)
    assert len(P.lt_rows(-1, 1)) == 2 == sum(row.get(1, 0)
                                             for row in P.count)
    rng = random.Random(11)
    for char in (0, 3, 101):
        for r in (1, 2, 3):
            ring = RingSpec(("X", "Y", "Z")[:r], Field(char))
            P = PartialFiltration(random_dual_generator(
                ring, rng, rng.randint(1, 5), dense=r < 3, homogeneous=False))
            for s in range(-1, P.j + 3):
                for d in range(-1, P.j + 2):
                    want = sum(row.get(d, 0) for row in P.count[max(s, 0):])
                    assert len(P.lt_rows(s, d)) == want
                    assert len(P.rows_of_degree(s, d)) == want


@pytest.mark.parametrize("char", [0, 101, 2 ** 61 - 1],
                         ids=["Q", "F101", "F61"])
def test_lt_rows_by_column_offset_match_the_monomial_lookup(char):
    """lt_rows re-indexes a row's degree-d part by its column offset into
    D_d; it gives what looking each column's monomial up in
    monomial_index(d) gave, keys in the same order and values of the same
    type, at every level and degree of 12 seeded forms (r 1-4, j 1-6)."""
    rng = random.Random(3700 + char % 1000)
    for trial in range(12):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], Field(char))
        P = PartialFiltration(random_dual_generator(
            ring, rng, rng.randint(1, 6 if r < 4 else 4),
            dense=trial % 3 == 0, homogeneous=trial % 2 == 0))
        for s in range(-1, P.j + 2):
            for d in range(-1, P.j + 2):
                hidx = ring.monomial_index(d)
                want = [[(hidx[P.dmons[c]], type(v), v)
                         for c, v in row.items() if P.col_deg[c] == d]
                        for row in P.rows_of_degree(s, d)]
                assert [[(c, type(v), v) for c, v in row.items()]
                        for row in P.lt_rows(s, d)] == want, (trial, s, d)


def levels_one_by_one(f):
    """The order filtration built level by level, as before the tagged pass:
    V_0 closes <f> under contraction, then each V_{s+1} is a fresh echelon
    fed every contraction x_i o row of the rows of V_s, until a level is
    empty.  Returns the echelons of V_0, V_1, ..., the last one empty."""
    f = f.drop_constant()
    ring, j = f.ring, f.degree
    shift = ring.contraction_tables(j)

    def contractions(row):
        for tab in shift:
            w = {tab[c]: v for c, v in row.items() if c in tab}
            if w:
                yield w

    ech0 = Echelon(ring.field)
    pending = [ech0.insert(f.vector(ring.dmon_index(j)))]
    while pending:
        for w in contractions(pending.pop()):
            stored = ech0.insert(w)
            if stored is not None:
                pending.append(stored)
    levels = [ech0]
    while levels[-1].dim:
        nxt = Echelon(ring.field)
        for row in levels[-1].rows:
            for w in contractions(row):
                nxt.insert(w)
        levels.append(nxt)
    return levels


@pytest.mark.parametrize("char", [0, 2, 3, 101, P61],
                         ids=["Q", "F2", "F3", "F101", "F61"])
def test_filtration_matches_level_by_level(char):
    rng = random.Random(char % 1000 + 5)
    field = Field(char)
    max_j = {1: 7, 2: 6, 3: 4, 4: 3}
    for trial in range(24):
        r = trial % 4 + 1
        ring = RingSpec(("X", "Y", "Z", "W")[:r], field)
        kind = trial % 3           # sparse, dense, homogeneous
        f = random_dual_generator(ring, rng, rng.randint(1, max_j[r]),
                                  dense=kind == 1, homogeneous=kind == 2)
        if f.drop_constant().is_zero:   # every coefficient vanished mod p
            continue
        P = PartialFiltration(f)
        levels = levels_one_by_one(f)
        col_deg = P.col_deg
        assert P.level(len(levels)) is None
        # count[t][d]: the pivot degrees d of level t less those of t+1,
        # nonzero entries only
        for t in range(P.j + 1):
            ref = Counter(col_deg[p] for p in levels[t].pivots)
            ref.subtract(col_deg[p] for p in levels[t + 1].pivots)
            assert min(ref.values(), default=0) >= 0
            assert P.count[t] == {d: k for d, k in ref.items() if k}
        for s in range(-1, len(levels) + 1):
            ref = levels[max(s, 0)] if max(s, 0) < len(levels) else None
            lev = P.level(s)
            assert (lev is None) == (ref is None)
            if ref is None:
                assert all(P.dim_partials(s, t) == 0 for t in range(P.j + 1))
                continue
            assert lev.dim == ref.dim
            assert lev.degs == sorted(lev.degs, reverse=True)
            for t in range(-1, P.j + 2):
                want = [row for row, p in zip(ref.rows, ref.pivots)
                        if col_deg[p] <= t]
                assert P.dim_partials(s, t) == len(want)
                assert same_span(field, P.rows_upto(s, t), want)


def test_count_table_holds_no_zero_entries():
    """count keeps, per tag, only the pivot degrees some row has: for
    X^[4000], whose j+1 rows have tags t and pivot degrees j-t, a dense
    table would hold (j+1)^2 slots."""
    P = PartialFiltration(parse_poly("X^[4000]", RingSpec(("X",),
                                                           Field(0))))
    assert len(P.rows) == 4001
    assert sum(map(len, P.count)) <= len(P.rows)
    assert all(k > 0 for row in P.count for k in row.values())
    assert P.count[7] == {3993: 1}
    assert P.hilbert() == (1,) * 4001
    assert P.dim_partials(3999, 1) == 2
    assert P.loewy_hilbert(2) == (0,) * 3999 + (1, 1)


# -- a naive dense-rank oracle -------------------------------------------------

def _eliminate(rows, ncols, p):
    """Forward elimination on the first ncols columns of dense rows, mod p
    for p > 0, or over Q (p = 0) on integer rows by cross-multiplication,
    each row divided by its content.  Returns (rank, rows): the first rank
    rows are independent, the others are zero on the first ncols columns."""
    if p:
        rows = [[x % p for x in row] for row in rows]
    else:
        dens = [lcm(*(Fraction(x).denominator for x in row)) for row in rows]
        rows = [[int(x * d) for x in row] for row, d in zip(rows, dens)]
    rank = 0
    for c in range(ncols):
        piv = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        a = top[c]
        for k in range(rank + 1, len(rows)):
            b = rows[k][c]
            if b:
                new = [x * a - y * b for x, y in zip(rows[k], top)]
                if p:
                    new = [x % p for x in new]
                else:
                    g = gcd(*new)
                    new = [x // g for x in new] if g > 1 else new
                rows[k] = new
        rank += 1
    return rank, rows


def _rank(rows, cols, p):
    """Rank of the dense rows restricted to the column positions cols."""
    return _eliminate([[row[c] for c in cols] for row in rows], len(cols), p)[0]


def _left_kernel(rows, cols, p):
    """A basis of {c : sum_k c_k rows[k] = 0 on the columns cols}."""
    n = len(rows)
    aug = [[row[c] for c in cols] + [int(k == i) for i in range(n)]
           for k, row in enumerate(rows)]
    rank, red = _eliminate(aug, len(cols), p)
    return [row[len(cols):] for row in red[rank:]]


def naive_invariants(coeffs, r, p):
    """dim P(s,t), the Hilbert function, the Loewy series and dim I*_d of
    f = sum coeffs[alpha] X^[alpha] from dense matrices only.

    x^beta o X^[alpha] = X^[alpha-beta] when alpha >= beta, else 0.  The
    partials side: V_s is spanned by the images of the beta with
    |beta| >= s, and dim P(s,t) = rank V_s - rank of V_s cut to the
    columns of degree > t.  The ideal side, in R/m^{j+2}: I is the left
    kernel of all images and J_b = (I : m^b) that of the images cut to the
    columns of degree >= b; with X_{<i} the coordinates of degree < i,
    dim I*_d = rank I|X_{<d+1} - rank I|X_{<d}, h_i = r_i - dim I*_i, and
    the (0 : m^b) Loewy entry i is dim (J_b cap (m^i + I)) / (J_b cap
    (m^(i+1) + I)) = [rank I|X_{<i} - rank J_b|X_{<i}] - (same at i+1)."""
    j = max(sum(a) for a in coeffs)
    mons = sorted((m for m in itertools.product(range(j + 2), repeat=r)
                   if sum(m) <= j + 1), key=sum)
    dcols = [k for k, m in enumerate(mons) if sum(m) <= j]
    images = []
    for beta in mons:
        row = [0] * len(mons)
        for alpha, c in coeffs.items():
            if all(a >= b for a, b in zip(alpha, beta)):
                row[mons.index(tuple(a - b for a, b in zip(alpha, beta)))] = c
        images.append(row)

    def cols(lo, hi):
        return [k for k in dcols if lo <= sum(mons[k]) <= hi]

    def dimP(s, t):
        if t < 0:
            return 0
        V = [img for img, beta in zip(images, mons) if sum(beta) >= max(s, 0)]
        return _rank(V, cols(0, j), p) - _rank(V, cols(t + 1, j), p)

    I = _left_kernel(images, cols(0, j), p)

    def below(space, i):   # rank of space cut to the coordinates of degree < i
        return _rank(space, [k for k, m in enumerate(mons) if sum(m) < i], p)

    graded = tuple(below(I, d + 1) - below(I, d) for d in range(j + 2))
    hilbert = tuple(comb(r + i - 1, i) - graded[i] for i in range(j + 1))
    loewy = []
    for b in range(j + 2):
        J = _left_kernel(images, cols(b, j), p)
        gap = [below(I, i) - below(J, i) for i in range(j + 2)]
        loewy.append(tuple(gap[i] - gap[i + 1] for i in range(j + 1)))
    dims = {(s, t): dimP(s, t) for s in range(-1, j + 3) for t in range(-1, j + 2)}
    return dims, hilbert, loewy, graded


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_filtration_matches_dense_rank_oracle(char):
    rng = random.Random(char + 29)
    ring = RingSpec(("X", "Y", "Z"), Field(char))
    for trial in range(9):
        f = random_dual_generator(ring, rng, rng.randint(2, 4),
                                  dense=trial % 3 == 1,
                                  homogeneous=trial % 3 == 2).drop_constant()
        dims, hilbert, loewy, graded = naive_invariants(f.coeffs, 3, char)
        P = PartialFiltration(f)
        assert {st: P.dim_partials(*st) for st in dims} == dims
        assert P.hilbert() == hilbert
        assert [P.loewy_hilbert(b) for b in range(P.j + 2)] == loewy
        assert annihilator(f).graded_dims() == graded
