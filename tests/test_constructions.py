import hashlib
import random

import pytest

from kernel_reference import kernel
from macdual.apolarity import PartialFiltration, annihilator, hilbert_function
from macdual.constructions import (ExtensionSpec, _homogeneous_joint_kernel,
                                   allowed_component_indices,
                                   ancestor_data, annihilator_order,
                                   connected_sum, connected_sum_hilbert,
                                   is_a_modification, lift_to_modification,
                                   linear_extension, noncyclic_extension,
                                   nonubiquity_instance_check, random_form,
                                   random_poly, random_unit,
                                   relatively_compressed_modification,
                                   restricted_components, simple_deformation)
from macdual.decomposition import (component_dual_dims, max_continuation,
                                   symmetric_decomposition)
from macdual.errors import DomainError, GenericityError
from macdual.fields import Field
from macdual.io import parse_poly
from macdual.linalg import Echelon, same_span
from macdual.poly import (PSElement, RingSpec, contract, contract_monomial,
                          mon_mul)


def mk(vars, src, char=0):
    R = RingSpec(tuple(vars.split(",")), Field(char))
    return R, parse_poly(src, R)


# -- seeded draws ----------------------------------------------------------------

# str() of the draws of random_form(ring, 3), random_poly(ring, 4),
# random_unit(ring, 4), random_poly(line, 2) and random_unit(line, 2) from one
# Random(seed), in that order, then the next randrange(10**6) of the stream.
# Every seeded suite draws its instances through these, so a change to the
# order or number of RNG calls shows here first.
PINNED_DRAWS = {
    (0, 1): (["-6*X^[3]+8*X^[2]*Y-8*X^[2]*Z-2*X*Y^[2]-7*X*Y*Z+5*X*Z^[2]"
              "+4*Y^[3]+5*Y^[2]*Z+10*Y*Z^[2]+2*Z^[3]",
              "-2*X^[2]*Z^[2]-3*X*Y*Z^[2]-10*Y^[2]*Z^[2]+9*Y^[2]+4*Y",
              "1+3*x-5*x^2+5*x^2*y-5*z^3", "6*X^[2]-10*X", "1+2*x"], 984787),
    (0, 2): (["-9*X^[3]-8*X^[2]*Y-8*X^[2]*Z+X*Y^[2]-5*X*Y*Z-X*Z^[2]"
              "-2*Y^[3]+9*Y^[2]*Z-4*Y*Z^[2]+9*Z^[3]",
              "10*X^[4]-9*X^[2]*Y*Z+6*X*Y^[3]+4*X*Y*Z^[2]-2*Y*Z^[3]+7*X^[2]*Y",
              "1+x-3*x^2*y+x^2*z+3*x*z^2", "4*X^[2]-5*X", "1-3*x"], 534948),
    (101, 1): (["18*X^[3]+73*X^[2]*Y+98*X^[2]*Z+9*X*Y^[2]+33*X*Y*Z+16*X*Z^[2]"
                "+64*Y^[3]+98*Y^[2]*Z+58*Y*Z^[2]+61*Z^[3]",
                "7*Y^[4]+97*Y^[2]*Z^[2]+55*X*Y*Z+77*Y^[2]+98*Y",
                "1+3*x^2+2*y*z+3*z^2+40*x*z^2", "3*X^[2]+92*X", "1+97*x"],
               459158),
    (101, 2): (["8*X^[3]+12*X^[2]*Y+11*X^[2]*Z+47*X*Y^[2]+22*X*Y*Z+95*X*Z^[2]"
                "+86*Y^[3]+40*Y^[2]*Z+33*Y*Z^[2]+78*Z^[3]",
                "10*X^[2]*Y^[2]+64*X*Y^[3]+56*X*Y*Z^[2]+34*Y*Z^[3]+69*X^[2]*Y"
                "+47*Z", "1+48*x+40*y+54*x^2*z+67*x*z^2", "3*X^[2]+29*X",
                "1+41*x"], 182021),
}


@pytest.mark.parametrize("char,seed", sorted(PINNED_DRAWS))
def test_random_draws_are_pinned(char, seed):
    ring = RingSpec(("X", "Y", "Z"), Field(char))
    line = RingSpec(("X",), Field(char))
    rng = random.Random(seed)
    draws = [random_form(ring, 3, rng), random_poly(ring, 4, rng),
             random_unit(ring, rng, 4), random_poly(line, 2, rng),
             random_unit(line, rng, 2)]
    assert ([str(d) for d in draws], rng.randrange(10**6)) \
        == PINNED_DRAWS[char, seed]


# -- a-modifications ---------------------------------------------------------

def test_modification_examples():
    R, f = mk("X,Y", "X^[4]+Y^[2]")
    _, g = mk("X,Y", "X^[4]+X^[2]*Y")
    assert not is_a_modification(f, g, 2)
    assert is_a_modification(f, g, 0)
    R, f = mk("X,Y,Z", "X^[6]+X^[3]*Y^[2]+Z^[4]")
    _, g = mk("X,Y,Z", "X^[6]+X^[3]*Y^[2]+Y^[4]")
    assert is_a_modification(f, g, 2)
    assert is_a_modification(g, f, 2)
    with pytest.raises(DomainError):
        is_a_modification(f, parse_poly("X^[5]", R), 1)


def test_lift_to_modification():
    # the head of the generic-modification example: h reaches the level-2
    # filtration ideal and lifts to a 2-modification it annihilates
    R, f = mk("X,Y,Z", "X^[5]+X^[3]*Z+X^[2]*Y^[2]+Y^[4]")
    h = R.ps("z-x^2+y^2-x^3", 7)
    g = lift_to_modification(h, f, 2)
    assert contract(h, g).is_zero
    assert is_a_modification(f, g, 2)
    # h already annihilating leaves f unchanged
    R, f = mk("X,Y", "X^[3]+Y^[4]")
    assert lift_to_modification(R.ps("x*y", 6), f, 1) == f
    with pytest.raises(DomainError):
        lift_to_modification(R.ps("x", 6), f, 3)  # x o f has degree 2 > 0


def test_lift_to_modification_random():
    rng = random.Random(99)
    from macdual.constructions import random_poly
    from macdual.decomposition import filtration_ideal
    from macdual.poly import PSElement
    for char in (0, 101):
        ring = RingSpec(("X", "Y"), Field(char))
        for _ in range(6):
            f = random_poly(ring, 5, rng, terms=4)
            data = filtration_ideal(f, 1)
            # pick a degree with a fresh initial form and lift it
            for d in range(1, 5):
                rows = data.spaces[d]
                if not rows:
                    continue
                mons = ring.monomials(d)
                h = PSElement(ring, {mons[c]: v for c, v in rows[0].items()},
                              7)
                if contract(h, f).is_zero:
                    continue
                g = lift_to_modification(h, f, 1)
                assert contract(h, g).is_zero
                assert is_a_modification(f, g, 1)
                break


# -- relatively compressed modifications ------------------------------------------

def test_rcm_curvilinear_tower():
    R = RingSpec(("X", "Y", "Z", "W"), Field(0))
    f = parse_poly("X^[5]", R)
    F, D = relatively_compressed_modification(f, 1, seed=11)
    assert D.hilbert == (1, 4, 10, 4, 1, 1)
    assert D.components[1] == (0, 3, 9, 3, 0)
    F, D = relatively_compressed_modification(f, 2, seed=11)
    assert D.hilbert == (1, 4, 4, 1, 1, 1)
    assert D.components[2] == (0, 3, 3, 0)
    F, D = relatively_compressed_modification(f, 3, seed=11)
    assert D.hilbert == (1, 4, 1, 1, 1, 1)
    assert D.components[3] == (0, 3, 0)


def test_rcm_on_quartic_head():
    R = RingSpec(("X", "Y", "Z", "W"), Field(0))
    head = parse_poly("X^[5]+X*Y^[2]*Z", R)
    F, D = relatively_compressed_modification(head, 2, seed=5)
    assert D.hilbert == (1, 4, 6, 3, 1, 1)
    assert D.components[2] == (0, 1, 1, 0)
    # the magic-square generator is itself a 3-RCM of its head
    full = parse_poly("X^[5]+X*Y^[2]*Z+W^[2]", R)
    Dfull = symmetric_decomposition(full)
    target = max_continuation(
        [component_dual_dims(PartialFiltration(head), u) for u in range(3)],
        3, 4, 5)
    assert Dfull.components[3] == target == (0, 1, 0)


def test_rcm_filters_its_generator_once(monkeypatch):
    """The prefix H(0), H(1) of an a = 2 modification is read off one
    PartialFiltration of f, not one per component."""
    import macdual.apolarity as apolarity
    R = RingSpec(("X", "Y", "Z", "W"), Field(0))
    head = parse_poly("X^[5]+X*Y^[2]*Z", R)
    PartialFiltration(parse_poly("X^[4]", R))   # f is not the one built last
    built = []
    init = apolarity.PartialFiltration.__init__

    def counted(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(apolarity.PartialFiltration, "__init__", counted)
    F, D = relatively_compressed_modification(head, 2, seed=5)
    assert built.count(head) == 1 and built[0] == head
    assert D.components[2] == (0, 1, 1, 0)


def test_rcm_already_maximal_two_variables():
    R, g = mk("X,Y", "X^[7]+Y^[5]+(X+Y)^[5]")
    D = symmetric_decomposition(g)
    P = PartialFiltration(g)
    target = max_continuation(
        [component_dual_dims(P, u) for u in range(2)], 2, 2, 7)
    assert D.components[2] == target == (0, 1, 2, 2, 1, 0)
    assert D.hilbert == (1, 2, 3, 3, 2, 1, 1, 1)


def test_rcm_genericity_failure_small_field():
    # over F_2 a dense draw cannot be generic enough for the curvilinear tower
    R = RingSpec(("X", "Y", "Z", "W"), Field(2))
    f = parse_poly("X^[5]", R)
    with pytest.raises(GenericityError):
        relatively_compressed_modification(f, 1, seed=0, retries=3)


def test_rcm_refuses_no_retries_and_a_negative_bound():
    """retries below 1 and coeff_bound below 0 are domain errors over Q and
    F_p: they used to raise GenericityError, ValueError from randint, or
    (the bound over F_p) be ignored."""
    for char in (0, 101):
        f = parse_poly("X^[4]+Y^[2]", RingSpec(("X", "Y"), Field(char)))
        for kwargs in ({"retries": 0}, {"retries": -1},
                       {"coeff_bound": -1}):
            with pytest.raises(DomainError):
                relatively_compressed_modification(f, 1, **kwargs)


# -- extensions linear in fresh variables -------------------------------------------

def test_extension_spec_validation():
    R, f = mk("X,Y", "X^[3]*Y^[3]")
    h = parse_poly("X^[4]+Y^[4]", R)
    spec = ExtensionSpec(f, [h], ("Z",))
    assert spec.indices == [1]
    assert allowed_component_indices(spec) == {0, 1, 2}
    with pytest.raises(DomainError):
        ExtensionSpec(f, [parse_poly("X^[6]", R)], ("Z",))  # degree too big
    with pytest.raises(DomainError):
        ExtensionSpec(f, [h, parse_poly("X^[5]", R)], ("Z1", "Z2"))  # ordering
    with pytest.raises(DomainError):
        ExtensionSpec(parse_poly("X^[3]+Y", R), [h], ("Z",))  # inhomogeneous


def test_extension_reproduces_compressed_quadric_example():
    R, f = mk("X,Y", "X^[3]*Y^[3]")
    spec = ExtensionSpec(f, [parse_poly("X^[4]+Y^[4]", R)], ("Z",))
    F = linear_extension(spec)
    D = symmetric_decomposition(F)
    assert D.hilbert == (1, 3, 5, 4, 4, 2, 1)
    assert D.components[1] == (0, 1, 0, 0, 1, 0)
    assert D.components[2] == (0, 0, 2, 0, 0)
    assert D.nonzero_indices() <= allowed_component_indices(spec)


def test_extension_pairwise_only():
    R, f = mk("X,Y", "X^[3]*Y^[3]")
    spec = ExtensionSpec(
        f, [parse_poly("X^[3]*Y", R), parse_poly("X*Y^[2]", R)],
        ("Z1", "Z2"))
    assert spec.indices == [1, 2]
    F = linear_extension(spec)
    D = symmetric_decomposition(F)
    assert D.hilbert == (1, 4, 5, 4, 3, 2, 1)
    assert D.nonzero_indices() == {0, 3}
    assert D.components[3] == (0, 2, 2, 0)


def test_restricted_components_worked_example():
    R = RingSpec(("X", "Y"), Field(0))
    f = parse_poly("X^[4]*Y^[7]", R)
    spec = ExtensionSpec(
        f, [parse_poly("X^[5]*Y^[3]", R), parse_poly("X^[6]+Y^[6]", R)],
        ("Z1", "Z2"))
    assert spec.indices == [2, 4]
    data = restricted_components(spec)  # part-(c) identity asserted inside
    assert data["B_pairs"][(1, 2)] == {2: 1, 3: 1}   # <X Z1, X Y Z1>
    assert data["B_pairs"][(2, 1)] == {2: 1, 3: 1}   # <Y Z2, Y^[2] Z2>
    assert data["B_pairs"][(1, 1)] == {}
    assert data["B_pairs"][(2, 2)] == {}


# SHA-256 of repr((B, B_pairs, components)) of restricted_components over
# the seeded extensions below, recorded before the joint spaces were built
# once each, lazily: dimensions do not depend on the bases chosen, and
# every count, its degree and its dict order must stay as they were
RESTRICTED_PIN = \
    "a64efdd74128af00a29c3e028f4f848b0d04a6be1a9306e4c164d003b9c2d5ef"


def test_restricted_components_pinned_on_seeded_extensions():
    """f + sum h_t Z_t, s = 1..3, over Q, F_2, F_3 and F_101 in two and
    three variables: dense forms and sparse ones, f and the h_t alike."""
    rng = random.Random(2900)
    digest = hashlib.sha256()
    checked = 0
    for trial in range(120):
        ring = RingSpec(("X", "Y", "Z")[:2 + trial // 4 % 2],
                        Field((0, 2, 3, 101)[trial % 4]))
        j = rng.randint(4, 6 if ring.r == 2 else 5)
        ks = sorted((rng.randint(1, j - 2) for _ in range(rng.randint(1, 3))),
                    reverse=True)
        f = random_form(ring, j, rng, 5) if trial % 3 else \
            random_poly(ring, j, rng).homogeneous_component(j)
        hs = [random_form(ring, k, rng, 5) if trial % 2 else
              random_poly(ring, k, rng, 2).homogeneous_component(k)
              for k in ks]
        if f.is_zero or any(h.is_zero for h in hs):
            continue    # a lead coefficient that vanishes mod p
        data = restricted_components(ExtensionSpec(
            f, hs, tuple("Z%d" % (i + 1) for i in range(len(hs)))))
        digest.update(repr((data["B"], data["B_pairs"],
                            data["components"].components)).encode())
        checked += 1
    assert checked > 100
    assert digest.hexdigest() == RESTRICTED_PIN


def test_restricted_components_partial_summand_vanishes():
    # a summand that is already a partial of f contributes nothing
    R = RingSpec(("X", "Y"), Field(0))
    f = parse_poly("X^[3]*Y^[3]", R)
    spec = ExtensionSpec(f, [parse_poly("X^[2]*Y^[2]", R)], ("Z",))
    data = restricted_components(spec)
    assert data["B"][1] == {}
    D = data["components"]
    total_B = sum(sum(d.values()) for d in data["B"].values()) \
        + sum(sum(d.values()) for d in data["B_pairs"].values())
    nonzero = sum(sum(row) for a, row in enumerate(D.components) if a > 0)
    assert total_B == nonzero


# -- the non-cyclic construction -----------------------------------------------------

def test_noncyclic_extension_prop_path():
    R, f = mk("X,Y", "X^[6]+X^[2]*Y^[3]")
    assert annihilator_order(f) == 3
    F = noncyclic_extension(f, [parse_poly("Y^[3]", R)])
    D = symmetric_decomposition(F)
    assert D.hilbert == (1, 3, 3, 4, 2, 1, 1)
    assert D.components[2] == (0, 1, 0, 1, 0)


def test_noncyclic_extension_validation():
    R, f = mk("X,Y", "X^[6]+X^[2]*Y^[3]")
    with pytest.raises(DomainError):
        noncyclic_extension(f, [parse_poly("Y^[4]", R)])   # degree mismatch
    with pytest.raises(DomainError):
        noncyclic_extension(f, [parse_poly("X^[3]", R)])   # not disjoint
    with pytest.raises(DomainError):
        noncyclic_extension(f, [parse_poly("Y^[3]", R),
                                parse_poly("Y^[3]+X^[3]", R)])  # dependent


def test_noncyclic_inhomogeneous_base_gains_component():
    R = RingSpec(("X", "Y", "U"), Field(0))
    f = parse_poly("X^[7]+Y^[6]+U^[6]+X^[2]*Y^[2]*U^[2]", R)
    assert annihilator_order(f) == 4
    F = noncyclic_extension(f, [parse_poly("Y^[3]*U", R)], z_names=("Z",))
    D = symmetric_decomposition(F)
    assert D.hilbert == (1, 4, 7, 10, 7, 3, 1, 1)
    assert D.components[2] == (0, 1, 0, 0, 1, 0)
    assert D.components[3] == (0, 0, 1, 0, 0)   # only without homogeneity


def test_noncyclic_special_case_bound():
    # compressed even-socle case: the doubled index may appear, within r*s
    R, f = mk("X,Y", "X^[3]*Y^[3]")
    F = noncyclic_extension(f, [parse_poly("X^[4]+Y^[4]", R)])
    D = symmetric_decomposition(F)
    a = 1
    assert D.components[a] == (0, 1, 0, 0, 1, 0)
    assert 0 <= D.components[2 * a][2] <= 2 * 1
    assert D.nonzero_indices() <= {0, a, 2 * a}


# -- the simple deformation -----------------------------------------------------------

def test_simple_deformation():
    R, f = mk("X,Y", "X^[3]*Y^[4]")
    F, s, a = simple_deformation(f, parse_poly("X^[5]", R))
    assert (s, a) == (1, 1)
    D = symmetric_decomposition(F)
    assert D.components[0] == tuple(
        x + y for x, y in zip(hilbert_function(f), (0, 1, 1, 1, 1, 1, 1, 0)))
    row = D.components[a]
    # width-s walls sit in degrees 2 and k = 4 (row has length j-a+1 = 7)
    assert row == (0, 0, 1, 0, 1, 0, 0)
    assert all(not any(r) for u, r in enumerate(D.components) if u not in (0, a))


def test_simple_deformation_width_two():
    R, f = mk("X,Y", "X^[6]*Y^[6]")
    F, s, a = simple_deformation(f, parse_poly("X^[8]+Y^[8]", R))
    assert s == 2 and a == 12 - 7 - 2
    D = symmetric_decomposition(F)
    row = D.components[a]
    assert row[2] == 2 and row[7] == 2
    assert sum(row) == 4


def test_simple_deformation_validation():
    R, f = mk("X,Y", "X^[3]*Y^[4]")
    with pytest.raises(DomainError):
        simple_deformation(f, parse_poly("X^[3]*Y^[2]", R))  # a partial of f
    with pytest.raises(DomainError):
        simple_deformation(parse_poly("X^[2]*Y^[2]", R),
                           parse_poly("X^[4]", R))  # order out of range


# -- connected sums ---------------------------------------------------------------------

def test_connected_sum_examples():
    Ra = RingSpec(("X",), Field(0))
    Rb = RingSpec(("Y",), Field(0))
    F, big = connected_sum(parse_poly("X^[3]", Ra), parse_poly("Y^[3]", Rb))
    assert hilbert_function(F) == (1, 2, 2, 1)
    assert connected_sum_hilbert((1, 1, 1, 1), (1, 1, 1, 1)) == (1, 2, 2, 1)

    Rxy = RingSpec(("X", "Y"), Field(0))
    Rz = RingSpec(("Z",), Field(0))
    f1 = parse_poly("X^[5]+Y^[5]+(X+Y)^[4]", Rxy)
    F, big = connected_sum(f1, parse_poly("Z^[2]", Rz))
    H = hilbert_function(F)
    assert H == (1, 3, 3, 2, 2, 1)
    assert H == connected_sum_hilbert(hilbert_function(f1), (1, 1, 1))
    # cross products of the variable blocks annihilate
    I = annihilator(F)
    for mon in ("x*z", "y*z"):
        assert I.contains(big.ps(mon, F.degree + 1))
    with pytest.raises(DomainError):
        connected_sum(f1, parse_poly("X^[2]", Ra))


# -- the two-variable ancestor invariant ----------------------------------------------

def test_ancestor_examples():
    R = RingSpec(("X", "Y"), Field(0))
    V = [R.ps("x^4"), R.ps("x^3*y"), R.ps("y^4")]
    data = ancestor_data(V, 4)
    assert data.tau == 2
    full = [R.ps("x^2"), R.ps("x*y"), R.ps("y^2")]
    assert ancestor_data(full, 2).tau == 1
    with pytest.raises(DomainError):
        ancestor_data([RingSpec(("X", "Y", "Z"), Field(0)).ps("x^2")], 2)


def test_ancestor_two_formulas_random():
    rng = random.Random(6)
    R = RingSpec(("X", "Y"), Field(0))
    for _ in range(20):
        j = rng.randint(2, 6)
        mons = R.monomials(j)
        k = rng.randint(1, j)
        polys = []
        for _ in range(k):
            coeffs = {m: rng.randint(-3, 3) for m in rng.sample(mons, 2)}
            from macdual.poly import PSElement
            p = PSElement(R, {m: c for m, c in coeffs.items() if c}, j)
            if not p.is_zero:
                polys.append(p)
        if polys:
            ancestor_data(polys, j)  # both tau routes agree or it raises


def test_ancestor_refuses_degree_zero():
    R = RingSpec(("X", "Y"), Field(0))
    for j in (0, -1):
        with pytest.raises(DomainError):
            ancestor_data([R.ps("3")], j)


def colon_dims_kernel_route(V, j):
    """ancestor_data's colon chain as it ran before it was read by duality:
    (V : R_1) inside R_{j-1} as the kernel of m -> (x*m, y*m) modulo V,
    iterated down to degree 0."""
    ring = V[0].ring
    field = ring.field
    hidx = ring.monomial_index(j)
    cur_rows = Echelon(field, (v.vector(hidx) for v in V)).rows
    colon = [len(cur_rows)]
    for cur_deg in range(j, 0, -1):
        idx_cur = ring.monomial_index(cur_deg)
        tgt = Echelon(field, cur_rows)

        def colon_image(m):
            img = {}
            for i, x in enumerate(ring.monomials(1)):
                vec = tgt.project({idx_cur[mon_mul(m, x)]: field.one})
                img.update({(i, k): c for k, c in vec.items()})
            return img
        cur_rows = kernel(field, map(colon_image,
                                     ring.monomials(cur_deg - 1)))
        colon.append(len(cur_rows))
    return tuple(colon)


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
def test_ancestor_colon_dims_match_kernel_route(char):
    """(V : R_k) = (R_k o V^perp)^perp gives the colon chain's dimensions
    on random V: monomials, binomials and dense forms, dependent ones
    included."""
    rng = random.Random(2320 + char)
    field = Field(char)
    R = RingSpec(("X", "Y"), field)
    for _ in range(60):
        j = rng.randint(1, 7)
        mons = R.monomials(j)
        V = []
        for _ in range(rng.randint(1, j + 2)):
            support = rng.sample(mons, min(len(mons), rng.choice([1, 2, j])))
            coeffs = field.canon({m: rng.randint(-3, 3) for m in support})
            if coeffs:
                V.append(PSElement(R, coeffs, j))
        if V:
            assert ancestor_data(V, j).colon_dims == \
                colon_dims_kernel_route(V, j)


def joint_kernel_kernel_route(ring, e, f, hs_t2, hs_extra):
    """The phi in R_e with phi o f in R o <hs_t2> and phi o h = 0 for h in
    hs_extra, as restricted_components read them before they were read by
    duality: the kernel of m -> (m o f projected off that span, m o h ...),
    the projection a linear map."""
    field = ring.field
    d = f.degree - e
    idx = ring.monomial_index(d)
    span = Echelon(field)
    for g in hs_t2:
        for b in ring.monomials(g.degree - d):
            img = contract_monomial(b, g)
            if not img.is_zero:
                span.insert(img.vector(idx))

    def joint_image(m):
        img = {(-1, k): c for k, c in span.project(
            contract_monomial(m, f).vector(idx)).items()}
        for t, h in enumerate(hs_extra):
            hidx = ring.monomial_index(h.degree - e)
            img.update({(t, k): c for k, c in
                        contract_monomial(m, h).vector(hidx).items()})
        return img
    mons = ring.monomials(e)
    return [{mons[i]: c for i, c in w.items()}
            for w in kernel(field, map(joint_image, mons))]


@pytest.mark.parametrize("char", [0, 101], ids=["Q", "F101"])
def test_joint_spaces_match_kernel_route(char):
    """The joint spaces restricted_components counts in, read as the
    degree-e orthogonal of S_{j-e}^perp o f + sum (R o h)_e from the
    generators of S, span what the kernel route spanned, for every
    (t2, extra, e)."""
    rng = random.Random(2330 + char)
    field = Field(char)
    cases = 0
    for trial in range(16):
        ring = RingSpec(("X", "Y", "Z")[:trial % 2 + 2], field)
        j = rng.randint(3, 6)
        f = random_form(ring, j, rng) if trial % 4 == 0 else \
            random_poly(ring, j, rng).homogeneous_component(j)
        degs = sorted((rng.randint(1, j - 2) for _ in range(rng.randint(1, 3))),
                      reverse=True)
        hs = [random_poly(ring, k, rng).homogeneous_component(k)
              for k in degs]
        for t2 in range(len(hs) + 1):
            for extra in range(len(hs) + 1):
                for e in range(1, j + 2):
                    got = _homogeneous_joint_kernel(ring, e, f, hs[:t2],
                                                    hs[:extra])
                    want = joint_kernel_kernel_route(ring, e, f, hs[:t2],
                                                     hs[:extra])
                    idx = ring.monomial_index(e)
                    assert same_span(field, [{idx[m]: c for m, c in
                                              phi.items()} for phi in got],
                                     [{idx[m]: c for m, c in phi.items()}
                                      for phi in want])
                    cases += 1
    assert cases > 500


# -- non-ubiquity -------------------------------------------------------------------------

def test_nonubiquity_instance():
    rep = nonubiquity_instance_check()
    assert rep["ok"], rep
