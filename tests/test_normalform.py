import random
import re

import pytest

from macdual import apolarity
from macdual.apolarity import PartialFiltration, annihilator
from macdual.constructions import random_poly
from macdual.decomposition import symmetric_decomposition
from macdual import normalform
from macdual.errors import DomainError, InternalCheckError
from macdual.fields import Field
from macdual.io import parse_poly
from macdual.linalg import matrix_inverse
from macdual.normalform import (CoordChange, adapted_coordinates,
                                detect_exotic, normalize,
                                split_connected_summand)
from macdual.poly import (DPPoly, PSElement, RingSpec, contract,
                          linear_substitute, pairing, ps_compose,
                          ps_compose_inverse, variable_series)


def mk(vars, src, char=0):
    R = RingSpec(tuple(vars.split(",")), Field(char))
    return R, parse_poly(src, R)


# -- the adjoint map -------------------------------------------------------------

def test_adjoint_table():
    # the change with sigma^{-1}: x -> x - y^2, y -> y
    R = RingSpec(("X", "Y"), Field(0))
    N = 9
    sig = CoordChange.from_inverse_images([R.ps("x-y^2", N), R.ps("y", N)], N)
    table = {
        "X": "X", "Y": "Y",
        "Y^[2]": "Y^[2]-X",
        "Y^[3]": "Y^[3]-X*Y",
        "Y^[4]": "Y^[4]-X*Y^[2]+X^[2]",
        "X^[2]*Y^[2]": "X^[2]*Y^[2]-3*X^[3]",
        "X^[2]*Y^[3]": "X^[2]*Y^[3]-3*X^[3]*Y",
        "X^[2]*Y^[4]": "X^[2]*Y^[4]-3*X^[3]*Y^[2]+6*X^[4]",
        "X^[5]": "X^[5]",
    }
    for src, expect in table.items():
        assert sig.adjoint_apply(parse_poly(src, R)) == parse_poly(expect, R)


def test_adjoint_general_alternating_formula():
    # xi(X^[k] Y^[2v+e]) = sum_i (-1)^i C(k+i, i) X^[k+i] Y^[2v+e-2i]
    from math import comb
    R = RingSpec(("X", "Y"), Field(0))
    N = 14
    sig = CoordChange.from_inverse_images([R.ps("x-y^2", N), R.ps("y", N)], N)
    for k in range(4):
        for m in range(8):
            v, e = divmod(m, 2)
            src = {(k, m): 1}
            from macdual.poly import DPPoly
            got = sig.adjoint_apply(DPPoly(R, src))
            want = DPPoly(R, {(k + i, m - 2 * i): (-1) ** i * comb(k + i, i)
                              for i in range(v + 1)})
            assert got == want


def test_adjoint_identity_and_degree_bound():
    R = RingSpec(("X", "Y", "Z"), Field(101))
    N = 7
    ident = CoordChange.identity(R, N)
    rng = random.Random(4)
    for _ in range(10):
        f = random_poly(R, rng.randint(1, 6), rng)
        assert ident.adjoint_apply(f) == f
    images = [R.ps("x+z^2", N), R.ps("y+x^3", N), R.ps("z", N)]
    sig = CoordChange.from_images(images, N)
    for _ in range(10):
        f = random_poly(R, rng.randint(1, 6), rng)
        assert sig.adjoint_apply(f).degree <= f.degree


def test_adjoint_pairing_identity_random():
    rng = random.Random(12)
    for char in (0, 101):
        R = RingSpec(("X", "Y"), Field(char))
        N = 7
        images = [R.ps("x-y^2", N), R.ps("y+x^2", N)]
        sig = CoordChange.from_images(images, N)
        for _ in range(40):
            F = random_poly(R, rng.randint(1, N - 1), rng)
            g = random_poly(R, rng.randint(1, N - 1), rng)
            phi = PSElement(R, dict(g.coeffs), N)
            # <sigma(g), xi(F)> = <g, F>
            assert pairing(ps_compose(phi, images, N), sig.adjoint_apply(F)) \
                == pairing(phi, F)


def test_coordchange_compose_and_dual_linear():
    R = RingSpec(("X", "Y"), Field(0))
    N = 6
    A = [[1, 2], [1, 3]]
    lin = CoordChange.from_dual_linear(R, A, N)
    rng = random.Random(5)
    for _ in range(8):
        f = random_poly(R, rng.randint(1, 5), rng)
        assert lin.adjoint_apply(f) == linear_substitute(f, A)
    sig = CoordChange.from_inverse_images([R.ps("x-y^2", N), R.ps("y", N)], N)
    comp = lin.compose(sig)
    for _ in range(8):
        f = random_poly(R, rng.randint(1, 5), rng)
        assert comp.adjoint_apply(f) == \
            lin.adjoint_apply(sig.adjoint_apply(f))


def test_substitution_matrix_must_be_r_by_r():
    """A matrix that is not r x r is refused, not truncated by zip."""
    R, g = mk("X,Y", "X^[2]+Y^[2]")
    for M in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]],
              [[1, 0], [0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(DomainError):
            linear_substitute(g, M)
        with pytest.raises(DomainError):
            CoordChange.from_dual_linear(R, M, 4)


def _random_images(R, rng, N):
    """Images of x_i with random invertible linear parts plus a few terms
    of degree two and three."""
    field = R.field
    while True:
        A = [[field.from_int(rng.randint(-2, 2)) for _ in range(R.r)]
             for _ in range(R.r)]
        try:
            matrix_inverse(A, field)
            break
        except DomainError:
            continue
    images = []
    for i in range(R.r):
        img = PSElement(R, {tuple(1 if t == k else 0 for t in range(R.r)):
                            A[i][k] for k in range(R.r)}, N)
        hi = random_poly(R, rng.randint(2, 3), rng, terms=2)
        images.append(img + PSElement(
            R, {m: c for m, c in hi.coeffs.items() if sum(m) >= 2}, N))
    return images


def test_from_inverse_images_rejects_non_invertible():
    R = RingSpec(("X", "Y"), Field(0))
    N = 5
    with pytest.raises(DomainError, match="dependent linear parts"):
        CoordChange.from_inverse_images([R.ps("x+y", N), R.ps("x+y+x^2", N)],
                                        N)
    with pytest.raises(DomainError, match="must lie in the maximal ideal"):
        CoordChange.from_inverse_images([R.ps("1+x", N), R.ps("y", N)], N)


def test_forward_images_are_checked_against_the_inverse():
    rng = random.Random(29)
    for char in (0, 101):
        R = RingSpec(("X", "Y", "Z"), Field(char))
        N = 5
        images = _random_images(R, rng, N)
        inv = ps_compose_inverse(images, N)
        CoordChange(R, images, inv, N)
        wrong = [inv[0] + R.ps("x^2", N)] + inv[1:]
        with pytest.raises(InternalCheckError, match="not the identity"):
            CoordChange(R, images, wrong, N)


def test_lazy_images_match_series_inverse(monkeypatch):
    calls = []
    real = normalform.ps_compose_inverse

    def counted(images, N):
        calls.append(N)
        return real(images, N)

    monkeypatch.setattr(normalform, "ps_compose_inverse", counted)
    rng = random.Random(23)
    for char in (0, 101):
        R = RingSpec(("X", "Y", "Z"), Field(char))
        N = 6
        inv = _random_images(R, rng, N)
        sig = CoordChange.from_inverse_images(inv, N)
        assert not calls            # nothing inverted until images is read
        assert sig.images == real(inv, N)
        assert calls == [N]
        sig.images
        assert calls == [N]         # computed once, then kept
        for i in range(R.r):
            assert ps_compose(inv[i], sig.images, N) == \
                variable_series(R, i, N)
        calls.clear()


def test_compose_nonlinear_changes():
    rng = random.Random(29)
    for char in (0, 101):
        R = RingSpec(("X", "Y"), Field(char))
        N = 6
        for _ in range(2):
            s1 = CoordChange.from_inverse_images(_random_images(R, rng, N), N)
            s2 = CoordChange.from_images(_random_images(R, rng, N), N)
            for a, b in ((s1, s2), (s2, s1), (s1, s1)):
                comp = a.compose(b)
                for _ in range(4):
                    f = random_poly(R, rng.randint(1, N - 1), rng, terms=4)
                    assert comp.adjoint_apply(f) == \
                        a.adjoint_apply(b.adjoint_apply(f))
                # forward images are those of b substituted into those of a
                assert comp.images == [ps_compose(b.images[i], a.images, N)
                                       for i in range(R.r)]
                for i in range(R.r):
                    assert ps_compose(comp.inv_images[i], comp.images, N) \
                        == variable_series(R, i, N)


def test_ps_compose_inverse_general_linear_parts():
    rng = random.Random(31)
    for char in (0, 101):
        for N in range(2, 8):
            R = RingSpec(("X", "Y", "Z")[:rng.randint(2, 3)], Field(char))
            images = _random_images(R, rng, N)
            taus = ps_compose_inverse(images, N)
            for i in range(R.r):
                assert ps_compose(taus[i], images, N) == \
                    variable_series(R, i, N)


def adjoint_apply_pairwise(sigma, F):
    """CoordChange.adjoint_apply as it ran before the divisor table: each
    node of the alpha-tree contracts by w_i through poly.contract, pairing
    every term of w_i with every term of g.  A test-only reference."""
    F.ring.check_same(sigma.ring)
    if F.is_zero:
        return F
    j = F.degree
    ring = sigma.ring
    zero_mon = ring.r * (0,)
    out = {}

    def rec(i, cur, alpha, used):
        if cur.is_zero:
            return
        if i == ring.r:
            c = cur.coeffs.get(zero_mon)
            if c is not None and not ring.field.is_zero(c):
                out[alpha] = c
            return
        e = 0
        g = cur
        while not g.is_zero and used + e <= j:
            rec(i + 1, g, alpha + (e,), used + e)
            g = contract(sigma.inv_images[i], g)
            e += 1

    rec(0, F, (), 0)
    return DPPoly(ring, out)


def adjoint_apply_divisors(sigma, F):
    """CoordChange.adjoint_apply before one-term w_i were contracted as a
    column shift: every contraction w_i o g walks g's terms through the
    ring's divisor table.  A test-only reference."""
    if F.is_zero:
        return F
    j = F.degree
    ring = sigma.ring
    canon = ring.field.canon
    divisors = ring.divisor_table(j)
    ws = [w.coeffs for w in sigma.inv_images]
    zero_mon = ring.r * (0,)
    out = {}

    def rec(i, g, alpha, used):
        if i == ring.r:
            c = g.get(zero_mon)
            if c is not None:
                out[alpha] = c
            return
        e = 0
        while True:
            rec(i + 1, g, alpha + (e,), used + e)
            e += 1
            if used + e > j:
                return
            acc = {}
            for m, a in g.items():
                pairs = iter(divisors[m])
                for b, q in zip(pairs, pairs):
                    c = ws[i].get(b)
                    if c is not None:
                        acc[q] = acc.get(q, 0) + c * a
            g = canon(acc)
            if not g:
                return

    rec(0, F.coeffs, (), 0)
    return DPPoly(ring, out)


@pytest.mark.parametrize("char", [0, 101])
def test_one_term_inverse_images_shift_as_the_divisor_route(char):
    """A one-term w_i = c x_k contracts as a column shift; the identity, a
    diagonal change, and mixed changes whose w_i are one-term for some i
    (scaled and permuted variables) and dense for the others give the
    divisor route's monomials, values, value types and order."""
    rng = random.Random(3400 + char)
    field = Field(char)
    for r in range(1, 5):
        R = RingSpec(("X", "Y", "Z", "W")[:r], field)
        N = (9, 7, 6, 5)[r - 1]
        xs = [variable_series(R, i, N) for i in range(r)]
        diag = [x.scale(field.from_int(rng.choice((2, 3, -1, 5))))
                for x in xs]
        dense = [x + _high_terms(R, rng, 2, N, 4) for x in xs]
        perm = rng.sample(range(r), r)
        mixed = [diag[perm[i]] if i % 2 == 0 else dense[i]
                 for i in range(r)]
        changes = [CoordChange.identity(R, N)]
        for ws in (diag, mixed):
            try:
                changes.append(CoordChange.from_inverse_images(ws, N))
            except DomainError:     # dependent linear parts
                continue
        assert len(changes) > 1
        for sigma in changes:
            Fs = [random_poly(R, rng.randint(1, N - 1), rng, terms=5)
                  for _ in range(4)]
            Fs.append(DPPoly(R, {(N - 1,) + (r - 1) * (0,): field.one}))
            for F in Fs:
                got = sigma.adjoint_apply(F)
                want = adjoint_apply_divisors(sigma, F)
                assert repr(list(got.coeffs.items())) == \
                    repr(list(want.coeffs.items())), (char, r, F)


def _high_terms(R, rng, lo, hi, count):
    """A few random terms of degrees lo..hi, as a PSElement to degree hi."""
    mons = [m for d in range(lo, hi + 1) for m in R.monomials(d)]
    return PSElement(R, {m: R.field.from_int(rng.randint(-4, 4))
                         for m in rng.sample(mons, min(count, len(mons)))}, hi)


@pytest.mark.parametrize("char", [0, 2, 3, 101])
def test_adjoint_matches_pairwise_reference(char):
    rng = random.Random(1400 + char)
    field = Field(char)
    for r in range(1, 5):
        R = RingSpec(("X", "Y", "Z", "W")[:r], field)
        N = (7, 7, 6, 5)[r - 1]
        lin = _random_images(R, rng, N)
        A = [[im.coeffs.get(u, 0) for u in R.monomials(1)] for im in lin]
        # inverse images reaching degree N, above every F below
        wide = [im + _high_terms(R, rng, 2, N, 3) for im in lin]
        changes = [CoordChange.identity(R, N),
                   CoordChange.from_dual_linear(R, A, N),
                   CoordChange.from_inverse_images(wide, N),
                   CoordChange.from_images(_random_images(R, rng, N), N)]
        changes.append(changes[2].compose(changes[3]))
        changes.append(changes[1].compose(changes[2]))
        const = R.r * (0,)
        for sigma in changes:
            Fs = [DPPoly(R, {}), DPPoly(R, {const: 3}),
                  random_poly(R, N - 1, rng, terms=4),
                  random_poly(R, N - 1, rng, terms=3)
                  + DPPoly(R, {const: -1})]
            Fs += [random_poly(R, rng.randint(1, N - 1), rng, terms=4)
                   for _ in range(3)]
            for F in Fs:
                got = sigma.adjoint_apply(F)
                want = adjoint_apply_pairwise(sigma, F)
                # same monomials, values, value types and order
                assert repr(list(got.coeffs.items())) == \
                    repr(list(want.coeffs.items())), (char, r, F)


# -- adapted coordinates and exotic terms ---------------------------------------------

def test_adapted_coordinates_stretched():
    R, f = mk("X,Y", "Y^[4]+Y^[2]*X")
    frame = adapted_coordinates(f)
    assert frame.n_seq == (1, 1, 2)
    w1, w2 = frame.parameters
    # the first parameter contracts f by one degree, the second by three
    assert contract(w1, f).degree == 3
    assert contract(w2, f).degree == 1


def test_detect_exotic_examples():
    R, f = mk("X,Y", "X^[3]+X*Y")
    rep = detect_exotic(f)
    assert rep.n_seq == (1, 1)
    assert [(d, str(t)) for d, t in rep.exotic_terms] == [(2, "X*Y")]

    R, f = mk("X,Y,Z", "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z")
    rep = detect_exotic(f)
    assert rep.n_seq == (1, 1, 2, 2, 3)
    assert sorted(str(t) for _, t in rep.exotic_terms) == \
        ["X*Y*Z", "X^[3]*Z", "X^[4]*Y"]

    # generic homogeneous generator in its own variables: nothing exotic
    rng = random.Random(8)
    from macdual.constructions import random_form
    R = RingSpec(("X", "Y"), Field(0))
    for _ in range(5):
        rep = detect_exotic(random_form(R, 4, rng))
        assert not rep.has_exotic


def test_normalize_examples():
    R, f = mk("X,Y", "Y^[4]+Y^[2]*X")
    g, change = normalize(f)
    # adapted letters are assigned level by level, so this is the paper's
    # Y^[4] - X^[2] with the two directions named X, Y in order
    assert g == parse_poly("X^[4]-Y^[2]", R)
    assert not detect_exotic(g).has_exotic
    assert annihilator(g).dim == annihilator(f).dim

    g2, _ = normalize(g)
    assert g2 == g


def test_normalize_invariance_random():
    rng = random.Random(21)
    for char in (0, 101):
        R = RingSpec(("X", "Y", "Z"), Field(char))
        for _ in range(8):
            f = random_poly(R, rng.randint(2, 5), rng)
            g, change = normalize(f)
            assert not detect_exotic(g).has_exotic
            assert symmetric_decomposition(g).components == \
                symmetric_decomposition(f).components
            assert normalize(g)[0] == g


def test_split_stretched_example():
    R, f = mk("X,Y", "Y^[4]+Y^[2]*X")
    res = split_connected_summand(f)
    assert res.summand_main == parse_poly("X^[4]", R)
    assert res.summand_quadric == parse_poly("-Y^[2]", R)
    assert res.generator == parse_poly("X^[4]-Y^[2]", R)
    assert res.change.adjoint_apply(f) == res.generator


def test_split_family():
    # Y^[4] + a Y^[2]X + b YX + c X^[2] splits whenever the top component
    # keeps the (0,s,0) shape (special values can degenerate to the
    # curvilinear case and are skipped)
    R = RingSpec(("X", "Y"), Field(0))
    checked = 0
    for (a, b, c) in [(1, 0, 0), (1, 2, 3), (2, -1, 5), (3, 1, 0), (5, 0, 2)]:
        f = parse_poly("Y^[4]", R) \
            + parse_poly("X*Y^[2]", R).scale(a) \
            + parse_poly("X*Y", R).scale(b) \
            + parse_poly("X^[2]", R).scale(c)
        D = symmetric_decomposition(f)
        if D.components[2] != (0, 1, 0):
            continue
        res = split_connected_summand(f)
        assert not (res.summand_main.variables_used()
                    & res.summand_quadric.variables_used())
        assert symmetric_decomposition(res.generator).components == D.components
        checked += 1
    assert checked >= 4


def test_split_wider_quadric():
    R = RingSpec(("X", "Y", "Z"), Field(0))
    f = parse_poly("X^[5]+Y^[2]+Y*Z+3*Z^[2]", R)
    res = split_connected_summand(f)
    D = symmetric_decomposition(f)
    assert D.components[3] == (0, 2, 0)
    assert res.summand_main.variables_used() == {0}
    assert res.summand_quadric.variables_used() == {1, 2}
    I = annihilator(res.generator)
    for mon in ("x*y", "x*z"):
        assert I.contains(res.ring.ps(mon, 7))


def test_split_errors():
    R2 = RingSpec(("X", "Y"), Field(2))
    with pytest.raises(DomainError):
        split_connected_summand(parse_poly("Y^[4]+Y^[2]*X", R2))
    R, f = mk("X,Y", "X^[3]+Y^[4]")
    with pytest.raises(DomainError):
        split_connected_summand(f)


@pytest.mark.parametrize("char", [0, 101])
def test_split_witness_in_reduced_ring(char):
    """The embedding dimension 2 is below r = 3: the summands live over
    X, Y, and the change, in f's ring, reproduces the generator there."""
    R, f = mk("X,Y,Z", "X^[4]+X*Y+Y^[2]+Z", char)
    res = split_connected_summand(f)
    assert res.ring.vars == ("X", "Y")
    assert res.summand_main == parse_poly("X^[4]-X^[2]", res.ring)
    assert res.summand_quadric == parse_poly("Y^[2]", res.ring)
    assert res.change.ring == R
    assert res.change.adjoint_apply(f).drop_constant() == \
        res.generator.embed(f.ring)


def test_split_builds_one_filtration(monkeypatch):
    built = []
    init = apolarity.PartialFiltration.__init__

    def counting(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(apolarity.PartialFiltration, "__init__", counting)
    for vars, src in (("X,Y", "Y^[4]+Y^[2]*X"),
                      ("X,Y,Z", "X^[4]+X*Y+Y^[2]+Z")):
        built.clear()
        split_connected_summand(mk(vars, src)[1])
        assert len(built) == 1


@pytest.mark.parametrize("vars,src", [("X", "X^[400]"),
                                      ("X,Y", "X^[40]*Y^[40]+X^[30]")])
def test_adapted_frame_reduces_square_space_once(monkeypatch, vars, src):
    """The frame reduces no row of m^2 o f once per cut: building m^2 o f
    reduces r shifts of each of its rows (fewer than dim A_f) and a few
    products of two variables, and each of the j cuts 3r vectors.  So
    Echelon.reduce runs at most r (dim A_f - 1) + 4 r j times, 5j for one
    variable; rebuilding the truncated rows at every cut took 80,603 for
    X^[400] and 70,684 for the two-variable form."""
    R, f = mk(vars, src)
    P = PartialFiltration(f)
    n_seq = symmetric_decomposition(P).n_seq
    calls = []
    reduce = normalform.Echelon.reduce

    def counting(self, vec):
        calls.append(None)
        return reduce(self, vec)

    monkeypatch.setattr(normalform.Echelon, "reduce", counting)
    normalform._adapted_frame(P, n_seq)
    assert len(calls) <= R.r * (P.level(0).dim - 1) + 4 * R.r * P.j


def test_filtration_argument_matches_generator():
    """normalize, adapted_coordinates and split_connected_summand give the
    same answers for f and for its PartialFiltration."""
    examples = [mk("X,Y", "Y^[4]+Y^[2]*X"),
                mk("X,Y,Z", "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z"),
                mk("X,Y,Z,W", "X^[5]+X*Y^[2]*Z+W^[2]"),
                mk("X,Y,Z", "X^[5]+Y^[2]+Y*Z+3*Z^[2]")]
    rng = random.Random(41)
    for char in (0, 101):
        examples.append(mk("X,Y,Z", "X^[4]+X*Y+Y^[2]+Z", char))
        R = RingSpec(("X", "Y", "Z"), Field(char))
        examples += [(R, random_poly(R, rng.randint(2, 5), rng))
                     for _ in range(6)]
    splits = 0
    for _, f in examples:
        P = PartialFiltration(f)
        g, change = normalize(f)
        gP, changeP = normalize(P)
        assert gP == g and changeP.inv_images == change.inv_images
        a, b = adapted_coordinates(f), adapted_coordinates(P)
        assert (a.parameters, a.levels, a.n_seq) == \
            (b.parameters, b.levels, b.n_seq)
        try:
            res = split_connected_summand(f)
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                split_connected_summand(P)
            continue
        resP = split_connected_summand(P)
        assert resP.change.inv_images == res.change.inv_images
        assert resP._replace(change=None) == res._replace(change=None)
        splits += 1
    assert splits >= 4


def test_decomposition_invariance_under_random_changes():
    rng = random.Random(31)
    for char in (0, 101):
        R = RingSpec(("X", "Y"), Field(char))
        N = 8
        for _ in range(6):
            f = random_poly(R, rng.randint(2, 6), rng)
            images = []
            for i in range(2):
                img = variable_series(R, i, N)
                hi = random_poly(R, rng.randint(2, 3), rng, terms=2)
                images.append(img + PSElement(
                    R, {m: c for m, c in hi.coeffs.items() if sum(m) >= 2}, N))
            if rng.random() < .5:
                images = [images[1], images[0]]
            sig = CoordChange.from_images(images, N)
            xf = sig.adjoint_apply(f)
            assert symmetric_decomposition(xf).components == \
                symmetric_decomposition(f).components


def test_adapted_parameters_exact():
    R, f = mk("X,Y", "Y^[4]+Y^[2]*X")
    frame = adapted_coordinates(f)
    assert [str(w) for w in frame.parameters] == ["y", "x-y^2"]
    assert frame.levels == [0, 2]


@pytest.mark.parametrize("char", [0, 2, 101], ids=["Q", "F2", "F101"])
def test_normalize_at_socle_degree_one(char):
    """A linear f (j = 1) has one level-0 parameter, with w o f a nonzero
    constant, and r - 1 padding parameters in Ann f; its normal form is
    c * X_1.  Before the padding cut moved to -1 at j = 1, both of
    _adapted_frame's cuts were 0, level 0 got no parameter, and every
    call raised InternalCheckError."""
    rng = random.Random(char + 31)
    field = Field(char)
    for r in (1, 2, 3):
        R = RingSpec(("X", "Y", "Z")[:r], field)
        srcs = ["+".join(R.vars), R.vars[-1]] + [
            "+".join("%d*%s" % (rng.randint(1, 9), v) for v in R.vars)
            for _ in range(3)]
        for src in srcs:
            f = parse_poly(src, R).drop_constant()
            if f.is_zero:
                continue
            frame = adapted_coordinates(f)
            assert frame.n_seq == (1,)
            assert frame.levels == [0] + [None] * (r - 1)
            w1, *padding = frame.parameters
            assert contract(w1, f).degree == 0
            assert all(contract(w, f).is_zero for w in padding)
            g, _ = normalize(f)
            assert g.degree == 1
            assert {m for m in g.coeffs} == {(1,) + (0,) * (r - 1)}
            assert not detect_exotic(g).has_exotic
            assert normalize(g)[0] == g


def test_normalize_embedding_reduction():
    R, f = mk("X,Y", "(X+Y)^[3]")
    assert normalize(f)[0] == parse_poly("X^[3]", R)
    R, f = mk("X,Y", "X^[3]+Y")
    assert normalize(f)[0] == parse_poly("X^[3]", R)


def test_linear_substitute_congruence_oracle():
    # a change of basis embedding a congruence transform diagonalizes a
    # divided-power quadric; the rank (count of nonzero diagonal entries)
    # matches the rank of the coefficient matrix
    from macdual.normalform import _congruent_diagonal
    from test_linalg import rref  # the dense oracle, not Echelon
    rng = random.Random(17)
    for char in (0, 101):
        field = Field(char)
        R = RingSpec(("X", "Y"), field)
        for _ in range(25):
            q = parse_poly("0", R)
            S = [[field.zero] * 2 for _ in range(2)]
            from macdual.poly import DPPoly
            coeffs = {}
            for (i, k) in ((0, 0), (0, 1), (1, 1)):
                c = field.from_int(rng.randint(-4, 4))
                S[i][k] = c
                S[k][i] = c
                mon = [0, 0]
                mon[i] += 1
                mon[k] += 1
                coeffs[tuple(mon)] = c
            q = DPPoly(R, coeffs)
            if q.is_zero:
                continue
            P, diag = _congruent_diagonal(S, field)
            A = [[P[k][i] for k in range(2)] for i in range(2)]
            out = linear_substitute(q, A)
            assert all(max(m) == 2 for m in out.coeffs), out
            nonzero = sum(1 for d in diag if not field.is_zero(d))
            assert nonzero == rref(S, field)[2]
