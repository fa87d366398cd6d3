"""Acceptance gate.

One test per criterion; each prints a single pass line (pytest shows it with
-s, and any failure is a plain assertion).  All arithmetic is exact, so every
comparison is exact equality.
"""

import itertools
from pathlib import Path

import pytest

from macdual.constructions import nonubiquity_instance_check
from macdual.decomposition import symmetric_decomposition
from macdual.fields import Field
from macdual.fuzz import FuzzReport, run_suite
from macdual.io import corpus_load, corpus_verify
from macdual.linalg import det
from macdual.poly import DPPoly, RingSpec

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"


def _status(name, ok):
    print("ACCEPTANCE %-28s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


# -- 1: corpus exactness -------------------------------------------------------

def test_criterion_1_corpus_exactness():
    entries = corpus_load(CORPUS)
    assert len(entries) >= 20
    bad = []
    for entry in entries:
        for rep in corpus_verify(entry):
            if not rep["ok"]:
                bad.append(rep)
    for rep in bad:
        print(rep)
    _status("1 corpus-exactness", not bad)


# -- 2: characteristic dependence ------------------------------------------------

def test_criterion_2_characteristic_dependence():
    ok = True
    gen = "(X+Y)^[6]+X^[2]*Y^[2]"
    R0 = RingSpec(("X", "Y"), Field(0))
    from macdual.io import parse_poly
    D0 = symmetric_decomposition(parse_poly(gen, R0))
    ok &= D0.hilbert == (1, 2, 3, 2, 1, 1, 1)
    R3 = RingSpec(("X", "Y"), Field(3))
    for lform in ("(X+Y)", "(X+2*Y)"):
        D3 = symmetric_decomposition(parse_poly(lform + "^[6]+X^[2]*Y^[2]", R3))
        ok &= D3.hilbert == (1, 2, 2, 2, 1, 1, 1)
    # det of the degree-n coefficient matrix equals (n+1) a^n
    Q = Field(0)
    for n in (2, 3, 4):
        for a in (1, 2, 3):
            M = [[0] * (n + 1) for _ in range(n + 1)]
            for i in range(n + 1):
                M[i][0] = a ** i
            for col in range(1, n + 1):
                M[col - 1][col] = -1
                M[col][col] = a
            ok &= det(M, Q) == (n + 1) * a ** n
    _status("2 characteristic-dependence", ok)


# -- 3: ideal presentations ---------------------------------------------------------

def test_criterion_3_ideal_presentations():
    entries = corpus_load(CORPUS)
    listed = sum(("ideal_gens" in e.expect) + ("graded_ideal_gens" in e.expect)
                 for e in entries)
    assert listed >= 10
    bad = []
    for entry in entries:
        if "ideal_gens" not in entry.expect and \
                "graded_ideal_gens" not in entry.expect:
            continue
        for rep in corpus_verify(entry):
            for m in rep["mismatches"]:
                if m["field"] in ("ideal_gens", "graded_ideal_gens"):
                    bad.append((entry.name, m))
    _status("3 ideal-presentations (%d lists)" % listed, not bad)


# -- 4: property suites --------------------------------------------------------------

SUITE_PLAN = [
    ("a", ("symmetry",)),
    ("b", ("transpose",)),
    ("c", ("unit",)),
    ("d", ("partial", "hfineq")),
    ("e", ("adjoint",)),
    ("f", ("allowed-set", "restricted")),
    ("g", ("linearzlem",)),
    ("h", ("maxprop",)),
    ("i", ("normalize",)),
    ("j", ("split",)),
]


def _run_plan(letter, names, trials=200, seed=20240801):
    ok = True
    for name in names:
        rep = run_suite(name, trials, seed)
        print("   ", rep.line())
        for fl in rep.failures[:5] + rep.errors[:5]:
            print("      ", fl)
        ok &= rep.ok and rep.checked >= trials - rep.skipped
        ok &= rep.checked + rep.skipped == trials
    _status("4%s %s" % (letter, "+".join(names)), ok)


def test_criterion_4a():
    _run_plan(*SUITE_PLAN[0])


def test_criterion_4b():
    _run_plan(*SUITE_PLAN[1])


def test_criterion_4c():
    _run_plan(*SUITE_PLAN[2])


def test_criterion_4d():
    _run_plan(*SUITE_PLAN[3])


def test_criterion_4e():
    _run_plan(*SUITE_PLAN[4])


def test_criterion_4f():
    _run_plan(*SUITE_PLAN[5])


def test_criterion_4g():
    _run_plan(*SUITE_PLAN[6])


def test_criterion_4h():
    _run_plan(*SUITE_PLAN[7])


def test_criterion_4i():
    _run_plan(*SUITE_PLAN[8])


def test_criterion_4j():
    _run_plan(*SUITE_PLAN[9])


def test_run_plan_prints_suite_errors(monkeypatch, capsys):
    """A suite whose trials raise fails the gate with the exceptions shown,
    not only a bare ERROR count."""
    def raising(name, trials, seed):
        return FuzzReport(name, trials, seed, checked=trials - 1,
                          errors=["trial 0: error: ZeroDivisionError()"])

    monkeypatch.setitem(globals(), "run_suite", raising)
    with pytest.raises(AssertionError):
        _run_plan("z", ("raising",), trials=2)
    assert "trial 0: error: ZeroDivisionError()" in capsys.readouterr().out


# -- 5: brute-force oracle equivalence ---------------------------------------------

P5 = 5


def _rank5(rows):
    if not rows:
        return 0
    rows = [r[:] for r in rows]
    ncols = len(rows[0])
    lead = 0
    for c in range(ncols):
        piv = None
        for r in range(lead, len(rows)):
            if rows[r][c] % P5:
                piv = r
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][c], P5 - 2, P5)
        rows[lead] = [x * inv % P5 for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][c] % P5:
                f = rows[r][c]
                rows[r] = [(x - f * y) % P5 for x, y in zip(rows[r], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return lead


def _nullspace5(rows, ncols):
    if not rows:
        return [[1 if i == k else 0 for i in range(ncols)]
                for k in range(ncols)]
    m = [r[:] for r in rows]
    piv_cols = []
    lead = 0
    for c in range(ncols):
        piv = None
        for r in range(lead, len(m)):
            if m[r][c] % P5:
                piv = r
                break
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = pow(m[lead][c], P5 - 2, P5)
        m[lead] = [x * inv % P5 for x in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][c] % P5:
                f = m[r][c]
                m[r] = [(x - f * y) % P5 for x, y in zip(m[r], m[lead])]
        piv_cols.append(c)
        lead += 1
    out = []
    for free in range(ncols):
        if free in piv_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(piv_cols):
            v[c] = (-m[r][free]) % P5
        out.append(v)
    return out


def _naive_machine(fcoeffs, j):
    """Dimensions of all P(s,t) for a 2-variable generator over F_5, via
    plain monomial contractions and rank identities (no echelon pivots,
    no leading-term bookkeeping)."""
    mons = [(a, d - a) for d in range(j + 1) for a in range(d, -1, -1)]
    idx = {m: i for i, m in enumerate(mons)}
    n = len(mons)

    def contract_vec(beta):
        v = [0] * n
        for (a, b), c in fcoeffs.items():
            aa, bb = a - beta[0], b - beta[1]
            if aa >= 0 and bb >= 0:
                v[idx[(aa, bb)]] = c % P5
        return v

    partials = {}
    for d in range(j + 1):
        for a in range(d + 1):
            v = contract_vec((a, d - a))
            if any(v):
                partials[(a, d - a)] = v

    basis_cache = {}

    def basis(s, t):
        """Rows spanning (m^s o f) intersected with degrees <= t."""
        if s < 0:
            s = 0
        if (s, t) in basis_cache:
            return basis_cache[(s, t)]
        rows = [v for (a, b), v in partials.items() if a + b >= s]
        if not rows or t < 0:
            basis_cache[(s, t)] = []
            return []
        high = [i for i, m in enumerate(mons) if sum(m) > t]
        if high:
            cond = [[row[i] for row in rows] for i in high]
            combos = _nullspace5(cond, len(rows))
        else:
            combos = [[1 if i == k else 0 for i in range(len(rows))]
                      for k in range(len(rows))]
        out = []
        for c in combos:
            v = [0] * n
            for coef, row in zip(c, rows):
                if coef:
                    v = [(x + coef * y) % P5 for x, y in zip(v, row)]
            if any(v):
                out.append(v)
        basis_cache[(s, t)] = out
        return out

    return basis


def _naive_decomposition(fcoeffs, j):
    basis = _naive_machine(fcoeffs, j)
    H = []
    prev = 0
    for i in range(j + 1):
        cur = _rank5(basis(0, i))
        H.append(cur - prev)
        prev = cur
    comps = []
    for a in range(max(j - 1, 1)):
        row = []
        for i in range(j - a + 1):
            s = j - a - i
            num = _rank5(basis(s, i))
            den = _rank5(basis(s, i - 1) + basis(s + 1, i))
            row.append(num - den)
        comps.append(tuple(row))
    return tuple(H), tuple(comps)


def test_criterion_5_brute_force_oracle():
    ring = RingSpec(("X", "Y"), Field(5))
    mons = [(a, d - a) for d in range(1, 5) for a in range(d + 1)]
    cases = []
    for m in mons:
        cases.append({m: 1})
    for m1, m2 in itertools.combinations(mons, 2):
        for c in range(1, 5):
            cases.append({m1: 1, m2: c})
    for sup in itertools.combinations(mons, 3):
        cases.append({m: 1 for m in sup})
    for sup in itertools.combinations(mons, 4):
        cases.append({m: 1 for m in sup})
    checked = 0
    for coeffs in cases:
        j = max(a + b for a, b in coeffs)
        f = DPPoly(ring, coeffs)
        D = symmetric_decomposition(f)
        H, comps = _naive_decomposition(coeffs, j)
        assert D.hilbert == H, coeffs
        assert D.components == comps, coeffs
        checked += 1
    print("    %d generators compared against the naive oracle" % checked)
    _status("5 brute-force-oracle", checked == len(cases))


# -- 6: the non-ubiquity instance and fuzz --------------------------------------------

def test_criterion_6_nonubiquity():
    rep = nonubiquity_instance_check()
    print("    instance:", {k: v for k, v in rep.items() if k != "hilbert"})
    ok = rep["ok"]
    fz = run_suite("nonubiquity", 24, 77)
    print("   ", fz.line())
    ok &= fz.ok and fz.checked >= 20
    _status("6 nonubiquity", ok)


# -- 1b: constructive worked values outside the corpus schema -------------------------

def test_criterion_1b_constructive_values():
    from macdual.constructions import (ExtensionSpec,
                                       relatively_compressed_modification,
                                       restricted_components)
    from macdual.decomposition import dual_component_basis
    from macdual.io import parse_poly
    from macdual.normalform import normalize
    ok = True
    # curvilinear tower of relatively compressed modifications (seeded)
    R4 = RingSpec(("X", "Y", "Z", "W"), Field(0))
    f5 = parse_poly("X^[5]", R4)
    for a, H in ((1, (1, 4, 10, 4, 1, 1)), (2, (1, 4, 4, 1, 1, 1)),
                 (3, (1, 4, 1, 1, 1, 1))):
        _, D = relatively_compressed_modification(f5, a, seed=11)
        ok &= D.hilbert == H
    head = parse_poly("X^[5]+X*Y^[2]*Z", R4)
    _, D = relatively_compressed_modification(head, 2, seed=5)
    ok &= D.hilbert == (1, 4, 6, 3, 1, 1) and D.components[2] == (0, 1, 1, 0)
    # per-summand module dimensions of the two-summand worked example
    R2 = RingSpec(("X", "Y"), Field(0))
    spec = ExtensionSpec(parse_poly("X^[4]*Y^[7]", R2),
                         [parse_poly("X^[5]*Y^[3]", R2),
                          parse_poly("X^[6]+Y^[6]", R2)], ("Z1", "Z2"))
    data = restricted_components(spec)
    ok &= data["B_pairs"][(1, 2)] == {2: 1, 3: 1}
    ok &= data["B_pairs"][(2, 1)] == {2: 1, 3: 1}
    ok &= data["B_pairs"][(1, 1)] == {} and data["B_pairs"][(2, 2)] == {}
    # normal form of the stretched example
    g, _ = normalize(parse_poly("Y^[4]+Y^[2]*X", R2))
    ok &= g == parse_poly("X^[4]-Y^[2]", R2)
    # dual-module bases of the quartic-cubic example
    from macdual.apolarity import PartialFiltration
    P = PartialFiltration(parse_poly("X^[3]+Y^[4]", R2))
    mod = dual_component_basis(P, 1)
    ok &= [str(p) for p in mod.basis_polys(1)] == ["X"] and \
        [str(p) for p in mod.basis_polys(2)] == ["X^[2]"]
    _status("1b constructive-values", ok)
