"""The engine's result records: plain classes and named tuples that take
their fields by position and by keyword, with fresh defaults per
instance."""

import pytest

from macdual.constructions import AncestorData, ExtensionSpec
from macdual.decomposition import GradedIdealData, QDualModule, SymDecomp
from macdual.errors import DomainError, RingMismatchError
from macdual.fields import Field
from macdual.fuzz import FuzzReport
from macdual.io import parse_poly
from macdual.normalform import AdaptedFrame, ExoticReport, SplitResult
from macdual.poly import RingSpec

RECORDS = (
    (QDualModule, ("a", "dims", "bases", "_filtration")),
    (SymDecomp, ("socle_degree", "hilbert", "components", "n_seq", "bases")),
    (GradedIdealData, ("ring", "socle_degree", "dims", "spaces")),
    (AdaptedFrame, ("parameters", "levels", "n_seq", "change")),
    (ExoticReport, ("n_seq", "adapted_basis", "witness_levels",
                    "exotic_terms", "exotic_adapted")),
    (SplitResult, ("summand_main", "summand_quadric", "ring", "change",
                   "generator")),
    (AncestorData, ("degree", "dim", "tau", "colon_dims")),
    (FuzzReport, ("suite", "trials", "seed", "checked", "skipped",
                  "failures", "errors")),
)


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_fields_by_position_and_keyword(cls, fields):
    values = [object() for _ in fields]
    for rec in (cls(*values), cls(**dict(zip(fields, values)))):
        for name, value in zip(fields, values):
            assert getattr(rec, name) is value
    with pytest.raises(TypeError):
        cls(*values, object())


def test_defaults_are_fresh_per_instance():
    for make, names, empty in (
            (lambda: QDualModule(1, (0, 1)), ("bases",), {}),
            (lambda: QDualModule(a=1, dims=(0, 1)), ("bases",), {}),
            (lambda: ExoticReport((1,), [], [], []), ("exotic_adapted",), {}),
            (lambda: FuzzReport("unit", 3, 0), ("failures", "errors"), [])):
        one, two = make(), make()
        for name in names:
            assert getattr(one, name) == getattr(two, name) == empty
            assert getattr(one, name) is not getattr(two, name)
    assert QDualModule(1, (0, 1))._filtration is None
    rep = FuzzReport("unit", 3, 0)
    assert (rep.checked, rep.skipped, rep.ok) == (0, 0, True)
    assert SymDecomp(2, (1, 1, 1), ((1, 1, 1),), (1,)).bases is None


def test_symdecomp_bases_and_fuzz_counts_are_assignable():
    D = SymDecomp(2, (1, 1, 1), ((1, 1, 1),), (1,))
    D.bases = {0: QDualModule(0, (1, 1, 1))}
    assert D.bases[0].a == 0
    rep = FuzzReport("unit", 3, 0)
    rep.checked += 2
    rep.skipped += 1
    rep.failures.append("trial 0: x")
    assert rep.line() == ("fuzz unit         seed=0 trials=3 checked=2 "
                          "skipped=1 FAIL(1)")


R = RingSpec(("X", "Y"), Field(0))


@pytest.mark.parametrize("base, summands, z_names, message", [
    ("X^[3]+Y", ["X^[2]"], ("Z",),
     "base generator must be homogeneous and nonzero"),
    ("0", ["X^[2]"], ("Z",), "base generator must be homogeneous and nonzero"),
    ("X^[5]", ["X^[2]+Y"], ("Z",),
     "summands must be nonzero homogeneous forms"),
    ("X^[5]", ["X^[2]"], ("Z1", "Z2"),
     "one fresh variable per summand is required"),
    ("X^[5]", [], (), "one fresh variable per summand is required"),
    ("X^[6]", ["X^[2]", "Y^[3]"], ("Z1", "Z2"),
     "summand degrees must be weakly decreasing"),
    ("X^[5]", ["X^[4]"], ("Z",), "summand degrees must lie in 1..j-2"),
])
def test_extension_spec_refuses_bad_input(base, summands, z_names, message):
    with pytest.raises(DomainError) as exc:
        ExtensionSpec(parse_poly(base, R), [parse_poly(h, R) for h in summands],
                      z_names)
    assert str(exc.value) == message


def test_extension_spec_derived_fields():
    f = parse_poly("X^[6]+3+X^[3]*Y^[3]", R)
    hs = [parse_poly("X^[4]", R), parse_poly("Y^[2]", R)]
    for spec in (ExtensionSpec(f, hs, ("Z1", "Z2")),
                 ExtensionSpec(base=f, summands=hs, z_names=("Z1", "Z2"))):
        assert spec.base == f.drop_constant() and spec.ring is R
        assert spec.summands is hs and spec.z_names == ("Z1", "Z2")
        assert (spec.degrees, spec.socle_degree, spec.indices) == \
            ([4, 2], 6, [1, 3])
    other = parse_poly("X^[2]", RingSpec(("X", "W"), Field(0)))
    with pytest.raises(RingMismatchError):
        ExtensionSpec(f, [other], ("Z",))
