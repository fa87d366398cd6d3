from pathlib import Path

import pytest

from macdual import apolarity
from macdual.errors import ParseError, SchemaError
from macdual.fields import Field
from macdual.io import (corpus_load, corpus_verify, parse_poly, parse_ps,
                        render_decomposition)
from macdual.decomposition import symmetric_decomposition
from macdual.poly import RingSpec


def R(vars="XY", char=0):
    return RingSpec(tuple(vars), Field(char))


def test_parse_basic():
    ring = RingSpec(("X", "Y", "Z", "W"), Field(0))
    f = parse_poly("X^[5]+X*Y^[2]*Z+W^[2]", ring)
    assert f.coeffs == {(5, 0, 0, 0): 1, (1, 2, 1, 0): 1, (0, 0, 0, 2): 1}


def test_parse_linear_power_and_conversion():
    ring = R()
    assert parse_poly("(X+Y)^[5]", ring).coeffs == \
        {(i, 5 - i): 1 for i in range(6)}
    # ordinary caret converts through the factorial
    assert parse_poly("X^2", ring) == parse_poly("2*X^[2]", ring)
    assert parse_poly("X^3", RingSpec(("X",), Field(3))).is_zero
    assert parse_poly("3/2*X-1/2*Y", ring).coeffs == \
        {(1, 0): Field(0).fraction(3, 2), (0, 1): Field(0).fraction(-1, 2)}
    assert parse_poly("- X + Y", ring).coeffs == {(1, 0): -1, (0, 1): 1}


def test_parse_ps_side():
    ring = R()
    phi = parse_ps("y-x^2", ring)
    assert phi.coeffs == {(0, 1): 1, (2, 0): -1}
    # ordinary powers multiply plainly on the local-ring side
    assert parse_ps("x*x", ring) == parse_ps("x^2", ring)


def test_parse_errors():
    ring = R()
    with pytest.raises(ParseError):
        parse_poly("X+Q", ring)          # unknown variable
    with pytest.raises(ParseError):
        parse_poly("(X^[2]+Y)^[2]", ring)  # non-linear base under ^[k]
    with pytest.raises(ParseError):
        parse_poly("1/0*X", ring)        # zero denominator
    with pytest.raises(ParseError):
        parse_poly("X^[2]Y", ring)       # missing *
    with pytest.raises(ParseError):
        parse_poly("", ring)
    with pytest.raises(ParseError):
        parse_ps("x^[2]", ring)          # divided powers not allowed in R
    err = None
    try:
        parse_poly("X + 1/0", ring)
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset > 0 and err.excerpt


def test_parse_render_roundtrip():
    ring = RingSpec(("X", "Y", "Z"), Field(0))
    for src in ("X^[5]+X*Y^[2]*Z", "3*X^[2]-1/2*Y^[2]+Z", "X*Y*Z",
                "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z"):
        f = parse_poly(src, ring)
        assert parse_poly(str(f), ring) == f
    phi = parse_ps("y^2*z-x^4+2*x*y", ring)
    assert parse_ps(str(phi), ring) == phi


def test_render_decomposition_styles():
    ring = RingSpec(("X", "Y", "Z", "W"), Field(0))
    D = symmetric_decomposition(parse_poly("X^[5]+X*Y^[2]*Z+W^[2]", ring))
    table = render_decomposition(D)
    lines = table.splitlines()
    assert lines[0].startswith("H(0)") and lines[-1].startswith("H(A)")
    assert "0  2  4  2  0" in table
    suppressed = render_decomposition(D, suppress_zero=True)
    assert "H(2)" not in suppressed and "H(1)" in suppressed
    js = render_decomposition(D, style="json")
    import json
    doc = json.loads(js)
    assert doc["socle_degree"] == 5
    assert doc["hilbert"] == [1, 4, 5, 3, 1, 1]
    assert doc["n"] == [1, 3, 3, 4]
    assert doc["decomposition"][1] == {"a": 1, "H": [0, 2, 4, 2, 0]}
    assert list(doc) == ["socle_degree", "hilbert", "decomposition", "n"]


def test_corpus_schema(tmp_path):
    good = tmp_path / "good.corpus"
    good.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n")
    entries = corpus_load(good)
    assert len(entries) == 1
    reports = corpus_verify(entries[0])
    assert all(r["ok"] for r in reports)

    bad = tmp_path / "bad.corpus"
    bad.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\n"
        "hilbert 1,1,1,1\nfrobnicate yes\nend\n")
    with pytest.raises(SchemaError):
        corpus_load(bad)

    missing = tmp_path / "missing.corpus"
    missing.write_text("entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\nend\n")
    with pytest.raises(SchemaError):
        corpus_load(missing)

    unterminated = tmp_path / "open.corpus"
    unterminated.write_text(
        "entry demo\nvars X,Y\nchar 0\ngenerator X^[3]\nhilbert 1,1,1,1\n")
    with pytest.raises(SchemaError):
        corpus_load(unterminated)


def test_corpus_negative_control(tmp_path):
    path = tmp_path / "wrong.corpus"
    path.write_text(
        "entry perturbed\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,3,1,1\ndecomposition 0:1,1,1,1,1; 1:0,1,1,0; 2:0,0,0\n"
        "end\n")
    reports = corpus_verify(corpus_load(path)[0])
    assert not reports[0]["ok"]
    assert reports[0]["mismatches"][0]["field"] == "hilbert"


def test_multi_characteristic_entry(tmp_path):
    path = tmp_path / "multi.corpus"
    path.write_text(
        "entry both\nvars X,Y\nchar 0,101\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n")
    reports = corpus_verify(corpus_load(path)[0])
    assert [r["char"] for r in reports] == [0, 101]
    assert all(r["ok"] for r in reports)


def test_corpus_verify_builds_one_filtration_per_entry(monkeypatch):
    """Every check of an entry, the presentation verifiers and
    detect_exotic included, reuses the PartialFiltration built for it."""
    built = []
    init = apolarity.PartialFiltration.__init__

    def counting(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(apolarity.PartialFiltration, "__init__", counting)
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"
    entries = corpus_load(corpus)
    fields = {k for e in entries for k in e.expect}
    assert {"ideal_gens", "graded_ideal_gens", "exotic_terms"} <= fields
    for entry in entries:
        del built[:]
        reports = corpus_verify(entry)
        assert all(r["ok"] for r in reports)
        assert len(built) == len(entry.chars), entry.name
