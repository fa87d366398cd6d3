"""Byte-exact stdout and exit codes of the README command-line examples.

Each case runs ``macdual.cli.main`` in process and compares its output with
text recorded from the released behaviour; refactors of the engine below
(row reduction, the combinations carried as columns past n, series) must
leave these bytes unchanged.  ``annihilator`` depends on the echelon's
arithmetic, ``normalize`` and ``consum-split`` also on the adapted frame's
combination columns, and ``rcm`` on the seeded generic draw.  The digest
tests below pin the same for normalize and split_connected_summand on
seeded forms, and for normalize, the adapted frame and the symmetric
decomposition on forms of high socle degree.
"""

import hashlib
import random

import pytest

from macdual.apolarity import filtration
from macdual.cli import main
from macdual.constructions import random_poly, random_unit
from macdual.decomposition import symmetric_decomposition
from macdual.errors import DomainError
from macdual.fields import Field
from macdual.io import parse_poly
from macdual.linalg import matrix_inverse
from macdual.normalform import (adapted_coordinates, normalize,
                                split_connected_summand)
from macdual.poly import DPPoly, RingSpec, contract, linear_substitute

RCM_GENERATOR = (
    "X^[5]+X^[4]-6*X^[3]*Y+2*X^[3]*Z+10*X^[3]*W-9*X^[2]*Y^[2]-8*X^[2]*Y*Z"
    "+7*X^[2]*Y*W-7*X^[2]*Z^[2]+X^[2]*Z*W+8*X^[2]*W^[2]-9*X*Y^[3]"
    "+6*X*Y^[2]*Z-4*X*Y^[2]*W-9*X*Y*Z^[2]-8*X*Y*Z*W+3*X*Y*W^[2]+3*X*Z^[3]"
    "-8*X*Z^[2]*W-3*X*Z*W^[2]-8*X*W^[3]+7*Y^[4]+3*Y^[3]*Z-9*Y^[3]*W"
    "+8*Y^[2]*Z^[2]-7*Y^[2]*Z*W-3*Y^[2]*W^[2]+10*Y*Z^[3]+10*Y*Z^[2]*W"
    "+8*Y*Z*W^[2]-9*Y*W^[3]+8*Z^[4]+8*Z^[3]*W+2*Z^[2]*W^[2]-9*Z*W^[3]"
    "-3*W^[4]")

CASES = [
    (["decompose", "--vars", "X,Y,Z,W", "--char", "0",
      "X^[5]+X*Y^[2]*Z+W^[2]"],
     "H(0)  1  1  1  1  1  1\n"
     "H(1)  0  2  4  2  0\n"
     "H(2)  0  0  0  0\n"
     "H(3)  0  1  0\n"
     "----------------------\n"
     "H(A)  1  4  5  3  1  1\n"),
    (["decompose", "--vars", "X,Y", "--char", "0", "--format", "json",
      "--show-bases", "X^[3]+Y^[4]"],
     '{"socle_degree": 4, "hilbert": [1, 2, 2, 1, 1], "decomposition": '
     '[{"a": 0, "H": [1, 1, 1, 1, 1]}, {"a": 1, "H": [0, 1, 1, 0]}, '
     '{"a": 2, "H": [0, 0, 0]}], "n": [1, 2, 2], "q_dual_bases": '
     '{"0": {"0": ["1"], "1": ["Y"], "2": ["Y^[2]"], "3": ["Y^[3]"], '
     '"4": ["Y^[4]"]}, "1": {"1": ["X"], "2": ["X^[2]"]}}}\n'),
    (["hilbert", "--vars", "X,Y", "--char", "3", "(X+Y)^[6]+X^[2]*Y^[2]"],
     "1,2,2,2,1,1,1\n"),
    (["annihilator", "--vars", "X,Y", "--char", "0", "--verify",
      "y-x^2; x^5", "X^[4]+X^[2]*Y+Y^[2]"],
     "order 1: y-x^2\n"
     "order 3: x*y^2\n"
     "presentation matches\n"),
    (["exotic", "--vars", "X,Y,Z", "--char", "0",
      "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z"],
     "n: 1,1,2,2,3\n"
     "adapted basis: X; Y; Z\n"
     "exotic degree 5: X^[4]*Y\n"
     "exotic degree 4: X^[3]*Z\n"
     "exotic degree 3: X*Y*Z\n"),
    (["normalize", "--vars", "X,Y", "--char", "0", "Y^[4]+Y^[2]*X"],
     "normal form: X^[4]-Y^[2]\n"
     "w_1 = y\n"
     "w_2 = x-y^2\n"),
    (["modcheck", "--vars", "X,Y,Z", "--char", "0", "--a", "2",
      "X^[6]+X^[3]*Y^[2]+Z^[4]", "X^[6]+X^[3]*Y^[2]+Y^[4]"],
     "2-modification: yes\n"),
    (["rcm", "--vars", "X,Y,Z,W", "--char", "0", "--a", "1", "--seed", "7",
      "X^[5]"],
     "seed: 7\n"
     "generator: " + RCM_GENERATOR + "\n"
     "H(0)   1   1   1   1   1   1\n"
     "H(1)   0   3   9   3   0\n"
     "H(2)   0   0   0   0\n"
     "H(3)   0   0   0\n"
     "----------------------------\n"
     "H(A)   1   4  10   4   1   1\n"),
    (["extend", "--vars", "X,Y", "--char", "0", "--h", "X^[4]+Y^[4]",
      "--zvars", "Z", "--components", "X^[3]*Y^[3]"],
     "generator: X^[3]*Y^[3]+X^[4]*Z+Y^[4]*Z\n"
     "allowed nonzero components: 0,1,2\n"
     "H(0)  1  2  3  4  3  2  1\n"
     "H(1)  0  1  0  0  1  0\n"
     "H(2)  0  0  2  0  0\n"
     "H(3)  0  0  0  0\n"
     "H(4)  0  0  0\n"
     "-------------------------\n"
     "H(A)  1  3  5  4  4  2  1\n"
     "B_1 dims: {1: 1, 4: 1}\n"
     "B_1,1 dims: {2: 2}\n"),
    (["consum-split", "--vars", "X,Y", "--char", "0", "Y^[4]+Y^[2]*X"],
     "summand 1: X^[4]\n"
     "summand 2: -Y^[2]\n"
     "split generator: X^[4]-Y^[2]\n"),
]

# README generators over F_101: the residue path of the same engine
CASES_MOD_101 = [
    (["normalize", "--vars", "X,Y", "--char", "101", "Y^[4]+Y^[2]*X"],
     "normal form: X^[4]+100*Y^[2]\n"
     "w_1 = y\n"
     "w_2 = x+100*y^2\n"),
    (["consum-split", "--vars", "X,Y", "--char", "101", "Y^[4]+Y^[2]*X"],
     "summand 1: X^[4]\n"
     "summand 2: 100*Y^[2]\n"
     "split generator: X^[4]+100*Y^[2]\n"),
    (["annihilator", "--vars", "X,Y", "--char", "101", "--verify",
      "y-x^2; x^5", "X^[4]+X^[2]*Y+Y^[2]"],
     "order 1: y+100*x^2\n"
     "order 3: x*y^2\n"
     "presentation matches\n"),
    (["exotic", "--vars", "X,Y,Z", "--char", "101",
      "X^[6]+X^[4]*Y+X^[3]*Z+X*Y*Z"],
     "n: 1,1,2,2,3\n"
     "adapted basis: X; Y; Z\n"
     "exotic degree 5: X^[4]*Y\n"
     "exotic degree 4: X^[3]*Z\n"
     "exotic degree 3: X*Y*Z\n"),
]


@pytest.mark.parametrize("argv,expected", CASES, ids=[c[0][0] for c in CASES])
def test_readme_example_output(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,expected", CASES_MOD_101,
                         ids=[c[0][0] for c in CASES_MOD_101])
def test_readme_example_output_char_101(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected

# README generators over F_(2^61-1): residues that do not fit a machine word
# once multiplied, so the mod-p elimination must reduce every product
P61 = "2305843009213693951"
CASES_MOD_P61 = [
    (["annihilator", "--vars", "X,Y", "--char", P61, "--verify",
      "y-x^2; x^5", "X^[4]+X^[2]*Y+Y^[2]"],
     "order 1: y+2305843009213693950*x^2\n"
     "order 3: x*y^2\n"
     "presentation matches\n"),
    (["decompose", "--vars", "X,Y", "--char", P61, "--format", "json",
      "--show-bases", "X^[3]+Y^[4]"],
     '{"socle_degree": 4, "hilbert": [1, 2, 2, 1, 1], "decomposition": '
     '[{"a": 0, "H": [1, 1, 1, 1, 1]}, {"a": 1, "H": [0, 1, 1, 0]}, '
     '{"a": 2, "H": [0, 0, 0]}], "n": [1, 2, 2], "q_dual_bases": '
     '{"0": {"0": ["1"], "1": ["Y"], "2": ["Y^[2]"], "3": ["Y^[3]"], '
     '"4": ["Y^[4]"]}, "1": {"1": ["X"], "2": ["X^[2]"]}}}\n'),
    (["decompose", "--vars", "X,Y,Z,W", "--char", P61, "--show-bases",
      "X^[5]+X*Y^[2]*Z+W^[2]"],
     "H(0)  1  1  1  1  1  1\n"
     "H(1)  0  2  4  2  0\n"
     "H(2)  0  0  0  0\n"
     "H(3)  0  1  0\n"
     "----------------------\n"
     "H(A)  1  4  5  3  1  1\n"
     "Q^v(0)_0 = <1>\n"
     "Q^v(0)_1 = <X>\n"
     "Q^v(0)_2 = <X^[2]>\n"
     "Q^v(0)_3 = <X^[3]>\n"
     "Q^v(0)_4 = <X^[4]>\n"
     "Q^v(0)_5 = <X^[5]>\n"
     "Q^v(1)_1 = <Y, Z>\n"
     "Q^v(1)_2 = <X*Y, X*Z, Y^[2], Y*Z>\n"
     "Q^v(1)_3 = <X*Y^[2], X*Y*Z>\n"
     "Q^v(3)_1 = <W>\n"),
    (["hilbert", "--vars", "X,Y", "--char", P61, "(X+Y)^[6]+X^[2]*Y^[2]"],
     "1,2,3,2,1,1,1\n"),
]


@pytest.mark.parametrize("argv,expected", CASES_MOD_P61,
                         ids=[c[0][0] for c in CASES_MOD_P61])
def test_readme_example_output_char_p61(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# normalize and split_connected_summand on seeded desk-scale forms, pinned by
# the SHA-256 of their rendered output (recorded before the adapted frame's
# witnesses moved into extra echelon columns)

VARS = ("X", "Y", "Z", "W")


def desk_forms(char, seed, count=64):
    """count sparse forms, r 2-4 and socle degree 2-6 (2-5 at r = 4), with a
    few lower terms: the fuzz normalize draw, zero leading terms redrawn."""
    rng = random.Random(seed)
    field = Field(char)
    made = 0
    while made < count:
        r = rng.randint(2, 4)
        ring = RingSpec(VARS[:r], field)
        j = rng.randint(2, 6 if r < 4 else 5)
        f = random_poly(ring, j, rng, terms=rng.randint(3, 6))
        if f.degree == j:
            made += 1
            yield f


def hidden_split_forms(char, seed, count=64):
    """count generators with H(j-2) = (0, s, 0): a head in r1 variables plus
    a diagonal quadric in s more, hidden by an invertible linear change and
    contraction by a unit (the fuzz split recipe)."""
    rng = random.Random(seed)
    field = Field(char)
    made = 0
    while made < count:
        r1, s, j = rng.randint(1, 2), rng.randint(1, 2), rng.randint(4, 6)
        ring = RingSpec(VARS[:r1 + s], field)
        f1 = random_poly(RingSpec(VARS[:r1], field), j, rng, terms=3)
        if any(symmetric_decomposition(f1).components[j - 2]):
            continue
        F = f1.embed(ring)
        for i in range(r1, r1 + s):
            mon = tuple(2 if t == i else 0 for t in range(ring.r))
            F = F + DPPoly(ring, {mon: field.from_int(rng.randint(1, 5))})
        while True:
            M = [[field.from_int(rng.randint(-2, 2)) for _ in range(ring.r)]
                 for _ in range(ring.r)]
            try:
                matrix_inverse(M, field)
                break
            except DomainError:
                continue
        F = contract(random_unit(ring, rng, j + 2), linear_substitute(F, M))
        if symmetric_decomposition(F).components[j - 2] == (0, s, 0):
            made += 1
            yield F


def rendered_normal_form(f):
    g, change = normalize(f)
    return "normal form: %s\n%s" % (g, "".join(
        "w_%d = %s\n" % (i + 1, w) for i, w in enumerate(change.inv_images)))


def rendered_split(f):
    res = split_connected_summand(f)
    return "%s | %s | %s | %s\n" % (
        res.summand_main, res.summand_quadric, res.generator,
        "; ".join(map(str, res.change.inv_images)))


DIGESTS = [
    ("normalize", 0, desk_forms, rendered_normal_form,
     "ec3fba0272d86b64fd7097c5ac5d401f7d5a2aa2f4596220f60c8fcac9724118"),
    ("normalize", 2, desk_forms, rendered_normal_form,
     "10d957ef768e64830f9d1cef2ac492009c49fc0bc2206086415ccc393cb287d9"),
    ("normalize", 101, desk_forms, rendered_normal_form,
     "3b4dda91acc683aa6487a50dbec4ae6f4ea13288e731be39ad8512d1788f0aff"),
    ("split", 0, hidden_split_forms, rendered_split,
     "e765b90d3893148604871c7f5b24390bfd085e1325f10c3b97053679937d5a9b"),
    ("split", 101, hidden_split_forms, rendered_split,
     "dabf3262cc5773700ddc34a41664cf0d8e6e122c2a6bbe1c9094f62c46f2c471"),
]


@pytest.mark.parametrize("kind,char,forms,render,digest", DIGESTS,
                         ids=["%s-%d" % d[:2] for d in DIGESTS])
def test_normal_forms_digest(kind, char, forms, render, digest):
    """The rendered g and every w_i of normalize, and the summands,
    generator and composed change of split_connected_summand, on 64
    seeded forms per field: the same bytes as recorded."""
    h = hashlib.sha256()
    for f in forms(char, 2500 + char):
        h.update(render(f).encode())
    assert h.hexdigest() == digest


# One- and two-variable forms of socle degree up to 300: the adapted frame
# has one cut per degree, so these reach the cuts that desk forms never do.
# X^[60]+X^[50]*Y+Y^[3] has a parameter y - x^10 at level 18, and in the
# forms with a degree-one term an element of m^2 clears the constant of
# w o f.
HIGH_J_FORMS = [
    (("X",), ["X^[2]", "X^[3]+X", "X^[80]+X^[60]+X^[59]+X^[30]+2*X",
              "X^[300]"]),
    (("X", "Y"), ["X^[60]+X^[50]*Y+Y^[3]", "X^[20]*Y^[20]+X^[30]*Y+Y^[25]",
                  "X^[12]*Y^[12]+X^[9]+Y", "X^[30]*Y^[3]+X^[20]*Y^[2]+Y^[7]"]),
]


def rendered_high_j(f):
    P = filtration(f)
    frame = adapted_coordinates(P)
    return "%s\n%slevels %s: %s\ncomponents %s\n" % (
        f, rendered_normal_form(P), frame.levels,
        "; ".join(map(str, frame.parameters)),
        symmetric_decomposition(P).components)


HIGH_J_DIGESTS = [
    (0, "2f4391ac580430a933d61f585fe92dc1437a83a24ead5327cede6e2ce2934ad3"),
    (101, "7fe366743df80e083d9f9b790840a778e3351de9463bdd01606f0c9634014f28"),
]


@pytest.mark.parametrize("char,digest", HIGH_J_DIGESTS, ids=["Q", "F101"])
def test_high_socle_degree_digest(char, digest):
    """normalize's g and w_i, the adapted frame's levels and parameters and
    the symmetric decomposition's components, on HIGH_J_FORMS: the same
    bytes as recorded before the frame grew one echelon across its cuts."""
    h = hashlib.sha256()
    for names, forms in HIGH_J_FORMS:
        ring = RingSpec(names, Field(char))
        for s in forms:
            h.update(rendered_high_j(parse_poly(s, ring)).encode())
    assert h.hexdigest() == digest
