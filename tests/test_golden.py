"""Byte-exact stdout and exit codes of the README command-line examples.

Each case runs ``macdual.cli.main`` in process and compares its output with
text recorded from the released behaviour; refactors of the engine below
(row reduction, witnesses, series) must leave these bytes unchanged.
``normalize``, ``consum-split`` and ``annihilator`` depend on the witnessed
echelon's arithmetic, ``rcm`` on the seeded generic draw.
"""

import pytest

from macdual.cli import main

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
