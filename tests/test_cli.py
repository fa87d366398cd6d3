import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import macdual.cli as cli
from macdual.cli import main, verify_workers
from macdual.errors import InternalCheckError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_decompose_table(capsys):
    code, out = run(capsys, "decompose", "--vars", "X,Y,Z,W", "--char", "0",
                    "X^[5]+X*Y^[2]*Z+W^[2]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["H(0)", "1", "1", "1", "1", "1", "1"]
    assert lines[1].split() == ["H(1)", "0", "2", "4", "2", "0"]
    assert lines[-1].split() == ["H(A)", "1", "4", "5", "3", "1", "1"]


def test_decompose_json_with_bases(capsys):
    code, out = run(capsys, "decompose", "--vars", "X,Y", "--char", "0",
                    "--format", "json", "--show-bases", "X^[3]+Y^[4]")
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert"] == [1, 2, 2, 1, 1]
    assert doc["q_dual_bases"]["1"]["1"] == ["X"]


def test_hilbert_and_annihilator(capsys):
    code, out = run(capsys, "hilbert", "--vars", "X,Y", "--char", "0",
                    "X^[4]+X^[2]*Y+Y^[2]")
    assert code == 0 and out.strip() == "1,1,1,1,1"
    code, out = run(capsys, "annihilator", "--vars", "X,Y", "--char", "0",
                    "--verify", "y-x^2; x^5", "X^[4]+X^[2]*Y+Y^[2]")
    assert code == 0 and "matches" in out
    code, out = run(capsys, "annihilator", "--vars", "X,Y", "--char", "0",
                    "--verify", "x*y", "X^[4]+X^[2]*Y+Y^[2]")
    assert code == 1


def test_annihilator_json_verify_is_one_document(capsys):
    """With --format json, --verify's verdict is the "verified" key of the
    one JSON document on stdout, for a true list (exit 0) and a cut-short
    one (exit 1), and no plain line follows it."""
    for gens, code_want, ok in (("y-x^2; x^5", 0, True), ("y-x^2", 1, False)):
        code, out = run(capsys, "annihilator", "--vars", "X,Y", "--char",
                        "0", "--format", "json", "--verify", gens,
                        "X^[4]+X^[2]*Y+Y^[2]")
        doc = json.loads(out)
        assert code == code_want and doc["verified"] is ok
        assert doc["min_gens"] == ["y-x^2", "x*y^2"]
    code, out = run(capsys, "annihilator", "--vars", "X,Y", "--char", "0",
                    "--format", "json", "X^[4]+X^[2]*Y+Y^[2]")
    assert code == 0 and "verified" not in json.loads(out)


def test_annihilator_verify_filters_f_once(capsys, monkeypatch):
    from test_apolarity import count_filtrations
    built = count_filtrations(monkeypatch)
    code, out = run(capsys, "annihilator", "--vars", "X,Y", "--char", "0",
                    "--verify", "y-x^2; x^5", "X^[4]+X^[2]*Y+Y^[2]")
    assert code == 0 and "matches" in out
    assert len(built) == 1


def test_annihilator_verify_parses_before_the_engine_runs(capsys,
                                                          monkeypatch):
    """A malformed --verify generator (X is a dual variable, not one of R)
    exits 2 with an empty stdout: the list is parsed right after f, before
    Ann f is computed or printed."""
    def no_engine(f):
        raise AssertionError("annihilator ran before --verify was parsed")

    monkeypatch.setattr(cli, "annihilator", no_engine, raising=False)
    code = main(["annihilator", "--vars", "X,Y", "--char", "0",
                 "--verify", "x*y; X", "X^[3]+Y^[2]"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "unknown variable 'X'" in out.err


def test_oversized_generator_exits_3_at_once(capsys):
    t0 = perf_counter()
    code = main(["hilbert", "--vars", "X", "--char", "0", "X^[1000000000]"])
    elapsed = perf_counter() - t0
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "too large" in out.err
    assert elapsed < 0.5


def test_oversized_ordinary_power_exits_3_before_its_factorial(capsys,
                                                              monkeypatch):
    import macdual.io as io_mod
    monkeypatch.setattr(io_mod, "factorial",
                        lambda k: pytest.fail("computed %d!" % k))
    code = main(["hilbert", "--vars", "X", "--char", "0", "X^100000"])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "too large" in out.err


def test_oversized_linear_power_exits_3_before_it_is_built(capsys,
                                                         monkeypatch):
    """(L)^[k] past the image budget is refused as X^k is, before any term
    of L^[k] is built, even where the term cancels."""
    import macdual.io as io_mod
    monkeypatch.setattr(io_mod, "dp_power_of_linear",
                        lambda L, k: pytest.fail("built L^[%d]" % k))
    for gen in ("(X+2*Y)^[20000]", "(X+2*Y)^[20000]-(X+2*Y)^[20000]+Y"):
        code = main(["hilbert", "--vars", "X,Y", "--char", "0", gen])
        out = capsys.readouterr()
        assert code == 3 and out.out == "" and "too large" in out.err


# a numeral past CPython's default cap of 4,300 digits on int <-> str
HUGE = "7" * 4400


def test_huge_coefficient_gives_the_hilbert_function_of_one(capsys):
    read_cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    cap = read_cap()
    code, out = run(capsys, "hilbert", "--vars", "X", "--char", "0",
                    HUGE + "*X^[2]")
    assert code == 0
    assert (code, out) == run(capsys, "hilbert", "--vars", "X", "--char", "0",
                              "X^[2]")
    assert read_cap() == cap


@pytest.mark.parametrize("argv", [
    ("normalize", "--vars", "X,Y", "X^[4]+%s*X^[2]*Y" % HUGE),
    ("exotic", "--vars", "X,Y", "X^[4]+%s*X^[2]*Y" % HUGE),
    ("decompose", "--vars", "X,Y", "--show-bases", "%s*X^[3]+Y^[2]" % HUGE),
    ("annihilator", "--vars", "X", "--verify", "%s*x^3" % HUGE, "X^[2]"),
    ("hilbert", "--vars", "X", "--char", "101", "1%s*X^[2]" % ("0" * 4400)),
], ids=lambda argv: argv[0])
def test_huge_coefficients_are_not_internal_errors(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0 and out.err == "", out.err
    if argv[0] in ("normalize", "exotic"):
        assert HUGE in out.out


# a generator whose exponent passes CPython's default int <-> str cap
HUGE_POWER = "X^[%s]" % ("9" * 4400)
# the flags each engine subcommand needs besides --vars and one generator
ENGINE_FLAGS = {
    "decompose": (), "hilbert": (), "annihilator": (), "exotic": (),
    "normalize": (), "modcheck": ("--a", "1", HUGE_POWER),
    "rcm": ("--a", "1"),
    "extend": ("--h", "Y^[3]", "--zvars", "Z"), "consum-split": (),
}


def test_engine_flags_cover_every_engine_subcommand():
    assert set(ENGINE_FLAGS) == {name for name, *_ in cli._SUBCOMMANDS} \
        - {"fuzz", "verify"}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int <-> str digit cap in this interpreter")
@pytest.mark.parametrize("command", sorted(ENGINE_FLAGS))
def test_huge_exponent_is_refused_under_the_digit_cap(capsys, command):
    """An exponent of 4,400 digits, past CPython's default cap of 4,300 on
    int <-> str conversion, which main leaves in force: every engine
    subcommand refuses the generator as too large (exit 3, never 5) and
    prints none of it; extend refuses it before it prints F."""
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code = main([command, "--vars", "X,Y", *ENGINE_FLAGS[command],
                     HUGE_POWER])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(cap)
    out = capsys.readouterr()
    assert code == 3, out.err
    assert "generator too large" in out.err
    assert "X^" not in out.out and "generator" not in out.out


def test_modcheck_exit_codes(capsys):
    code, _ = run(capsys, "modcheck", "--vars", "X,Y", "--char", "0",
                  "--a", "2", "X^[4]+Y^[2]", "X^[4]+X^[2]*Y")
    assert code == 1
    code, _ = run(capsys, "modcheck", "--vars", "X,Y", "--char", "0",
                  "--a", "0", "X^[4]+Y^[2]", "X^[4]+X^[2]*Y")
    assert code == 0


def test_error_exit_codes(capsys):
    code, _ = run(capsys, "decompose", "--vars", "X,Y", "--char", "4", "X^[2]")
    assert code == 3
    # psi_12, a strong pseudoprime to the bases 2..37
    code, _ = run(capsys, "decompose", "--vars", "X,Y", "--char",
                  "318665857834031151167461", "X^[2]")
    assert code == 3
    code, _ = run(capsys, "decompose", "--vars", "X,Y", "--char", "0", "X^[")
    assert code == 2
    code, _ = run(capsys, "consum-split", "--vars", "X,Y", "--char", "2",
                  "Y^[4]+Y^[2]*X")
    assert code == 3
    code, _ = run(capsys, "rcm", "--vars", "X,Y,Z,W", "--char", "2",
                  "--a", "1", "--retries", "2", "X^[5]")
    assert code == 4


def test_rcm_deterministic(capsys):
    args = ("rcm", "--vars", "X,Y,Z", "--char", "101", "--a", "1",
            "--seed", "9", "X^[4]")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 9" in out1


def test_extend_and_split(capsys):
    code, out = run(capsys, "extend", "--vars", "X,Y", "--char", "0",
                    "--h", "X^[4]+Y^[4]", "--zvars", "Z", "--components",
                    "X^[3]*Y^[3]")
    assert code == 0
    assert "allowed nonzero components: 0,1,2" in out
    code, out = run(capsys, "consum-split", "--vars", "X,Y", "--char", "0",
                    "Y^[4]+Y^[2]*X")
    assert code == 0 and "X^[4]" in out and "-Y^[2]" in out


def test_fuzz_command(capsys):
    code, out = run(capsys, "fuzz", "--suite", "symmetry", "--trials", "10",
                    "--seed", "1")
    assert code == 0 and "ok" in out


def test_fuzz_keeps_bugs_apart_from_failed_properties(capsys, monkeypatch):
    """A trial that raises is a bug: its own `error:` line, exit 5, as
    main gives an internal error; a property that fails exits 1."""
    from macdual import fuzz
    outcomes = []

    def body(rng):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setitem(fuzz.SUITES, "symmetry", body)
    argv = ("fuzz", "--suite", "symmetry", "--trials", "3", "--seed", "4")
    outcomes[:] = [True, InternalCheckError("dual basis dimension mismatch"),
                   True]
    assert run(capsys, *argv) == (5, (
        "fuzz symmetry     seed=4 trials=3 checked=2 skipped=0 ERROR(1)\n"
        "  trial 1: error: InternalCheckError('dual basis dimension "
        "mismatch')\n"))
    outcomes[:] = ["H(0) differs", True, None]
    assert run(capsys, *argv) == (1, (
        "fuzz symmetry     seed=4 trials=3 checked=1 skipped=1 FAIL(1)\n"
        "  trial 0: H(0) differs\n"))
    outcomes[:] = [ZeroDivisionError("division by zero"), "moved", True]
    assert run(capsys, *argv) == (5, (
        "fuzz symmetry     seed=4 trials=3 checked=1 skipped=0 FAIL(1) "
        "ERROR(1)\n"
        "  trial 1: moved\n"
        "  trial 0: error: ZeroDivisionError('division by zero')\n"))


def test_verify_corpus_file(capsys, tmp_path):
    path = tmp_path / "mini.corpus"
    path.write_text(
        "entry ok-one\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n"
        "entry bad-one\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,2,1\nend\n")
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert "ok-one" in out and "MISMATCH" in out and "1 mismatches" in out


def test_verify_malformed_corpus_index_exits_2(capsys, tmp_path):
    path = tmp_path / "index.corpus"
    for value, message in (("x:1,2,1", "expected an integer index, got 'x'"),
                           ("0:9,9,9; 0:1,1,1,1,1; 1:0,1,1,0",
                            "index 0 given twice")):
        path.write_text("entry bad\nvars X,Y\nchar 0\ngenerator X^[3]\n"
                        "hilbert 1,1,1,1\ndecomposition %s\nend\n" % value)
        code = main(["verify", str(path)])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == "error: entry 'bad': decomposition: %s\n" % message


def test_verify_jobs_same_content(capsys, tmp_path):
    path = tmp_path / "mini.corpus"
    path.write_text(
        "entry a\nvars X,Y\nchar 0\ngenerator X^[3]+Y^[4]\n"
        "hilbert 1,2,2,1,1\nend\n"
        "entry b\nvars X,Y\nchar 101\ngenerator X^[2]*Y^[2]\n"
        "hilbert 1,2,3,2,1\nend\n")
    code1, out1 = run(capsys, "verify", str(path))
    code2, out2 = run(capsys, "verify", str(path), "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("fuzz", "--suite", "symmetry", "--trials", "-3"),
    ("fuzz", "--suite", "symmetry", "--trials", "0"),
    ("verify", "corpus/paper.corpus", "--jobs", "0"),
    ("verify", "corpus/paper.corpus", "--jobs", "-2"),
])
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err


@pytest.mark.parametrize("char", ["0", "101"])
@pytest.mark.parametrize("flag, value, least", [
    ("--retries", "0", 1), ("--retries", "-2", 1),
    ("--coeff-bound", "-1", 0)])
def test_rcm_out_of_range_counts_are_usage_errors(capsys, char, flag, value,
                                                  least):
    """--retries below 1 and --coeff-bound below 0 exit 2 over Q and over
    F_p, before any draw: they used to exit 4 (no attempt made), 5
    (ValueError from randint over Q) or be ignored (the bound over F_p)."""
    with pytest.raises(SystemExit) as exc:
        main(["rcm", "--vars", "X,Y", "--char", char, "--a", "1", flag,
              value, "X^[4]+Y^[2]"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument %s: must be at least %d, got %s" % (flag, least, value) \
        in out.err


def test_rcm_zero_coeff_bound_is_accepted(capsys):
    code, out = run(capsys, "rcm", "--vars", "X,Y", "--char", "0", "--a",
                    "1", "--coeff-bound", "0", "X^[4]+Y^[2]")
    assert code == 0 and out.startswith("seed: 0\ngenerator: ")


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_verify_unreadable_corpus_exits_2(capsys, tmp_path, case):
    """A corpus path that is missing, a directory or not UTF-8 text is one
    error line and exit 2, not an internal error (exit 5)."""
    path = tmp_path / "x.corpus"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"entry a\n\xff\xfe\n")
    code = main(["verify", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    want = {"missing": "cannot read %s: No such file or directory",
            "directory": "cannot read %s: Is a directory",
            "not-utf8": "%s is not UTF-8 text (byte 8)"}[case] % path
    assert out.err == "error: %s\n" % want


def test_normalize_at_socle_degree_one(capsys):
    """A linear generator normalizes to X_1 (it exited 5 with 'adapted
    levels disagree' before)."""
    for char in ("0", "101"):
        code, out = run(capsys, "normalize", "--vars", "X,Y", "--char", char,
                        "X+Y")
        assert code == 0
        assert out.splitlines()[0] == "normal form: X"


def test_verify_workers_capped():
    assert verify_workers(1, 31, 8) == 1
    assert verify_workers(4, 31, 2) == 2        # no more than the CPUs
    assert verify_workers(16, 3, 64) == 3       # no more than the entries
    assert verify_workers(4, 0, 2) == 0
    assert verify_workers(4, 31, None) == 1     # CPU count unknown


@pytest.mark.parametrize("exc", [InternalCheckError("components do not\nsum"),
                                 ZeroDivisionError("division by zero")])
def test_internal_errors_exit_5(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "symmetric_decomposition", broken)
    code = main(["decompose", "--vars", "X,Y", "--char", "101", "X^[3]"])
    out = capsys.readouterr()
    assert code == 5
    assert out.out == ""
    assert out.err.count("\n") == 1
    line = out.err.strip()
    assert type(exc).__name__ in line
    assert " ".join(str(exc).split()) in line
    assert "decompose" in line and "--char 101" in line


def test_fuzz_suite_choices_match_the_suites(capsys):
    from macdual import fuzz
    assert list(cli.FUZZ_SUITES) == sorted(fuzz.SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: macdual fuzz [-h] --suite\n")
    assert "{%s}" % ",".join(sorted(fuzz.SUITES)) in err
    assert err.endswith(
        "macdual fuzz: error: argument --suite: invalid choice: 'nope' "
        "(choose from %s)\n" % ", ".join(repr(s) for s in sorted(fuzz.SUITES)))


SRC = Path(cli.__file__).resolve().parents[1]


def fresh(code: str, *argv) -> list:
    """Run `code` in a fresh interpreter with `argv` as its arguments; the
    JSON its last line prints."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"


def test_import_macdual_loads_no_submodule():
    loaded = fresh("import macdual" + LOADED)
    assert [m for m in loaded if m.startswith("macdual.")] == []


def test_import_cli_leaves_the_engine_unloaded():
    loaded = fresh("import macdual.cli" + LOADED)
    for name in ("macdual.fuzz", "macdual.constructions", "macdual.normalform",
                 "macdual.decomposition", "concurrent.futures.process"):
        assert name not in loaded


def test_hilbert_loads_only_what_it_runs():
    loaded = fresh("from macdual.cli import main\n"
                   "assert main(['hilbert', '--vars', 'X,Y', 'X^[3]+Y^[2]']) "
                   "== 0" + LOADED)
    assert "macdual.apolarity" in loaded
    for name in ("macdual.constructions", "macdual.normalform",
                 "macdual.fuzz"):
        assert name not in loaded


CORPUS = str(SRC.parent / "corpus" / "paper.corpus")

# one command of each shape perfbench's small-cli workload runs
SMALL_CLI = (
    ("decompose", "--vars", "X,Y", "--show-bases", "X^[3]+Y^[4]"),
    ("hilbert", "--vars", "X,Y", "X^[3]+Y^[2]"),
    ("annihilator", "--vars", "X,Y", "--verify", "y-x^2; x^5",
     "X^[4]+X^[2]*Y+Y^[2]"),
    ("exotic", "--vars", "X,Y", "X^[4]+X^[2]*Y"),
    ("normalize", "--vars", "X,Y", "X^[4]+X^[2]*Y"),
    ("modcheck", "--vars", "X,Y", "--a", "0", "X^[4]+Y^[2]",
     "X^[4]+X^[2]*Y"),
    ("rcm", "--vars", "X,Y,Z", "--char", "101", "--a", "1", "X^[4]"),
    ("extend", "--vars", "X,Y", "--h", "X^[4]+Y^[4]", "--zvars", "Z",
     "--components", "X^[3]*Y^[3]"),
    ("consum-split", "--vars", "X,Y", "Y^[4]+Y^[2]*X"),
    ("verify", CORPUS, "--jobs", "1"),
    ("fuzz", "--suite", "unit", "--trials", "2"),
)


def cli_process(*argv) -> list:
    """Run the CLI on `argv` (read from sys.argv) in a fresh interpreter:
    its exit code, its stdout and the modules it loaded, taken before the
    JSON that reports them is imported."""
    return fresh("import contextlib, io, sys\n"
                 "from macdual.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                 "    code = main()\n"
                 "loaded = sorted(sys.modules)\n"
                 "import json\n"
                 "print(json.dumps([code, out.getvalue(), loaded]))", *argv)


@pytest.mark.parametrize("argv", SMALL_CLI, ids=lambda argv: argv[0])
def test_no_subcommand_loads_dataclasses(argv):
    code, out, loaded = cli_process(*argv)
    assert code == 0 and out
    for name in ("dataclasses", "inspect"):
        assert name not in loaded


@pytest.mark.parametrize("argv", [
    ("hilbert", "--vars", "X,Y", "X^[3]+Y^[2]"),
    ("decompose", "--vars", "X,Y", "--show-bases", "X^[3]+Y^[4]"),
])
def test_json_is_loaded_only_for_json_output(argv):
    code, out, loaded = cli_process(*argv)
    assert code == 0 and "json" not in loaded
    code, out, loaded = cli_process(*argv[:-1], "--format", "json",
                                    argv[-1])
    assert code == 0 and "json" in loaded
    doc = json.loads(out)
    assert doc["hilbert"] == ([1, 2, 1, 1] if argv[0] == "hilbert"
                              else [1, 2, 2, 1, 1])


# stdout, stderr and exit code of the help and usage paths, recorded with
# COLUMNS=80 while `build_parser` still built every subcommand's parser
HELP_CASES = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("case", HELP_CASES,
                         ids=lambda case: " ".join(case["argv"]) or "none")
def test_help_and_usage_bytes_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (out.out, out.err, code) == \
        (case["stdout"], case["stderr"], case["code"])


def test_build_parser_configures_only_its_command(capsys):
    for argv in SMALL_CLI:
        assert cli.build_parser(argv[0]).parse_args(list(argv)).fn.__name__ \
            == "cmd_" + argv[0].replace("-", "_")
    ap = cli.build_parser("hilbert")
    assert ap.parse_args(list(SMALL_CLI[1])).fn is cli.cmd_hilbert
    with pytest.raises(SystemExit):     # decompose has no arguments here
        ap.parse_args(list(SMALL_CLI[0]))
    assert "unrecognized arguments" in capsys.readouterr().err


# the names a tracer wraps on `cli` (perfbench SmallCli.CLI_CALLS)
CLI_CALLS = ("PartialFiltration", "annihilator", "verify_ideal_presentation",
             "ExtensionSpec", "allowed_component_indices",
             "is_a_modification", "linear_extension",
             "relatively_compressed_modification", "restricted_components",
             "symmetric_decomposition", "corpus_load", "corpus_verify",
             "parse_poly", "parse_ps", "render_decomposition",
             "detect_exotic", "normalize", "split_connected_summand")


def test_traced_names_resolve_before_any_subcommand():
    homes = fresh("import json, macdual.cli as cli\n"
                  "print(json.dumps([getattr(cli, n).__module__ + '.' + "
                  "getattr(cli, n).__name__ for n in %r]))" % (CLI_CALLS,))
    for name, home in zip(CLI_CALLS, homes):
        module, _, attr = home.rpartition(".")
        assert module.startswith("macdual.") and attr == name


def test_a_wrapper_on_cli_is_the_one_called(capsys, monkeypatch):
    calls = []
    real = cli.normalize

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "normalize", wrapper)
    code, out = run(capsys, "normalize", "--vars", "X,Y", "--char", "0",
                    "X^[4]+X^[2]*Y")
    assert code == 0 and out.startswith("normal form:")
    assert len(calls) == 1
    assert cli.normalize is wrapper


def test_a_failed_engine_import_exits_5(capsys, monkeypatch):
    def broken(name, package=None):
        raise ImportError("cannot load %s" % name)

    monkeypatch.delattr(cli, "symmetric_decomposition", raising=False)
    monkeypatch.setattr(cli, "import_module", broken)
    code = main(["decompose", "--vars", "X,Y", "--char", "0", "X^[3]"])
    out = capsys.readouterr()
    assert code == 5 and out.out == ""
    assert out.err.count("\n") == 1
    assert out.err.startswith("internal error: ImportError")
