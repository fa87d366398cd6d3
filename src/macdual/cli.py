"""Command-line surface.

Exit codes: 0 success, 1 verification mismatch, 2 parse/schema error,
3 domain error (bad mathematical input), 4 genericity failure, 5 internal
error (a failed internal check or any unexpected exception: a bug in
macdual, reported on one stderr line with the subcommand and --char, never
as a mismatch).  Randomized subcommands print their seed so any "generic"
result can be replayed, and identical flags plus seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from importlib import import_module

from . import _HOME
from .errors import DomainError, GenericityError, ParseError, SchemaError
from .fields import Field
from .io import corpus_load, corpus_verify, parse_poly, parse_ps, \
    render_decomposition
from .poly import RingSpec

# The engine is imported on first use, so that each subcommand's process
# loads only the modules it runs; `macdual._HOME` names the module of each
# engine name.  These names stay attributes of this module, looked up in
# its globals when a subcommand runs, so a caller can replace one (a
# tracer's wrapper, a test's stub) before `main` runs.

# `fuzz --suite` choices, kept here so that building the parser does not
# import `fuzz`; a test holds this equal to sorted(fuzz.SUITES).
FUZZ_SUITES = ("adjoint", "allowed-set", "codim2-cyclic", "consum", "hfineq",
               "linearzlem", "maxprop", "modification", "nonubiquity",
               "normalize", "partial", "restricted", "split", "symmetry",
               "transpose", "unit")


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(import_module("." + module, __package__), name)
    # setdefault: a value a caller already bound (a wrapper) stays in place
    return globals().setdefault(name, value)


def _bind_globals(fn) -> None:
    """Bind the lazy names `fn` reads as globals before it runs (a plain
    global lookup does not reach the module `__getattr__`)."""
    for name in fn.__code__.co_names:
        if name in _HOME and name not in globals():
            __getattr__(name)


def _ring_from_args(args) -> RingSpec:
    vars = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return RingSpec(vars, Field(args.char))


def cmd_decompose(args):
    ring = _ring_from_args(args)
    f = parse_poly(args.expr, ring)
    D = symmetric_decomposition(f, with_bases=args.show_bases)
    print(render_decomposition(D, style=args.format,
                               suppress_zero=args.suppress_zero,
                               show_bases=args.show_bases))
    return 0


def cmd_hilbert(args):
    ring = _ring_from_args(args)
    H = PartialFiltration(parse_poly(args.expr, ring)).hilbert()
    if args.format == "json":
        import json  # imported here: only JSON output needs it
        print(json.dumps({"hilbert": list(H)}))
    else:
        print(",".join(str(h) for h in H))
    return 0


def cmd_annihilator(args):
    ring = _ring_from_args(args)
    f = parse_poly(args.expr, ring)
    # the --verify list is parsed before any engine work: bad input fails
    # before anything is printed
    if args.verify is not None:
        gens = [parse_ps(s.strip(), ring, f.degree + 2)
                for s in args.verify.split(";") if s.strip()]
    ideal = annihilator(f)
    if args.format != "json":
        for g, o in zip(ideal.min_gens, ideal.orders):
            print("order %d: %s" % (o, g))
    ok = None if args.verify is None else verify_ideal_presentation(gens, f)
    if args.format == "json":
        import json  # imported here: only JSON output needs it
        doc = {"min_gens": [str(g) for g in ideal.min_gens],
               "orders": list(ideal.orders),
               "graded_dims": list(ideal.graded_dims())}
        if ok is not None:
            doc["verified"] = ok    # one JSON document on stdout
        print(json.dumps(doc))
    elif ok is not None:
        print("presentation %s" % ("matches" if ok else "DOES NOT match"))
    return 1 if ok is False else 0


def cmd_exotic(args):
    ring = _ring_from_args(args)
    rep = detect_exotic(parse_poly(args.expr, ring))
    print("n:", ",".join(str(n) for n in rep.n_seq))
    print("adapted basis:", "; ".join(str(b) for b in rep.adapted_basis))
    if rep.exotic_terms:
        for d, t in rep.exotic_terms:
            print("exotic degree %d: %s" % (d, t))
    else:
        print("no exotic terms")
    return 0


def cmd_normalize(args):
    ring = _ring_from_args(args)
    g, change = normalize(parse_poly(args.expr, ring))
    print("normal form:", g)
    for i, img in enumerate(change.inv_images):
        print("w_%d = %s" % (i + 1, img))
    return 0


def cmd_modcheck(args):
    ring = _ring_from_args(args)
    f = parse_poly(args.expr1, ring)
    g = parse_poly(args.expr2, ring)
    verdict = is_a_modification(f, g, args.a)
    print("%d-modification: %s" % (args.a, "yes" if verdict else "no"))
    return 0 if verdict else 1


def cmd_rcm(args):
    ring = _ring_from_args(args)
    f = parse_poly(args.expr, ring)
    print("seed: %d" % args.seed)
    F, D = relatively_compressed_modification(
        f, args.a, seed=args.seed, coeff_bound=args.coeff_bound,
        retries=args.retries)
    print("generator:", F)
    print(render_decomposition(D, style=args.format))
    return 0


def cmd_extend(args):
    ring = _ring_from_args(args)
    f = parse_poly(args.expr, ring)
    hs = [parse_poly(s, ring) for s in args.h]
    znames = tuple(v.strip() for v in args.zvars.split(",") if v.strip())
    spec = ExtensionSpec(f, hs, znames)
    F = linear_extension(spec)
    print("generator:", F)
    print("allowed nonzero components:",
          ",".join(str(a) for a in sorted(allowed_component_indices(spec))))
    D = symmetric_decomposition(F)
    print(render_decomposition(D, style=args.format))
    if args.components:
        data = restricted_components(spec)
        for t, dims in sorted(data["B"].items()):
            print("B_%d dims: %s" % (t, dims or {}))
        for (t1, t2), dims in sorted(data["B_pairs"].items()):
            if dims:
                print("B_%d,%d dims: %s" % (t1, t2, dims))
    return 0


def cmd_consum_split(args):
    ring = _ring_from_args(args)
    res = split_connected_summand(parse_poly(args.expr, ring))
    print("summand 1:", res.summand_main)
    print("summand 2:", res.summand_quadric)
    print("split generator:", res.generator)
    return 0


def cmd_fuzz(args):
    from .fuzz import run_suite
    rep = run_suite(args.suite, args.trials, args.seed)
    print(rep.line())
    for f in rep.failures + rep.errors:
        print("  " + f)
    # an exception inside a trial is a bug (exit 5, as in main), not a
    # property that failed (exit 1)
    return 5 if rep.errors else 1 if rep.failures else 0


def verify_workers(jobs: int, entries: int, cpus: int | None) -> int:
    """Worker processes for `verify`: never more than the entries to check
    or the CPUs to run them on (1 when the CPU count is unknown)."""
    return min(jobs, entries, cpus or 1)


def cmd_verify(args):
    entries = corpus_load(args.corpus)
    reports = []
    workers = verify_workers(args.jobs, len(entries), os.cpu_count())
    if workers > 1:
        # imported here: only `verify --jobs` needs a pool (ROADMAP item 4)
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for reps in pool.map(corpus_verify, entries):
                reports.extend(reps)
    else:
        for entry in entries:
            reports.extend(corpus_verify(entry))
    bad = 0
    for rep in reports:
        status = "ok" if rep["ok"] else "MISMATCH"
        print("%-28s char %-4d %s" % (rep["name"], rep["char"], status))
        for m in rep["mismatches"]:
            bad += 1
            print("    %s: expected %r, got %r"
                  % (m["field"], m["expected"], m["got"]))
    print("%d entries, %d runs, %d mismatches"
          % (len(entries), len(reports), bad))
    return 0 if bad == 0 else 1


def _at_least(low: int, text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) \
            from None
    if n < low:
        raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                         % (low, n))
    return n


def _arg(*flags, **kwargs):
    return flags, kwargs


_RING = (_arg("--vars", required=True,
              help="comma-separated dual variable names, e.g. X,Y,Z"),
         _arg("--char", type=int, default=0,
              help="field characteristic (0 or a prime)"))
_FORMAT = _arg("--format", choices=("table", "json"), default="table")
_A = _arg("--a", type=int, required=True)
_EXPR = _arg("expr")

# name, help, handler and arguments of each subcommand, in `--help` order
_SUBCOMMANDS = (
    ("decompose", "symmetric decomposition of H(A)", cmd_decompose,
     _RING + (_FORMAT, _arg("--show-bases", action="store_true"),
              _arg("--suppress-zero", action="store_true"), _EXPR)),
    ("hilbert", "Hilbert function only", cmd_hilbert,
     _RING + (_FORMAT, _EXPR)),
    ("annihilator", "minimal generators of Ann f", cmd_annihilator,
     _RING + (_FORMAT,
              _arg("--verify", help="semicolon-separated generators to check"),
              _EXPR)),
    ("exotic", "detect exotic summands", cmd_exotic, _RING + (_EXPR,)),
    ("normalize", "remove exotic summands", cmd_normalize, _RING + (_EXPR,)),
    ("modcheck", "test the a-modification relation", cmd_modcheck,
     _RING + (_A, _arg("expr1"), _arg("expr2"))),
    ("rcm", "relatively compressed a-modification", cmd_rcm,
     _RING + (_A, _arg("--seed", type=int, default=0),
              _arg("--coeff-bound", type=partial(_at_least, 0), default=10),
              _arg("--retries", type=partial(_at_least, 1), default=5),
              _FORMAT, _EXPR)),
    ("extend", "extension linear in fresh variables", cmd_extend,
     _RING + (_arg("--h", action="append", required=True,
                   help="homogeneous summand (repeatable)"),
              _arg("--zvars", required=True),
              _arg("--components", action="store_true",
                   help="also print the per-summand module dimensions"),
              _FORMAT, _EXPR)),
    ("consum-split", "split a quadric connected summand", cmd_consum_split,
     _RING + (_EXPR,)),
    ("fuzz", "run a seeded property suite", cmd_fuzz,
     (_arg("--suite", required=True, choices=FUZZ_SUITES),
      _arg("--trials", type=partial(_at_least, 1), default=100),
      _arg("--seed", type=int, default=0))),
    ("verify", "recompute a corpus file and diff", cmd_verify,
     (_arg("corpus"),
      _arg("--jobs", type=partial(_at_least, 1), default=1,
           help="worker processes (capped at the entry and CPU counts)"))),
)


def build_parser(command: str) -> argparse.ArgumentParser:
    """The macdual parser.  Every subcommand is registered with its help, so
    `--help`, usage lines and "invalid choice" errors list them all, but
    only `command`'s arguments and handler are added: argparse reads no
    other subparser."""
    ap = argparse.ArgumentParser(
        prog="macdual",
        description="Exact Macaulay-dual computations for local Artinian "
                    "Gorenstein algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, fn, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        if name == command:
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse dispatches to the first token not starting with "-": the
    # top-level parser has no option that takes a value
    command = next((a for a in argv if not a.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    try:
        _bind_globals(args.fn)
        return args.fn(args)
    except (ParseError, SchemaError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GenericityError as exc:
        print("genericity failure: %s" % exc, file=sys.stderr)
        return 4
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - a bug here, not bad input
        print("internal error: %s: %s (subcommand %s, --char %s)"
              % (type(exc).__name__, " ".join(str(exc).split()), args.command,
                 getattr(args, "char", "-")), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
