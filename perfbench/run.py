"""macdual benchmark: one command, four workloads, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client drives the library in a closed loop: the next request
starts only after the previous one has returned.  ``--trace 0`` times
about ``--seconds`` of requests (whole periods of the workload's shape
cycle, at its nominal rate) with no tracing and reports the end-to-end
metrics; ``--trace 1`` runs a fixed list of requests twice, untraced and
traced, and reports the per-layer metrics read from the spans.  End-to-end
timings are reported at a fixed reference speed, scaled by a short probe
timed before each request (see reference_scales).  Metric names and units
come from BENCHMARK.json.  Every request's outputs are checked outside the
timed region.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
MIN_REQUESTS = 100      # p90 then has at least ten samples beyond it
SETUP_REPEATS = 11
REFERENCE_LOOPS = 20_000
# Median wall time of reference_probe() on the 2-core x86-64 machine
# (Python 3.11.7) the benchmark was written on; timings are reported at
# that machine's speed (see reference_scales).
REFERENCE_NOMINAL_S = 0.002
REFERENCE_WINDOW = 2    # probes on each side of a request that scale it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import %s; "
                "print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# environment

def commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]),
                      encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def reference_loop(iterations: int) -> None:
    """A fixed pure-Python loop that runs no macdual code."""
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003


def calibrate() -> float:
    """CPU seconds of 2,000,000 reference iterations; recorded before and
    after each run to show machine drift, never used to gate or scale a
    result."""
    t0 = process_time()
    reference_loop(2_000_000)
    return process_time() - t0


def reference_probe() -> float:
    """Wall seconds of REFERENCE_LOOPS reference iterations, timed before
    every request to sample the speed the host gives the benchmark then."""
    t0 = perf_counter()
    reference_loop(REFERENCE_LOOPS)
    return perf_counter() - t0


def reference_scales(probes) -> list:
    """Per request i, the factor that turns seconds measured around it into
    seconds at the nominal reference speed: REFERENCE_NOMINAL_S over the
    median of the probes timed before requests i-k .. i+k, k being
    REFERENCE_WINDOW.  The host's speed drifts by a fifth or more within a
    minute; the probes next to a request share its host phase, so the drift
    cancels out, while a change to macdual moves the requests and not the
    probes."""
    n, k = len(probes), REFERENCE_WINDOW
    return [REFERENCE_NOMINAL_S
            / statistics.median(probes[max(0, i - k):min(n, i + k + 1)])
            for i in range(n)]


def import_seconds(module: str) -> float:
    """Time a fresh interpreter takes to import `module`."""
    from workloads import child_env
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE % module],
                         stdout=subprocess.PIPE, check=True, text=True,
                         env=child_env(), timeout=60).stdout
    return float(out)


def median_import_seconds(module: str, repeats: int) -> float:
    """Median of `repeats` import probes, after one unmeasured probe so that
    byte code is compiled once."""
    import_seconds(module)
    return statistics.median(import_seconds(module) for _ in range(repeats))


# ---------------------------------------------------------------------------
# runs

def digest_prefix(wl) -> tuple[str, list]:
    """Run the first requests of the default seed (outside any timing; they
    also warm the interpreter) and hash their rendered outputs."""
    h = hashlib.sha256()
    errors = []
    with wl.instrument(None) as api:
        for i in range(wl.ref_len):
            req = wl.make(DEFAULT_SEED, i)
            text, state = wl.run_inproc(api, req)
            errors += wl.check(req, state)
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest(), errors


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def run_length(wl, seconds: float) -> int:
    """Requests in a run: whole periods of the workload's shape cycle, as
    many as take `seconds` at the workload's nominal rate, and at least
    MIN_REQUESTS.  The count depends only on the arguments, so every run
    has the same mix and its p90 falls on the same rank."""
    periods = max(1, math.ceil(seconds * wl.rate / wl.period),
                  math.ceil(MIN_REQUESTS / wl.period))
    return periods * wl.period


def end_to_end(wl, seed: int, n: int) -> dict:
    """Closed loop over requests 0..n-1; checks run between requests, off
    the clock.  Before each request, also off the clock, a reference probe
    samples the host's speed.  The SETUP_REPEATS import probes for
    `setup_s`, recorded with the index of the request they precede, are
    spread evenly over the loop, so that their median samples the machine
    across the whole run rather than at one moment."""
    latencies, failures, setups, probes = [], [], [], []
    probe_at = {n * k // SETUP_REPEATS for k in range(SETUP_REPEATS)}
    import_seconds("macdual")   # unmeasured: byte code is compiled once
    with wl.instrument(None) as api:
        for i in range(n):
            if i in probe_at:
                setups.append((i, import_seconds("macdual")))
            req = wl.make(seed, i)
            probes.append(reference_probe())
            t0 = perf_counter()
            try:
                text, state = wl.run(api, req)
            except Exception as exc:  # noqa: BLE001 - count, keep serving
                dt = perf_counter() - t0
                failures.append("request %d: %r" % (i, exc))
            else:
                dt = perf_counter() - t0
                failures += ["request %d: %s" % (i, e)
                             for e in wl.check(req, state)[:1]]
            latencies.append(dt)
    return {"latencies": latencies, "failures": failures, "setups": setups,
            "probes": probes}


def timing_metrics(latencies, setups) -> dict:
    """The four timing metrics from request latencies and (index, seconds)
    import probes."""
    lat = sorted(latencies)
    return {"request_s.p50": statistics.median(lat),
            "request_s.p90": percentile(lat, 0.9),
            "requests_per_s": len(lat) / sum(lat),
            "setup_s": statistics.median(t for _, t in setups)}


def traced(wl, seed: int, length: int) -> dict:
    """A fixed list of `length` requests, untraced and then traced."""
    reqs = [wl.make(seed, i) for i in range(length)]
    with wl.instrument(None) as api:
        t0 = perf_counter()
        for req in reqs:
            wl.run_inproc(api, req)
        untraced = perf_counter() - t0
    tracer = Tracer()
    failures = []
    states = []
    with wl.instrument(tracer) as api:
        request = tracer.wrap("request", wl.run_inproc)
        t0 = perf_counter()
        for i, req in enumerate(reqs):
            tracer.request = i
            states.append(request(api, req))
        traced_wall = perf_counter() - t0
    for i, (req, (_, state)) in enumerate(zip(reqs, states)):
        failures += ["request %d: %s" % (i, e)
                     for e in wl.check(req, state)[:1]]
    return {"tracer": tracer, "untraced": untraced, "traced": traced_wall,
            "failures": failures, "requests": reqs}


def layer_metrics(wl, run: dict, names) -> dict:
    """Self times (`X.s`), call counts (`X.calls`) and counters of the
    traced run; for small-cli also the cold-start and import times."""
    tracer = run["tracer"]
    selfs = tracer.self_times()
    values = {}
    for name in names:
        if name in ("cli.cold_start_s", "cli.import_s"):
            continue
        if name.endswith(".s"):
            values[name] = selfs.get(name[:-2], (0.0, 0))[0]
        elif name.endswith(".calls"):
            values[name] = selfs.get(name[:-6], (0.0, 0))[1]
        else:
            values[name] = tracer.counters.get(name, 0)
    if wl.name == "small-cli":
        cold = []
        for req in run["requests"]:
            t0 = perf_counter()
            wl.run(None, req)
            cold.append(perf_counter() - t0)
        values["cli.cold_start_s"] = statistics.median(cold)
        values["cli.import_s"] = median_import_seconds("macdual.cli", 5)
    else:
        values["cli.cold_start_s"] = 0.0
        values["cli.import_s"] = 0.0
    return values


def load_workloads(root: str) -> dict:
    """The workload table, with macdual imported from root/src."""
    for path in (os.path.join(root, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS
    return WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests.json from this program")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "macdual", "__init__.py")):
        print("error: run from a macdual checkout (no src/macdual here)",
              file=sys.stderr)
        return 2
    WORKLOADS = load_workloads(root)
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    digests_path = os.path.join(HERE, "digests.json")
    with open(digests_path, encoding="utf-8") as fh:
        digests = json.load(fh)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = {"commit": commit(root), "python": platform.python_version(),
           "nproc": os.cpu_count(), "calibration_s": [calibrate()]}
    digest, ref_errors = digest_prefix(wl)
    if args.record_digests:
        digests[wl.name] = digest
        with open(digests_path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
    digest_ok = digests.get(wl.name) == digest and not ref_errors

    if args.trace:
        run = traced(wl, args.seed, wl.trace_len)
        metrics = layer_metrics(wl, run, [m["name"]
                                          for m in spec["per_layer"]])
        attempted = len(run["requests"])
        failures = run["failures"]
        extra = {"untraced_s": run["untraced"], "traced_s": run["traced"],
                 "tracing_overhead_s": run["traced"] - run["untraced"]}
        run["tracer"].dump(os.path.join(
            out_dir, "spans-%s-seed%d.json" % (wl.name, args.seed)))
    else:
        run = end_to_end(wl, args.seed, run_length(wl, args.seconds))
        attempted = len(run["latencies"])
        failures = run["failures"]
        scales = reference_scales(run["probes"])
        measured = timing_metrics(run["latencies"], run["setups"])
        scaled = [t * c for t, c in zip(run["latencies"], scales)]
        metrics = timing_metrics(
            scaled, [(i, t * scales[i]) for i, t in run["setups"]])
        who = resource.RUSAGE_CHILDREN if wl.name == "small-cli" \
            else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        metrics["ok_frac"] = 1 - len(failures) / attempted
        extra = {"samples": attempted,
                 "beyond_p90": sum(1 for t in scaled
                                   if t > metrics["request_s.p90"]),
                 "reference_probe_s": statistics.median(run["probes"]),
                 "measured": measured}
    env["calibration_s"].append(calibrate())

    print("workload %s seed %d trace %d" % (wl.name, args.seed, args.trace))
    print("env %s" % json.dumps(env))
    print("digest %s (%s)" % (digest, "matches" if digest_ok else "MISMATCH"))
    for k, v in extra.items():
        print("%s %s" % (k, v))
    for msg in (ref_errors + failures)[:20]:
        print("FAILED %s" % msg)
    for k, v in metrics.items():
        print("%-45s %r %s" % (k, v, units[k]))
    result = {
        "correct": digest_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(out_dir, "run-%s-seed%d-trace%d.json" % (
            wl.name, args.seed, args.trace)), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "digest": digest, "extra": extra,
                   "failures": ref_errors + failures, "result": result}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
