"""The four benchmark workloads: input generation, the request each input
makes, and the correctness checks on its outputs.

Request ``i`` of a workload is generated from ``(seed, i)`` alone, so the
same seed gives the same inputs in every run.  Each workload cycles through
a fixed list of shapes (sizes, characteristics, request types) and draws the
contents of each shape from the seed; the shape cycle keeps the mix of cheap
and expensive requests the same for every seed.  Requests reach the program
only as generator text or command lines.

Each workload has a ``period`` (requests after which its shape cycle
repeats; runs are whole periods), a nominal ``rate`` (requests per second
measured on a 2-core x86-64 machine when the benchmark was written; it only
converts ``--seconds`` into a number of periods), ``ref_len`` (requests of
the default seed whose outputs are hashed) and ``trace_len`` (requests in
the traced run).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import random
import subprocess
import sys
from math import comb

from macdual import apolarity, cli, decomposition, io, normalform, poly
from macdual.fields import Field
from macdual.linalg import matrix_inverse
from macdual.errors import DomainError
from macdual.poly import DPPoly, RingSpec

from tracing import COUNTERS, layer_name, library_calls, make_api

VARS = ("X", "Y", "Z", "W", "U", "V")
P61 = 2 ** 61 - 1


# ---------------------------------------------------------------------------
# generator text

def monomials(r: int, d: int) -> list:
    if r == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1)
            for rest in monomials(r - 1, d - e)]


def term_text(c: int, m: tuple, names=VARS, bracket=True) -> str:
    factors = []
    for name, e in zip(names, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^[%d]" % (name, e) if bracket
                           else "%s^%d" % (name, e))
    sign = "-" if c < 0 else "+"
    if not factors:
        return "%s%d" % (sign, abs(c))
    return "%s%d*%s" % (sign, abs(c), "*".join(factors))


def poly_text(terms, names=VARS, bracket=True) -> str:
    return "".join(term_text(c, m, names, bracket) for c, m in terms
                   ).lstrip("+") or "0"


def coeff(rng, bound=10) -> int:
    return rng.randint(1, bound) * rng.choice((1, -1))


def sparse_terms(shape, values, r: int, j: int, terms: int) -> list:
    """One top-degree monomial plus `terms` random lower monomials, as in
    the acceptance suites; `shape` picks the monomials, `values` the
    coefficients."""
    top = shape.choice(monomials(r, j))
    lower = [m for d in range(1, j + 1) for m in monomials(r, d)]
    picked = shape.sample(lower, min(terms, len(lower)))
    return [(values.randint(1, 10), top)] + [
        (coeff(values), m) for m in picked if m != top]


def dense_terms(shape, values, r: int, j: int, homogeneous: bool) -> list:
    """Every degree-j monomial, plus six lower terms unless homogeneous."""
    out = [(coeff(values), m) for m in monomials(r, j)]
    if not homogeneous:
        lower = [m for d in range(1, j) for m in monomials(r, d)]
        out += [(coeff(values), m) for m in shape.sample(lower, 6)]
    return out


def request_rngs(name: str, seed: int, i: int, period: int):
    """Random streams for request i: `shape` depends only on the request's
    place in the period (sizes, supports), `values` on the seed
    (coefficients).  Every seed thus runs the same structures with other
    coefficients, and the cost of a run depends little on the seed."""
    return (random.Random("%s:shape:%d" % (name, i % period)),
            random.Random("%s:%d:%d" % (name, seed, i)))


# ---------------------------------------------------------------------------
# dense-q and dense-modp

class Dense:
    """Parse, PartialFiltration, symmetric decomposition and the full Loewy
    series; every other request (the "gens" half) also computes the dual
    module bases and Ann f with minimal generators, and desk-scale gens
    requests verify them with verify_ideal_presentation (on the dense forms
    that check alone takes 2-40 s).

    Fifteen of every sixteen requests are desk scale (sparse, r 2-4,
    j 4-8); the sixteenth is a dense form from `heavy`.  With one heavy
    request in sixteen, p90 falls inside the many desk-scale latencies
    rather than between the few heavy ones, which differ by whole shapes."""

    CYCLE = 16
    LIGHT = ((2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
             (3, 7), (3, 8), (4, 4), (4, 5), (4, 6))

    def __init__(self, name, chars, heavy, rate):
        self.name = name
        self.chars = chars
        self.heavy = heavy
        self.ref_len = self.CYCLE
        # heavy shapes repeat after 2 * len(heavy) cycles (gens alternates)
        self.period = self.trace_len = 2 * len(heavy) * self.CYCLE
        self.rate = rate

    def make(self, seed: int, i: int) -> dict:
        shape, values = request_rngs(self.name, seed, i, self.period)
        heavy = i % self.CYCLE == self.CYCLE - 1
        if heavy:
            # each shape comes once per round; the field and the gens flag
            # flip between the two rounds of a period
            k = i // self.CYCLE
            slot, rnd = k % len(self.heavy), k // len(self.heavy) % 2
            r, j, homogeneous = self.heavy[slot]
            gens = (slot + rnd) % 2 == 0
            char = self.chars[rnd % len(self.chars)]
            terms = dense_terms(shape, values, r, j, homogeneous)
        else:
            r, j = self.LIGHT[i % len(self.LIGHT)]
            gens = i % 2 == 0
            char = self.chars[(i + i // self.CYCLE) % len(self.chars)]
            terms = sparse_terms(shape, values, r, j, shape.randint(3, 6))
        return {"vars": VARS[:r], "char": char, "gens": gens,
                "verify": gens and not heavy, "text": poly_text(terms)}

    def instrument(self, tracer):
        calls = library_calls(io, ("parse_poly", "render_decomposition"))
        calls.update(library_calls(apolarity, (
            "PartialFiltration", "annihilator", "verify_ideal_presentation")))
        calls.update(library_calls(decomposition, (
            "symmetric_decomposition", "dual_component_basis")))
        calls["loewy_hilbert"] = ("apolarity.loewy_hilbert",
                                  apolarity.PartialFiltration.loewy_hilbert)
        return contextlib.nullcontext(make_api(calls, tracer))

    def run(self, api, req):
        ring = RingSpec(req["vars"], Field(req["char"]))
        f = api.parse_poly(req["text"], ring)
        P = api.PartialFiltration(f)
        D = api.symmetric_decomposition(P)
        loewy = [api.loewy_hilbert(P, b) for b in range(P.j + 2)]
        out = [api.render_decomposition(D, style="json", show_bases=False),
               "loewy " + repr(loewy)]
        ideal = verified = None
        if req["gens"]:
            D.bases = {a: api.dual_component_basis(P, a)
                       for a, row in enumerate(D.components) if any(row)}
            ideal = api.annihilator(f)
            if req["verify"]:
                verified = api.verify_ideal_presentation(ideal.min_gens, f)
            out += [api.render_decomposition(D, show_bases=True),
                    "gens " + "; ".join(str(g) for g in ideal.min_gens),
                    "orders %r graded %r" % (ideal.orders,
                                             ideal.graded_dims()),
                    "verified %r" % verified]
        return "\n".join(out), (f, P, loewy, ideal, verified)

    run_inproc = run

    def check(self, req, state) -> list:
        f, P, loewy, ideal, verified = state
        H, j, r = P.hilbert(), P.j, f.ring.r
        errs = []
        if loewy[0] != (0,) * (j + 1) or loewy[j + 1] != H:
            errs.append("Loewy series does not run from 0 to H")
        if any(x > y for lo, hi in zip(loewy, loewy[1:])
               for x, y in zip(lo, hi)):
            errs.append("Loewy series is not increasing")
        if ideal is None:
            return errs
        # H from the filtration against dim R_d - dim I*_d from Ann f
        graded = ideal.graded_dims()
        for d in range(j + 2):
            h = H[d] if d <= j else 0
            if h != comb(r + d - 1, d) - graded[d]:
                errs.append("H_%d disagrees with Ann f" % d)
        for g in ideal.min_gens:
            if not poly.contract(g, f).is_zero:
                errs.append("minimal generator %s does not annihilate f" % g)
        if req["verify"] and verified is not True:
            errs.append("minimal generators fail verify_ideal_presentation")
        return errs


# Heavy tails: (r, j, homogeneous).  Over Q the forms stop where one request
# still takes about a second; r=3 j=10 already stores entries of about
# 5,000 bits.
DENSE_Q = Dense("dense-q", (0,), (
    (3, 8, False), (4, 6, False), (3, 10, True), (4, 6, True),
    (5, 5, True), (3, 9, True)), rate=25)
DENSE_MODP = Dense("dense-modp", (101, P61), (
    (4, 8, False), (5, 6, False), (3, 12, True), (6, 5, False)), rate=15)


# ---------------------------------------------------------------------------
# normal-forms

def hidden_split_input(shape, values, char: int):
    """A generator with H(j-2) = (0, s, 0): a head in r1 variables plus a
    rank-s quadric in s fresh ones, hidden by an invertible integer linear
    change and contraction by a unit (the fuzz `split` recipe).  Sizes and
    supports come from `shape`, coefficients, the change and the unit from
    `values`; a structure that fails ten value draws is redrawn."""
    field = Field(char)
    while True:
        r1, s, j = shape.randint(1, 2), shape.randint(1, 2), shape.randint(4, 6)
        ring = RingSpec(VARS[:r1 + s], field)
        head = RingSpec(VARS[:r1], field)
        head_support = sparse_terms(shape, values, r1, j, 3)
        unit_support = shape.sample([m for d in range(1, j + 2)
                                     for m in monomials(ring.r, d)], 4)
        for _ in range(10):
            head_terms = [(coeff(values), m) for _, m in head_support]
            f1 = io.parse_poly(poly_text(head_terms), head)
            if any(decomposition.symmetric_decomposition(f1).components[j - 2]):
                continue
            F = f1.embed(ring)
            for i in range(r1, r1 + s):
                mon = tuple(2 if t == i else 0 for t in range(ring.r))
                F = F + DPPoly(ring, {mon: field.from_int(values.randint(1, 5))})
            while True:     # nonzero entries: every hidden input is dense
                M = [[field.from_int(coeff(values, 2))
                      for _ in range(ring.r)] for _ in range(ring.r)]
                try:
                    matrix_inverse(M, field)
                    break
                except DomainError:
                    continue
            F = poly.linear_substitute(F, M)
            unit = [(1, (0,) * ring.r)] + [(coeff(values, 5), m)
                                          for m in unit_support]
            F = poly.contract(io.parse_ps(poly_text(unit, ring.lvars, False),
                                          ring, j + 2), F)
            D = decomposition.symmetric_decomposition(F)
            if F.degree == j and D.components[j - 2] == (0, s, 0):
                return ring.vars, str(F)


class NormalForms:
    """Three request types over Q and F_101: splitting off a hidden quadric
    connected summand; inverting a random coordinate change, building the
    checked CoordChange and applying its adjoint; normalize plus
    detect_exotic on sparse desk-scale generators."""

    CYCLE = ("split", "adjoint", "normalize", "adjoint", "normalize",
             "split", "normalize", "adjoint")

    name = "normal-forms"
    trace_len = 160
    ref_len = len(CYCLE)
    period = 2 * len(CYCLE)     # the field alternates between cycles
    rate = 34

    def make(self, seed: int, i: int) -> dict:
        # structures repeat every 128 requests rather than every period
        shape, values = request_rngs(self.name, seed, i, 8 * self.period)
        kind = self.CYCLE[i % len(self.CYCLE)]
        char = (0, 101)[(i // len(self.CYCLE) + i) % 2]
        req = {"kind": kind, "char": char}
        if kind == "split":
            req["vars"], req["text"] = hidden_split_input(shape, values, char)
        elif kind == "adjoint":
            r, N = shape.randint(2, 4), shape.randint(4, 7)
            lv = tuple(v.lower() for v in VARS[:r])
            req["vars"], req["trunc"] = VARS[:r], N
            req["text"] = poly_text(sparse_terms(shape, values, r, N - 1, 4))
            req["images"] = []
            for i_var in range(r):
                extra = [(coeff(values, 5), m) for m in shape.sample(
                    [m for d in (2, 3) for m in monomials(r, d)], 2)]
                unit = tuple(1 if t == i_var else 0 for t in range(r))
                req["images"].append(poly_text([(1, unit)] + extra, lv, False))
            req["probes"] = [
                poly_text(sparse_terms(values, values, r,
                                       values.randint(1, N - 1), 3), lv, False)
                for _ in range(4)]
        else:
            r = shape.randint(2, 4)
            j = shape.randint(2, 6 if r < 4 else 5)
            req["vars"] = VARS[:r]
            req["text"] = poly_text(sparse_terms(shape, values, r, j,
                                                 shape.randint(3, 6)))
        return req

    def instrument(self, tracer):
        calls = library_calls(io, ("parse_poly", "parse_ps"))
        calls.update(library_calls(poly, ("ps_compose_inverse",)))
        calls.update(library_calls(normalform, (
            "CoordChange", "adjoint_apply", "normalize", "detect_exotic",
            "split_connected_summand")))
        return contextlib.nullcontext(make_api(calls, tracer))

    def run(self, api, req):
        ring = RingSpec(req["vars"], Field(req["char"]))
        f = api.parse_poly(req["text"], ring)
        kind = req["kind"]
        if kind == "split":
            res = api.split_connected_summand(f)
            text = "split %s | %s | %s" % (res.summand_main,
                                           res.summand_quadric, res.generator)
            return text, (f, res)
        if kind == "adjoint":
            N = req["trunc"]
            images = [api.parse_ps(s, ring, N) for s in req["images"]]
            inv = api.ps_compose_inverse(images, N)
            sigma = api.CoordChange(ring, images, inv, N)
            xf = api.adjoint_apply(sigma, f)
            return "adjoint %s | %s" % (xf, "; ".join(map(str, inv))), \
                (f, sigma, xf)
        g, change = api.normalize(f)
        rep = api.detect_exotic(f)
        text = "normal %s | %s | exotic %s" % (
            g, "; ".join(map(str, change.inv_images)),
            "; ".join("%d:%s" % (d, t) for d, t in rep.exotic_terms))
        return text, (f, g)

    run_inproc = run

    def check(self, req, state) -> list:
        f = state[0]
        errs = []
        comps = decomposition.symmetric_decomposition(f).components

        def same_decomposition(g, what):
            if decomposition.symmetric_decomposition(g).components != comps:
                errs.append("%s changed the decomposition" % what)

        if req["kind"] == "split":
            res = state[1]
            same_decomposition(res.generator, "the split")
            if res.summand_main.variables_used() & \
                    res.summand_quadric.variables_used():
                errs.append("split summands share variables")
        elif req["kind"] == "adjoint":
            _, sigma, xf = state
            same_decomposition(xf, "the adjoint")
            N = req["trunc"]
            for src in req["probes"]:
                h = io.parse_ps(src, f.ring, N)
                lhs = poly.pairing(poly.ps_compose(h, sigma.inv_images, N), f)
                if lhs != poly.pairing(h, xf):
                    errs.append("pairing identity fails on %s" % src)
        else:
            g = state[1]
            same_decomposition(g, "normalize")
            if normalform.detect_exotic(g).has_exotic:
                errs.append("normal form still has exotic terms")
        return errs


# ---------------------------------------------------------------------------
# small-cli

class SmallCli:
    """One fresh `macdual` process per request, one subcommand on a small
    generator from the corpus or the README; each pass of 18 subcommand
    calls ends with `verify corpus/paper.corpus --jobs 1`."""

    name = "small-cli"
    CORPUS = os.path.join("corpus", "paper.corpus")
    # generators for which every subcommand below is small
    SMALL = ("magic-square", "power-sum", "caution-drop-1", "caution-drop-2",
             "modification-base", "generic-mod-a", "generic-mod-c",
             "curvilinear-plus-cubic", "same-graded-algebra-b",
             "stretched-pair-a", "complete-intersection-rcm",
             "stretched-exotic", "blind-exotic", "more-exotics",
             "apolar-cubic-quartic")
    RCM = ((("X", "Y", "Z", "W"), "X^[5]", 1),
           (("X", "Y", "Z"), "X^[4]+Y^[4]", 1),
           (("X", "Y", "Z"), "X^[5]+Y^[3]", 2))
    EXTEND = ((("X", "Y"), "X^[3]*Y^[3]", ["X^[4]+Y^[4]"]),
              (("X", "Y"), "X^[5]+Y^[5]", ["X^[3]"]),
              (("X", "Y"), "X^[2]*Y^[4]", ["X^[2]*Y^[2]", "X^[2]"]))
    CONSUM = ((("X", "Y"), "Y^[4]+Y^[2]*X"), (("X", "Y"), "X^[5]+Y^[2]"),
              (("X", "Y", "Z"), "X^[4]+X*Y^[2]+Z^[2]"))
    SUBCOMMANDS = ("decompose", "hilbert", "annihilator", "exotic",
                   "normalize", "modcheck", "rcm", "extend", "consum-split")
    PASS = 2 * len(SUBCOMMANDS) + 1
    # the names cli.py binds from the other modules
    CLI_CALLS = ("PartialFiltration", "annihilator", "verify_ideal_presentation",
                 "ExtensionSpec", "allowed_component_indices",
                 "is_a_modification", "linear_extension",
                 "relatively_compressed_modification", "restricted_components",
                 "symmetric_decomposition", "corpus_load", "corpus_verify",
                 "parse_poly", "parse_ps", "render_decomposition",
                 "detect_exotic", "normalize", "split_connected_summand")
    trace_len = 2 * PASS
    ref_len = PASS
    period = PASS
    rate = 4.3

    def __init__(self):
        self.entries = None

    def _corpus(self):
        if self.entries is None:
            self.entries = {e.name: e for e in io.corpus_load(self.CORPUS)}
        return self.entries

    def make(self, seed: int, i: int) -> dict:
        k = i % self.PASS
        if k == self.PASS - 1:
            return {"argv": ["verify", self.CORPUS, "--jobs", "1"]}
        rng = request_rngs(self.name, seed, i, self.period)[1]
        sub = self.SUBCOMMANDS[k % len(self.SUBCOMMANDS)]
        entries = self._corpus()
        e = entries[rng.choice(self.SMALL)]

        def ring_flags(vars, char=0):
            return ["--vars", ",".join(vars), "--char", str(char)]

        flags = ring_flags(e.vars, e.chars[0])
        if sub == "decompose":
            argv = [sub] + flags + rng.choice(
                ([], ["--format", "json", "--show-bases"], ["--show-bases"]))
            argv.append(e.generator)
        elif sub in ("hilbert", "exotic", "normalize"):
            argv = [sub] + flags + [e.generator]
        elif sub == "annihilator":
            e = entries[rng.choice([n for n in self.SMALL
                                    if "ideal_gens" in entries[n].expect])]
            argv = [sub] + ring_flags(e.vars, e.chars[0]) + [
                "--verify", "; ".join(e.expect["ideal_gens"]), e.generator]
        elif sub == "modcheck":
            r, j = len(e.vars), poly_degree(e.generator, e.vars)
            a = rng.randint(1, 2)
            tail = "".join(term_text(coeff(rng), rng.choice(monomials(r, d)),
                                     e.vars) for d in range(1, j - a + 1))
            argv = [sub] + flags + ["--a", str(a), e.generator,
                                    e.generator + tail]
        elif sub == "rcm":
            vars, gen, a = rng.choice(self.RCM)
            argv = [sub] + ring_flags(vars) + [
                "--a", str(a), "--seed", str(rng.randrange(1000)), gen]
        elif sub == "extend":
            vars, gen, hs = rng.choice(self.EXTEND)
            zs = ",".join("Z%d" % (t + 1) for t in range(len(hs)))
            argv = [sub] + ring_flags(vars)
            for h in hs:
                argv += ["--h", h]
            argv += ["--zvars", zs, "--components", gen]
        else:
            vars, gen = rng.choice(self.CONSUM)
            argv = [sub] + ring_flags(vars, rng.choice((0, 101))) + [gen]
        return {"argv": argv}

    def run(self, api, req):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY] + req["argv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), timeout=120)
        return proc.stdout, (proc.returncode, proc.stdout)

    @contextlib.contextmanager
    def instrument(self, tracer):
        """cli.main in process.  Traced, the names cli.py calls into the
        other modules are wrapped for the duration, so each subcommand's
        work is split by layer."""
        if tracer is None:
            yield make_api({"main": ("cli.main", cli.main)}, None)
            return
        saved = {n: getattr(cli, n) for n in self.CLI_CALLS}
        try:
            for n, fn in saved.items():
                setattr(cli, n, tracer.wrap(layer_name(fn), fn,
                                            COUNTERS.get(n)))
            yield make_api({"main": ("cli.main", cli.main)}, tracer)
        finally:
            for n, fn in saved.items():
                setattr(cli, n, fn)

    def run_inproc(self, api, req):
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(_stdio.StringIO()):
            code = api.main(req["argv"])
        return buf.getvalue(), (code, buf.getvalue())

    def check(self, req, state) -> list:
        code, out = state
        errs = []
        if code != 0:
            errs.append("%s exited with %r" % (req["argv"][0], code))
        if req["argv"][0] == "verify" and \
                not out.rstrip().endswith(" 0 mismatches"):
            errs.append("verify reported mismatches")
        return errs


def poly_degree(text: str, vars) -> int:
    return io.parse_poly(text, RingSpec(vars, Field(0))).degree


CLI_ENTRY = "import sys; from macdual.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


WORKLOADS = {w.name: w for w in (DENSE_Q, DENSE_MODP, NormalForms(),
                                 SmallCli())}
