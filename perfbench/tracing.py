"""Spans and counters recorded by the benchmark around its calls into macdual.

A span is ``[name, start, end, parent, request]``: the parent is the index of
the enclosing span (or None) and ``request`` the id of the request that
caused it.  Spans are kept in memory and written out when the run ends.  A
layer's self time is its span's duration minus the durations of its direct
children.

Counters are read at the same boundaries from the values the calls return:
echelon rows of every ``PartialFiltration``, the largest stored entry, and
the dimension of every ``LocalIdeal``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace


def filtration_counts(counters: dict, P) -> None:
    """Echelon rows over all levels and the bit length of the largest entry
    stored in them (integers over Q, residues mod p)."""
    s = 0
    while (lev := P.level(s)) is not None:
        counters["linalg.echelon_rows"] += lev.dim
        for row in lev.rows:
            for v in row.values():
                b = abs(v).bit_length()
                if b > counters["fields.max_coeff_bits"]:
                    counters["fields.max_coeff_bits"] = b
        s += 1


def ideal_counts(counters: dict, ideal) -> None:
    counters["linalg.ideal_rows"] += ideal.dim


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self.request = None

    def wrap(self, name: str, fn, count=None):
        """fn with a span named `name` around every call; `count`, if given,
        reads counters from the result after the span has closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None,
                          self.request])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                spans[idx][1] = t0
                stack.pop()
            if count is not None:
                count(self.counters, out)
            return out

        return traced

    def self_times(self) -> dict:
        """name -> (summed self time in seconds, number of calls)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (t1 - t0) - child[i], n + 1)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


def layer_name(fn) -> str:
    """'macdual.apolarity' + 'annihilator' -> 'apolarity.annihilator'."""
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


COUNTERS = {"PartialFiltration": filtration_counts,
            "annihilator": ideal_counts}


def make_api(calls: dict, tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of the library entry points a workload calls, given as
    ``{attribute: (span name, function)}``.  Untraced, the attributes are
    the functions themselves; traced, each is wrapped in its span."""
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn) in calls.items()})
    return SimpleNamespace(**{
        k: tracer.wrap(span, fn, COUNTERS.get(k))
        for k, (span, fn) in calls.items()})


def library_calls(module, names) -> dict:
    """``{name: (layer span name, function)}`` for names bound in module."""
    return {n: (layer_name(getattr(module, n)), getattr(module, n))
            for n in names}
