"""In-memory span tracer that times micz_su11's public functions from outside.

`Tracer.install` replaces every public module-level function of the six layer
modules with a wrapper, in every module namespace that bound it (so
`numeric_verify.compose`, `cli.eig_oracle` and the package re-exports all go
through the wrapper).  Each call records one span

    [function, start, end, parent span index, item id, probe seconds]

in a list kept in memory; `dump` writes the list out once the run is over.
A span's self time is its duration minus the durations of its direct child
spans and minus the time the tracer's own probes spent inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "quantum_numbers",
    "special_functions",
    "operator_algebra",
    "analytic_states",
    "numeric_verify",
    "cli",
)


def _compose_probe(tracer, args, kwargs, result):
    tracer.counts["operator_algebra.compose.terms_out"] += len(result.items())
    tracer.seen["operator_algebra.compose"].add((args[0], args[1]))


def _sample_probe(qualname):
    def probe(tracer, args, kwargs, result):
        state, x = args[0], args[1]
        order = args[2] if len(args) > 2 else kwargs.get("order", 0)
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        tracer.counts[qualname + ".points"] += arr.size
        grid = (arr.size, float(arr[0]), float(arr[-1]))
        tracer.seen[qualname].add((state.sector, state.level.n, grid, order))

    return probe


def _apply_probe(tracer, args, kwargs, result):
    tracer.counts["numeric_verify.apply_operator.terms"] += len(args[0].terms)


def _eig_probe(tracer, args, kwargs, result):
    tracer.counts["numeric_verify.eig_oracle.eigenvalues"] += len(result)


PROBES = {
    "operator_algebra.compose": _compose_probe,
    "analytic_states.chi": _sample_probe("analytic_states.chi"),
    "analytic_states.chi_dn": _sample_probe("analytic_states.chi_dn"),
    "numeric_verify.apply_operator": _apply_probe,
    "numeric_verify.eig_oracle": _eig_probe,
}


class Tracer:
    """Spans and counters for one traced phase; one thread, nested calls only."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        # distinct probe keys of the current item; folded into `unique` per item
        self.seen: dict[str, set] = defaultdict(set)
        self.unique: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin_item(self, item_id: int) -> None:
        self._fold_seen()
        self.item = item_id

    def _fold_seen(self) -> None:
        for name, keys in self.seen.items():
            self.unique[name] += len(keys)
        self.seen.clear()

    def _wrap(self, qualname: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [qualname, 0.0, 0.0, parent, tracer.item, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += perf() - span[2]
            return result

        return traced

    def install(self, package) -> None:
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()
        self._fold_seen()

    def function_stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s (exclusive) and total_s (inclusive)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, (name, t0, t1, _, _, probe_s) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[i] - probe_s
            st["total_s"] += t1 - t0
        return stats

    def total_by_item(self, qualname: str) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for name, t0, t1, _, item, _ in self.spans:
            if name == qualname:
                out[item] += t1 - t0
        return out

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(t0 - origin, 9), round(t1 - origin, 9), parent, item]
                for n, t0, t1, parent, item, _ in self.spans]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "item"], "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
