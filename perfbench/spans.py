"""In-memory span tracer that wraps the library's public functions.

A span is (name, start, end, parent).  Spans are kept in four parallel
lists while the run lasts and written out once at the end.  Wrapping
replaces every reference to a traced function in the ``graphspde``
modules, because the modules import each other's functions by name (for
example ``gp`` holds its own reference to ``spectral.cholesky_jittered``).
The originals are restored when the ``instrument`` block exits, so
untraced units run the library unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _jittered(tracer, result):
    if result[1] > 0.0:
        tracer.counts["spectral.chol.jittered"] += 1


def _gram_points(tracer, result):
    tracer.counts["kernels.gram.points"] += len(result.points)


def _fit_iters(tracer, result):
    tracer.counts["gp.fit.iters"] += len(result.trace)


def _predict_points(tracer, result):
    tracer.counts["gp.predict.points"] += result.mean.shape[0]


def _path_steps(tracer, result):
    steps = int(round(float(result.times[-1]) / result.dt))
    tracer.counts["sde.simulate.path_steps"] += result.n_paths * steps


# (module, public function, span name, hook on the returned value)
TARGETS = (
    ("graphspde.spectral", "eigendecompose_symmetric", "spectral.eigh", None),
    ("graphspde.spectral", "cholesky_jittered", "spectral.chol", _jittered),
    ("graphspde.graphs", "fractional_from_graph", "graphs.frac", None),
    ("graphspde.kernels", "assemble_gram", "kernels.gram", _gram_points),
    ("graphspde.kernels", "temporal_kernel", "kernels.temporal", None),
    ("graphspde.gp", "fit", "gp.fit", _fit_iters),
    ("graphspde.gp", "predict", "gp.predict", _predict_points),
    ("graphspde.experiments", "run_backtest", "experiments.backtest", None),
    ("graphspde.sde", "simulate_heat", "sde.simulate", _path_steps),
    ("graphspde.sde", "simulate_wave", "sde.simulate", _path_steps),
    ("graphspde.sde", "empirical_cross_cov", "sde.cross_cov", None),
)


class Tracer:
    """Spans of one traced unit, plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def records(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call to the TARGETS through ``tracer`` inside the block."""
    modules = [m for n, m in list(sys.modules.items()) if n == "graphspde" or n.startswith("graphspde.")]
    patched = []
    try:
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = tracer.wrap(span_name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    return [
        (ends[i] - starts[i]) - covered_length(children.get(i, []), starts[i], ends[i])
        for i in range(len(starts))
    ]


def has_ancestor(parents, names, index: int, name: str) -> bool:
    parent = parents[index]
    while parent >= 0:
        if names[parent] == name:
            return True
        parent = parents[parent]
    return False


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds, self seconds; plus nested counts."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    nested: Counter = Counter()
    for i, name in enumerate(tracer.names):
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += tracer.ends[i] - tracer.starts[i]
        entry["self_s"] += own[i]
        if name == "spectral.eigh" and has_ancestor(tracer.parents, tracer.names, i, "graphs.frac"):
            nested["graphs.frac.eigh"] += 1
        if name == "spectral.chol" and has_ancestor(tracer.parents, tracer.names, i, "gp.fit"):
            nested["gp.fit.chol"] += 1
    return {"spans": dict(by_name), "nested": dict(nested)}
