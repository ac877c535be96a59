"""Tests of the benchmark's own arithmetic: self time, wrapping, metric emission.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_spans.py``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Tracer, covered_length, instrument, self_times, summarize  # noqa: E402
from graphspde import RoundResult  # noqa: E402
from workloads import UnitResult  # noqa: E402


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(11, 12)], 0, 10) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    #  0: [0, 10]  1: [1, 3] child of 0   2: [2, 6] child of 0   3: [4, 5] child of 2
    starts = [0.0, 1.0, 2.0, 4.0]
    ends = [10.0, 3.0, 6.0, 5.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_wrap_records_parents_counts_and_reraised_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + traced_inner(x))
    assert traced_outer(2) == 4
    with pytest.raises(ValueError):
        traced_outer(-1)
    assert tracer.names == ["outer", "inner", "inner", "outer", "inner"]
    assert tracer.parents == [-1, 0, 0, -1, 3]
    assert tracer.errors == {("inner", "ValueError"): 1, ("outer", "ValueError"): 1}
    summary = summarize(tracer)["spans"]
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["self_s"] <= summary["outer"]["s"]


def test_instrument_wraps_every_reference_and_restores_them():
    import graphspde
    from graphspde import gp, spectral

    original = spectral.cholesky_jittered
    graph = graphspde.line_graph(3)
    points = [graphspde.STPoint(v, float(t)) for t in (1, 2) for v in range(3)]
    data = graphspde.SpatioTemporalDataset(graph, tuple((p, 0.1 * i) for i, p in enumerate(points)))
    model = graphspde.GPModel(kernel=graphspde.KernelSpec(
        kind="shek", hyper={"c": 1.0, "sigma": 1.0, "nu": 1.5, "kappa": 1.0}))
    tracer = Tracer()
    with instrument(tracer):
        assert gp.cholesky_jittered is not original
        graphspde.log_marginal_likelihood(model, data)
    assert gp.cholesky_jittered is original and spectral.cholesky_jittered is original
    assert tracer.names.count("spectral.chol") == 3  # one per eigenmode on the grid path


def _declared():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", ["backtest", "oracle"])
def test_every_declared_metric_is_emitted_with_its_unit(kind):
    spec = _declared()
    if kind == "backtest":
        result = RoundResult(round_index=0, abs_errors=(0.1, 0.2), mae=0.15, mape=None, wall_time=0.9)
        untraced = {"shek": [UnitResult(1.0, round=result)], "sep-matern-rbf": [UnitResult(2.0, round=result)]}
        quality = {"mae.shek": 0.15, "mae.sep-matern-rbf": 0.15, "dm_p_max": 0.5}
    else:
        untraced = {"shek": [UnitResult(1.0, entries=27)], "swek": [UnitResult(1.5, entries=27)]}
        quality = {"oracle_within_4se": 1.0}
    tracer = Tracer()
    tracer.wrap("gp.fit", lambda: None)()
    tracers = {unit: [tracer] for unit in untraced}
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        if trace == 0:
            values = run.end_to_end(0.5, untraced, 100.0)
        else:
            values = run.per_layer(untraced, untraced, tracers, quality)
        metrics = run.emit(values, declared)
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], float)


def test_end_to_end_sums_unit_medians():
    untraced = {"a": [UnitResult(1.0), UnitResult(3.0), UnitResult(2.0)], "b": [UnitResult(5.0)]}
    values = run.end_to_end(0.5, untraced, 100.0)
    assert values["wall_s"] == pytest.approx(7.0)


def test_emit_refuses_missing_undeclared_and_non_finite_metrics():
    declared = [{"name": "wall_s", "unit": "s"}]
    with pytest.raises(ValueError):
        run.emit({}, declared)
    with pytest.raises(ValueError):
        run.emit({"wall_s": 1.0, "extra": 2.0}, declared)
    with pytest.raises(ValueError):
        run.emit({"wall_s": float("nan")}, declared)
