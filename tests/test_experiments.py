from dataclasses import replace

import numpy as np
import pytest

import graphspde.experiments
import graphspde.gp
from graphspde import (
    BacktestPlan,
    DataError,
    FitOptions,
    GPModel,
    KernelSpec,
    NumericError,
    STPoint,
    SpatioTemporalDataset,
    SyntheticSpec,
    build_graph,
    fit,
    gen_heat_line,
    gen_wave_line,
    run_backtest,
)
from graphspde.experiments import _C_START_GRID, _data_scaled_spec, _evaluate_round


def small_dataset():
    spec = SyntheticSpec(kind="heat_line", n_nodes=4, coefficient=0.5,
                         timestamps=tuple(float(t) for t in range(1, 13)),
                         noise_sd=0.02, seed=5)
    return gen_heat_line(spec)[1]


def quick_opts():
    return FitOptions(max_iters=8, restarts=0, grad_tol=1e-3, seed=0)


KERNELS = {
    "shek": KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0}),
    "sep-matern-rbf": KernelSpec(
        kind="separable_product",
        hyper={"variance": 1.0, "time_lengthscale": 3.0},
        temporal_kind="rbf",
        spatial=KernelSpec(kind="matern_spatial", hyper={"nu": 0.5, "kappa": 1.0}),
    ),
}


def test_jobs_do_not_change_results():
    data = small_dataset()
    plan = BacktestPlan(n_train=6, n_test=2, stride=1, rounds=2, seed=0)
    serial = run_backtest(data, KERNELS, plan, "shek", fit_opts=quick_opts(), jobs=1)
    threaded = run_backtest(data, KERNELS, plan, "shek", fit_opts=quick_opts(), jobs=2)
    for a, b in zip(serial.summaries, threaded.summaries):
        assert a.kernel == b.kernel and a.task == b.task
        np.testing.assert_allclose(a.mae_mean, b.mae_mean)
        if a.dm_p_value is not None:
            np.testing.assert_allclose(a.dm_p_value, b.dm_p_value)
    assert [(k, t, r.starts, r.skipped_starts) for k, t, r in serial.rounds] == [
        (k, t, r.starts, r.skipped_starts) for k, t, r in threaded.rounds
    ]


SWEK = KernelSpec(kind="swek", hyper={"c": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0})


def wave_dataset():
    # 5 x 20: large enough that summing in row order rounds differently once the rows are reversed
    spec = SyntheticSpec(kind="wave_line", n_nodes=5, coefficient=0.5,
                         timestamps=tuple(float(t) for t in range(1, 21)), noise_sd=0.02, seed=5)
    return gen_wave_line(spec)[1]


def test_round_ignores_row_order():
    data = wave_dataset()
    backward = replace(data, observations=data.observations[::-1])
    times = data.times()
    train_t, test_t = times[:13], times[13:15]
    policy = "per_node_training_mean"
    starts = [_data_scaled_spec(SWEK, d.restrict_to_times(train_t), policy) for d in (data, backward)]
    assert starts[0] == starts[1]
    rounds = [_evaluate_round(d, train_t, test_t, SWEK, 0, quick_opts(), policy) for d in (data, backward)]
    assert rounds[0].abs_errors == rounds[1].abs_errors
    assert rounds[0].mae == rounds[1].mae
    assert rounds[0].starts == rounds[1].starts


@pytest.mark.parametrize("kind", ["shek", "swek"])
def test_process_round_runs_each_c_start_as_its_own_fit_would(kind):
    # each start that runs ends at the bits of a separate single-start fit at its c
    data = wave_dataset()
    times = data.times()
    train_t, test_t = times[:13], times[13:15]
    spec = replace(SWEK, kind=kind)
    opts = FitOptions(max_iters=40, restarts=2, grad_tol=1e-5, seed=0)
    policy = "per_node_training_mean"
    result = _evaluate_round(data, train_t, test_t, spec, 0, opts, policy)

    train = data.restrict_to_times(train_t)
    scaled, target_var = _data_scaled_spec(spec, train, policy)
    own = []
    for c in dict.fromkeys((float(scaled.hyper["c"]),) + _C_START_GRID):
        model = GPModel(kernel=scaled.with_hyper(c=c), noise_variance=max(1e-2 * target_var, 1e-8),
                        mean_policy=policy)
        single = fit(model, train, replace(opts, restarts=0))
        own.append((single.lml, len(single.trace)))
    assert len(result.starts) >= 2
    assert result.starts == tuple(own[: len(result.starts)])
    assert len(result.starts) + result.skipped_starts == len(own)


@pytest.mark.parametrize("name", ["shek", "sep-matern-rbf"])
def test_a_round_fits_through_one_call_of_fit(monkeypatch, name):
    calls = []
    original = graphspde.experiments.fit

    def counting(model, data, opts, starts=None):
        calls.append((model, starts))
        return original(model, data, opts, starts)

    monkeypatch.setattr(graphspde.experiments, "fit", counting)
    data = small_dataset()
    times = data.times()
    spec = KERNELS[name]
    _evaluate_round(data, times[:8], times[8:10], spec, 0, quick_opts(), "per_node_training_mean")
    ((model, starts),) = calls
    if name == "sep-matern-rbf":
        assert starts is None
        return
    # the data-scaled spec's own c, then the grid, each start otherwise the round's model
    scaled = _data_scaled_spec(spec, data.restrict_to_times(times[:8]), "per_node_training_mean")[0]
    assert [start.kernel.hyper["c"] for start in starts] == list(
        dict.fromkeys((scaled.hyper["c"],) + _C_START_GRID))
    assert all(replace(start, kernel=model.kernel) == model for start in starts)


def test_process_round_prepares_its_data_once_for_every_start(monkeypatch):
    calls = {"_prepare": 0, "_evaluator": 0, "_keep_freed_heap": 0}
    for name in calls:

        def counting(*args, name=name, original=getattr(graphspde.gp, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(graphspde.gp, name, counting)
    data = wave_dataset()
    times = data.times()
    _evaluate_round(data, times[:13], times[13:15], SWEK, 0, quick_opts(), "per_node_training_mean")
    # one preparation for the fit's starts and one for the posterior
    assert calls == {"_prepare": 2, "_evaluator": 1, "_keep_freed_heap": 1}


def test_per_round_failures_are_recorded_and_run_continues():
    # shek needs a symmetric Laplacian; a directed graph makes its fits fail
    # while the spatial Laplacian kernel still works
    graph = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)], directed=True)
    rng = np.random.default_rng(0)
    obs = tuple(
        (STPoint(v, float(t)), float(rng.normal()))
        for t in range(1, 11)
        for v in range(3)
    )
    data = SpatioTemporalDataset(graph=graph, observations=obs)
    kernels = {
        "laplacian": KernelSpec(kind="laplacian_spatial", hyper={"variance": 1.0}),
        "shek": KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0}),
    }
    plan = BacktestPlan(n_train=5, n_test=2, stride=1, rounds=2, seed=0)
    report = run_backtest(data, kernels, plan, "laplacian",
                          tasks=("extrapolation",), fit_opts=quick_opts())
    failed = {(k, r) for k, _, r, _ in report.failures}
    assert failed == {("shek", 0), ("shek", 1)}
    succeeded = {(k, res.round_index) for k, _, res in report.rounds}
    assert succeeded == {("laplacian", 0), ("laplacian", 1)}


def test_all_rounds_failing_raises():
    graph = build_graph(["a", "b"], [("a", "b", 1.0)], directed=True)
    obs = tuple((STPoint(v, float(t)), 1.0) for t in range(1, 8) for v in range(2))
    data = SpatioTemporalDataset(graph=graph, observations=obs)
    kernels = {"shek": KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0})}
    plan = BacktestPlan(n_train=4, n_test=1, stride=1, rounds=1, seed=0)
    with pytest.raises(NumericError, match="failed"):
        run_backtest(data, kernels, plan, "shek", tasks=("extrapolation",), fit_opts=quick_opts())


def test_unknown_baseline_rejected():
    data = small_dataset()
    plan = BacktestPlan(n_train=6, n_test=2, stride=1, rounds=1, seed=0)
    with pytest.raises(DataError, match="baseline"):
        run_backtest(data, KERNELS, plan, "nope", fit_opts=quick_opts())


def test_unknown_task_rejected():
    data = small_dataset()
    plan = BacktestPlan(n_train=6, n_test=2, stride=1, rounds=1, seed=0)
    with pytest.raises(DataError, match="task"):
        run_backtest(data, KERNELS, plan, "shek", tasks=("backcast",), fit_opts=quick_opts())


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_rejected_before_any_round(monkeypatch, jobs):
    def unreachable(*args, **kwargs):
        raise AssertionError("fitted a round although jobs < 1")

    monkeypatch.setattr("graphspde.experiments._evaluate_round", unreachable)
    plan = BacktestPlan(n_train=6, n_test=2, stride=1, rounds=1, seed=0)
    with pytest.raises(DataError, match="jobs must be >= 1"):
        run_backtest(small_dataset(), KERNELS, plan, "shek", fit_opts=quick_opts(), jobs=jobs)
