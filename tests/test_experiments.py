import numpy as np
import pytest

from graphspde import (
    BacktestPlan,
    DataError,
    FitOptions,
    KernelSpec,
    NumericError,
    STPoint,
    SpatioTemporalDataset,
    SyntheticSpec,
    build_graph,
    gen_heat_line,
    run_backtest,
)


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
