import logging
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from graphspde import (
    BacktestPlan,
    DataError,
    FactorizationError,
    FitOptions,
    GPModel,
    KernelSpec,
    NumericError,
    STPoint,
    SpatioTemporalDataset,
    SyntheticSpec,
    assemble_gram,
    build_graph,
    fit,
    gen_heat_line,
    gen_wave_line,
    line_graph,
    log_marginal_likelihood,
    predict,
    run_backtest,
    sample,
    sampling_moments,
)
import graphspde.gp
from graphspde.gp import _maximize, _prepare

from conftest import mvn_logpdf_bruteforce, prepared_points, random_graph


def unit_spatial_spec() -> KernelSpec:
    # single-vertex Matern with k(x, x) = 1
    return KernelSpec(kind="matern_spatial", hyper={"nu": 1.0, "kappa": math.sqrt(2.0)})


def shek_spec(c=1.0, sigma=1.0, nu=1.0, kappa=math.sqrt(2.0)) -> KernelSpec:
    return KernelSpec(kind="shek", hyper={"c": c, "sigma": sigma, "nu": nu, "kappa": kappa})


def sep_rbf_spec(lengthscale=2.0, variance=1.0) -> KernelSpec:
    return KernelSpec(
        kind="separable_product",
        hyper={"time_lengthscale": lengthscale, "variance": variance},
        temporal_kind="rbf",
        spatial=KernelSpec(kind="matern_spatial", hyper={"nu": 1.0, "kappa": 1.0}),
    )


def single_point_dataset(y: float) -> SpatioTemporalDataset:
    graph = build_graph(["a"], [])
    return SpatioTemporalDataset(graph=graph, observations=((STPoint(0, 1.0), y),))


class TestLogMarginalLikelihood:
    def test_unit_kernel_zero_target(self):
        model = GPModel(kernel=unit_spatial_spec(), noise_variance=1e-12, mean_policy="zero")
        value = log_marginal_likelihood(model, single_point_dataset(0.0))
        np.testing.assert_allclose(value, -0.5 * math.log(2.0 * math.pi), atol=1e-6)

    def test_unit_kernel_unit_target(self):
        model = GPModel(kernel=unit_spatial_spec(), noise_variance=1e-12, mean_policy="zero")
        value = log_marginal_likelihood(model, single_point_dataset(1.0))
        np.testing.assert_allclose(value, -0.5 - 0.5 * math.log(2.0 * math.pi), atol=1e-6)

    def test_matches_bruteforce_density(self):
        # oracle: explicit inverse + slogdet multivariate-normal log-density
        rng = np.random.default_rng(8)
        for trial in range(6):
            graph = random_graph(rng, 4)
            points = [
                STPoint(int(rng.integers(0, graph.n_vertices)), float(t))
                for t in sorted(rng.uniform(0.5, 4.0, size=5))
            ]
            y = rng.standard_normal(5)
            data = SpatioTemporalDataset(
                graph=graph, observations=tuple(zip(points, y.tolist()))
            )
            spec = shek_spec(c=0.7, sigma=1.1) if trial % 2 else sep_rbf_spec()
            model = GPModel(kernel=spec, noise_variance=0.05, mean_policy="zero")
            prep = _prepare(model, data)
            gram = assemble_gram(spec, graph, prepared_points(prep)).matrix
            cov = gram + model.noise_variance * np.eye(5)
            np.testing.assert_allclose(
                log_marginal_likelihood(model, data),
                mvn_logpdf_bruteforce(prep.y, cov),
                atol=1e-8,
            )


class TestFit:
    def _prior_dataset(self, seed: int, c=1.0, sigma=1.0, n_times=12) -> SpatioTemporalDataset:
        graph = line_graph(3)
        spec = shek_spec(c=c, sigma=sigma)
        model = GPModel(kernel=spec, noise_variance=1e-6)
        times = np.arange(1.0, n_times + 1.0)
        points = [STPoint(v, float(t)) for t in times for v in range(3)]
        draws = sample(model, points, 1, seed=seed, graph=graph)
        obs = tuple((p, float(val)) for p, val in zip(points, draws[0]))
        return SpatioTemporalDataset(graph=graph, observations=obs)

    def test_recovers_diffusivity_within_factor_three(self):
        hits = 0
        for seed in range(20):
            data = self._prior_dataset(seed, n_times=20)
            model = GPModel(kernel=shek_spec(c=0.4, sigma=2.0), noise_variance=1e-3,
                            mean_policy="zero", time_offset=1.0)
            result = fit(model, data, FitOptions(max_iters=60, restarts=2, seed=seed))
            c_hat = result.model.kernel.hyper["c"]
            if 1.0 / 3.0 <= c_hat <= 3.0:
                hits += 1
        assert hits >= 16  # at least 80% of runs

    def test_zero_signal_trace_is_nondecreasing(self):
        graph = line_graph(3)
        points = [STPoint(v, float(t)) for t in (1.0, 2.0, 3.0) for v in range(3)]
        data = SpatioTemporalDataset(
            graph=graph, observations=tuple((p, 0.0) for p in points)
        )
        model = GPModel(kernel=shek_spec(), noise_variance=0.1, mean_policy="zero")
        result = fit(model, data, FitOptions(max_iters=30, restarts=0))
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_single_iteration_returns_initial(self):
        data = self._prior_dataset(0)
        model = GPModel(kernel=shek_spec(c=0.7, sigma=1.3), noise_variance=0.01)
        result = fit(model, data, FitOptions(max_iters=1, restarts=0))
        assert len(result.trace) == 1
        np.testing.assert_allclose(result.model.kernel.hyper["c"], 0.7)
        np.testing.assert_allclose(result.model.kernel.hyper["sigma"], 1.3)

    def test_final_lml_never_below_initial(self):
        data = self._prior_dataset(3)
        model = GPModel(kernel=shek_spec(c=0.5, sigma=0.5), noise_variance=0.05)
        initial = None
        result = fit(model, data, FitOptions(max_iters=40, restarts=2, seed=1))
        initial = log_marginal_likelihood(model, data)
        assert result.lml >= initial - 1e-12


def points(value, gradient):
    """``evaluate`` for :func:`_maximize`: the point at theta, with its value and, on request, its gradient."""
    return lambda th: SimpleNamespace(lml=value(th), gradient=lambda: gradient(th))


class TestMaximizeStopRule:
    @staticmethod
    def quadratic(roundoff=0.0, calls=None):
        """A concave quadratic at level 1000 and its peak.  The gradient carries a 1e-9 error, as a
        computed one does, so it never vanishes exactly at the optimum; grad_tol = 0 then leaves the
        stop rules as the only way to end before max_iters.  ``roundoff`` scales a deterministic
        "round-off" term on the value alone; ``calls`` collects each evaluated theta."""
        peak = np.array([0.3, -1.2, 2.0])
        curvature = np.array([[3.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])

        def value(th):
            if calls is not None:
                calls.append(th)
            return 1000.0 - 0.5 * (th - peak) @ curvature @ (th - peak) + roundoff * np.sin(1e9 * th).sum()

        return peak, points(value, lambda th: -curvature @ (th - peak) + 1e-9 * np.sin(1e4 * th))

    def test_stops_at_the_optimum_of_a_concave_quadratic(self):
        peak, evaluate = self.quadratic()
        theta, trace = _maximize(evaluate, np.zeros(3), max_iters=200, grad_tol=0.0)
        assert len(trace) <= 20
        np.testing.assert_allclose(theta, peak, atol=1e-4)
        assert np.all(np.diff(trace) >= 0.0)

    def test_stops_within_two_iterations_of_a_flat_maximum(self):
        # constant 5 on the unit disc; there the gradient is small round-off
        # that still points somewhere, as a computed gradient on a plateau does
        def value(th):
            return 5.0 - max(float(np.linalg.norm(th)) - 1.0, 0.0) ** 2

        def gradient(th):
            radius = float(np.linalg.norm(th))
            if radius <= 1.0:
                return -1e-3 * th
            return -2.0 * (radius - 1.0) * th / radius

        _, trace = _maximize(points(value, gradient), np.array([3.0, -2.0]), max_iters=200, grad_tol=0.0)
        flat = trace.index(5.0)
        assert len(trace) - 1 <= flat + 2

    def test_no_trial_below_the_lml_resolution(self, caplog):
        # 1e-6 per coordinate, about 1e-9 of the LML, as an LML near the noise floor carries; halving alpha
        # towards 1e-12 made 69 evaluations here, most of them trials whose predicted gain
        # alpha * slope lay below _STALL_RTOL, where no LML could resolve it
        calls = []
        peak, evaluate = self.quadratic(1e-6, calls)
        with caplog.at_level(logging.DEBUG, logger="graphspde"):
            theta, trace = _maximize(evaluate, np.zeros(3), max_iters=200, grad_tol=0.0)
        assert len(calls) <= 15
        np.testing.assert_allclose(theta, peak, atol=1e-4)
        assert caplog.messages[-1] == (f"fit: a start ended after {len(trace)} iterates at LML {trace[-1]:.12g}: "
                                       "the line search fell below the LML's resolution")

    def test_a_start_cut_by_max_iters_says_so(self, caplog):
        _, evaluate = self.quadratic(1e-6)
        with caplog.at_level(logging.DEBUG, logger="graphspde"):
            _, trace = _maximize(evaluate, np.zeros(3), max_iters=3, grad_tol=0.0)
        assert len(trace) == 3
        assert caplog.messages[-1].startswith("fit: a start ended after 3 iterates")
        assert caplog.messages[-1].endswith(": max_iters reached")

    def test_a_heat_window_fit_skips_the_round_off_plateau(self, monkeypatch):
        # sep-matern-rbf on the first 21 x 51 heat acceptance window: its two real
        # starts end with the noise near the floor, where the LML is accurate to
        # about 1e-6 relative; trials on that plateau took 316 values
        _, data = gen_heat_line(SyntheticSpec(kind="heat_line", n_nodes=21, coefficient=0.3,
                                              timestamps=tuple(0.2 * k for k in range(1, 71)), seed=0))
        kernel = KernelSpec(kind="separable_product", hyper={"variance": 1.0, "time_lengthscale": 5.0},
                            temporal_kind="rbf", spatial=KernelSpec(kind="matern_spatial",
                                                                    hyper={"nu": 0.5, "kappa": 1.0}))
        values, evaluator = [], graphspde.gp._evaluator

        def counting_evaluator(*args):
            evaluate = evaluator(*args)
            return lambda theta: values.append(theta) or evaluate(theta)

        monkeypatch.setattr(graphspde.gp, "_evaluator", counting_evaluator)
        plan = BacktestPlan(n_train=50, n_test=10, stride=1, rounds=1)
        report = run_backtest(data, {"sep-matern-rbf": kernel}, plan, baseline="sep-matern-rbf",
                              tasks=("extrapolation",), fit_opts=FitOptions(max_iters=60, restarts=2, grad_tol=1e-5),
                              mean_policy="zero")
        assert not report.failures
        assert 0 < len(values) <= 200


GAPPY_WAVE_MODEL = GPModel(kernel=KernelSpec(kind="swek", hyper={"c": 1.0, "sigma": 1.0, "nu": 2.5, "kappa": 1.0}),
                           noise_variance=1e-2, mean_policy="zero")


def gappy_wave_line() -> SpatioTemporalDataset:
    """The 11 x 50 wave line with one reading per time missing."""
    data = gen_wave_line(SyntheticSpec(kind="wave_line", n_nodes=11, coefficient=1.0,
                                       timestamps=tuple(float(t) for t in range(1, 51)), noise_sd=0.02, seed=0))[1]
    return replace(data, observations=tuple(
        ob for ob in data.observations if ob[0].vertex != (int(ob[0].time) * 3) % 11))


class TestMaximizeStepCap:
    """No line-search trial moves a log-hyperparameter further than ``_MAX_LOG_STEP`` from its iterate."""

    def test_the_first_trial_is_the_largest_power_of_two_within_the_cap(self):
        trials = []

        def value(th):
            trials.append(float(th[0]))
            return -0.5 * (float(th[0]) - 1e5) ** 2

        _maximize(points(value, lambda th: 1e5 - th), np.zeros(1), max_iters=2, grad_tol=0.0)
        alpha = trials[1] / 1e5
        assert alpha == 2.0 ** round(math.log2(alpha))
        assert trials[1] <= graphspde.gp._MAX_LOG_STEP < 2.0 * trials[1]

    def test_no_trial_leaves_the_cap_on_a_gappy_wave_fit(self, monkeypatch):
        # the uncapped unit step tries c = 1e-237 and sigma = 7e236 from the first start
        data = gappy_wave_line()
        iterate, distances = [None], []
        evaluator, maximize = graphspde.gp._evaluator, graphspde.gp._maximize

        def recording_evaluator(*args):
            evaluate = evaluator(*args)

            def recording(theta):
                theta = np.array(theta, dtype=float)
                if iterate[0] is None:
                    iterate[0] = theta
                else:
                    distances.append(np.max(np.abs(theta - iterate[0])))
                point = evaluate(theta)
                if point is None:
                    return None

                def gradient():  # asked of the accepted trial, the next iterate
                    iterate[0] = theta
                    return point.gradient()

                return SimpleNamespace(lml=point.lml, gradient=gradient)

            return recording

        def starting_maximize(*args):
            iterate[0] = None
            return maximize(*args)

        monkeypatch.setattr(graphspde.gp, "_evaluator", recording_evaluator)
        monkeypatch.setattr(graphspde.gp, "_maximize", starting_maximize)
        result = fit(GAPPY_WAVE_MODEL, data, FitOptions(max_iters=60, restarts=0, grad_tol=1e-5))
        assert len(result.trace) > 10 and len(distances) >= len(result.trace)
        assert max(distances) <= graphspde.gp._MAX_LOG_STEP

    def test_no_evaluation_of_a_gappy_wave_fit_fails_its_factorization(self, monkeypatch):
        # under the benchmark's options: no likelihood is jittered, so a trial whose modes are
        # singular to round-off would fail (FactorizationError) and count as an undefined point
        evaluations, failures = [], []
        factorize = graphspde.gp._factorize

        def counting(*args):
            evaluations.append(args[0].hyper)
            try:
                return factorize(*args)
            except FactorizationError as exc:
                failures.append((args[0].hyper, exc))
                raise

        monkeypatch.setattr(graphspde.gp, "_factorize", counting)
        fit(GAPPY_WAVE_MODEL, gappy_wave_line(), FitOptions(max_iters=60, restarts=2, grad_tol=1e-5))
        assert len(evaluations) > 20 and failures == []


class TestStartRule:
    """``fit`` runs its starts in order and stops once one ties the best LML so far."""

    @staticmethod
    def scripted(monkeypatch, lmls):
        """Replace ``_maximize`` with one that ends start k at LML ``lmls[k]`` (None: fails)
        after k + 1 accepted iterates; returns the starts it was given."""
        calls = []

        def maximize(evaluate, theta0, max_iters, grad_tol):
            calls.append(theta0)
            lml = lmls[len(calls) - 1]
            return None if lml is None else (theta0, [lml - 1.0] * (len(calls) - 1) + [lml])

        monkeypatch.setattr(graphspde.gp, "_maximize", maximize)
        return calls

    def fit_with(self, lmls, monkeypatch):
        calls = self.scripted(monkeypatch, lmls)
        model = GPModel(kernel=shek_spec(c=0.7), noise_variance=0.1)
        return fit(model, TestFit()._prior_dataset(0), FitOptions(restarts=len(lmls) - 1)), calls

    def test_one_repeated_optimum_runs_two_starts(self, monkeypatch):
        result, calls = self.fit_with([12.5] * 4, monkeypatch)
        assert len(calls) == 2
        assert result.starts == ((12.5, 1), (12.5, 2))
        assert result.skipped_starts == 2
        # the first of two equal starts is kept: the model's own
        np.testing.assert_allclose(result.model.kernel.hyper["c"], 0.7)

    def test_the_earlier_of_two_tied_starts_is_kept(self, monkeypatch):
        # the later start is higher only in bits below the tie tolerance, so it picks nothing
        result, calls = self.fit_with([-3.0, 100.0, 100.0 + 5e-9, 200.0], monkeypatch)
        assert len(calls) == 3
        assert result.lml == 100.0
        np.testing.assert_allclose(result.model.kernel.hyper["c"], np.exp(calls[1][0]))
        assert result.starts == ((-3.0, 1), (100.0, 2), (100.0 + 5e-9, 3))
        assert result.skipped_starts == 1

    def test_distinct_optima_run_every_start_and_failures_are_skipped(self, monkeypatch):
        result, calls = self.fit_with([None, 4.0, 4.001, None, 3.0], monkeypatch)
        assert len(calls) == 5
        assert result.lml == 4.001
        assert result.starts == ((None, 0), (4.0, 2), (4.001, 3), (None, 0), (3.0, 5))
        assert result.skipped_starts == 0

    def test_given_starts_run_in_order_and_draw_nothing(self, monkeypatch):
        calls = self.scripted(monkeypatch, [1.0, 2.0, 2.0, 5.0])
        model = GPModel(kernel=shek_spec(c=0.7), noise_variance=0.1)
        starts = [GPModel(kernel=shek_spec(c=c, sigma=s), noise_variance=v)
                  for c, s, v in ((0.1, 2.0, 0.3), (0.2, 1.0, 0.1), (0.3, 1.0, 0.1), (0.4, 1.0, 0.1))]
        result = fit(model, TestFit()._prior_dataset(0), FitOptions(restarts=5), starts=starts)
        # (c, sigma, noise) of each start in order, no draws; the tie at the third ends the search
        np.testing.assert_allclose(np.exp(calls), [(0.1, 2.0, 0.3), (0.2, 1.0, 0.1), (0.3, 1.0, 0.1)])
        assert result.starts == ((1.0, 1), (2.0, 2), (2.0, 3))
        assert result.skipped_starts == 1
        np.testing.assert_allclose(result.model.kernel.hyper["c"], 0.2)

    @pytest.mark.parametrize("change", [
        {"kernel": shek_spec(c=0.7, nu=2.0)},
        {"kernel": shek_spec(c=0.7).with_hyper(c=0.2, kappa=3.0)},
        {"mean_policy": "zero"},
        {"time_offset": 2.0},
        {"kernel": KernelSpec(kind="swek", hyper=dict(shek_spec(c=0.7).hyper))},
    ], ids=["nu", "kappa-with-c", "mean-policy", "time-offset", "kind"])
    def test_a_start_that_differs_in_what_the_fit_keeps_is_rejected(self, monkeypatch, change):
        calls = self.scripted(monkeypatch, [1.0, 2.0])
        model = GPModel(kernel=shek_spec(c=0.7), noise_variance=0.1)
        starts = [replace(model, kernel=model.kernel.with_hyper(c=0.3, sigma=2.0), noise_variance=0.5),
                  replace(model, **change)]
        with pytest.raises(DataError, match="differing from the model only in"):
            fit(model, TestFit()._prior_dataset(0), FitOptions(), starts=starts)
        assert calls == []

    def test_an_empty_start_list_is_rejected(self, monkeypatch):
        self.scripted(monkeypatch, [])
        model = GPModel(kernel=shek_spec(c=0.7), noise_variance=0.1)
        with pytest.raises(DataError, match="one or more starts"):
            fit(model, TestFit()._prior_dataset(0), FitOptions(), starts=[])

    def test_nu_and_kappa_may_differ_where_the_fit_varies_them(self, monkeypatch):
        calls = self.scripted(monkeypatch, [1.0])
        model = GPModel(kernel=shek_spec(c=0.7), noise_variance=0.1)
        start = replace(model, kernel=shek_spec(c=0.7, nu=2.0, kappa=3.0))
        fit(model, TestFit()._prior_dataset(0), FitOptions(optimize_nu_kappa=True), starts=[start])
        np.testing.assert_allclose(np.exp(calls), [(0.7, 1.0, 2.0, 3.0, 0.1)])

    def test_every_start_failing_raises(self, monkeypatch):
        with pytest.raises(NumericError, match="every optimization start failed"):
            self.fit_with([None, None], monkeypatch)

    def test_one_optimum_reached_twice_on_a_real_fit(self, monkeypatch):
        calls = []
        original = graphspde.gp._maximize

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(graphspde.gp, "_maximize", counting)
        # the graph Matern kernel's LML in (log variance, log noise) has one maximum
        data = TestFit()._prior_dataset(1)
        model = GPModel(kernel=KernelSpec(kind="matern_spatial", hyper={"nu": 1.0, "kappa": 1.0}),
                        noise_variance=0.1)
        result = fit(model, data, FitOptions(max_iters=200, restarts=3, grad_tol=1e-9, seed=2))
        assert len(calls) == 2
        assert [iterations > 1 for _, iterations in result.starts] == [True, True]
        assert result.skipped_starts == 2


class TestPredict:
    def test_noiseless_interpolation_reproduces_targets(self):
        graph = line_graph(3)
        spec = shek_spec()
        model = GPModel(kernel=spec, noise_variance=1e-10, mean_policy="zero")
        times = (1.0, 2.0, 3.0)
        points = [STPoint(v, t) for t in times for v in range(3)]
        draws = sample(model, points, 1, seed=5, graph=graph)
        data = SpatioTemporalDataset(
            graph=graph, observations=tuple(zip(points, draws[0].tolist()))
        )
        pred = predict(model, data, points)
        np.testing.assert_allclose(pred.mean, draws[0], atol=1e-4)

    def test_far_future_reverts_to_node_mean_and_prior_variance(self):
        graph = line_graph(3)
        spec = sep_rbf_spec(lengthscale=1.0, variance=2.0)
        model = GPModel(kernel=spec, noise_variance=1e-6)
        rng = np.random.default_rng(2)
        points = [STPoint(v, float(t)) for t in (1.0, 2.0, 3.0) for v in range(3)]
        values = rng.normal(5.0, 1.0, size=len(points))
        data = SpatioTemporalDataset(graph=graph, observations=tuple(zip(points, values.tolist())))

        query = [STPoint(1, 500.0)]
        pred = predict(model, data, query)
        node_mean = values[[p.vertex == 1 for p in points]].mean()
        np.testing.assert_allclose(pred.mean[0], node_mean, rtol=1e-6)
        prior_var = assemble_gram(spec, graph, [STPoint(1, 1.0)]).matrix[0, 0]
        np.testing.assert_allclose(pred.variance[0], prior_var, rtol=0.01)

    def test_posterior_variance_never_exceeds_prior(self):
        graph = line_graph(4)
        spec = shek_spec(c=0.5, sigma=1.5)
        model = GPModel(kernel=spec, noise_variance=0.01, mean_policy="zero")
        rng = np.random.default_rng(4)
        points = [STPoint(v, float(t)) for t in (1.0, 2.0) for v in range(4)]
        data = SpatioTemporalDataset(
            graph=graph,
            observations=tuple((p, float(rng.normal())) for p in points),
        )
        query = [STPoint(v, float(t)) for t in (1.5, 2.5, 4.0) for v in range(4)]
        pred = predict(model, data, query)
        shift = model.time_offset - 1.0
        prior = np.diag(
            assemble_gram(spec, graph, [STPoint(p.vertex, p.time + shift) for p in query]).matrix
        )
        assert np.all(pred.variance <= prior + 1e-8)

    def test_a_query_before_the_earliest_shifted_time_is_a_data_error(self):
        # training times 5 to 10 at time_offset 1 are shifted by -4, so a query may start at t = 4
        graph = line_graph(3)
        data = SpatioTemporalDataset(graph=graph, observations=tuple(
            (STPoint(v, float(t)), float(v + t)) for t in range(5, 11) for v in range(3)))
        model = GPModel(kernel=shek_spec(), noise_variance=0.01)
        with pytest.raises(DataError, match=r"^query time 2\.0 is before 4\.0, the earliest a query may take"):
            predict(model, data, [STPoint(0, 6.0), STPoint(1, 2.0)])
        pred = predict(model, data, [STPoint(1, 4.0), STPoint(1, 6.0)])  # at the shifted t = 0
        assert np.all(np.isfinite(pred.mean)) and pred.variance[0] == 0.0 < pred.variance[1]

    def test_fit_and_predict_ignore_row_order(self):
        # per-node means are correctly rounded sums, and the lattice sums over its modes
        rng = np.random.default_rng(4)
        graph = line_graph(4)
        observations = tuple(
            (STPoint(v, float(t)), float(3.0 + v + rng.standard_normal()))
            for t in range(1, 13) for v in range(4)
        )
        forward = SpatioTemporalDataset(graph=graph, observations=observations)
        backward = SpatioTemporalDataset(graph=graph, observations=observations[::-1])
        model = GPModel(kernel=shek_spec(), noise_variance=0.1)
        opts = FitOptions(max_iters=15, restarts=1)
        fitted = [fit(model, data, opts) for data in (forward, backward)]
        assert fitted[0] == fitted[1]
        query = [STPoint(v, t) for v in range(4) for t in (4.5, 9.0)]
        preds = [predict(fitted[0].model, data, query, full_cov=True) for data in (forward, backward)]
        for name in ("mean", "variance", "covariance"):
            np.testing.assert_array_equal(getattr(preds[0], name), getattr(preds[1], name))


class TestSample:
    def test_bit_identical_for_fixed_seed(self):
        graph = line_graph(3)
        model = GPModel(kernel=shek_spec(), noise_variance=0.01)
        points = [STPoint(v, t) for t in (0.5, 1.0) for v in range(3)]
        a = sample(model, points, 8, seed=42, graph=graph)
        b = sample(model, points, 8, seed=42, graph=graph)
        np.testing.assert_array_equal(a, b)

    def test_prior_sample_covariance_matches_gram(self):
        graph = line_graph(3)
        spec = shek_spec(c=0.8, sigma=1.0)
        model = GPModel(kernel=spec, noise_variance=1e-8)
        points = [STPoint(v, t) for t in (0.5, 1.5) for v in range(3)]
        draws = sample(model, points, 10_000, seed=7, graph=graph)
        emp = np.cov(draws.T)
        gram = assemble_gram(spec, graph, points).matrix
        rel = np.linalg.norm(emp - gram) / np.linalg.norm(gram)
        assert rel <= 0.05

    def test_vanishing_noise_collapses_to_mean(self):
        graph = line_graph(3)
        spec = shek_spec(sigma=1e-8)
        model = GPModel(kernel=spec, noise_variance=1e-10)
        condition = SpatioTemporalDataset(
            graph=graph,
            observations=tuple((STPoint(v, 0.0), val) for v, val in enumerate((0.0, 0.0, 10.0))),
        )
        points = [STPoint(v, t) for t in (0.5, 1.0, 2.0) for v in range(3)]
        mean, _ = sampling_moments(model, points, condition, graph=graph)
        draws = sample(model, points, 50, seed=3, condition_on=condition, graph=graph)
        assert np.max(np.abs(draws - mean)) <= 1e-4

    @pytest.mark.parametrize("values", [(1.0, 5.0), (5.0, 1.0)])
    def test_two_initial_states_at_one_vertex_are_a_data_error(self, values):
        # u(0) at v00 would be whichever row came last
        graph = line_graph(3)
        condition = SpatioTemporalDataset(graph=graph, observations=tuple((STPoint(0, 0.0), y) for y in values))
        model = GPModel(kernel=shek_spec(), noise_variance=1e-8)
        with pytest.raises(DataError, match="^vertex 'v00' has more than one conditioning row at t = 0"):
            sampling_moments(model, [STPoint(0, 0.0), STPoint(0, 0.5)], condition)

    def test_heat_start_condition_shapes(self):
        # conditioned on u(0) = (0, 0, 10) on a 3-node path with a weakly
        # shifted operator: node 3 decays toward the common average, nodes
        # 1-2 rise from 0
        graph = line_graph(3)
        spec = KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1.0, "nu": 2.0, "kappa": 1e6})
        model = GPModel(kernel=spec, noise_variance=1e-8)
        condition = SpatioTemporalDataset(
            graph=graph,
            observations=tuple((STPoint(v, 0.0), val) for v, val in enumerate((0.0, 0.0, 10.0))),
        )
        times = np.linspace(0.0, 2.0, 21)
        points = [STPoint(v, float(t)) for t in times for v in range(3)]
        mean, _ = sampling_moments(model, points, condition, graph=graph)
        by_node = {v: mean[v::3] for v in range(3)}
        assert np.all(np.diff(by_node[2]) < 0)  # decays from 10
        assert by_node[0][0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(by_node[0]) > 0)  # rises from 0
        assert np.all(np.diff(by_node[1]) > 0)
        # converging toward the common average 10/3
        assert abs(by_node[2][-1] - 10.0 / 3.0) < abs(by_node[2][0] - 10.0 / 3.0)


class TestOptionalHyperparameters:
    def test_opt_in_nu_kappa_optimization(self):
        graph = line_graph(3)
        spec = shek_spec(c=1.0, sigma=1.0)
        model_true = GPModel(kernel=spec, noise_variance=1e-6)
        points = [STPoint(v, float(t)) for t in range(1, 9) for v in range(3)]
        y = sample(model_true, points, 1, seed=11, graph=graph)[0]
        data = SpatioTemporalDataset(graph=graph, observations=tuple(zip(points, y.tolist())))

        model = GPModel(kernel=shek_spec(c=0.5, sigma=0.8), noise_variance=1e-3, mean_policy="zero")
        base = fit(model, data, FitOptions(max_iters=15, restarts=0))
        extended = fit(model, data, FitOptions(max_iters=15, restarts=0, optimize_nu_kappa=True))
        # the extended search includes nu and kappa and can only improve the LML
        assert extended.lml >= base.lml - 1e-9
        np.testing.assert_allclose(base.model.kernel.hyper["nu"], 1.0)

    def test_invalid_mean_policy_rejected(self):
        from graphspde import DataError

        with pytest.raises(DataError, match="mean policy"):
            GPModel(kernel=shek_spec(), mean_policy="median")

    def test_invalid_fit_options_rejected(self):
        from graphspde import DataError

        bad = [{"max_iters": 0}, {"max_iters": -1}, {"restarts": -5}]
        for options in bad + [{"grad_tol": value} for value in (math.nan, math.inf, -1e-6)]:
            with pytest.raises(DataError, match="max_iters >= 1, restarts >= 0 and a finite grad_tol >= 0"):
                FitOptions(**options)
        FitOptions(max_iters=1, restarts=0, grad_tol=0.0)

    def test_non_finite_or_negative_noise_and_offset_rejected(self):
        from graphspde import DataError

        for bad in (math.nan, math.inf, -1e-3):
            with pytest.raises(DataError, match="noise_variance"):
                GPModel(kernel=shek_spec(), noise_variance=bad)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DataError, match="time_offset"):
                GPModel(kernel=shek_spec(), time_offset=bad)
        # values in [0, floor) are held at the floor
        assert GPModel(kernel=shek_spec(), noise_variance=0.0).noise_variance == 1e-10
        assert GPModel(kernel=shek_spec(), noise_variance=1e-12).noise_variance == 1e-10


def test_conditioned_sampling_through_separable_kernel():
    graph = line_graph(3)
    spec = sep_rbf_spec(lengthscale=1.5, variance=1.0)
    model = GPModel(kernel=spec, noise_variance=1e-8, mean_policy="zero")
    rng = np.random.default_rng(6)
    train_points = [STPoint(v, float(t)) for t in (1.0, 2.0) for v in range(3)]
    data = SpatioTemporalDataset(
        graph=graph,
        observations=tuple((p, float(rng.normal())) for p in train_points),
    )
    query = [STPoint(1, 1.5), STPoint(2, 3.0)]
    draws = sample(model, query, 4000, seed=8, condition_on=data)
    pred = predict(model, data, query)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - pred.mean) <= 4.0 * se + 1e-9)
