"""Backtest experiment driver: per-round fit/predict/score for a set of kernels.

Rounds are independent jobs fanned out to a thread pool and merged
deterministically by round index; per-round failures are recorded and do
not stop the run.  Model comparison pools per-point absolute errors across
rounds (in round order, points sorted by time then vertex) and applies the
Diebold-Mariano test against a named baseline kernel.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .backtest import (
    BacktestPlan, RoundResult, confidence_interval, dm_test, interpolation_split, mae, mape, sliding_windows,
)
from .exceptions import DataError, NumericError
from .gp import MEAN_POLICIES, FitOptions, GPModel, SpatioTemporalDataset, _prepare, fit, predict
from .kernels import KernelSpec, _mode_variances, _scale

TASKS = ("interpolation", "extrapolation")

# deterministic multiscale starting points for the process kernels' c: their
# likelihood is multimodal in the oscillation/decay rate, and a wrong-decade
# start strands the fit in a white-noise-like basin
_C_START_GRID = (0.03, 0.1, 0.3, 1.0)
# share of a window's timepoints that an interpolation round holds out
_INTERP_FRACTION = 0.1


@dataclass(frozen=True)
class TaskSummary:
    """Aggregate of one kernel on one task across rounds."""

    kernel: str
    task: str
    mae_mean: float
    mae_ci_half_width: float | None
    mape_mean: float | None
    dm_statistic: float | None
    dm_p_value: float | None
    n_rounds: int


@dataclass(frozen=True)
class BacktestReport:
    rounds: tuple[tuple[str, str, RoundResult], ...]  # (kernel, task, result)
    summaries: tuple[TaskSummary, ...]
    failures: tuple[tuple[str, str, int, str], ...]  # (kernel, task, round, message)

    def summary_for(self, kernel: str, task: str) -> TaskSummary:
        for s in self.summaries:
            if s.kernel == kernel and s.task == task:
                return s
        raise KeyError(f"no summary for kernel {kernel!r}, task {task!r}")


def _data_scaled_spec(
    spec: KernelSpec, train: SpatioTemporalDataset, mean_policy: str
) -> tuple[KernelSpec, float]:
    """Initialize the kernel's scale so its prior marginal matches the data variance.

    The optimizer works in log-space, so a starting point many orders of
    magnitude off (e.g. the Laplacian kernel's raw scale vs. small targets)
    wastes the iteration budget or strands the fit in a degenerate basin.
    A point's prior variance is ``sum_i Q[v, i]^2 k_i(t, t)``, from each mode's
    closed-form variance (``kernels._mode_variances``), with no Gram and no
    (n, T, T) stack.  Both means are correctly rounded sums (``math.fsum``), so
    the order of the rows does not enter.
    """
    probe = GPModel(kernel=spec, mean_policy=mean_policy)
    prep = _prepare(probe, train)
    count = prep.y.shape[0]
    y_mean = math.fsum(prep.y) / count
    target_var = max(math.fsum((prep.y - y_mean) ** 2) / count, 1e-12)
    scale_name, power = _scale(spec.kind)
    unit = spec.with_hyper(**{scale_name: 1.0})
    basis, variances = _mode_variances(unit, train.graph, prep.times)
    prior_var = (basis**2 @ variances).T  # (T, n)
    diag_mean = math.fsum(prior_var[prep.cells]) / count
    if diag_mean <= 0 or not np.isfinite(diag_mean):
        return spec, target_var
    scale = (target_var / diag_mean) ** (1.0 / power)
    return spec.with_hyper(**{scale_name: float(scale)}), target_var


def _evaluate_round(
    dataset: SpatioTemporalDataset,
    train_times: np.ndarray,
    test_times: np.ndarray,
    spec: KernelSpec,
    round_index: int,
    fit_opts: FitOptions,
    mean_policy: str,
) -> RoundResult:
    """Fit ``spec`` on the training times, from its data-scaled start, and score the posterior
    mean on the test times.

    Every kind goes through one :func:`gp.fit`.  SHEK/SWEK hand it one start per distinct ``c``
    in the spec's own value and ``_C_START_GRID``, in that order, so it draws no random start;
    other kinds start from the spec plus up to ``fit_opts.restarts`` draws.  Either way a start
    that ties the best LML so far ends the search.
    """
    train = dataset.restrict_to_times(train_times)
    test = dataset.restrict_to_times(test_times)
    test_obs = sorted(test.observations, key=lambda ob: (ob[0].time, ob[0].vertex))
    test_points = [p for p, _ in test_obs]
    truth = np.array([y for _, y in test_obs])

    spec, target_var = _data_scaled_spec(spec, train, mean_policy)
    noise = max(1e-2 * target_var, 1e-8)
    started = time.perf_counter()
    model = GPModel(kernel=spec, noise_variance=noise, mean_policy=mean_policy)
    starts = None
    if spec.kind in ("shek", "swek"):
        c_starts = dict.fromkeys((float(spec.hyper["c"]),) + _C_START_GRID)
        starts = [replace(model, kernel=spec.with_hyper(c=c)) for c in c_starts]
    fitted = fit(model, train, fit_opts, starts)
    prediction = predict(fitted.model, train, test_points)
    wall = time.perf_counter() - started

    try:
        mape_value = mape(prediction.mean, truth)
    except DataError:  # a zero truth leaves it undefined
        mape_value = None
    return RoundResult(
        round_index=round_index,
        abs_errors=tuple(float(e) for e in np.abs(prediction.mean - truth)),
        mae=mae(prediction.mean, truth),
        mape=mape_value,
        wall_time=wall,
        starts=fitted.starts,
        skipped_starts=fitted.skipped_starts,
    )


def run_backtest(
    dataset: SpatioTemporalDataset,
    kernels: dict[str, KernelSpec],
    plan: BacktestPlan,
    baseline: str,
    tasks: tuple[str, ...] = TASKS,
    fit_opts: FitOptions | None = None,
    jobs: int = 1,
    mean_policy: str = "per_node_training_mean",
) -> BacktestReport:
    """Sliding-window backtest of every kernel, with DM tests vs ``baseline``.

    Extrapolation rounds train on the window's leading timepoints and test
    on the trailing ones; interpolation rounds hold out a random
    ``_INTERP_FRACTION`` of the whole window's timepoints (seeded per round).
    Every round starts from the data-scaled kernel (:func:`_data_scaled_spec`)
    with a noise variance of 1 % of the training targets' variance, and runs
    its starts until one ties the best LML so far (:func:`_evaluate_round`):
    ``fit_opts.restarts`` is the most random draws a separable or spatial
    round adds, and SHEK/SWEK rounds draw none.
    """
    if baseline not in kernels:
        raise DataError(f"baseline kernel {baseline!r} is not among the kernels {sorted(kernels)}")
    for task in tasks:
        if task not in TASKS:
            raise DataError(f"unknown task {task!r}; expected subset of {TASKS}")
    if mean_policy not in MEAN_POLICIES:
        raise DataError(f"unknown mean policy {mean_policy!r}; expected one of {MEAN_POLICIES}")
    if jobs < 1:
        raise DataError(f"jobs must be >= 1, got {jobs}")
    if fit_opts is None:
        fit_opts = FitOptions()

    times = dataset.times()
    windows = sliding_windows(plan, len(times))

    splits: list[tuple[int, str, np.ndarray, np.ndarray]] = []
    for r, (train_idx, test_idx) in enumerate(windows):
        if "extrapolation" in tasks:
            splits.append((r, "extrapolation", times[train_idx], times[test_idx]))
        if "interpolation" in tasks:
            window_times = times[train_idx + test_idx]
            train_t, test_t = interpolation_split(list(window_times), _INTERP_FRACTION, seed=[plan.seed, r])
            splits.append((r, "interpolation", np.asarray(train_t), np.asarray(test_t)))

    work = [
        (name, spec, r, task, train_t, test_t)
        for (r, task, train_t, test_t) in splits
        for name, spec in kernels.items()
    ]

    def run(job):
        name, spec, r, task, train_t, test_t = job
        try:
            result = _evaluate_round(
                dataset, train_t, test_t, spec, r, fit_opts, mean_policy
            )
            return name, task, r, result, None
        except (NumericError, DataError) as exc:
            return name, task, r, None, str(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, work))
    else:
        outcomes = [run(job) for job in work]

    rounds: list[tuple[str, str, RoundResult]] = []
    failures: list[tuple[str, str, int, str]] = []
    by_key: dict[tuple[str, str], dict[int, RoundResult]] = {}
    for name, task, r, result, message in sorted(
        outcomes, key=lambda o: (o[0], o[1], o[2])
    ):
        if result is None:
            failures.append((name, task, r, message))
            continue
        rounds.append((name, task, result))
        by_key.setdefault((name, task), {})[r] = result

    summaries: list[TaskSummary] = []
    for task in tasks:
        base_rounds = by_key.get((baseline, task), {})
        for name in kernels:
            results = by_key.get((name, task), {})
            if not results:
                continue
            maes = [results[r].mae for r in sorted(results)]
            ci = confidence_interval(maes)[1] if len(maes) >= 2 else None
            mapes = [results[r].mape for r in sorted(results)]
            mape_mean = float(np.mean(mapes)) if all(m is not None for m in mapes) else None
            dm_stat = dm_p = None
            if name != baseline:
                shared = sorted(set(results) & set(base_rounds))
                losses = [e for r in shared for e in results[r].abs_errors]
                base_losses = [e for r in shared for e in base_rounds[r].abs_errors]
                if len(losses) >= 4:
                    horizon = plan.n_test if task == "extrapolation" else 1
                    dm_stat, dm_p = dm_test(losses, base_losses, horizon=horizon)
            summaries.append(
                TaskSummary(
                    kernel=name,
                    task=task,
                    mae_mean=float(np.mean(maes)),
                    mae_ci_half_width=ci,
                    mape_mean=mape_mean,
                    dm_statistic=dm_stat,
                    dm_p_value=dm_p,
                    n_rounds=len(maes),
                )
            )

    if not rounds:
        raise NumericError("every backtest round failed; see the failure list")
    return BacktestReport(rounds=tuple(rounds), summaries=tuple(summaries), failures=tuple(failures))
