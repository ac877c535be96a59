"""Sliding-window backtesting machinery and forecast-comparison statistics.

Splits are pure index arithmetic; metrics are MAE / MAPE with normal-theory
confidence intervals over rounds; model comparison uses the Diebold-Mariano
test on per-point absolute-error series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .exceptions import DataError

T = TypeVar("T")


@dataclass(frozen=True)
class BacktestPlan:
    """Round layout: ``rounds`` windows of ``n_train``+1 training timepoints
    followed by ``n_test`` test timepoints, advancing by ``stride``."""

    n_train: int
    n_test: int
    stride: int
    rounds: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_train", "n_test", "stride", "rounds"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")


@dataclass(frozen=True)
class RoundResult:
    """Per-round evaluation of one model: errors, metrics and wall time.

    ``mape`` is None when any test target is zero (undefined there).  ``starts`` and
    ``skipped_starts`` are the fit's per-start record (``gp.FitResult``).
    """

    round_index: int
    abs_errors: tuple[float, ...]
    mae: float
    mape: float | None
    wall_time: float
    starts: tuple[tuple[float | None, int], ...] = ()
    skipped_starts: int = 0

    def __post_init__(self):
        if self.mae < 0 or (self.mape is not None and self.mape < 0):
            raise DataError("metrics cannot be negative")


def sliding_windows(plan: BacktestPlan, total_timepoints: int) -> list[tuple[list[int], list[int]]]:
    """Train/test index pairs per round.

    Round r trains on the inclusive interval ``[r*stride, r*stride + n_train]``
    and tests on the following ``n_test`` indices.  Train and test never
    overlap and the plan must fit: ``rounds*stride + n_train + n_test <=
    total_timepoints``.
    """
    need = plan.rounds * plan.stride + plan.n_train + plan.n_test
    if need > total_timepoints:
        raise DataError(
            f"plan needs {need} timepoints (rounds*stride + n_train + n_test) "
            f"but the series has {total_timepoints}"
        )
    windows = []
    for r in range(plan.rounds):
        start = r * plan.stride
        train = list(range(start, start + plan.n_train + 1))
        test = list(range(start + plan.n_train + 1, start + plan.n_train + 1 + plan.n_test))
        windows.append((train, test))
    return windows


def interpolation_split(points: Sequence[T], fraction: float, seed) -> tuple[list[T], list[T]]:
    """Uniform random train/test split without replacement; reproducible by seed.

    Test size is ``round(fraction * N)``; both sides preserve the input order.
    """
    if not (0.0 < fraction < 1.0):
        raise DataError(f"fraction must be in (0, 1), got {fraction}")
    points = list(points)
    n = len(points)
    n_test = int(round(fraction * n))
    if n_test >= n:
        raise DataError("interpolation split would leave the train side empty")
    rng = np.random.default_rng(seed)
    test_idx = set(rng.choice(n, size=n_test, replace=False).tolist())
    train = [p for k, p in enumerate(points) if k not in test_idx]
    test = [p for k, p in enumerate(points) if k in test_idx]
    return train, test


def mae(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Mean absolute error."""
    pred, truth = _paired(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def mape(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Mean absolute percentage error (as a ratio); needs all |truth| > 0."""
    pred, truth = _paired(pred, truth)
    if np.any(truth == 0):
        raise DataError("MAPE is undefined: a truth value is zero")
    return float(np.mean(np.abs(pred - truth) / np.abs(truth)))


def dm_test(loss_a: Sequence[float], loss_b: Sequence[float], horizon: int = 1) -> tuple[float, float]:
    """Diebold-Mariano statistic and two-sided normal p-value.

    The loss differential ``d = loss_a - loss_b`` is standardized by the
    h-horizon truncated autocovariance variance ``gamma_0 + 2 sum_{k<h}
    gamma_k``.  Conventions for degenerate series: ``d == 0`` gives (0, 1);
    a constant nonzero ``d`` (zero variance) gives ``(+-inf, 0)``; a
    non-positive truncated variance estimate falls back to ``gamma_0``.
    """
    a = np.asarray(loss_a, dtype=float)
    b = np.asarray(loss_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("loss series must be 1-D and of equal length")
    n = a.shape[0]
    if n < 4:
        raise DataError(f"need at least 4 losses for the DM test, got {n}")
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    d = a - b
    d_bar = float(d.mean())
    centered = d - d_bar
    gamma0 = float(centered @ centered) / n
    if gamma0 == 0.0:
        if d_bar == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, d_bar), 0.0
    variance = gamma0
    for k in range(1, min(horizon, n)):
        gamma_k = float(centered[k:] @ centered[:-k]) / n
        variance += 2.0 * gamma_k
    if variance <= 0.0:
        variance = gamma0
    statistic = d_bar / math.sqrt(variance / n)
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return statistic, p_value


def confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% half-width (normal approximation, 1.96 sd / sqrt(R))."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise DataError("confidence interval needs at least two per-round values")
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.shape[0])
    return float(arr.mean()), half


def _paired(pred: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError(f"prediction and truth lengths differ: {pred.shape} vs {truth.shape}")
    return pred, truth
