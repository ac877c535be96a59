"""Exact Gaussian-process regression over (vertex, time) points.

Gaussian likelihood throughout: log marginal likelihood from one factorization
of ``K + s2 I`` per theta, hyperparameter fitting by a quasi-Newton (BFGS) ascent
in log-space, standard posterior prediction, and seeded prior/posterior sampling.

Points with no repeated (vertex, time) pair form a vertex x time lattice
over their T distinct times, with M cells missing.  Up to M = N readings,
the likelihood of every kernel kind splits into one T x T problem per
eigenmode of the kernel's operator (:func:`kernels.mode_covariances`), each
held as an inverse root (:func:`_mode_roots`): SHEK/SWEK's by one batched
Cholesky over the (n, T, T) stack and LAPACK's triangular inverse, the other
kinds' ``rho_i K_t + s2 I`` by one eigendecomposition of K_t.  Missing
cells get the same noise, and a Schur complement on the inverse over the
missing cells corrects the likelihood (incomplete grids in structured GP
inference: Wilson, Gilboa, Nehorai & Cunningham 2014).  One solve in the
modes applies ``(K + s2 I)^-1`` with that correction, for the likelihood
and the posterior alike; both, and the gradient, are sums over the modes,
so the order of the rows never enters.  Other point sets
take the dense N x N path.  :func:`_factorize` makes that choice from the
points alone and factorizes ``K + s2 I`` once per theta; the LML, its
exact gradient ``1/2 tr((a a^T - W) dK)`` (Rasmussen & Williams 2006,
eq. 5.9), per eigenmode or over the N x N Gram, and the posterior of
:func:`predict` and conditioned :func:`sample` (eqs. 2.25-2.26) all read
those factors.  ``fit`` logs the path at DEBUG on the ``graphspde`` logger,
takes each gradient from the factorization of its line search's accepted
trial, ends a start once an accepted step no longer raises the LML by
more than round-off, and runs no further start once one ends at the best LML
so far, to the same round-off.  The ascent is in-house rather than ``scipy.optimize``,
whose import alone adds about 0.19 s and 18.5 MB of resident memory to every
process that fits a model (after ``import graphspde.cli``, scipy 1.17 on a
2-vCPU Xeon VM; the time varies with the host).

Two conventions applied uniformly before any Gram assembly:

- times are shifted so the earliest training time lands at ``time_offset``
  (default 1.0): at t = 0 the process kernels have zero variance, which
  would make the first observation noise-only;
- targets are centered per ``mean_policy`` (default: per-node training
  mean, from correctly rounded sums), and the offsets are added back to
  predictions.

For the SHEK/SWEK process kernels, :func:`sample` treats conditioning
values at t = 0 as the deterministic initial state of the process (they
enter through the process mean, not the covariance), which is how the
kernels are defined.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .exceptions import DataError, FactorizationError, NumericError
from .graphs import Graph, fractional_from_graph
from .kernels import (
    KernelSpec, STPoint, _factors, _gram_and_derivatives, _process_covariances, _reads_time_lengthscale, _scale,
    assemble_gram, shek_mean, swek_mean,
)
from .spectral import cholesky_jittered, eigendecompose_symmetric, invert_lower_triangular

_LOG = logging.getLogger("graphspde")
_LOG_2PI = math.log(2.0 * math.pi)
_NOISE_FLOOR = 1e-10
# An accepted step that raises the LML by no more than this, relative to the
# LML, ends a start.  The grid and dense likelihoods agree to about 2e-13
# relative, so smaller gains are round-off.
_STALL_RTOL = 1e-10
# No line-search trial moves a log-hyperparameter further than this from its iterate.
_MAX_LOG_STEP = math.log(1e3)
# Restarts draw each log-hyperparameter uniformly from log(0.1) to log(10).
_RESTART_LOG_RANGE = (math.log(0.1), math.log(10.0))
# What a failed likelihood or gradient evaluation raises.
_EVAL_FAILURES = (NumericError, DataError, OverflowError, ValueError, np.linalg.LinAlgError)
MEAN_POLICIES = ("zero", "per_node_training_mean")


@dataclass(frozen=True)
class SpatioTemporalDataset:
    """Observations ``(point, y)`` on a graph."""

    graph: Graph
    observations: tuple[tuple[STPoint, float], ...]

    def __post_init__(self):
        if not self.observations:
            raise DataError("dataset needs at least one observation")
        for point, y in self.observations:
            if point.vertex >= self.graph.n_vertices:
                raise DataError(f"observation references vertex {point.vertex} outside the graph")
            if not np.isfinite(y):
                raise DataError(f"non-finite target value {y} at {point}")

    @property
    def points(self) -> tuple[STPoint, ...]:
        return tuple(p for p, _ in self.observations)

    @property
    def values(self) -> np.ndarray:
        return np.array([y for _, y in self.observations], dtype=float)

    def times(self) -> np.ndarray:
        """Sorted unique observation times."""
        return np.unique([p.time for p, _ in self.observations])

    def restrict_to_times(self, keep: Sequence[float]) -> "SpatioTemporalDataset":
        keep_set = set(float(t) for t in keep)
        obs = tuple((p, y) for p, y in self.observations if float(p.time) in keep_set)
        if not obs:
            raise DataError("no observations left after restricting to the given times")
        return replace(self, observations=obs)


@dataclass(frozen=True)
class GPModel:
    """Kernel plus Gaussian observation noise and the two data conventions."""

    kernel: KernelSpec
    noise_variance: float = 1e-2
    mean_policy: str = "per_node_training_mean"
    time_offset: float = 1.0

    def __post_init__(self):
        if self.mean_policy not in MEAN_POLICIES:
            raise DataError(f"unknown mean policy {self.mean_policy!r}; expected one of {MEAN_POLICIES}")
        if not (math.isfinite(self.time_offset) and self.time_offset >= 0):
            raise DataError(f"time_offset must be finite and non-negative, got {self.time_offset}")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise DataError(f"noise_variance must be finite and non-negative, got {self.noise_variance}")
        object.__setattr__(self, "noise_variance", max(float(self.noise_variance), _NOISE_FLOOR))


@dataclass(frozen=True, eq=False)
class PosteriorPrediction:
    """Posterior mean and (clipped) marginal variance; full covariance on request."""

    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray | None = None


@dataclass(frozen=True)
class FitOptions:
    """Settings of :func:`fit`.

    ``restarts`` is the most log-uniform random starts, drawn from ``seed``, run after the
    model's own; the search ends early once a start ties the best LML so far (:func:`fit`).
    Both apply only to a fit that is given no ``starts``.
    """

    max_iters: int = 200
    grad_tol: float = 1e-6
    restarts: int = 3
    seed: int = 0
    optimize_nu_kappa: bool = False

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 0 or not (math.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise DataError(f"fit needs max_iters >= 1, restarts >= 0 and a finite grad_tol >= 0, got {self}")


@dataclass(frozen=True)
class FitResult:
    """Fitted model and the log-marginal-likelihood trace of the winning start.

    ``starts`` holds each start that ran, in order: its final LML and its count of
    accepted iterates, the start included (``(None, 0)`` for a start that failed to
    evaluate).  ``skipped_starts`` counts the starts left unrun once one tied the best.
    """

    model: GPModel
    trace: tuple[float, ...]
    starts: tuple[tuple[float | None, int], ...] = ()
    skipped_starts: int = 0

    @property
    def lml(self) -> float:
        return self.trace[-1]


# ---------------------------------------------------------------------------
# data preparation: time shift + mean centering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Prepared:
    graph: Graph
    points: tuple[STPoint, ...]
    y: np.ndarray
    node_offsets: np.ndarray
    shift: float
    grid: _GridStructure | None  # the points' vertex x time lattice


def _node_offsets(model: GPModel, data: SpatioTemporalDataset) -> np.ndarray:
    """Each vertex's training mean, or the overall one at a vertex with no reading; correctly
    rounded sums (``math.fsum``), so the rows' order does not enter."""
    n = data.graph.n_vertices
    if model.mean_policy == "zero":
        return np.zeros(n)
    by_vertex = [[] for _ in range(n)]
    for point, y in data.observations:
        by_vertex[point.vertex].append(y)
    overall = math.fsum(data.values) / len(data.observations)
    return np.array([math.fsum(ys) / len(ys) if ys else overall for ys in by_vertex])


def _prepare(model: GPModel, data: SpatioTemporalDataset) -> _Prepared:
    t_min = min(p.time for p, _ in data.observations)
    shift = model.time_offset - t_min
    points = tuple(STPoint(p.vertex, p.time + shift) for p, _ in data.observations)
    offsets = _node_offsets(model, data)
    y = data.values - offsets[[p.vertex for p, _ in data.observations]]
    grid = _detect_grid(points, data.graph.n_vertices)
    return _Prepared(data.graph, points, y, offsets, shift, grid)


# ---------------------------------------------------------------------------
# log marginal likelihood: K + s2 I factorized once per theta
# ---------------------------------------------------------------------------


def _factorize(spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str] = ()) -> _Factorization:
    """``K + s2 I`` factorized once: on the points' lattice where they form
    one, else over the dense N x N Gram.  Its ``lml`` and, in the log of
    each name in ``wrt``, its exact gradient both read these factors."""
    return (_Dense if prep.grid is None else _Lattice)(spec, noise_variance, prep, wrt)


class _Factorization:
    """``K + s2 I`` at one kernel and noise variance, factorized once.

    ``condition(cross)`` gives ``cross^T (K + s2 I)^-1 y`` and
    ``cross^T (K + s2 I)^-1 cross`` for the (N, q) covariances ``cross`` between
    the points and q queries, the posterior's mean correction and covariance
    reduction; ``lml`` is the log marginal likelihood, ``quad = y^T a`` its quadratic form,
    and :meth:`gradient` its exact gradient in the log of each name in ``wrt`` (``"noise"``
    is the noise variance), ``1/2 tr((a a^T - W) dK)`` (Rasmussen & Williams 2006, eq. 5.9):
    the ``vdot`` of the weight ``a a^T - W`` with each dK that ``derivatives`` forms from the
    covariances the value evaluated.  The noise's dK is ``s2 I``, so its term g is ``s2 / 2``
    times the weight's trace.  The scale's dK is ``power K = power ((K + s2 I) - s2 I)``
    (:func:`kernels._scale`), so its term is ``power (1/2 (y^T a - N) - g)``, and no
    factorization keeps K.  A noise variance below the floor is held at the floor.
    """

    def __init__(self, spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str]):
        self.spec, self.prep, self.wrt = spec, prep, list(wrt)
        self.requested_noise = noise_variance
        self.noise_variance = max(noise_variance, _NOISE_FLOOR)

    def gradient(self) -> np.ndarray:
        """The exact gradient; zeros where it fails or is not finite, which ends a start."""
        scale, power = _scale(self.spec.kind)
        shaped = [name for name in self.wrt if name not in ("noise", scale)]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                weight, derivs = self._weight(), self.derivatives(shaped)
                by_name = {name: 0.5 * np.vdot(weight, d) for name, d in zip(shaped, derivs)}
                by_name["noise"] = noise = 0.5 * self.noise_variance * np.trace(weight, axis1=-2, axis2=-1).sum()
                by_name[scale] = power * (0.5 * (self.quad - self.prep.y.shape[0]) - noise)
                grad = np.array([by_name[name] for name in self.wrt])
        except _EVAL_FAILURES:
            grad = None
        if grad is None or not np.all(np.isfinite(grad)):
            _LOG.debug("fit: no finite gradient at %s; the start ends here", dict(self.spec.hyper))
            return np.zeros(len(self.wrt))
        if self.requested_noise < _NOISE_FLOOR and "noise" in self.wrt:
            grad[self.wrt.index("noise")] = 0.0  # the floor holds the noise constant here
        return grad


class _Dense(_Factorization):
    """Over the N x N Gram K: the jittered factor L of ``K + s2 I``, with the noise added in place
    on the Gram, ``a = (K + s2 I)^-1 y`` and K's ``derivatives``."""

    def __init__(self, spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str]):
        super().__init__(spec, noise_variance, prep, wrt)
        y = prep.y
        noisy, self.derivatives = _gram_and_derivatives(spec, prep.graph, prep.points)
        noisy[np.diag_indices(y.shape[0])] += self.noise_variance
        self.factor, jitter = cholesky_jittered(noisy)
        if jitter:
            _LOG.debug("dense likelihood over %d points: Cholesky jitter %.3g", y.shape[0], jitter)
        self.alpha = self.solve(y)
        self.quad = float(y @ self.alpha)
        self.lml = float(-0.5 * self.quad - np.sum(np.log(np.diag(self.factor))) - 0.5 * y.shape[0] * _LOG_2PI)

    def _weight(self) -> np.ndarray:
        """``a a^T - W`` with ``W = (K + s2 I)^-1`` from L."""
        inv, info = scipy.linalg.lapack.dpotri(self.factor, lower=1)
        if info:
            raise np.linalg.LinAlgError(f"dpotri failed with info {info}")
        # dpotri overwrites L with W's lower triangle and keeps the zeros above, so W = inv + inv^T - diag(inv)
        weight = np.multiply.outer(self.alpha, self.alpha)
        weight -= inv
        weight -= inv.T
        weight[np.diag_indices(self.alpha.shape[0])] += np.diag(inv)
        return weight

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve((self.factor, True), rhs, check_finite=False)

    def condition(self, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        weights = self.solve(np.column_stack([self.prep.y, cross]))
        return cross.T @ weights[:, 0], cross.T @ weights[:, 1:]


class _Lattice(_Factorization):
    """On the points' vertex x time lattice: eigenbasis Q, inverse roots ``R_i`` of every mode's
    ``A_i = K_i + s2 I`` over all T times, ``R_i^T R_i = A_i^-1`` (``factor_inv``, from
    :func:`_mode_roots`: ``L_i^-1`` for SHEK/SWEK, ``diag(d_i)^-1/2 U^T`` for the other kinds),
    and ``alpha``, ``a = A_oo^-1 y`` in the modes.  :meth:`_solve_modes` is the one place where
    a right-hand side meets ``A_oo^-1``.  Missing cells m get the same noise, so these factors
    apply.  They lie at U distinct times, picked by S (T x U), and ``E_i = S P_i`` moves them into
    mode i, where ``P_i`` (U x M) puts cell c at its time with weight ``Q[v_c, i]``.  Every
    missing-cell term reads ``A_i^-1 = R_i^T R_i`` through the gain ``G_i = A_i^-1 S`` of
    :func:`_missing_block` alone: ``log|A_oo| = log|A| + log|B_mm|``, ``A_oo^-1 rhs = A^-1 rhs -
    G P B_mm^-1 E^T A^-1 rhs`` for a right-hand side zero at m, and the gradient's
    ``H_i = G_i P_i L_mm^-T``.  The LML's quadratic form, the gradient and the posterior are sums
    over the modes, so the points' order never enters; the gradient forms every K_i's
    derivatives from the covariances (or the K_t) this value evaluated."""

    def __init__(self, spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str]):
        super().__init__(spec, noise_variance, prep, wrt)
        grid = prep.grid
        self.basis, self.factor_inv, log_det, self.derivatives = _mode_roots(
            spec, self.noise_variance, prep.graph, grid.times)
        if grid.n_missing:
            gain = np.swapaxes(self.factor_inv, 1, 2) @ self.factor_inv[:, :, grid.gaps[0]]  # A^-1 S, (n, T, U)
            self.missing = _missing_block(self.basis, gain, grid)
            log_det += np.sum(np.log(np.diag(self.missing[0])))
        y_modes = self._into_modes(prep.y[:, None])
        self.alpha = self._solve_modes(y_modes)  # (n, T, 1)
        self.quad = float(np.vdot(y_modes, self.alpha))
        self.lml = float(-0.5 * self.quad - log_det - 0.5 * prep.y.shape[0] * _LOG_2PI)

    def _into_modes(self, rhs: np.ndarray) -> np.ndarray:
        """:func:`_to_modes` of the (N, k) ``rhs`` at the points' cells: (n, T, k), zero at the gaps."""
        return _to_modes(self.basis, rhs, self.prep.grid.cells, self.prep.grid.times.shape[0])

    def _solve_modes(self, modes: np.ndarray) -> np.ndarray:
        """``A_oo^-1`` on the right-hand side ``modes`` from :meth:`_into_modes`: each ``A_i^-1``, then
        with missing cells ``- G P B_mm^-1 E^T (A^-1 rhs)``, which leaves zeros at the missing cells."""
        z = np.swapaxes(self.factor_inv, 1, 2) @ (self.factor_inv @ modes)
        if self.prep.grid.n_missing:
            (chol_mm, gain), (times, cells) = self.missing, self.prep.grid.gaps
            b_m = _at_cells(self.basis, z[:, times], cells)  # E^T (A^-1 rhs)
            b_m = scipy.linalg.cho_solve((chol_mm, True), b_m, check_finite=False)
            z -= gain @ _to_modes(self.basis, b_m, cells, len(times))
        return z

    def condition(self, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        modes = self._into_modes(cross)
        flat = modes.reshape(-1, modes.shape[-1])
        return flat.T @ self.alpha.ravel(), flat.T @ self._solve_modes(modes).reshape(flat.shape)

    def _weight(self) -> np.ndarray:
        """Per-mode weights ``a_i a_i^T - W_i``, (n, T, T).

        On a complete grid W = A^-1.  With missing cells m, W is A_oo^-1 padded
        with zeros: ``W_i = A_i^-1 - H_i H_i^T`` with ``H_i = G_i P_i L_mm^-T`` for the Cholesky
        factor ``L_mm`` of ``B_mm``; the weight is one product ``[a_i H_i] [a_i H_i]^T`` less
        ``A_i^-1``.  W and a vanish on the missing cells, so the noise term is the same trace.
        """
        weight = self.alpha
        if self.prep.grid.n_missing:
            (chol_mm, gain), (times, cells) = self.missing, self.prep.grid.gaps
            chol_inv = invert_lower_triangular(chol_mm[None])[0]
            weight = np.concatenate([weight, gain @ _to_modes(self.basis, chol_inv.T, cells, len(times))], axis=2)
        weight = weight @ weight.swapaxes(1, 2)  # the product replaces [a H] before A^-1 is formed
        weight -= np.swapaxes(self.factor_inv, 1, 2) @ self.factor_inv
        return weight


def _mode_roots(spec: KernelSpec, noise_variance: float, graph: Graph, times: np.ndarray) -> tuple:
    """Q, inverse roots R (n, T, T) with ``R_i^T R_i = A_i^-1`` for every mode's ``A_i = K_i + s2 I``,
    ``log|A|`` and the K_i's derivative map.  SHEK/SWEK: ``L_i^-1`` from one batched Cholesky of their
    stack.  The other kinds' ``K_i = rho_i K_t`` (:func:`kernels._factors`) share one ``K_t = U diag(lam)
    U^T`` (Saatci 2012, ch. 5): ``R_i = diag(d_i)^-1/2 U^T``, ``d_i = rho_i max(lam, 0) + s2 >= s2 > 0``."""
    if spec.kind in ("shek", "swek"):
        basis, noisy, derivatives = _process_covariances(spec, graph, times)
        diag = np.arange(times.shape[0])
        noisy[:, diag, diag] += noise_variance
        factor, jitter = cholesky_jittered(noisy)
        del noisy  # nothing reads it again: it goes before the inverses are made
        if jitter:
            _LOG.debug("lattice likelihood over %d modes: Cholesky jitter %.3g", basis.shape[1], jitter)
        log_det = np.sum(np.log(np.diagonal(factor, axis1=1, axis2=2)))
        return basis, invert_lower_triangular(factor), log_det, derivatives
    basis, rho, temporal, d_temporal = _factors(spec, graph, times)
    dec = eigendecompose_symmetric(temporal)
    scaled = rho[:, None] * np.maximum(dec.eigenvalues, 0.0) + noise_variance  # d_i, (n, T)
    return basis, scaled[:, :, None] ** -0.5 * dec.basis.T, 0.5 * np.sum(np.log(scaled)), (
        lambda wrt: (rho[:, None, None] * d_temporal() for _ in wrt))


def log_marginal_likelihood(model: GPModel, data: SpatioTemporalDataset) -> float:
    """Exact Gaussian LML ``-1/2 y^T (K + s2 I)^-1 y - 1/2 log|K + s2 I| - N/2 log 2pi``.

    When no (vertex, time) pair repeats and at most half of the vertex x
    time lattice is missing, the Gram is block-diagonal in the spatial
    eigenbasis on the full lattice, the likelihood factorizes into one
    small temporal problem per eigenmode, and a Schur complement corrects
    for the missing cells; otherwise the dense N x N path is used.  The dense
    path and the SHEK/SWEK lattice factor through the jittered Cholesky, the
    other kinds' lattice through one eigendecomposition of K_t
    (:func:`_mode_roots`), and ``fit`` maximizes this same function.
    """
    return _factorize(model.kernel, model.noise_variance, _prepare(model, data)).lml


@dataclass(frozen=True, eq=False)
class _GridStructure:
    """Vertex x time lattice over the points' T distinct times.

    ``cells`` holds each point's time index and vertex, and ``gaps`` the U distinct
    times of the M cells with no reading and, on that U-time lattice, those cells.
    """

    times: np.ndarray  # (T,) ascending
    cells: tuple[np.ndarray, np.ndarray]  # (N,) time indices, (N,) vertices
    gaps: tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]  # (U,) time indices; (M,) indices to them, vertices

    @property
    def n_missing(self) -> int:
        return self.gaps[1][0].shape[0]


def _detect_grid(points: Sequence[STPoint], n_vertices: int) -> _GridStructure | None:
    """The lattice of ``points``; None if a (vertex, time) pair repeats or
    more cells are missing than read, where the dense path is cheaper."""
    times, t_idx = np.unique([p.time for p in points], return_inverse=True)
    vertices = np.array([p.vertex for p in points], dtype=int)
    read = np.zeros((times.shape[0], n_vertices), dtype=bool)
    read[t_idx, vertices] = True
    if np.count_nonzero(read) < len(points) or 2 * len(points) < read.size:
        return None
    t_m, v_m = np.nonzero(~read)
    gap_times, at = np.unique(t_m, return_inverse=True)
    return _GridStructure(times=times, cells=(t_idx, vertices), gaps=(gap_times, (at, v_m)))


def _missing_block(basis: np.ndarray, inv: np.ndarray, grid: _GridStructure) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of ``B_mm = E^T A^-1 E = sum_i P_i^T (S^T G_i) P_i`` over the M missing cells,
    and the gain ``G = A^-1 S``, ``inv``: A^-1's columns at their U times, (n, T, U).  An
    indefinite B_mm raises :class:`FactorizationError`; it is never jittered."""
    times, (at, vertices) = grid.gaps
    spread = inv[:, times][:, :, at]  # (S^T G) P, (n, U, M)
    spread *= basis[vertices].T[:, None, :]
    try:
        return scipy.linalg.cholesky(_at_cells(basis, spread, (at, vertices)), lower=True, check_finite=False), inv
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"missing-cell block B_mm is not positive definite: {exc}") from exc


def _to_modes(basis: np.ndarray, rhs: np.ndarray, cells: tuple[np.ndarray, np.ndarray], n_times: int) -> np.ndarray:
    """The (C, k) ``rhs`` scattered onto a lattice of ``n_times`` times, row c at cell c of ``cells``
    (time indices, vertices) and zero elsewhere, and moved into the modes: (n, n_times, k)."""
    lattice = np.zeros((n_times, basis.shape[0], rhs.shape[1]))
    lattice[cells] = rhs
    return (basis.T @ lattice).swapaxes(0, 1)


def _at_cells(basis: np.ndarray, modes: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The (n, T', k) ``modes`` on their lattice, read at ``cells``: (C, k), :func:`_to_modes` transposed."""
    return (basis @ modes.swapaxes(0, 1))[cells]


# ---------------------------------------------------------------------------
# hyperparameter fitting
# ---------------------------------------------------------------------------


def _optimizable_names(spec: KernelSpec, optimize_nu_kappa: bool) -> list[str]:
    if spec.kind in ("shek", "swek"):
        names = ["c", "sigma"]
        if optimize_nu_kappa:
            names += ["nu", "kappa"]
        return names
    if spec.kind == "separable_product" and _reads_time_lengthscale(spec.temporal_kind, spec.hyper):
        return ["time_lengthscale", "variance"]
    return ["variance"]


def _evaluator(
    model: GPModel, data: SpatioTemporalDataset, names: list[str]
) -> Callable[[np.ndarray], _Factorization | None]:
    """``theta ->`` :func:`_factorize` at log-hyperparameters ``theta`` over ``names`` (``"noise"``
    included), as :func:`log_marginal_likelihood` factorizes; None where the hyperparameters are
    undefined, the factorization fails or its LML is not finite."""
    prep = _prepare(model, data)
    grid = prep.grid
    if grid is None:
        _LOG.debug("fit: dense likelihood over %d points", len(prep.points))
    else:
        _LOG.debug("fit: lattice likelihood over %d times x %d vertices, %d missing cells",
                   grid.times.shape[0], data.graph.n_vertices, grid.n_missing)

    def evaluate(theta: np.ndarray) -> _Factorization | None:
        with np.errstate(over="ignore"):
            raw = np.exp(np.asarray(theta, dtype=float))
        if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
            return None
        values = {name: float(v) for name, v in zip(names, raw)}
        noise_variance = values.pop("noise")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                point = _factorize(model.kernel.with_hyper(**values), noise_variance, prep, names)
        except _EVAL_FAILURES:
            return None
        return point if math.isfinite(point.lml) else None

    return evaluate


def _maximize(
    evaluate: Callable[[np.ndarray], _Factorization | None], theta0: np.ndarray, max_iters: int, grad_tol: float
) -> tuple[np.ndarray, list[float]] | None:
    """BFGS ascent with Armijo backtracking; trace holds accepted LML values.

    ``evaluate(theta)`` gives a point with ``lml`` and ``gradient()``, or
    None where the LML is undefined.  Iteration count is the number of
    accepted iterates including the start, so ``max_iters=1`` evaluates
    and returns the initial point.  The trace is non-decreasing by
    construction.  Each line-search trial is one evaluation; the gradient
    is asked of the accepted trial's point, so it reads the factorization
    that trial made, and no point outlives the next evaluation.  It is
    in-house because importing ``scipy.optimize`` would add about 0.19 s
    and 18.5 MB to every process that fits a model (module docstring).

    A start ends when the gradient is below ``grad_tol`` (or zero, which
    a point returns where no gradient is finite), when the line
    search finds no ascent, or when an accepted step raises the LML by no
    more than ``_STALL_RTOL`` relative to it.  The last rule is what stops
    a converged start: once the step's predicted gain falls below half an
    ulp of the LML, the Armijo test reduces to ``f_new >= f`` and accepts
    steps that gain exactly nothing.

    No trial moves a log-hyperparameter by more than ``_MAX_LOG_STEP`` (a
    factor of 10^3): alpha is halved from 1 until the step fits, before
    anything is evaluated, since out there the kernels overflow or underflow
    (Nocedal & Wright 2006, ch. 4).  Trials stay powers of two, so a start
    that never accepts a step beyond the cap takes the uncapped search's
    iterates bit for bit, and only skips the trials it would have rejected.
    """
    point = evaluate(theta0)
    if point is None:
        return None
    theta = theta0.astype(float).copy()
    trace = [point.lml]
    dim = theta.shape[0]
    h_inv = np.eye(dim)
    grad = None
    while len(trace) < max_iters:
        if grad is None:
            grad = point.gradient()
        if np.max(np.abs(grad)) < grad_tol:
            break
        direction = h_inv @ grad
        slope = float(direction @ grad)
        if slope <= 0:
            h_inv = np.eye(dim)
            direction = grad.copy()
            slope = float(grad @ grad)
            if slope == 0.0:
                break
        f_old = trace[-1]
        alpha = 1.0
        while alpha * np.max(np.abs(direction)) > _MAX_LOG_STEP:
            alpha *= 0.5
        while alpha >= 1e-12:
            point = None  # the last point's factors go before the next are made
            point = evaluate(theta + alpha * direction)
            if point is not None and point.lml >= f_old + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        theta_new = theta + alpha * direction
        trace.append(point.lml)
        stalled = point.lml - f_old <= _STALL_RTOL * max(abs(point.lml), abs(f_old), 1.0)
        if stalled or len(trace) >= max_iters:
            theta = theta_new
            break
        grad_new = point.gradient()
        step_vec = theta_new - theta
        grad_change = -(grad_new - grad)
        curvature = float(step_vec @ grad_change)
        if curvature > 1e-12:
            rho = 1.0 / curvature
            eye = np.eye(dim)
            h_inv = (eye - rho * np.outer(step_vec, grad_change)) @ h_inv @ (
                eye - rho * np.outer(grad_change, step_vec)
            ) + rho * np.outer(step_vec, step_vec)
        theta, grad = theta_new, grad_new
    return theta, trace


def _keep_freed_heap() -> None:
    """Let glibc keep freed blocks of up to 32 MB on its heap for reuse.

    Each likelihood evaluation allocates and frees the same few (n, T, T) arrays.  Under
    glibc's adaptive thresholds the heap is trimmed after an evaluation and the next one faults
    its pages back in, unless the process once freed a larger block: on the 10 % gappy 11 x 50
    wave lattice, 60,000 to 80,000 page faults per backtest round and up to twice its time.
    Other C libraries keep their own policy."""
    with contextlib.suppress(OSError, AttributeError, TypeError):
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: smaller blocks come from the heap
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: free memory kept at the heap's top


def fit(model: GPModel, data: SpatioTemporalDataset, opts: FitOptions = FitOptions(),
        starts: Sequence[GPModel] | None = None) -> FitResult:
    """Maximize the LML over the kernel's optimizable hyperparameters and the noise.

    Optimization runs in log-space; SHEK/SWEK optimize (c, sigma), separable
    kernels (lengthscale where the temporal kernel reads it, variance), the
    others the variance, always plus the noise variance.  nu and
    kappa stay fixed unless ``opts.optimize_nu_kappa``.  It ascends from each of
    ``starts`` in order, models that may differ from ``model`` only in those
    hyperparameters and the noise (else :class:`DataError`), or without them from the
    model's own point and then up to ``opts.restarts`` log-uniform draws.  Once a start
    ends within ``_STALL_RTOL`` (relative, as :func:`_maximize` stalls) of the best LML
    so far, the earlier of the two is kept, whichever is higher in its last bits, and no
    further start runs: the repeated optimum is taken as the one the remaining starts
    would find too.  A start that fails to evaluate is skipped; ``FitResult.starts``
    records each start that ran.  One preparation of the data serves every start.  For
    the rest of the process, glibc keeps freed heap memory for reuse (:func:`_keep_freed_heap`).
    """
    names = _optimizable_names(model.kernel, opts.optimize_nu_kappa) + ["noise"]
    draws = []
    if starts is None:
        rng = np.random.default_rng(opts.seed)
        starts, draws = [model], [rng.uniform(*_RESTART_LOG_RANGE, size=len(names)) for _ in range(opts.restarts)]
    if not starts or any(_unfitted(start, names) != _unfitted(model, names) for start in starts):
        raise DataError(f"fit needs one or more starts, each differing from the model only in {names}")
    thetas = [_log_theta(start, names) for start in starts] + draws
    _keep_freed_heap()
    evaluate = _evaluator(model, data, names)
    best: tuple[np.ndarray, list[float]] | None = None
    records: list[tuple[float | None, int]] = []
    for theta0 in thetas:
        result = _maximize(evaluate, theta0, opts.max_iters, opts.grad_tol)
        if result is None:
            records.append((None, 0))
            continue
        lml = result[1][-1]
        records.append((lml, len(result[1])))
        if best is None:
            best = result
            continue
        best_lml = best[1][-1]
        if abs(lml - best_lml) <= _STALL_RTOL * max(abs(lml), abs(best_lml), 1.0):
            break  # a tie keeps the earlier start, so the LML's last bits pick no hyperparameters
        if lml > best_lml:
            best = result
    if best is None:
        raise NumericError("every optimization start failed to evaluate")

    theta, trace = best
    values = {name: float(v) for name, v in zip(names, np.exp(theta))}
    noise_variance = values.pop("noise")
    fitted = replace(model, kernel=model.kernel.with_hyper(**values), noise_variance=noise_variance)
    return FitResult(model=fitted, trace=tuple(trace), starts=tuple(records),
                     skipped_starts=len(thetas) - len(records))


def _log_theta(model: GPModel, names: Sequence[str]) -> np.ndarray:
    """The model's own log-hyperparameters over ``names``; 1 for a name its kernel lacks."""
    return np.log(np.asarray([
        model.noise_variance if name == "noise" else float(model.kernel.hyper.get(name, 1.0)) for name in names
    ]))


def _unfitted(model: GPModel, names: Sequence[str]) -> GPModel:
    """``model`` with 1 for every name in ``names``: what a fit over them does not vary."""
    return replace(model, kernel=model.kernel.with_hyper(**{name: 1.0 for name in names if name != "noise"}),
                   noise_variance=1.0)


# ---------------------------------------------------------------------------
# prediction and sampling
# ---------------------------------------------------------------------------


def predict(
    model: GPModel,
    train_data: SpatioTemporalDataset,
    query_points: Sequence[STPoint],
    full_cov: bool = False,
) -> PosteriorPrediction:
    """Standard GP posterior at the query points given the training data."""
    prep = _prepare(model, train_data)
    correction, cov = _condition(model, prep, [STPoint(p.vertex, p.time + prep.shift) for p in query_points])
    mean = prep.node_offsets[[p.vertex for p in query_points]] + correction
    variance = np.clip(np.diag(cov).copy(), 0.0, None)
    return PosteriorPrediction(mean=mean, variance=variance, covariance=cov if full_cov else None)


def _condition(model: GPModel, prep: _Prepared, query: Sequence[STPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean correction ``K_qo (K + s2 I)^-1 r`` and covariance ``K_qq - K_qo (K + s2 I)^-1 K_oq``
    at ``query`` (Rasmussen & Williams 2006, eqs. 2.25-2.26), given residuals ``r = prep.y`` at
    ``prep.points`` around the prior mean, solved by the factorization the likelihood reads."""
    prior = assemble_gram(model.kernel, prep.graph, query).matrix
    cross = _gram_and_derivatives(model.kernel, prep.graph, prep.points, query)[0]
    correction, reduction = _factorize(model.kernel, model.noise_variance, prep).condition(cross)
    cov = prior - reduction
    return correction, 0.5 * (cov + cov.T)


def sampling_moments(
    model: GPModel,
    points: Sequence[STPoint],
    condition_on: SpatioTemporalDataset | None = None,
    graph: Graph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the process at ``points`` for sampling.

    Without conditioning data this is the zero-mean prior at the raw
    (untransformed) times, and ``graph`` must be given.  For the SHEK/SWEK
    kernels, conditioning rows at t = 0 specify the deterministic initial
    state u(0) (entering through the process mean); all rows are then
    conditioned on in the usual GP way around that mean.  Other kernels
    condition through :func:`predict`.
    """
    points = tuple(points)
    kind = model.kernel.kind

    if condition_on is None:
        if graph is None:
            raise DataError("prior sampling needs the graph")
        gram = assemble_gram(model.kernel, graph, points).matrix
        return np.zeros(len(points)), gram

    graph = condition_on.graph
    if kind in ("shek", "swek"):
        frac = fractional_from_graph(
            graph, model.kernel.laplacian_variant, model.kernel.hyper["nu"], model.kernel.hyper["kappa"]
        )
        u0 = np.zeros(graph.n_vertices)
        for point, y in condition_on.observations:
            if point.time == 0.0:
                u0[point.vertex] = y
        c = model.kernel.hyper["c"]

        def process_mean(pts: Sequence[STPoint]) -> np.ndarray:
            times, t_idx = np.unique([p.time for p in pts], return_inverse=True)
            if kind == "shek":
                by_time = [shek_mean(frac, c, u0, t) for t in times]
            else:
                by_time = [swek_mean(frac, c, u0, np.zeros_like(u0), t) for t in times]
            return np.array(by_time)[t_idx, [p.vertex for p in pts]]

        obs = condition_on.points
        residual = condition_on.values - process_mean(obs)  # around the process mean, at the raw times
        prep = _Prepared(graph, obs, residual, np.zeros(graph.n_vertices), 0.0, _detect_grid(obs, graph.n_vertices))
        correction, cov = _condition(model, prep, points)
        return process_mean(points) + correction, cov

    pred = predict(model, condition_on, points, full_cov=True)
    return pred.mean, pred.covariance


def sample(
    model: GPModel,
    points: Sequence[STPoint],
    n_samples: int,
    seed: int,
    condition_on: SpatioTemporalDataset | None = None,
    graph: Graph | None = None,
) -> np.ndarray:
    """Draw ``n_samples`` joint samples at ``points``; deterministic per seed.

    Prior samples need ``graph``; conditioned samples take it from the
    conditioning dataset.  Returns an (n_samples, len(points)) array built
    as ``mean + z @ chol(cov).T`` from seeded standard normals.
    """
    return _draw(*sampling_moments(model, points, condition_on, graph), n_samples, seed)


def _draw(mean: np.ndarray, cov: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """``n_samples`` draws ``mean + z @ chol(cov).T`` from seeded standard normals."""
    if n_samples < 0:
        raise DataError("n_samples must be >= 0")
    factor, _ = cholesky_jittered(cov)
    return mean + np.random.default_rng(seed).standard_normal((n_samples, mean.shape[0])) @ factor.T
