"""Exact Gaussian-process regression over (vertex, time) points.

Gaussian likelihood throughout: log marginal likelihood from one factorization
of ``K + s2 I`` per theta, hyperparameter fitting by a quasi-Newton (BFGS) ascent
in log-space, standard posterior prediction, and seeded prior/posterior sampling.

Each data set is prepared once (:class:`_Prepared`) in the index form of its vertex x
time lattice: the T distinct shifted times, each point's time index and vertex, and the
M cells missing.  With no repeated (vertex, time) pair and up to M = N readings, the
likelihood of every kernel kind splits into one T x T problem per eigenmode of the
kernel's operator: SHEK's as the Ornstein-Uhlenbeck chain each mode is, one tridiagonal
over all modes and times (:class:`_Markov`; Rue & Held 2005, ch. 2), SWEK's through the
inverses of the (n, T, T) stack of ``kernels._process_covariances`` plus the noise
(:class:`_Roots`), the other kinds' ``rho_i K_t + s2 I`` in the eigenbasis of K_t
(:class:`_Eigenbasis`; Saatci 2012, ch. 5); only SWEK's forms an (n, T, T) array on a
complete grid.  Missing cells get the same noise, and a Schur complement on the
inverse over the missing cells corrects the likelihood (incomplete grids in structured
GP inference: Wilson, Gilboa, Nehorai & Cunningham 2014).  One solve in the modes
applies ``(K + s2 I)^-1`` with that correction, for the likelihood and the posterior
alike; both, and the gradient, are sums over the modes, so the order of the rows never
enters.  Other point sets take the dense N x N path, over the points sorted by time
index, vertex and residual, so there too no bit depends on the rows' order.
:func:`_factorize` makes that choice from the points alone and factorizes ``K + s2 I``
once per theta, every Cholesky in place through :func:`_cholesky`, with no jitter; the
LML, its exact gradient ``1/2 tr((a a^T - W) dK)`` (Rasmussen & Williams 2006, eq. 5.9),
per eigenmode or over the N x N Gram, and the posterior of :func:`predict` and
conditioned :func:`sample` (eqs. 2.25-2.26) all read those factors.
``fit`` logs the path, and how each start ended, at DEBUG on the ``graphspde`` logger,
takes each gradient from the factorization of its line search's accepted trial, ends a
start once an accepted step's gain, or a trial's predicted gain, falls to round-off, and
runs no further start once one ends at the best LML so far, to the same round-off.  The
ascent is in-house rather than ``scipy.optimize``, whose import alone adds about 0.19 s
and 18.5 MB of resident memory to every process that fits a model (after ``import
graphspde.cli``, scipy 1.17 on a 2-vCPU Xeon VM; the time varies with the host).

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
    KernelSpec, STPoint, _coordinates, _factors, _gram_and_derivatives, _log_mu_by, _process_covariances,
    _reads_time_lengthscale, _scale, _shek_chain, _symmetrize, assemble_gram, shek_mean, swek_mean,
)
from .spectral import cholesky_jittered, eigendecompose_symmetric

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
# SHEK's missing-cell columns (_Markov) decay by up to s2 / q per step away from their time, so most of
# their entries may be below this, and their products subnormal, which x86 computes in microcode (the
# gradient at the wave-gappy window's fitted point took 2.5x as long).  They are set to zero: at any scale
# the likelihood reaches, no sum they enter moves beyond round-off.
_NEGLIGIBLE = 1e-150
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


@dataclass(frozen=True, eq=False)
class _Prepared:
    """The points once, in their lattice's index form, which both likelihood paths read: each point's time
    index and vertex (``cells``) and residual ``y``, sorted by (time index, vertex, residual) so that no path
    sees the rows' order, and the lattice's ``gaps``, or None where the dense path applies (:func:`_index_form`)."""

    graph: Graph
    times: np.ndarray  # (T,) ascending
    cells: tuple[np.ndarray, np.ndarray]  # (N,) time indices, (N,) vertices
    gaps: tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None  # (U,) time indices; (M,) indices to them, vertices
    y: np.ndarray
    node_offsets: np.ndarray
    shift: float

    @property
    def n_missing(self) -> int:
        return self.gaps[1][0].shape[0]

    @property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's vertex and shifted time, as :func:`kernels._gram_and_derivatives` reads them."""
        return self.cells[1], self.times[self.cells[0]]


def _index_form(graph: Graph, vertices: np.ndarray, times: np.ndarray, y: np.ndarray, offsets: np.ndarray,
                shift: float) -> _Prepared:
    """The points at ``vertices`` and shifted ``times`` with residuals ``y``; ``gaps`` are the U distinct times
    of the M cells with no reading and, on that U-time lattice, those cells, or None if a (vertex, time) pair
    repeats or more cells are missing than read, where the dense path is cheaper."""
    times, t_idx = np.unique(times, return_inverse=True)
    order = np.lexsort((y, vertices, t_idx))
    t_idx, vertices, y = t_idx[order], vertices[order], y[order]
    read = np.zeros((times.shape[0], graph.n_vertices), dtype=bool)
    read[t_idx, vertices] = True
    gaps = None
    if np.count_nonzero(read) == y.shape[0] and 2 * y.shape[0] >= read.size:
        t_m, v_m = np.nonzero(~read)
        gap_times, at = np.unique(t_m, return_inverse=True)
        gaps = (gap_times, (at, v_m))
    return _Prepared(graph, times, (t_idx, vertices), gaps, y, offsets, shift)


def _prepare(model: GPModel, data: SpatioTemporalDataset) -> _Prepared:
    """``data`` with its earliest time at ``model.time_offset``, centered on each vertex's training mean (the overall
    one where a vertex has none) or on zero: correctly rounded sums, so the rows' order does not enter."""
    vertices, times = _coordinates(data.points)
    values, n = data.values, data.graph.n_vertices
    shift = model.time_offset - float(times.min())
    offsets = np.zeros(n)
    if model.mean_policy != "zero":
        overall = math.fsum(values) / values.shape[0]
        by_vertex = np.split(values[np.argsort(vertices)], np.cumsum(np.bincount(vertices, minlength=n))[:-1])
        offsets = np.array([math.fsum(ys) / ys.shape[0] if ys.shape[0] else overall for ys in by_vertex])
    return _index_form(data.graph, vertices, times + shift, values - offsets[vertices], offsets, shift)


# ---------------------------------------------------------------------------
# log marginal likelihood: K + s2 I factorized once per theta
# ---------------------------------------------------------------------------


def _factorize(spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str] = ()) -> _Factorization:
    """``K + s2 I`` factorized once: on the points' lattice where they form
    one, else over the dense N x N Gram.  Its ``lml`` and, in the log of
    each name in ``wrt``, its exact gradient both read these factors."""
    return (_Dense if prep.gaps is None else _Lattice)(spec, noise_variance, prep, wrt)


class _Factorization:
    """``K + s2 I`` at one kernel and noise variance, factorized once.

    ``condition(cross)`` gives ``cross^T (K + s2 I)^-1 y`` and
    ``cross^T (K + s2 I)^-1 cross`` for the (N, q) covariances ``cross`` between
    the points and q queries, the posterior's mean correction and covariance
    reduction; ``lml`` is the log marginal likelihood, ``quad = y^T a`` its quadratic form,
    and :meth:`gradient` its exact gradient in the log of each name in ``wrt`` (``"noise"``
    is the noise variance), ``1/2 tr((a a^T - W) dK)`` (Rasmussen & Williams 2006, eq. 5.9):
    ``_terms`` gives the weight ``a a^T - W``'s ``vdot`` with each dK, from the covariances the
    value evaluated, and its trace.  The noise's dK is ``s2 I``, so its term g is ``s2 / 2``
    times that trace.  The scale's dK is ``power K = power ((K + s2 I) - s2 I)``
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
                values, trace = self._terms(shaped)
                by_name = {name: 0.5 * value for name, value in zip(shaped, values)}
                by_name["noise"] = noise = 0.5 * self.noise_variance * trace
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
    """Over the N x N Gram K: the factor L of ``K + s2 I`` (:func:`_cholesky`), made in place of the Gram with
    the noise added on it, ``a = (K + s2 I)^-1 y`` and K's ``derivatives``."""

    def __init__(self, spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str]):
        super().__init__(spec, noise_variance, prep, wrt)
        y = prep.y
        self.factor, self.derivatives = _gram_and_derivatives(spec, prep.graph, prep.coordinates)
        self.factor[np.diag_indices(y.shape[0])] += self.noise_variance
        half_log_det = _cholesky(self.factor)
        self.alpha = self.solve(y)
        self.quad = float(y @ self.alpha)
        self.lml = float(-0.5 * self.quad - half_log_det - 0.5 * y.shape[0] * _LOG_2PI)

    def _terms(self, names: Sequence[str]) -> tuple[list, float]:
        inverse, alpha = _invert(self.factor.copy()), self.alpha  # the weight a a^T - A^-1, term by term
        terms = [alpha @ d @ alpha - np.vdot(inverse, d) for d in self.derivatives(names)]
        return terms, alpha @ alpha - np.trace(inverse)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve((self.factor.T, True), rhs, check_finite=False)

    def condition(self, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        weights = self.solve(np.column_stack([self.prep.y, cross]))
        return cross.T @ weights[:, 0], cross.T @ weights[:, 1:]


class _Lattice(_Factorization):
    """On the points' vertex x time lattice: eigenbasis Q, the operator ``modes`` of every mode's ``A_i = K_i + s2
    I`` over all T times (:class:`_Markov` for SHEK, :class:`_Roots` for SWEK, :class:`_Eigenbasis` for the other
    kinds), and ``alpha``,
    ``a = A_oo^-1 y`` in the modes; :meth:`_solve_modes` is the one place where a right-hand side meets
    ``A_oo^-1``.  Missing cells m get the same noise, so ``modes`` applies.  They lie at U distinct times, picked
    by S (T x U), and ``E_i = S P_i`` moves them into mode i, where ``P_i`` (U x M) puts cell c at its time with
    weight ``Q[v_c, i]``.  Every missing-cell term reads A^-1 through the gain ``G_i = A_i^-1 S``
    (``modes.columns``) of :func:`_missing_block` alone: ``log|A_oo| = log|A| + log|B_mm|``, ``A_oo^-1 rhs = A^-1
    rhs - G P B_mm^-1 E^T A^-1 rhs`` for a right-hand side zero at m, and the gradient's ``W_i = A_i^-1 - H_i
    H_i^T``, ``H_i = G_i P_i L_mm^-T`` (W and a vanish at m).  The LML, the gradient and the posterior are sums
    over the modes, so the points' order never enters."""

    def __init__(self, spec: KernelSpec, noise_variance: float, prep: _Prepared, wrt: Sequence[str]):
        super().__init__(spec, noise_variance, prep, wrt)
        operator = {"shek": _Markov, "swek": _Roots}.get(spec.kind, _Eigenbasis)
        self.modes = operator(spec, self.noise_variance, prep.graph, prep.times)
        self.basis, log_det = self.modes.spatial, self.modes.log_det
        if prep.n_missing:
            self.gain = self.modes.columns(prep.gaps[0])
            self.chol_mm, half_log_det = _missing_block(self.basis, self.gain, prep.gaps)
            log_det += half_log_det
        y_modes = _to_modes(self.basis, prep.y[:, None], prep.cells, prep.times.shape[0])
        self.alpha = self._solve_modes(y_modes)  # (n, T, 1)
        self.quad = float(np.vdot(y_modes, self.alpha))
        self.lml = float(-0.5 * self.quad - log_det - 0.5 * prep.y.shape[0] * _LOG_2PI)

    def _solve_modes(self, modes: np.ndarray) -> np.ndarray:
        """``A_oo^-1`` on the right-hand side ``modes``, (n, T, k) and zero at the gaps: each ``A_i^-1``, then
        with missing cells ``- G P B_mm^-1 E^T (A^-1 rhs)``, which leaves zeros at the missing cells."""
        z = self.modes.solve(modes)
        if self.prep.n_missing:
            times, cells = self.prep.gaps
            b_m = _at_cells(self.basis, z[:, times], cells)  # E^T (A^-1 rhs)
            b_m = scipy.linalg.cho_solve((self.chol_mm.T, True), b_m, check_finite=False)
            z -= self.gain @ _to_modes(self.basis, b_m, cells, len(times))
        return z

    def condition(self, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        modes = _to_modes(self.basis, cross, self.prep.cells, self.prep.times.shape[0])
        flat = modes.reshape(-1, modes.shape[-1])
        return flat.T @ self.alpha.ravel(), flat.T @ self._solve_modes(modes).reshape(flat.shape)

    def _terms(self, names: Sequence[str]) -> tuple[list, float]:
        return self.modes.terms(names, self)

    def spread(self) -> np.ndarray:
        """The ``P L_mm^-T`` of ``H_i = G_i P_i L_mm^-T``, (n, U, M); made per call, so no frame holds it."""
        times, cells = self.prep.gaps
        inverse = scipy.linalg.lapack.dtrtri(self.chol_mm.T, lower=1)[0]  # L_mm^-1: L_mm's diagonal is positive
        return _to_modes(self.basis, inverse.T, cells, len(times))


class _Roots:
    """SWEK's modes through their inverses ``W_i = A_i^-1`` (n, T, T), made in place of the covariances plus the
    noise, ``A_i = K_i + s2 I``, by :func:`_cholesky` and :func:`_invert`; ``terms`` forms the weight ``[a_i H_i]
    [a_i H_i]^T - W_i`` in one array."""

    def __init__(self, spec: KernelSpec, noise_variance: float, graph: Graph, times: np.ndarray):
        self.spatial, self.inverse, self.derivatives = _process_covariances(spec, graph, times)
        diag = np.arange(times.shape[0])
        self.inverse[:, diag, diag] += noise_variance
        self.log_det = _cholesky(self.inverse)
        _invert(self.inverse)

    def solve(self, modes: np.ndarray) -> np.ndarray:
        return self.inverse @ modes

    def columns(self, times: np.ndarray) -> np.ndarray:
        return self.inverse[:, :, times]

    def terms(self, names: Sequence[str], lattice: _Lattice) -> tuple[list, float]:
        weight = lattice.alpha
        if lattice.prep.n_missing:
            weight = np.concatenate([weight, lattice.gain @ lattice.spread()], axis=2)
        weight = weight @ weight.swapaxes(1, 2)
        weight -= self.inverse
        return [np.vdot(weight, d) for d in self.derivatives(names)], np.trace(weight, axis1=-2, axis2=-1).sum()


class _Markov:
    """SHEK's modes as the chains they are (:func:`kernels._shek_chain`): ``K_i = L^-1 D L^-T`` with L unit lower
    bidiagonal, ``-phi_k`` below its diagonal, and ``D = diag(q)`` (Lindgren, Rue & Lindstrom 2011), so ``A_i^-1 =
    L^T N^-1 L`` with the tridiagonal ``N = D + s2 L L^T`` and ``log|A_i| = log|N|``.  N is ``D^1/2 M D^1/2`` for
    ``M = I + s2 B B^T``, with ``B = D^-1/2 L`` the root of the precision; it stays positive definite where q = 0
    at t = 0, which leaves such a cell noise only, and tends to D as s2 falls, where ``B^T B + I / s2`` through
    Woodbury would cancel.  The n modes stack into one tridiagonal of length n T with no coupling between them,
    factorized ``L_N diag(d) L_N^T`` by one ``dpttrf``; each solve is one ``dpttrs`` or ``dtbtrs`` over the stack.

    ``terms`` works in each mode's log rate.  A column ``w = A^-1 r`` of ``[a_i H_i]`` has ``w^T dK w = sum dq
    x^2 + 2 sum dphi_k x_k (K w)_k-1`` with ``x = L^-T w = N^-1 L r``: for ``a`` from two bidiagonal solves, for
    ``H = G P L_mm^-T`` from the ``N^-1 L S`` that :meth:`columns` solved for, with ``r = S P L_mm^-T`` and ``K w
    = r - s2 w``.  ``tr(A^-1 dK) = tr(N^-1 dN)`` and ``tr(A^-1) = tr(N^-1 L L^T)`` read only the band of ``N^-1``
    (Rue & Held 2005, ch. 2)."""

    def __init__(self, spec: KernelSpec, noise_variance: float, graph: Graph, times: np.ndarray):
        c, sigma, nu, kappa = (spec.hyper[name] for name in ("c", "sigma", "nu", "kappa"))
        frac = fractional_from_graph(graph, spec.laplacian_variant, nu, kappa)
        self.spatial, self.noise_variance = frac.basis, noise_variance
        self.log_mu_by = _log_mu_by(frac.shifted_eigs, nu, kappa)
        self.phi, self.q, self.d_phi, self.d_q = _shek_chain(frac.shifted_eigs, c, sigma, times)
        # N's diagonal and, flattened, its sub-diagonal, zero between modes as phi is at each first time
        diag = self.q + noise_variance * (1.0 + self.phi**2)
        self.d, self.e, info = scipy.linalg.lapack.dpttrf(diag.ravel(), -noise_variance * self.phi.ravel()[1:])
        if info:
            raise FactorizationError(f"the SHEK chains' tridiagonal is not positive definite (dpttrf info {info})")
        self.log_det = 0.5 * np.sum(np.log(self.d))

    def _times_chain(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``L x``, or ``L^T x``, for an (n, T, k) ``x``, in one new array."""
        near, far, kept = (slice(None, -1), slice(1, None), -1) if transpose else (slice(1, None), slice(None, -1), 0)
        out = np.empty_like(x)
        np.multiply(self.phi[:, 1:, None], x[:, far], out=out[:, near])
        np.subtract(x[:, near], out[:, near], out=out[:, near])
        out[:, kept] = x[:, kept]
        return out

    def _solve_tridiagonal(self, rhs: np.ndarray) -> np.ndarray:
        """``N^-1 rhs`` for an (n, T, k) ``rhs``, which it may overwrite."""
        x, info = scipy.linalg.lapack.dpttrs(self.d, self.e, rhs.reshape(-1, rhs.shape[-1]), overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"dpttrs failed with info {info}")
        return np.ascontiguousarray(x.reshape(rhs.shape))  # dpttrs gives (n T, k) column by column

    def solve(self, modes: np.ndarray) -> np.ndarray:
        return self._times_chain(self._solve_tridiagonal(self._times_chain(modes)), transpose=True)

    def columns(self, times: np.ndarray) -> np.ndarray:
        chained = np.zeros(self.q.shape + times.shape)  # L S, entry by entry
        picked, inner = np.arange(times.shape[0]), times < self.q.shape[1] - 1
        chained[:, times, picked] = 1.0
        chained[:, times[inner] + 1, picked[inner]] = -self.phi[:, times[inner] + 1]
        self.picks = self._solve_tridiagonal(chained)  # N^-1 L S, which terms reads
        self.picks[np.abs(self.picks) < _NEGLIGIBLE] = 0.0
        return self._times_chain(self.picks, transpose=True)

    def terms(self, names: Sequence[str], lattice: _Lattice) -> tuple[list, float]:
        s2, alpha, chain = self.noise_variance, lattice.alpha, -self.phi.ravel()[1:]
        x = _unit_lower_solve(chain, alpha, "T")
        # per mode and time, sum_p x_kp^2 and sum_p x_k+1,p (K w)_kp over the columns w
        squares = np.einsum("itp,itp->it", x, x)
        steps = np.einsum("itp,itp->it", x[:, 1:], _unit_lower_solve(chain, self.q[:, :, None] * x, "N")[:, :-1])
        cols_squared = np.vdot(alpha, alpha)
        if lattice.prep.n_missing:
            times, gram = lattice.prep.gaps[0], lattice.spread()
            gram = gram @ gram.swapaxes(1, 2)  # P B_mm^-1 P^T, (n, U, U): x = picks P L_mm^-T, H = G P L_mm^-T
            gram[np.abs(gram) < _NEGLIGIBLE] = 0.0
            x = self.picks @ gram
            squares += np.einsum("itu,itu->it", x, self.picks)
            steps -= s2 * np.einsum("itu,itu->it", x[:, 1:], lattice.gain[:, :-1])  # K H = S P L_mm^-T - s2 H
            inner = times < self.q.shape[1] - 1
            steps[:, times[inner]] += x[:, times[inner] + 1, np.flatnonzero(inner)]
            cols_squared += np.vdot(self._times_chain(x, transpose=True), lattice.gain)  # tr(H^T H)
        # N^-1's band from L_N diag(d) L_N^T: S_kk - e_k^2 S_k+1,k+1 = 1/d_k and S_k,k+1 = -e_k S_k+1,k+1
        s_diag = _unit_lower_solve(-self.e**2, 1.0 / self.d.reshape(self.q.shape), "T")
        s_off = np.zeros_like(s_diag)  # S_k-1,k at k
        s_off.ravel()[1:] = -self.e * s_diag.ravel()[1:]
        per_mode = np.einsum("it,it->i", self.d_q, squares - s_diag)
        per_mode += 2.0 * np.einsum("it,it->i", self.d_phi[:, 1:], steps)
        per_mode -= 2.0 * s2 * np.einsum("it,it->i", self.d_phi, self.phi * s_diag - s_off)
        inverse_trace = np.vdot(s_diag, 1.0 + self.phi**2) - 2.0 * np.vdot(s_off, self.phi)
        return ([per_mode.sum() if name == "c" else per_mode @ self.log_mu_by[name] for name in names],
                cols_squared - inverse_trace)


class _Eigenbasis:
    """The other kinds' modes ``rho_i K_t + s2 I = U diag(d_i) U^T``, ``d_i = rho_i max(lam, 0) + s2`` for
    ``K_t = U diag(lam) U^T`` (:func:`kernels._factors`; Saatci 2012, ch. 5).  ``terms`` runs p~ over ``U^T
    [a_i H_i]``, ``U^T H_i = (U[S]^T / d_i) P_i L_mm^-T``: with ``D = U^T dK_t U`` per name it is ``rho_i
    (sum_p p~^T D p~ - sum_k D_kk / d_ik)``, and the trace ``sum_p |p~|^2 - sum 1/d``."""

    def __init__(self, spec: KernelSpec, noise_variance: float, graph: Graph, times: np.ndarray):
        self.spatial, self.rho, temporal, self.d_temporal = _factors(spec, graph, times)
        dec = eigendecompose_symmetric(temporal)
        self.basis, self.scaled = dec.basis, self.rho[:, None] * np.maximum(dec.eigenvalues, 0.0) + noise_variance
        self.log_det = 0.5 * np.sum(np.log(self.scaled))  # on a complete grid nothing (n, T, T) is formed

    def solve(self, modes: np.ndarray) -> np.ndarray:
        return self.basis @ ((self.basis.T @ modes) / self.scaled[:, :, None])

    def columns(self, times: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis[times].T / self.scaled[:, :, None])

    def terms(self, names: Sequence[str], lattice: _Lattice) -> tuple[list, float]:
        inv = 1.0 / self.scaled
        parts = [self.basis.T @ lattice.alpha]  # U^T a, (n, T, 1)
        if lattice.prep.n_missing:
            parts.append(self.basis[lattice.prep.gaps[0]].T @ lattice.spread())  # U[S]^T P L_mm^-T, (n, T, M)
            parts[1] *= inv[:, :, None]
        rotated = (self.basis.T @ self.d_temporal() @ self.basis for _ in names)  # each name's D
        return [self.rho @ (sum(np.einsum("itp,itp->i", p, d @ p) for p in parts) - inv @ np.diag(d))
                for d in rotated], sum(np.vdot(p, p) for p in parts) - np.sum(inv)


def log_marginal_likelihood(model: GPModel, data: SpatioTemporalDataset) -> float:
    """Exact Gaussian LML ``-1/2 y^T (K + s2 I)^-1 y - 1/2 log|K + s2 I| - N/2 log 2pi``.

    When no (vertex, time) pair repeats and at most half of the vertex x
    time lattice is missing, the Gram is block-diagonal in the spatial
    eigenbasis on the full lattice, the likelihood factorizes into one
    small temporal problem per eigenmode, and a Schur complement corrects
    for the missing cells; otherwise the dense N x N path is used.  The dense
    path, the SWEK lattice (:class:`_Roots`) and the missing-cell correction
    factor through one Cholesky with no jitter (:func:`_cholesky`), the SHEK
    lattice through one tridiagonal factorization of its modes' chains
    (:class:`_Markov`), the other kinds' lattice through one eigendecomposition
    of K_t (:class:`_Eigenbasis`); where a factorization fails, this raises
    :class:`FactorizationError`.  ``fit`` maximizes this same function.
    """
    return _factorize(model.kernel, model.noise_variance, _prepare(model, data)).lml


def _unit_lower_solve(below: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """``L^-1 rhs``, or ``L^-T rhs`` with ``trans="T"``, for the unit lower bidiagonal L with ``below`` under
    its diagonal, over ``rhs`` with its leading axes flattened: one LAPACK ``dtbtrs``."""
    band = np.ones((2, below.shape[0] + 1))  # L as a lower band; its unit diagonal is not read
    band[1, :-1] = below
    out, info = scipy.linalg.lapack.dtbtrs(band, rhs.reshape(band.shape[1], -1), uplo="L", trans=trans, diag="U")
    if info:
        raise np.linalg.LinAlgError(f"dtbtrs failed with info {info}")
    return out.reshape(rhs.shape)


def _missing_block(basis: np.ndarray, gain: np.ndarray, gaps: tuple) -> tuple[np.ndarray, float]:
    """Cholesky factor of ``B_mm = E^T A^-1 E = sum_i P_i^T (S^T G_i) P_i`` over the M missing cells
    ``gaps``, from the gain ``G = A^-1 S``: A^-1's columns at their U times, (n, T, U); and half its
    log-determinant (:func:`_cholesky`).  The product's two triangles differ at round-off, so it is
    averaged with its transpose: the factor then reads the same bits from either triangle."""
    times, (at, vertices) = gaps
    spread = gain[:, times][:, :, at]  # (S^T G) P, (n, U, M)
    spread *= basis[vertices].T[:, None, :]
    block = _at_cells(basis, spread, (at, vertices))
    _symmetrize(block)
    return block, _cholesky(block)


def _cholesky(a: np.ndarray) -> float:
    """``A = L L^T`` in place, by LAPACK ``dpotrf`` and with no jitter: every likelihood Cholesky goes through here.
    ``a`` is one symmetric matrix or a (k, m, m) stack of them, C-ordered; afterwards each matrix's transpose, which is
    Fortran-ordered and so is what LAPACK reads without a copy, holds L, with zeros above it.  Returns half the
    log-determinant, summed over the stack.  A matrix that is not positive definite, or not finite, raises
    :class:`FactorizationError`, which ``fit`` takes as an undefined point."""
    if not (a.flags.c_contiguous and a.dtype == np.float64):  # else LAPACK would factorize a copy
        raise TypeError(f"an in-place Cholesky needs a C-ordered float64 array, got a {a.dtype} one")
    for k in np.ndindex(a.shape[:-2]):
        info = scipy.linalg.lapack.dpotrf(a[k].T, lower=1, overwrite_a=1)[1]
        if info:
            raise FactorizationError(f"a likelihood matrix is not positive definite (dpotrf info {info})")
    half_log_det = float(np.sum(np.log(np.diagonal(a, axis1=-2, axis2=-1))))
    if not math.isfinite(half_log_det):
        raise FactorizationError("a likelihood matrix is not finite")
    return half_log_det


def _invert(factor: np.ndarray) -> np.ndarray:
    """``A^-1`` in place of each factor that :func:`_cholesky` left in ``factor``, by LAPACK ``dpotri``, both
    triangles filled; returns ``factor``."""
    for k in np.ndindex(factor.shape[:-2]):
        scipy.linalg.lapack.dpotri(factor[k].T, lower=1, overwrite_c=1)  # L's diagonal is positive: no failure
    factor += np.swapaxes(factor, -1, -2)  # one triangle onto the zeros across the diagonal
    diag = np.arange(factor.shape[-1])
    factor[..., diag, diag] *= 0.5
    return factor


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
    if prep.gaps is None:
        _LOG.debug("fit: dense likelihood over %d points", prep.y.shape[0])
    else:
        _LOG.debug("fit: lattice likelihood over %d times x %d vertices, %d missing cells",
                   prep.times.shape[0], data.graph.n_vertices, prep.n_missing)

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
    a point returns where no gradient is finite), when an accepted step
    raises the LML by no more than ``_STALL_RTOL`` relative to it, or when
    the line search finds no ascent before alpha falls below 1e-12 or its
    predicted gain ``alpha * slope`` below ``_STALL_RTOL`` relative to the
    LML.  The stall rule is what stops a converged start: once the step's
    predicted gain falls below half an ulp of the LML, the Armijo test
    reduces to ``f_new >= f`` and accepts steps that gain exactly nothing.
    A trial below the gain rule could only be rejected, or accepted on a
    gain that stalls; near the noise floor the LML is accurate to about
    1e-6 relative, and such trials followed its round-off.  Each start logs
    its iterates, final LML and end rule at DEBUG.

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
    ended = "max_iters reached"
    while len(trace) < max_iters:
        if grad is None:
            grad = point.gradient()
        direction = h_inv @ grad
        slope = float(direction @ grad)
        if slope <= 0:
            h_inv = np.eye(dim)
            direction = grad.copy()
            slope = float(grad @ grad)
        if np.max(np.abs(grad)) < grad_tol or slope == 0.0:
            ended = "the gradient fell below grad_tol"
            break
        f_old = trace[-1]
        alpha = 1.0
        while alpha * np.max(np.abs(direction)) > _MAX_LOG_STEP:
            alpha *= 0.5
        while alpha >= 1e-12 and alpha * slope > _STALL_RTOL * max(abs(f_old), 1.0):
            point = None  # the last point's factors go before the next are made
            point = evaluate(theta + alpha * direction)
            if point is not None and point.lml >= f_old + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            ended = ("the line search ran out at alpha < 1e-12" if alpha < 1e-12
                     else "the line search fell below the LML's resolution")
            break
        theta_new = theta + alpha * direction
        trace.append(point.lml)
        stalled = point.lml - f_old <= _STALL_RTOL * max(abs(point.lml), abs(f_old), 1.0)
        if stalled:
            ended = "the step stalled"
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
    _LOG.debug("fit: a start ended after %d iterates at LML %.12g: %s", len(trace), trace[-1], ended)
    return theta, trace


def _keep_freed_heap() -> None:
    """Let glibc keep freed blocks of up to 32 MB on its heap for reuse.

    Each SWEK lattice evaluation allocates and frees the same few (n, T, T) arrays: its
    covariances, which become their inverses in place, their derivatives and the gradient's
    weight.  Under glibc's adaptive thresholds the heap is trimmed after an evaluation and the
    next one faults its pages back in, unless the process once freed a larger block: on the 10 %
    gappy 11 x 50 wave lattice, 60,000 to 80,000 page faults per backtest round and up to twice
    its time.  With SWEK's covariances built from their rank-2 generators, the ``wave-gappy``
    benchmark's window still took 29 % longer without this call (median of 8 pairs,
    slower in 7 of them, 2-vCPU Xeon VM).  Other C libraries keep their own policy."""
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
    """Standard GP posterior at the query points given the training data, whose time shift they take (module
    docstring): none may come before the first training time less ``model.time_offset`` (:class:`DataError`)."""
    prep = _prepare(model, train_data)
    early = [p.time for p in query_points if p.time + prep.shift < 0.0]
    if early:
        raise DataError(f"query time {min(early)} is before {-prep.shift}, the earliest a query may take: the "
                        f"first training time less the model's time_offset {model.time_offset}")
    correction, cov = _condition(model, prep, [STPoint(p.vertex, p.time + prep.shift) for p in query_points])
    mean = prep.node_offsets[[p.vertex for p in query_points]] + correction
    variance = np.clip(np.diag(cov).copy(), 0.0, None)
    return PosteriorPrediction(mean=mean, variance=variance, covariance=cov if full_cov else None)


def _condition(model: GPModel, prep: _Prepared, query: Sequence[STPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean correction ``K_qo (K + s2 I)^-1 r`` and covariance ``K_qq - K_qo (K + s2 I)^-1 K_oq``
    at ``query`` (Rasmussen & Williams 2006, eqs. 2.25-2.26), given the residuals ``r = prep.y`` around
    the prior mean, solved by the factorization the likelihood reads."""
    prior = assemble_gram(model.kernel, prep.graph, query).matrix
    cross = _gram_and_derivatives(model.kernel, prep.graph, prep.coordinates, _coordinates(query))[0]
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
    state u(0) (entering through the process mean), at most one row per
    vertex (else :class:`DataError`); all rows are then
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
        u0, initial = np.zeros(graph.n_vertices), set()
        for point, y in condition_on.observations:
            if point.time == 0.0:
                if point.vertex in initial:
                    raise DataError(f"vertex {graph.labels[point.vertex]!r} has more than one conditioning row at "
                                    "t = 0, where its value is the initial state u(0)")
                initial.add(point.vertex)
                u0[point.vertex] = y
        c = model.kernel.hyper["c"]

        def process_mean(vertices: np.ndarray, times: np.ndarray) -> np.ndarray:
            distinct, t_idx = np.unique(times, return_inverse=True)
            if kind == "shek":
                by_time = [shek_mean(frac, c, u0, t) for t in distinct]
            else:
                by_time = [swek_mean(frac, c, u0, np.zeros_like(u0), t) for t in distinct]
            return np.array(by_time)[t_idx, vertices]

        vertices, times = _coordinates(condition_on.points)
        residual = condition_on.values - process_mean(vertices, times)  # around the process mean, at the raw times
        prep = _index_form(graph, vertices, times, residual, np.zeros(graph.n_vertices), 0.0)
        correction, cov = _condition(model, prep, points)
        return process_mean(*_coordinates(points)) + correction, cov

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
