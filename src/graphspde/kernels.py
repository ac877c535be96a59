"""Covariance kernels on graphs and Gram-matrix assembly over (vertex, time) points.

Spatial kernels come from stationary SDEs on the graph (Laplacian kernel,
graph Matern), temporal base kernels combine with them as separable
products, and the non-separable spatio-temporal kernels are the exact
cross-covariances of the stochastic heat equation (SHEK) and stochastic
wave equation (SWEK) driven by the shifted fractional Laplacian.

Every kernel has one representation (Nikitin et al., arXiv:2111.08524):
per eigenmode i of one symmetric operator, a temporal covariance
``k_i(t, s)``, and ``Cov[u_x(t), u_y(s)] = sum_i q_i(x) k_i(t, s) q_i(y)``.
SHEK/SWEK evaluate those covariances in one place (``_process_covariances``),
on a spectrum computed once per (graph, variant, operator), SWEK's as outer
products of the wave's rank-2 generators (``_swek_generators``), and SHEK's
lattice reads each mode as the Markov chain it is (``_shek_chain``); the spatial-only
and separable kinds are ``rho_i K_t(t, s)``, stated once by ``_factors``;
``_mode_variances`` reads the diagonal ``k_i(t, t)`` of either in closed form;
``_scale`` names each kind's scale.  Grams and blocks K(rows, columns) gather
from the same evaluations (:func:`assemble_gram`).
The matrix-level functions (``laplacian_kernel``, ``shek_cov``, ...) stay
as the references the tests hold the gather to.

Cross-covariance convention: ``Cov[u(t), u(s)]_ij = E[(u_i(t) - mu_i(t)) *
(u_j(s) - mu_j(s))]`` with the deterministic initial state at t = 0, so both
process kernels vanish identically when min(t, s) = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import scipy.linalg

from .exceptions import DataError, NumericError
from .graphs import (
    FractionalLaplacian,
    Graph,
    LAPLACIAN_VARIANTS,
    LaplacianMatrix,
    fractional_from_graph,
    fractional_laplacian,
    laplacian_spectrum,
)
from .spectral import NULL_SPACE_RTOL, _lift, eigendecompose_symmetric, matrix_function, pseudoinverse

KERNEL_KINDS = ("laplacian_spatial", "matern_spatial", "separable_product", "shek", "swek")
TEMPORAL_KINDS = ("rbf", "exponential", "brownian", "cosine")

# Kinds built from fractional powers or the eigenbasis of the Laplacian,
# which exist only for a symmetric one (not the random-walk variant).  The
# spatial-only Laplacian kernel (L^T L)^+ is defined for any variant.
_SYMMETRIC_KINDS = ("matern_spatial", "shek", "swek")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class STPoint:
    """A (vertex index, time) input location; time counts from the process origin."""

    vertex: int
    time: float

    def __post_init__(self):
        if not isinstance(self.vertex, numbers.Integral) or self.vertex < 0:
            raise DataError(f"vertex index must be a non-negative integer, got {self.vertex!r}")
        if not np.isfinite(self.time) or self.time < 0:
            raise DataError(f"time must be finite and >= 0, got {self.time}")


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel matrix over an ordered list of points."""

    matrix: np.ndarray
    points: tuple[STPoint, ...]

    def __post_init__(self):
        self.matrix.setflags(write=False)
        n = len(self.points)
        if self.matrix.shape != (n, n):
            raise DataError("Gram matrix shape does not match the point list")


@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of a kernel with strictly positive hyperparameters.

    ``kind`` selects the family; ``hyper`` holds the numbers it needs:

    - ``laplacian_spatial``: optional ``variance``
    - ``matern_spatial``: ``nu``, ``kappa``, optional ``variance``
    - ``separable_product``: a ``spatial`` sub-spec plus ``temporal_kind`` and
      ``time_lengthscale`` (optional, and not used, for the brownian kernel and
      a cosine one with ``omega``), optional ``variance``, and for the cosine
      kernel an optional ``omega`` that fixes its frequency
    - ``shek`` / ``swek``: ``c``, ``sigma``, ``nu``, ``kappa``

    Any other hyperparameter name is rejected.

    ``laplacian_variant`` picks which Laplacian backs the spatial operator.
    Every kind except ``laplacian_spatial`` needs a symmetric variant (for a
    separable product, on its spatial sub-spec, whose variant is the one
    used); ``random_walk`` is rejected for them here.  ``temporal_kind`` and
    ``spatial`` are rejected on every other kind.
    """

    kind: str
    hyper: Mapping[str, float]
    temporal_kind: str | None = None
    laplacian_variant: str = "unnormalized"
    spatial: "KernelSpec | None" = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DataError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.laplacian_variant not in LAPLACIAN_VARIANTS:
            raise DataError(f"unknown Laplacian variant {self.laplacian_variant!r}")
        hyper = dict(self.hyper)
        for name, value in hyper.items():
            if not (isinstance(value, numbers.Real) and np.isfinite(value) and value > 0):
                raise DataError(f"hyperparameter {name!r} must be a strictly positive number, got {value!r}")
        object.__setattr__(self, "hyper", MappingProxyType(hyper))

        if self.laplacian_variant == "random_walk" and self.kind in _SYMMETRIC_KINDS:
            raise DataError(
                f"kernel kind {self.kind!r} needs a symmetric Laplacian; "
                f"variant {self.laplacian_variant!r} is not symmetric"
            )

        if self.kind != "separable_product" and (self.temporal_kind is not None or self.spatial is not None):
            raise DataError(f"kernel kind {self.kind!r} takes no temporal_kind or spatial sub-spec")

        required: tuple[str, ...] = ()
        optional: tuple[str, ...] = ("variance",)
        if self.kind == "matern_spatial":
            required = ("nu", "kappa")
        elif self.kind in ("shek", "swek"):
            required, optional = ("c", "sigma", "nu", "kappa"), ()
        elif self.kind == "separable_product":
            if self.spatial is None or self.spatial.kind not in ("laplacian_spatial", "matern_spatial"):
                raise DataError("separable_product needs a spatial sub-spec (laplacian or matern)")
            if self.spatial.laplacian_variant == "random_walk":
                raise DataError(
                    "separable_product's spatial sub-spec needs a symmetric Laplacian; "
                    "variant 'random_walk' is not symmetric"
                )
            if self.temporal_kind not in TEMPORAL_KINDS:
                raise DataError(
                    f"separable_product needs temporal_kind in {TEMPORAL_KINDS}, got {self.temporal_kind!r}"
                )
            optional += ("time_lengthscale",) + (("omega",) if self.temporal_kind == "cosine" else ())
            if _reads_time_lengthscale(self.temporal_kind, hyper):
                required = ("time_lengthscale",)
        missing = [name for name in required if name not in hyper]
        if missing:
            raise DataError(f"kernel kind {self.kind!r} is missing hyperparameters {missing}")
        foreign = sorted(set(hyper) - set(required) - set(optional))
        if foreign:
            raise DataError(f"kernel kind {self.kind!r} takes no hyperparameters {foreign}")

    def with_hyper(self, **updates: float) -> "KernelSpec":
        """Copy of the spec with some hyperparameters replaced."""
        merged = dict(self.hyper)
        merged.update(updates)
        return replace(self, hyper=merged)

    @property
    def variance(self) -> float:
        return float(self.hyper.get("variance", 1.0))


# ---------------------------------------------------------------------------
# spatial kernels
# ---------------------------------------------------------------------------


def laplacian_kernel(lap: LaplacianMatrix | np.ndarray) -> np.ndarray:
    """Stationary covariance of the Laplace SDE on the graph: ``(L^T L)^+``."""
    matrix = lap.matrix if isinstance(lap, LaplacianMatrix) else np.asarray(lap, dtype=float)
    return pseudoinverse(matrix.T @ matrix)


def matern_graph_kernel(lap: LaplacianMatrix | np.ndarray, nu: float, kappa: float) -> np.ndarray:
    """Graph Matern covariance ``(2 nu / kappa^2 I + L)^(-nu)``; strictly PD."""
    frac = fractional_laplacian(lap, nu, kappa)
    return _lift(frac.basis, frac.shifted_eigs**-2.0)


def heat_semigroup(lap: LaplacianMatrix | np.ndarray, c: float, t: float) -> np.ndarray:
    """Deterministic diffusion propagator ``exp(-c L t)``.

    Symmetric Laplacians go through the spectrum; asymmetric ones (e.g. the
    random-walk variant) through a dense matrix exponential.  Row-stochastic
    for the random-walk Laplacian.
    """
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    if c <= 0:
        raise DataError(f"diffusivity must be positive, got {c}")
    matrix = lap.matrix if isinstance(lap, LaplacianMatrix) else np.asarray(lap, dtype=float)
    symmetric = lap.symmetric if isinstance(lap, LaplacianMatrix) else bool(
        np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12 * max(np.max(np.abs(matrix)), 1.0))
    )
    if symmetric:
        dec = eigendecompose_symmetric(matrix)
        return matrix_function(dec, lambda lam: np.exp(-c * t * lam))
    return scipy.linalg.expm(-c * t * matrix)


def heat_random_walk_check(lap_rw: LaplacianMatrix | np.ndarray, t: float, k_terms: int) -> np.ndarray:
    """Poisson-weighted random-walk series for the heat kernel.

    ``exp(-L_rw t) = sum_k (t^k e^-t / k!) P^k`` with ``P = I - L_rw`` the
    random-walk matrix; truncated after ``k_terms`` terms.  Converges to
    ``heat_semigroup(L_rw, 1, t)`` as the term count grows.
    """
    if k_terms < 1:
        raise DataError(f"k_terms must be >= 1, got {k_terms}")
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    matrix = lap_rw.matrix if isinstance(lap_rw, LaplacianMatrix) else np.asarray(lap_rw, dtype=float)
    n = matrix.shape[0]
    walk = np.eye(n) - matrix
    power = np.eye(n)
    weight = math.exp(-t)
    total = weight * power
    for k in range(1, k_terms):
        power = power @ walk
        weight *= t / k
        total = total + weight * power
    return total


# ---------------------------------------------------------------------------
# stochastic heat equation kernel (SHEK)
# ---------------------------------------------------------------------------


def _shek_eig(mu: np.ndarray, c: float, sigma: float, t, s) -> np.ndarray:
    """Scalar SHEK covariance per eigenvalue; broadcasts over time grids.

    ``sigma^2/(2 c mu) * (exp(-c mu |t-s|) - exp(-c mu (t+s)))`` written with
    ``expm1`` so the near-zero modes of a weakly shifted Laplacian keep full
    precision (the mu -> 0 limit is the Brownian ``sigma^2 min(t, s)``).
    """
    gap = np.abs(t - s)
    m = np.minimum(t, s)
    return sigma**2 / (2.0 * c) * np.exp(-c * mu * gap) * (-np.expm1(-2.0 * c * mu * m)) / mu


def _shek_eig_dlog_rate(k: np.ndarray, mu: np.ndarray, c: float, sigma: float, t, s) -> np.ndarray:
    """Derivative of :func:`_shek_eig` (value ``k``) in log c.

    The covariance depends on (c, mu) only through the rate ``c mu``, so this
    is also its derivative in log mu:
    ``-k (1 + c mu |t-s|) + sigma^2 min(t, s) exp(-c mu (|t-s| + 2 min(t, s)))``.
    """
    gap = np.abs(t - s)
    m = np.minimum(t, s)
    rate = c * mu
    return -k * (1.0 + rate * gap) + sigma**2 * m * np.exp(-rate * (gap + 2.0 * m))


def _shek_chain(mu: np.ndarray, c: float, sigma: float, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """SHEK per eigenvalue as the Ornstein-Uhlenbeck chain it is at ascending ``times``, (n, T) each.

    From the zero state at t = 0, ``u(t_k) = phi_k u(t_{k-1}) + N(0, q_k)`` with ``h_k = t_k - t_{k-1}``,
    ``t_0 = 0`` and rate ``a = c mu``: ``phi_k = exp(-a h_k)`` and ``q_k = sigma^2/(2a) (1 - exp(-2 a h_k))``,
    with ``expm1`` as in :func:`_shek_eig`, so q = 0 at t = 0 (Rue & Held 2005, ch. 2).  The first
    transition acts on the zero state and is returned as 0.  Also returned are both derivatives in log a
    (or log mu, as in :func:`_shek_eig_dlog_rate`): ``-a h phi`` and ``sigma^2 h phi^2 - q``.
    """
    mu = mu.reshape(-1, 1)
    rate, steps = c * mu, np.diff(times, prepend=0.0)[None]
    phi = np.exp(-rate * steps)
    q = sigma**2 / (2.0 * c) * (-np.expm1(-2.0 * rate * steps)) / mu
    d_q = sigma**2 * steps * phi**2 - q
    phi[:, 0] = 0.0
    return phi, q, -rate * steps * phi, d_q


def shek_cov(frac: FractionalLaplacian, c: float, sigma: float, t: float, s: float) -> np.ndarray:
    """SHEK cross-covariance ``Cov[u(t), u(s)]`` for a symmetric operator.

    Equals ``sigma^2/(2c) (e^{-c Lt |t-s|} - e^{-c Lt (t+s)}) Lt^{-1}``; the
    zero matrix whenever t = 0 or s = 0 (deterministic initial condition).
    """
    _check_times(t, s)
    _check_positive(c=c, sigma=sigma)
    return _lift(frac.basis, _shek_eig(frac.shifted_eigs, c, sigma, t, s))


def shek_mean(frac: FractionalLaplacian, c: float, u0: np.ndarray, t: float) -> np.ndarray:
    """Process mean ``exp(-c Lt t) u(0)``."""
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    _check_positive(c=c)
    u0 = np.asarray(u0, dtype=float)
    q = frac.basis
    return q @ (np.exp(-c * frac.shifted_eigs * t) * (q.T @ u0))


def shek_matrix_noise_cov(
    frac: FractionalLaplacian, c: float, sigma_matrix: np.ndarray, t: float, s: float
) -> np.ndarray:
    """SHEK cross-covariance with matrix-scaled noise ``Sigma dW_t``.

    In the operator's eigenbasis, for t >= s,
    ``C_ij = (S_ij / (c (mu_i + mu_j))) (exp(-c mu_i (t-s)) - exp(-c (mu_i t + mu_j s)))``
    with ``S = Q^T Sigma Sigma^T Q``; for t < s the transpose of the swapped
    arguments.  With ``Sigma = sigma I`` this collapses to :func:`shek_cov`.
    """
    _check_times(t, s)
    _check_positive(c=c)
    if t < s:
        return shek_matrix_noise_cov(frac, c, sigma_matrix, s, t).T
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    mu = frac.shifted_eigs
    q = frac.basis
    s_eig = q.T @ (sigma_matrix @ sigma_matrix.T) @ q
    pair_sum = mu[:, None] + mu[None, :]
    # exp(-c mu_i (t-s)) - exp(-c(mu_i t + mu_j s)) = exp(-c mu_i (t-s)) * -expm1(-c s (mu_i + mu_j))
    core = np.exp(-c * mu * (t - s))[:, None] * (-np.expm1(-c * s * pair_sum))
    c_matrix = s_eig * core / (c * pair_sum)
    return q @ c_matrix @ q.T


def _sde_noise_gramian(gamma: np.ndarray, m: float) -> np.ndarray:
    """``W(m) = int_0^m exp(-G tau) exp(-G^T tau) d tau`` for a square matrix G.

    Computed stably for any spectrum by a block matrix exponential on a
    subinterval short enough that nothing overflows, then doubled with
    ``W(2a) = W(a) + e^{-G a} W(a) e^{-G^T a}``.
    """
    n = gamma.shape[0]
    norm = np.linalg.norm(gamma, 2)
    doublings = 0
    if norm * m > 0.5:
        doublings = int(np.ceil(np.log2(norm * m / 0.5)))
    a = m / 2.0**doublings
    block = np.block([[-gamma, np.eye(n)], [np.zeros((n, n)), gamma.T]])
    exp_block = scipy.linalg.expm(block * a)
    w = exp_block[:n, n:] @ scipy.linalg.expm(-gamma.T * a)
    decay = scipy.linalg.expm(-gamma * a)
    for _ in range(doublings):
        w = w + decay @ w @ decay.T
        decay = decay @ decay
    return w


def shek_cov_general(
    lt_matrix: np.ndarray, c: float, sigma: float, t: float, s: float
) -> np.ndarray:
    """SHEK cross-covariance for a general (possibly asymmetric) operator.

    Evaluates the Ito integral exactly:
    ``Cov[u(t), u(s)] = sigma^2 e^{-G (t-m)} W(m) e^{-G^T (s-m)}`` with
    ``G = c Lt``, ``m = min(t, s)`` and ``W`` from :func:`_sde_noise_gramian`.
    When ``Lt`` commutes with its transpose this equals the closed form
    ``(sigma^2/c) e^{-c Lt t - c Lt^T s} (e^{c (Lt + Lt^T) m} - I)(Lt + Lt^T)^{-1}``
    and so reduces to :func:`shek_cov` for symmetric operators; for non-normal
    operators only the integral form matches the simulated process.
    """
    _check_times(t, s)
    _check_positive(c=c, sigma=sigma)
    lt_matrix = np.asarray(lt_matrix, dtype=float)
    n = lt_matrix.shape[0]
    m = min(t, s)
    if m == 0.0:
        return np.zeros((n, n))
    gamma = c * lt_matrix
    w = _sde_noise_gramian(gamma, m)
    left = scipy.linalg.expm(-gamma * (t - m))
    right = scipy.linalg.expm(-gamma.T * (s - m))
    return sigma**2 * (left @ w @ right)


def lyapunov_stationary(lt_matrix: np.ndarray, sigma: np.ndarray | float) -> np.ndarray:
    """Stationary covariance ``C`` solving ``Lt C + C Lt^T = Sigma Sigma^T``.

    Requires the spectrum of ``Lt`` in the open right half-plane (no
    eigenvalue pair may sum to zero).  The result is symmetrized and checked
    against the equation to a 1e-8 relative residual.
    """
    lt_matrix = np.asarray(lt_matrix, dtype=float)
    n = lt_matrix.shape[0]
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0:
        sigma = float(sigma) * np.eye(n)
    rhs = sigma @ sigma.T
    eigs = np.linalg.eigvals(lt_matrix)
    pair_sums = np.abs(eigs[:, None] + np.conj(eigs)[None, :])
    scale = max(np.max(np.abs(eigs)), 1e-30)
    if np.min(pair_sums) <= 1e-12 * scale:
        raise NumericError(
            "Lyapunov equation is singular: an eigenvalue pair of Lt sums to ~0"
        )
    solution = scipy.linalg.solve_continuous_lyapunov(lt_matrix, rhs)
    solution = (solution + solution.T) / 2.0
    residual = np.max(np.abs(lt_matrix @ solution + solution @ lt_matrix.T - rhs))
    if residual > 1e-8 * max(np.max(np.abs(rhs)), np.finfo(float).tiny):
        raise NumericError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return solution


# ---------------------------------------------------------------------------
# wave equation and stochastic wave equation kernel (SWEK)
# ---------------------------------------------------------------------------


def wave_solution(
    lap: LaplacianMatrix | np.ndarray, c: float, u0: np.ndarray, v0: np.ndarray, t: float
) -> np.ndarray:
    """Deterministic graph wave at time t from position u0 and velocity v0.

    Solved mode-by-mode in the Laplacian's eigenbasis: oscillation
    ``cos(c sqrt(lam) t) y0 + sin(c sqrt(lam) t)/(c sqrt(lam)) v0`` for
    positive modes, and the exact free motion ``y0 + v0 t`` for zero modes.
    """
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    _check_positive(c=c)
    matrix = lap.matrix if isinstance(lap, LaplacianMatrix) else np.asarray(lap, dtype=float)
    dec = eigendecompose_symmetric(matrix)
    lam = dec.eigenvalues
    q = dec.basis
    y0 = q.T @ np.asarray(u0, dtype=float)
    w0 = q.T @ np.asarray(v0, dtype=float)
    cutoff = 1e-10 * max(np.max(np.abs(lam), initial=0.0), 1.0)
    zero_mode = lam <= cutoff
    theta = c * np.sqrt(np.where(zero_mode, 1.0, lam))
    y = np.where(
        zero_mode,
        y0 + w0 * t,
        np.cos(theta * t) * y0 + np.sin(theta * t) / theta * w0,
    )
    return q @ y


# theta * t below which the SWEK generators read h(theta t) and its derivative from their series
_SWEK_SERIES = 1.0
# h(x) = (cos x - sin x / x) / x^2 = sum_j H_j x^2j, H_j = (-1)^(j+1) (2j+2) / (2j+3)!; through x^16
# the series is exact to round-off below the switch
_SWEK_H = np.array([(-1.0) ** (j + 1) * (2 * j + 2) / math.factorial(2 * j + 3) for j in range(9)])


def _swek_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``h(x)`` and ``x h'(x)`` from their series, by Horner's rule in x^2."""
    z = np.square(x)
    h, dh = np.zeros_like(z), np.zeros_like(z)
    for j in range(_SWEK_H.shape[0] - 1, -1, -1):
        h *= z
        h += _SWEK_H[j]
        dh *= z
        dh += 2 * j * _SWEK_H[j]
    return h, dh


def _swek_generators(theta: np.ndarray, sigma: float, times) -> tuple[tuple[np.ndarray, ...], ...]:
    """SWEK per eigenvalue as the wave's rank-2 generators at ``times``, broadcast against ``theta = c sqrt(mu)``.

    For t >= s the covariance of :func:`_swek_eig` is ``k(t, s) = sum_k rows[k](t) cols[k](s)``, with rows ``(cos
    theta t, sin theta t / theta)`` and columns ``(a, b) = sigma^2/2 (s^3 h(theta s), s sin theta s / theta)``, where
    ``h(x) = (cos x - sin x / x) / x^2``.  ``theta d/dtheta`` takes ``sin theta t / theta`` to ``theta^2 t^3 h(theta
    t)`` and ``h`` to ``x h'(x) = -3 h(x) - sin x / x``, so the log-theta derivative is ``sum_k d_rows[k](t)
    d_cols[k](s)`` over four pairs: ``d_rows = (-theta t sin theta t, theta^2 t^3 h) + rows`` and ``d_cols = cols +
    (sigma^2/2 s^3 x h'(x), theta^2 s a)``.  Every cancellation sits in h and x h', whose direct forms lose about
    eps / x^2 and eps / x^4; below ``x =`` :data:`_SWEK_SERIES` both come from their series (:func:`_swek_series`),
    evaluated only there.  Nothing divides by theta^2, so the theta -> 0 limit, the integrated-Brownian ``sigma^2
    (t s^2 / 2 - s^3 / 6)``, stays finite.  Returns ``rows, cols, d_rows, d_cols``.
    """
    x = np.asarray(theta * times, dtype=float)
    cos, sin = np.cos(x), np.sin(x)
    small = x < _SWEK_SERIES
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 is in the series
        sinc = sin / x
        h = cos - sinc
        h /= np.square(x)
        d_h = -3.0 * h - sinc
    h[small], d_h[small] = _swek_series(x[small])
    scale, cubes = sigma**2 / 2.0, np.power(times, 3)
    over = sin / theta
    a, b = scale * cubes * h, scale * times * over
    rows, cols = (cos, over), (a, b)
    d_rows = (-x * sin, np.square(theta) * cubes * h) + rows
    return rows, cols, d_rows, cols + (scale * cubes * d_h, np.square(theta) * times * a)


def _rank_sum(rows: Sequence[np.ndarray], cols: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k rows[k] cols[k]`` entry by entry, in order: the generators' value at equal arguments."""
    return sum(r * c for r, c in zip(rows, cols))


def _swek_stack(rows: Sequence[np.ndarray], cols: Sequence[np.ndarray], times: np.ndarray) -> np.ndarray:
    """The (n, T, T) stack ``sum_k rows[k](t) cols[k](s)`` of (n, T) generators at ``times``: one product per mode
    where t >= s, mirrored where t < s, so it is exactly symmetric, and its diagonal is :func:`_rank_sum`, so
    :func:`_mode_variances` reads it bit for bit."""
    out = np.stack(rows, axis=-1) @ np.stack(cols, axis=1)
    np.copyto(out, out.swapaxes(1, 2), where=times[:, None] < times)
    diag = np.arange(times.shape[0])
    out[:, diag, diag] = _rank_sum(rows, cols)
    return out


def _swek_eig(mu: np.ndarray, c: float, sigma: float, t, s) -> np.ndarray:
    """Scalar SWEK covariance per eigenvalue of the operator.

    For theta = c sqrt(mu):
    ``sigma^2/(2 theta^2) (min(t,s) cos(theta (t-s)) - cos(theta max) sin(theta min) / theta)``,
    the Ito integral ``(sigma/theta)^2 int_0^min sin(theta(t-x)) sin(theta(s-x)) dx``, evaluated as the
    generators (:func:`_swek_generators`) of max(t, s) against those of min(t, s).
    """
    theta = c * np.sqrt(mu)
    rows = _swek_generators(theta, sigma, np.maximum(t, s))[0]
    return _rank_sum(rows, _swek_generators(theta, sigma, np.minimum(t, s))[1])


def swek_cov(frac: FractionalLaplacian, c: float, sigma: float, t: float, s: float) -> np.ndarray:
    """SWEK cross-covariance ``Cov[u(t), u(s)]``; zero matrix when min(t,s) = 0.

    Oscillates in the time gap while the variance grows like min(t, s)
    (Brownian-style accumulation of the driving noise).
    """
    _check_times(t, s)
    _check_positive(c=c, sigma=sigma)
    return _lift(frac.basis, _swek_eig(frac.shifted_eigs, c, sigma, t, s))


def swek_mean(
    frac: FractionalLaplacian, c: float, u0: np.ndarray, v0: np.ndarray, t: float
) -> np.ndarray:
    """Mean of the stochastic wave process; no zero modes since the operator is PD."""
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    _check_positive(c=c)
    theta = c * np.sqrt(frac.shifted_eigs)
    q = frac.basis
    y0 = q.T @ np.asarray(u0, dtype=float)
    w0 = q.T @ np.asarray(v0, dtype=float)
    return q @ (np.cos(theta * t) * y0 + np.sin(theta * t) / theta * w0)


# ---------------------------------------------------------------------------
# temporal kernels and Gram assembly
# ---------------------------------------------------------------------------


def temporal_kernel(kind: str, params: Mapping[str, float], t, s):
    """Base temporal kernels; broadcasts over array arguments.

    rbf ``v exp(-(t-s)^2 / 2 l^2)``; exponential ``v exp(-|t-s| / l)``;
    brownian ``v min(t, s)`` (t, s >= 0); cosine ``v cos(omega (t-s))``.
    """
    if kind not in TEMPORAL_KINDS:
        raise DataError(f"unknown temporal kernel {kind!r}; expected one of {TEMPORAL_KINDS}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    variance = float(params.get("variance", 1.0))
    if kind == "rbf":
        ell = _param(params, "time_lengthscale")
        with np.errstate(over="ignore"):
            scaled = (t - s) / ell
            out = variance * np.exp(-0.5 * scaled**2)
    elif kind == "exponential":
        ell = _param(params, "time_lengthscale")
        out = variance * np.exp(-np.abs(t - s) / ell)
    elif kind == "brownian":
        if np.any(t < 0) or np.any(s < 0):
            raise DataError("brownian temporal kernel requires t, s >= 0")
        out = variance * np.minimum(t, s)
    else:
        omega = float(params["omega"]) if "omega" in params else 1.0 / _param(params, "time_lengthscale")
        out = variance * np.cos(omega * (t - s))
    return out if out.ndim else float(out)


def _reads_time_lengthscale(temporal_kind: str, params: Mapping[str, float]) -> bool:
    """Whether the temporal kernel reads ``time_lengthscale``: rbf and exponential do, and cosine
    does unless ``omega`` fixes its frequency."""
    return temporal_kind in ("rbf", "exponential") or (temporal_kind == "cosine" and "omega" not in params)


def temporal_kernel_dlog_lengthscale(k, kind: str, params: Mapping[str, float], t, s):
    """Derivative of :func:`temporal_kernel` (value ``k`` at the same arguments) in log ``time_lengthscale``.

    Zero for the brownian kernel, and for the cosine kernel when ``omega``
    fixes its frequency.
    """
    gap = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if kind == "rbf":
        return k * (gap / _param(params, "time_lengthscale")) ** 2
    if kind == "exponential":
        return k * np.abs(gap) / _param(params, "time_lengthscale")
    if kind == "cosine" and "omega" not in params:
        phase = gap / _param(params, "time_lengthscale")
        return float(params.get("variance", 1.0)) * np.sin(phase) * phase
    return np.zeros_like(k)


def _scale(kind: str) -> tuple[str, int]:
    """The hyperparameter that only rescales a kind's covariances, and the power it enters with
    (sigma^2 for SHEK/SWEK, variance^1 for the rest): their derivative in its log is power x them."""
    return ("sigma", 2) if kind in ("shek", "swek") else ("variance", 1)


def _factors(spec: KernelSpec, graph: Graph, times: np.ndarray) -> tuple:
    """A spatial-only or separable kind as ``covs[i] = rho_i K_t``: the eigenbasis Q (of ``L^T L``
    for the Laplacian kernel, of ``L`` for the graph Matern), the spatial variances rho (n,), K_t
    (T, T) at ``times``, all ones for the spatial-only kinds, and a thunk for
    ``dK_t / d log time_lengthscale``."""
    spatial = spec.spatial if spec.kind == "separable_product" else spec
    if spatial.kind == "matern_spatial":
        frac = fractional_from_graph(
            graph, spatial.laplacian_variant, spatial.hyper["nu"], spatial.hyper["kappa"]
        )
        basis, rho = frac.basis, spatial.variance * frac.shifted_eigs**-2.0
    else:
        dec = laplacian_spectrum(graph, spatial.laplacian_variant, squared=True)
        cutoff = NULL_SPACE_RTOL * np.max(np.abs(dec.eigenvalues), initial=0.0)
        keep = np.abs(dec.eigenvalues) > cutoff
        rho = np.zeros_like(dec.eigenvalues)
        rho[keep] = spatial.variance / dec.eigenvalues[keep]
        basis = dec.basis
    t, s = times[:, None], times[None, :]
    if spec.kind != "separable_product":
        return basis, rho, np.ones((t.size, t.size)), lambda: np.zeros((t.size, t.size))
    args = (spec.temporal_kind, spec.hyper, t, s)
    temporal = temporal_kernel(*args)
    return basis, rho, temporal, lambda: temporal_kernel_dlog_lengthscale(temporal, *args)


def _mode_variances(spec: KernelSpec, graph: Graph, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis Q and each mode's prior variance ``k_i(t, t)`` (n, T) at ``times``, in closed form: the
    diagonal of :func:`_process_covariances`'s stack for SHEK/SWEK (SWEK's from the same generators),
    ``rho_i K_t(t, t)`` (:func:`_factors`) for the other kinds, bit for bit, without forming the (n, T, T) stack."""
    if spec.kind in ("shek", "swek"):
        c, sigma, nu, kappa = (spec.hyper[name] for name in ("c", "sigma", "nu", "kappa"))
        frac = fractional_from_graph(graph, spec.laplacian_variant, nu, kappa)
        mu = frac.shifted_eigs.reshape(-1, 1)
        if spec.kind == "shek":
            return frac.basis, _shek_eig(mu, c, sigma, times[None], times[None])
        return frac.basis, _rank_sum(*_swek_generators(c * np.sqrt(mu), sigma, times)[:2])
    basis, rho, temporal, _ = _factors(spec, graph, times)
    return basis, rho[:, None] * np.diagonal(temporal)


def _process_covariances(
    spec: KernelSpec, graph: Graph, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[Sequence[str]], Iterator[np.ndarray]]]:
    """SHEK/SWEK's eigenbasis Q and per-mode covariances (n, T, T) at ``times``, a new stack the caller owns,
    and the map from ``c``, ``nu`` and ``kappa`` (not the scale, :func:`_scale`) to their derivatives in their
    logs, one at a time.  SWEK's stack and derivatives are outer products of its (n, T) generators
    (:func:`_swek_generators`, :func:`_swek_stack`), so its transcendentals are evaluated once per mode and time.
    SHEK's entries are symmetric in (t, s), so each pair of times is evaluated once and mirrored, and its
    derivatives take the evaluated upper triangle as their value ``k``."""
    c, sigma, nu, kappa = (spec.hyper[name] for name in ("c", "sigma", "nu", "kappa"))
    frac = fractional_from_graph(graph, spec.laplacian_variant, nu, kappa)
    mu = frac.shifted_eigs.reshape(-1, 1)  # one mode per row
    # SHEK depends on (c, mu) through c mu and SWEK through c sqrt(mu),
    # so the log-mu derivative is the log-c one times 1 or 1/2.
    if spec.kind == "swek":
        rows, cols, d_rows, d_cols = _swek_generators(c * np.sqrt(mu), sigma, times)

        def derivatives(wrt: Sequence[str]) -> Iterator[np.ndarray]:
            log_mu_by = _log_mu_by(mu, nu, kappa)
            return (_swek_stack(d_rows if name == "c" else [r * (0.5 * log_mu_by[name]) for r in d_rows], d_cols,
                                times) for name in wrt)

        return frac.basis, _swek_stack(rows, cols, times), derivatives
    n_times = times.shape[0]
    pairs = np.triu_indices(n_times)
    t, s = times[pairs[0]][None], times[pairs[1]][None]

    def mirrored(packed: np.ndarray) -> np.ndarray:
        full = np.empty((packed.shape[0], n_times, n_times))
        full[:, pairs[0], pairs[1]] = full[:, pairs[1], pairs[0]] = packed
        return full

    packed = _shek_eig(mu, c, sigma, t, s)

    def derivatives(wrt: Sequence[str]) -> Iterator[np.ndarray]:
        d_log_c = _shek_eig_dlog_rate(packed, mu, c, sigma, t, s)
        log_mu_by = _log_mu_by(mu, nu, kappa)
        return (mirrored(d_log_c if name == "c" else d_log_c * log_mu_by[name]) for name in wrt)

    return frac.basis, mirrored(packed), derivatives


def _log_mu_by(mu: np.ndarray, nu: float, kappa: float) -> dict[str, np.ndarray]:
    """The derivatives of each ``log mu_i`` in log nu and log kappa, for ``mu_i = (shift + lam_i)^(nu / 2)``
    with ``shift = 2 nu / kappa^2``, the shifted eigenvalues of :func:`graphs.fractional_from_graph`."""
    shift = 2.0 * nu / kappa**2
    shifted = mu ** (2.0 / nu)
    return {"nu": 0.5 * nu * (np.log(shifted) + shift / shifted), "kappa": -nu * shift / shifted}


def assemble_gram(spec: KernelSpec, graph: Graph, points: Sequence[STPoint]) -> GramMatrix:
    """N x N Gram matrix of the kernel over the given (vertex, time) points.

    A gather from the per-mode covariances (``_process_covariances``, ``_factors``) at
    the points' T distinct times; the same gathers also form a rectangular block
    K(rows, columns).  SHEK/SWEK gather one distinct row time at a time, in
    O(n T^2 + n N + N^2) memory: the (n, T, T) stack, one n x N slice of it
    and the Gram.  The other kinds are ``covs[i] = rho_i K_t`` (:func:`_factors`;
    K_t all ones for the spatial-only kinds), so their spatial factor
    ``Q rho Q^T`` and K_t gather apart in O(n^2 + T^2 + N^2), whatever the
    times: one N x N array, plus scratch of an eighth of it.
    """
    points = tuple(points)
    return GramMatrix(matrix=_gram_and_derivatives(spec, graph, _coordinates(points))[0], points=points)


def _coordinates(points: Sequence[STPoint]) -> tuple[np.ndarray, np.ndarray]:
    """The points' (N,) vertices and (N,) times."""
    return np.array([p.vertex for p in points], dtype=int), np.array([p.time for p in points], dtype=float)


def _gram_and_derivatives(
    spec: KernelSpec, graph: Graph, rows: tuple[np.ndarray, np.ndarray], columns: tuple | None = None
) -> tuple[np.ndarray, Callable[[Sequence[str]], Iterator[np.ndarray]]]:
    """The Gram over the points ``rows``, (N,) vertices and (N,) times, or with ``columns`` in that form the
    block K(rows, columns), and the map from names (those of :func:`_process_covariances`, or a separable
    ``time_lengthscale``; not the scale) to its derivatives in their logs, one array at a time, gathered from
    the covariances this call evaluated at the distinct times of both sets as the Gram is, a separable
    lengthscale as the spatial factor times dK_t.  The Gram is a new array, the caller's; the map never reads it."""
    n_rows = rows[0].shape[0]
    if not n_rows:
        raise DataError("need at least one point")
    v_idx, t_val = rows if columns is None else (np.concatenate(pair) for pair in zip(rows, columns))
    if np.any(v_idx >= graph.n_vertices):
        bad = v_idx[v_idx >= graph.n_vertices][0]
        raise DataError(f"point references vertex {bad} outside the graph")
    times, t_idx = np.unique(t_val, return_inverse=True)
    if spec.kind in ("shek", "swek"):
        factor, values, derivs_of = _process_covariances(spec, graph, times)
        gather = _row_time_gather
    else:
        # before the Gram exists, so that the T x T temporaries of K_t never coexist with it
        basis, rho, values, d_values = _factors(spec, graph, times)
        derivs_of = lambda wrt: [d_values() for _ in wrt]
        gather, factor = _factored_gather, (basis * rho) @ basis.T
    rows = v_idx[:n_rows], t_idx[:n_rows]
    cols = rows if columns is None else (v_idx[n_rows:], t_idx[n_rows:])
    gram = gather(factor, values, rows, cols)
    if columns is None:
        _symmetrize(gram)
    return gram, lambda wrt: (gather(factor, d, rows, cols) for d in derivs_of(wrt))


def _row_time_gather(basis: np.ndarray, covs: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """``sum_i Q[v, i] covs[i, a, b] Q[w, i]`` between every (vertex v, time index a) of ``rows``
    and (w, b) of ``cols``, the rows at each distinct time a as one product
    ``Q[V_a] @ (covs[:, a, b] * Q[w]^T)``: nothing larger than n x len(cols) is formed beside it.
    The rows at a enter the product in vertex order, so a row's bits do not depend on the order
    of the rows (BLAS may sum a row at the edge of a tile in another order)."""
    (v_row, t_row), (v_col, t_col) = rows, cols
    right = basis[v_col].T
    gram = np.empty((v_row.shape[0], v_col.shape[0]))
    for a in np.unique(t_row):
        at = np.flatnonzero(t_row == a)
        at = at[np.argsort(v_row[at], kind="stable")]
        gram[at] = basis[v_row[at]] @ (covs[:, a].take(t_col, axis=1) * right)
    return gram


def _factored_gather(spatial: np.ndarray, temporal: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """``spatial[v, w] * temporal[a, b]`` between every (vertex v, time index a) of ``rows`` and
    (w, b) of ``cols``, one band of rows at a time."""
    (v_row, t_row), (v_col, t_col) = rows, cols
    gram = spatial.take(v_row, axis=0).take(v_col, axis=1)
    for band in _row_bands(gram.shape[0]):
        gram[band] *= temporal.take(t_row[band], axis=0).take(t_col, axis=1)
    return gram


def _row_bands(n: int) -> list[slice]:
    """Eight bands of rows: the scratch a band needs is an eighth of the Gram."""
    step = max(1, -(-n // 8))
    return [slice(start, start + step) for start in range(0, n, step)]


def _symmetrize(gram: np.ndarray) -> None:
    """``gram <- (gram + gram.T) / 2`` in place, one band of rows at a time,
    so that no second N x N array is made (``gram += gram.T`` copies the
    overlapping transpose whole)."""
    for rows in _row_bands(gram.shape[0]):
        start = rows.start
        mean = gram[rows, start:] + gram[start:, rows].T
        mean *= 0.5
        gram[rows, start:] = mean
        gram[start:, rows] = mean.T


def _check_times(t: float, s: float) -> None:
    if t < 0 or s < 0:
        raise DataError(f"process kernels need t, s >= 0, got t={t}, s={s}")


def _check_positive(**named: float) -> None:
    for name, value in named.items():
        if not (np.isfinite(value) and value > 0):
            raise DataError(f"{name} must be strictly positive, got {value}")


def _param(params: Mapping[str, float], name: str) -> float:
    if name not in params:
        raise DataError(f"temporal kernel parameter {name!r} is required")
    return float(params[name])
