"""Euler-Maruyama integration of the graph heat and wave SDEs.

The path ensembles produced here are the independent Monte Carlo oracle for
every analytic covariance in :mod:`graphspde.kernels`: the simulator never
touches a kernel formula, only the SDE drift and diffusion.

Both SDEs are linear, so one step of a row of path states is
``x <- x S + xi K`` (heat: x = u; wave: x = (u, v) under the semi-implicit
step).  Over one save interval of b steps the chain is again linear and
Gaussian: ``x <- x S^b + eta`` with ``eta ~ N(0, C_b)`` and
``C_b = sum_{j<b} (K S^j)^T (K S^j)``.  ``S^b`` and ``C_b`` come from the step
matrices alone, by doubling, so each path advances once per saved time,
``x <- x S^b + z L`` with ``L^T L = C_b``.  The saved states follow exactly
the law of the Euler-Maruyama chain, its dt bias included: no ``expm`` and no
kernel formula enters.

Reproducibility: one generator, ``default_rng(seed)``, draws the z of every
path in path-major order, so path k reads the same stretch of the stream for
any ``n_paths > k``.  Paths run in chunks of _CHUNK rows, each drawing its
(rows, intervals, m) normals into one reused buffer.  Each save copies them
into a (_CHUNK, m) block whose spare rows stay zero, so every GEMM runs on all
_CHUNK rows, since BLAS takes other kernels for other row counts.  So a path's
numbers do not depend on the ensemble size, and memory is the saved paths
plus at most _CHUNK paths' normals.  Input checks and stability guards are
hard preconditions, not silent clamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, StabilityError

_CHUNK = 256


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Sample paths on a uniform saved time grid.

    ``paths`` has shape (n_paths, len(times), n_vertices).  ``dt`` is the
    integration step; the saved grid step is ``dt * save_stride`` when the
    simulation subsamples its output.
    """

    times: np.ndarray
    paths: np.ndarray
    seed: int
    dt: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.paths.setflags(write=False)
        steps = np.diff(self.times)
        if np.any(steps <= 0) or (steps.size and not np.allclose(steps, steps[0], rtol=1e-9)):
            raise DataError("saved time grid must be strictly increasing and uniform")
        if not np.all(np.isfinite(self.paths)):
            raise DataError("paths contain non-finite values")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def index_of_time(self, t: float) -> int:
        """Index of ``t`` on the saved grid (must lie on it)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if not np.isclose(self.times[idx], t, rtol=0.0, atol=1e-9 * max(abs(t), 1.0)):
            raise DataError(f"time {t} is not on the saved grid")
        return idx


def _plan_steps(dt: float, t_end: float, save_stride: int) -> tuple[int, np.ndarray]:
    if not (np.isfinite(dt) and dt > 0 and np.isfinite(t_end)):
        raise DataError(f"dt must be finite and positive and t_end finite, got {dt} and {t_end}")
    if save_stride < 1:
        raise DataError(f"save_stride must be >= 1, got {save_stride}")
    steps = int(round(t_end / dt))
    if steps < 1 or not np.isclose(steps * dt, t_end, rtol=1e-9):
        raise DataError(f"t_end={t_end} is not a positive multiple of dt={dt}")
    if steps % save_stride != 0:
        raise DataError(f"save_stride={save_stride} must divide the {steps} integration steps")
    return steps, np.arange(0, steps + 1, save_stride) * dt


def _checked(lt_matrix, c: float, noise, n_paths: int, *starts) -> tuple[np.ndarray, ...]:
    """``Lt``, the noise (a sigma >= 0 or an (n, n) matrix) and the start vectors."""
    lt = np.asarray(lt_matrix, dtype=float)
    n = lt.shape[0] if lt.ndim == 2 else -1
    noise = np.asarray(noise, dtype=float)
    starts = [np.asarray(x, dtype=float) for x in starts]
    if lt.shape != (n, n) or not np.all(np.isfinite(lt)):
        raise DataError(f"Lt must be a finite square matrix, got shape {lt.shape}")
    if not (np.isfinite(c) and c > 0) or n_paths < 1:
        raise DataError("need a finite c > 0 and n_paths >= 1")
    if (noise.shape not in ((), (n, n)) or not np.all(np.isfinite(noise))
            or (noise.ndim == 0 and noise < 0)):
        raise DataError(f"noise must be a finite sigma >= 0 or an ({n}, {n}) matrix")
    if any(x.shape not in ((), (n,)) or not np.all(np.isfinite(x)) for x in starts):
        raise DataError(f"initial states must be finite scalars or length-{n} vectors")
    return (lt, noise, *(np.broadcast_to(x, (n,)) for x in starts))


def _interval(step: np.ndarray, kick: np.ndarray,
              stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(S^b, C_b, L)`` of the chain ``x <- x @ step + xi @ kick`` over b = stride steps.

    ``(P, C)`` twice is ``(P P, P^T C P + C)``, and a set bit of b appends one
    step, so this takes O(log b) products of m x m matrices.  ``C_b`` is
    singular for sigma = 0 and for the wave at stride 1, so its root L, with
    ``L^T L = C_b``, comes from ``eigh`` with eigenvalues at rounding level
    set to 0: kept, their O(sqrt(eps)) rows would drive directions that no
    sum of steps reaches.
    """
    one = kick.T @ kick
    power, cov = step, one
    for bit in bin(stride)[3:]:
        power, cov = power @ power, power.T @ cov @ power + cov
        if bit == "1":
            power, cov = power @ step, step.T @ cov @ step + one
    w, v = np.linalg.eigh(cov)
    w[w <= len(w) * np.finfo(float).eps * w[-1]] = 0.0
    return power, cov, np.sqrt(w)[:, None] * v.T


def _propagate(step: np.ndarray, kick: np.ndarray, x0: np.ndarray, seed: int, n_paths: int,
               steps: int, save_stride: int) -> np.ndarray:
    """Saved (n_paths, saves, n) first n coordinates of ``x <- x @ step + xi @ kick``.

    Each save interval is one ``x <- x S^b + z L`` (see :func:`_interval`),
    with the z of all paths drawn in path-major order from one generator.
    An ``n_paths`` whose saved array numpy refuses to allocate raises
    :class:`DataError`.
    """
    n = kick.shape[0]
    try:
        out = np.empty((n_paths, steps // save_stride + 1, n))
    except (MemoryError, ValueError) as exc:
        raise DataError(f"n_paths={n_paths}: cannot allocate the saved paths ({exc})") from exc
    power, _, root = _interval(step, kick, save_stride)
    rng = np.random.default_rng(seed)
    z = np.empty((min(_CHUNK, n_paths), out.shape[1] - 1, len(root)))
    noise = np.empty((_CHUNK, len(root)))
    for start in range(0, n_paths, _CHUNK):
        rows = min(_CHUNK, n_paths - start)
        rng.standard_normal(out=z[:rows])
        noise[rows:] = 0.0
        x = np.tile(x0, (_CHUNK, 1))
        out[start:start + rows, 0] = x[:rows, :n]
        for saved in range(1, out.shape[1]):
            noise[:rows] = z[:rows, saved - 1]
            x = x @ power + noise @ root
            out[start:start + rows, saved] = x[:rows, :n]
    return out


def simulate_heat(
    lt_matrix: np.ndarray,
    c: float,
    noise: float | np.ndarray,
    u0: np.ndarray,
    dt: float,
    t_end: float,
    n_paths: int,
    seed: int,
    save_stride: int = 1,
) -> PathEnsemble:
    """Euler-Maruyama paths of ``du = -c Lt u dt + Noise dW_t``.

    ``noise`` is either a scalar sigma or an (n, n) matrix Sigma.  The
    explicit step ``u += -c Lt u dt + Noise sqrt(dt) xi`` requires
    ``dt * c * rho(Lt) < 0.5`` (spectral radius), otherwise
    :class:`StabilityError` is raised.
    """
    lt_matrix, noise, u0 = _checked(lt_matrix, c, noise, n_paths, u0)
    steps, times = _plan_steps(dt, t_end, save_stride)
    radius = float(np.max(np.abs(np.linalg.eigvals(lt_matrix))))
    if dt * c * radius >= 0.5:
        raise StabilityError(f"heat step unstable: dt * c * rho(Lt) = {dt * c * radius:.3f} >= 0.5")
    eye = np.eye(lt_matrix.shape[0])
    kick = np.sqrt(dt) * (noise * eye if noise.ndim == 0 else noise.T)
    paths = _propagate(eye - c * dt * lt_matrix.T, kick, u0, seed, n_paths, steps, save_stride)
    return PathEnsemble(times=times, paths=paths, seed=int(seed), dt=float(dt))


def simulate_wave(
    lt_matrix: np.ndarray,
    c: float,
    sigma: float,
    u0: np.ndarray,
    v0: np.ndarray,
    dt: float,
    t_end: float,
    n_paths: int,
    seed: int,
    save_stride: int = 1,
) -> PathEnsemble:
    """Paths of ``d^2u/dt^2 = -c^2 Lt u + sigma dW_t`` via the (u, v) system.

    Semi-implicit Euler-Maruyama on the augmented state: noise enters the
    velocity equation, and the position update uses the freshly updated
    velocity.  Requires ``c^2 * rho(Lt) * dt^2 < 0.1``.
    """
    if np.ndim(sigma):
        raise DataError("the wave takes a scalar sigma")
    lt_matrix, sigma, u0, v0 = _checked(lt_matrix, c, sigma, n_paths, u0, v0)
    steps, times = _plan_steps(dt, t_end, save_stride)
    radius = float(np.max(np.abs(np.linalg.eigvals(lt_matrix))))
    if c**2 * radius * dt**2 >= 0.1:
        raise StabilityError(
            f"wave step unstable: c^2 * rho(Lt) * dt^2 = {c**2 * radius * dt**2:.3g} >= 0.1")
    # row form of v += -c^2 dt Lt u + sigma sqrt(dt) xi, then u += dt v
    eye = np.eye(lt_matrix.shape[0])
    accel = c**2 * dt * lt_matrix.T
    step = np.block([[eye - dt * accel, -accel], [dt * eye, eye]])
    kick = sigma * np.sqrt(dt) * np.hstack([dt * eye, eye])
    paths = _propagate(step, kick, np.concatenate([u0, v0]), seed, n_paths, steps, save_stride)
    return PathEnsemble(times=times, paths=paths, seed=int(seed), dt=float(dt))


def empirical_cross_cov(
    ens: PathEnsemble, t_index: int, s_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample cross-covariance between two saved times, with its SE.

    Returns ``(cov, se)`` where ``cov[i, j]`` estimates
    ``Cov[u_i(t), u_j(s)]`` across paths and ``se[i, j]`` is the Monte Carlo
    standard error of that entry (std of the centered pathwise products over
    sqrt(n_paths)).
    """
    p = ens.n_paths
    if p < 2:
        raise DataError("need at least two paths for a covariance estimate")
    # (n, p) copies of the strided saved slices, so that the reductions run
    # along contiguous rows
    x, y = (ens.paths[:, index].T.copy() for index in (t_index, s_index))
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    cross = xc @ yc.T
    # sample variance of the pathwise products xc_i yc_j, from two GEMMs in
    # place of a (p, n, n) product tensor; rounding can leave it just below 0
    var = (xc**2 @ (yc**2).T - cross**2 / p) / (p - 1)
    return cross / (p - 1), np.sqrt(np.clip(var, 0.0, None) / p)
