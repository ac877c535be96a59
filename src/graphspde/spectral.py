"""Dense symmetric eigendecomposition and spectrum-lifted matrix functions.

Every covariance in this package is a function of one symmetric operator
evaluated on its spectrum, so a single eigendecomposition feeds all of the
matrix functions (exp, fractional powers, sqrt, cos/sin, inverses).  The
jittered Cholesky that sampling uses lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .exceptions import DataError, FactorizationError, NumericError

# Relative eigenvalue cutoff separating a connected Laplacian's structural
# zero mode from round-off.
NULL_SPACE_RTOL = 1e-10

_SYMMETRY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.basis.setflags(write=False)

    def reconstruct(self) -> np.ndarray:
        """basis @ diag(eigenvalues) @ basis.T."""
        return matrix_function(self, lambda lam: lam)


def eigendecompose_symmetric(a: np.ndarray) -> SpectralDecomposition:
    """Full spectrum and orthonormal basis of a symmetric matrix.

    The input may carry round-off asymmetry up to ``1e-8 * max|a|``; it is
    symmetrized as ``(a + a.T) / 2`` before factorization.  Anything worse
    raises :class:`DataError`.  An exactly symmetric input, as every kernel
    here builds, is factorized as it is: symmetrizing it would give its bits.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    diff = a - a.T
    if diff.any():
        asym, scale = np.max(np.abs(diff)), np.max(np.abs(a))
        if asym > _SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
            raise DataError(
                f"matrix is not symmetric: max|a - a.T| = {asym:.3e} "
                f"exceeds {_SYMMETRY_RTOL:.0e} * max|a| = {_SYMMETRY_RTOL * scale:.3e}"
            )
        a = (a + a.T) / 2.0
    eigenvalues, basis = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=eigenvalues, basis=basis)


def matrix_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Lift the scalar function ``f`` to the matrix: basis @ diag(f(lam)) @ basis.T.

    ``f`` receives the full eigenvalue array and must return finite values at
    every eigenvalue (e.g. a negative power at lambda = 0 is rejected).
    """
    with np.errstate(all="ignore"):
        vals = np.asarray(f(dec.eigenvalues), dtype=float)
    if vals.shape != dec.eigenvalues.shape:
        raise DataError("scalar function must map the eigenvalue array elementwise")
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise NumericError(f"matrix function undefined at eigenvalue(s) {bad}")
    return _lift(dec.basis, vals)


def _lift(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``basis @ diag(values) @ basis.T``, symmetrized as ``(out + out.T) / 2``."""
    out = (basis * values) @ basis.T
    return (out + out.T) / 2.0


def pseudoinverse(a: np.ndarray, rel_tol: float = NULL_SPACE_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues with ``|lam| <= rel_tol * max|lam|`` are treated as the null
    space and mapped to zero; the rest map to ``1 / lam``.
    """
    dec = eigendecompose_symmetric(a)
    cutoff = rel_tol * np.max(np.abs(dec.eigenvalues), initial=0.0)

    def inv(lam: np.ndarray) -> np.ndarray:
        keep = np.abs(lam) > cutoff
        out = np.zeros_like(lam)
        out[keep] = 1.0 / lam[keep]
        return out

    return matrix_function(dec, inv)


def cholesky_jittered(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower-triangular Cholesky factor of ``a + jitter * I``.

    Tries jitter 0 first, then escalates by decades from
    ``1e-10 * mean(diag(a))`` through eight decades.  Returns the factor and
    the jitter actually used; raises :class:`FactorizationError` if the
    matrix is still indefinite at the maximum jitter.  Sampling uses it,
    where a singular covariance is expected; no likelihood is jittered.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise FactorizationError("matrix contains non-finite entries")
    n = a.shape[0]
    mean_diag = float(np.mean(np.diag(a))) if n else 0.0
    base = 1e-10 * mean_diag if mean_diag > 0 else 1e-10
    jitters = [0.0] + [base * 10.0**k for k in range(9)]
    diag = np.diag_indices(n)
    for jitter in jitters:
        # scipy copies its input; only a shifted matrix needs a copy of our own
        shifted = a
        if jitter > 0:
            shifted = a.copy()
            shifted[diag] += jitter
        try:
            factor = scipy.linalg.cholesky(shifted, lower=True, check_finite=False)
            return factor, jitter
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"matrix is not positive definite even with jitter {jitters[-1]:.3e}"
    )
