"""Graph construction and Laplacian matrices.

Vertices are canonically ordered by sorted label so that every matrix built
from a graph is reproducible across runs and file formats.  Three Laplacian
variants are provided (unnormalized ``D - W``, symmetric-normalized,
random-walk) plus the shifted fractional Laplacian
``(2 nu / kappa^2 I + L)^(nu / 2)`` that underlies the Matern-style kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .exceptions import DataError
from .spectral import SpectralDecomposition, _lift, eigendecompose_symmetric

LAPLACIAN_VARIANTS = ("unnormalized", "sym_normalized", "random_walk")

# Eigenvalues of a PSD Laplacian more negative than this (relative to the
# spectral radius) indicate a genuinely indefinite input rather than round-off.
_PSD_ROUNDOFF_RTOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Weighted graph; immutable and safe to share across threads.

    Edges are stored once as ``(i, j, w)`` index triples against the sorted
    label order.  For undirected graphs the Laplacian treats ``(j, i)``
    identically.
    """

    n_vertices: int
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]
    directed: bool = False

    def __post_init__(self):
        if self.n_vertices <= 0:
            raise DataError("graph needs at least one vertex")
        if len(self.labels) != self.n_vertices:
            raise DataError("label count does not match n_vertices")
        if len(set(self.labels)) != self.n_vertices:
            raise DataError("vertex labels must be pairwise distinct")
        for i, j, w in self.edges:
            if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
                raise DataError(f"edge ({i}, {j}) references a missing vertex")
            if i == j:
                raise DataError(f"self-loop at vertex {self.labels[i]!r} is not allowed")
            if not (w > 0 and np.isfinite(w)):
                raise DataError(f"edge ({i}, {j}) has non-positive weight {w}")

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix W; symmetric when the graph is undirected."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        for i, j, wt in self.edges:
            w[i, j] += wt
            if not self.directed:
                w[j, i] += wt
        w.setflags(write=False)
        return w

    @cached_property
    def degrees(self) -> np.ndarray:
        """Accumulated edge weights per vertex (out-weights when directed)."""
        d = self.weight_matrix.sum(axis=1)
        d.setflags(write=False)
        return d


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """A realized Laplacian with its variant tag."""

    matrix: np.ndarray
    variant: str
    symmetric: bool

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FractionalLaplacian:
    """Shifted fractional power of a symmetric Laplacian.

    Holds the spectral decomposition of the base Laplacian; the operator's
    eigenvalues are ``(2 nu / kappa^2 + lam_i)^(nu / 2)`` in the same basis.
    The positive shift makes the operator strictly positive definite, hence
    invertible, and every kernel formula downstream is evaluated on
    ``shifted_eigs`` through this shared decomposition.
    """

    nu: float
    kappa: float
    base_decomposition: SpectralDecomposition
    shifted_eigs: np.ndarray

    def __post_init__(self):
        self.shifted_eigs.setflags(write=False)

    @property
    def basis(self) -> np.ndarray:
        return self.base_decomposition.basis

    @cached_property
    def matrix(self) -> np.ndarray:
        return _lift(self.basis, self.shifted_eigs)


def build_graph(
    labels: Iterable[str],
    edges: Iterable[tuple[str, str, float]] | Iterable[tuple[str, str]],
    directed: bool = False,
) -> Graph:
    """Build a graph from labelled edges; vertex order is the sorted labels.

    Edge tuples are ``(src, dst, weight)``; the weight may be omitted and
    defaults to 1.  Duplicate labels, unknown endpoints, self-loops and
    non-positive weights are rejected.
    """
    label_list = list(labels)
    if len(set(label_list)) != len(label_list):
        raise DataError("duplicate vertex labels")
    ordered = tuple(sorted(label_list))
    index = {lab: k for k, lab in enumerate(ordered)}

    seen: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int, float]] = []
    for edge in edges:
        if len(edge) == 2:
            src, dst = edge
            weight = 1.0
        else:
            src, dst, weight = edge
        if src not in index:
            raise DataError(f"edge endpoint {src!r} is not a declared vertex")
        if dst not in index:
            raise DataError(f"edge endpoint {dst!r} is not a declared vertex")
        i, j = index[src], index[dst]
        if i == j:
            raise DataError(f"self-loop at vertex {src!r} is not allowed")
        key = (i, j) if directed else (min(i, j), max(i, j))
        if key in seen:
            raise DataError(f"duplicate edge between {src!r} and {dst!r}")
        seen.add(key)
        weight = float(weight)
        if not (weight > 0 and np.isfinite(weight)):
            raise DataError(f"edge ({src!r}, {dst!r}) has non-positive weight {weight}")
        edge_list.append((i, j, weight))

    return Graph(
        n_vertices=len(ordered),
        labels=ordered,
        edges=tuple(edge_list),
        directed=directed,
    )


def laplacian(g: Graph, variant: str = "unnormalized") -> LaplacianMatrix:
    """Laplacian of ``g``: ``D - W``, ``D^-1/2 L D^-1/2`` or ``I - D^-1 W``.

    The normalized variants require every vertex degree to be positive.
    """
    if variant not in LAPLACIAN_VARIANTS:
        raise DataError(f"unknown Laplacian variant {variant!r}; expected one of {LAPLACIAN_VARIANTS}")
    w = g.weight_matrix
    d = g.degrees
    lap = np.diag(d) - w
    if variant != "unnormalized":
        zero = np.flatnonzero(d <= 0)
        if zero.size:
            raise DataError(
                f"variant {variant!r} requires positive degrees; "
                f"vertex {g.labels[zero[0]]!r} is isolated"
            )
        if variant == "sym_normalized":
            inv_sqrt = 1.0 / np.sqrt(d)
            lap = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
        else:
            lap = np.eye(g.n_vertices) - w / d[:, None]
    symmetric = bool(np.allclose(lap, lap.T, rtol=0.0, atol=1e-12 * max(np.max(np.abs(lap)), 1.0)))
    if symmetric:
        lap = (lap + lap.T) / 2.0
    return LaplacianMatrix(matrix=lap, variant=variant, symmetric=symmetric)


def fractional_laplacian(lap: LaplacianMatrix | np.ndarray, nu: float, kappa: float) -> FractionalLaplacian:
    """``(2 nu / kappa^2 I + L)^(nu / 2)`` realized on the spectrum of ``L``.

    Only symmetric Laplacians are supported (fractional powers of asymmetric
    matrices are out of scope).  For ``nu = 2`` the exponent is 1, so as
    ``kappa -> inf`` the operator coincides with ``L`` itself.
    """
    matrix = lap.matrix if isinstance(lap, LaplacianMatrix) else np.asarray(lap, dtype=float)
    if isinstance(lap, LaplacianMatrix) and not lap.symmetric:
        raise DataError("fractional powers require a symmetric Laplacian")
    return _fractional_on(eigendecompose_symmetric(matrix), nu, kappa)


def _fractional_on(dec: SpectralDecomposition, nu: float, kappa: float) -> FractionalLaplacian:
    if not (nu > 0 and kappa > 0):
        raise DataError(f"nu and kappa must be positive, got nu={nu}, kappa={kappa}")
    lam = dec.eigenvalues.copy()
    # Round-off can leave a PSD Laplacian's zero mode slightly negative; clamp
    # it so tiny shifts (large kappa) cannot produce a complex power.
    scale = np.max(np.abs(lam), initial=0.0)
    roundoff = (lam < 0) & (lam >= -_PSD_ROUNDOFF_RTOL * max(scale, 1.0))
    lam[roundoff] = 0.0
    shift = 2.0 * nu / kappa**2
    shifted = shift + lam
    if np.any(shifted <= 0):
        raise DataError(
            "shifted spectrum is not positive definite; "
            f"min(2 nu / kappa^2 + lam) = {shifted.min():.3e}"
        )
    return FractionalLaplacian(
        nu=float(nu),
        kappa=float(kappa),
        base_decomposition=dec,
        shifted_eigs=shifted ** (nu / 2.0),
    )


@lru_cache(maxsize=128)
def laplacian_spectrum(g: Graph, variant: str, squared: bool = False) -> SpectralDecomposition:
    """Memoized eigendecomposition of ``L`` or, when ``squared``, of ``L^T L``.

    These are the two operators every kernel's eigenmodes live on: ``L`` for
    the graph Matern, SHEK and SWEK kernels, ``L^T L`` for the Laplacian
    kernel (it equals ``L^2`` for the symmetric variants, and is the only
    symmetric choice for ``random_walk``).  One ``eigh`` per (graph,
    variant, operator) serves every Gram, likelihood and gradient.
    """
    lap = laplacian(g, variant)
    if squared:
        return eigendecompose_symmetric(lap.matrix.T @ lap.matrix)
    if not lap.symmetric:
        raise DataError("fractional powers require a symmetric Laplacian")
    return eigendecompose_symmetric(lap.matrix)


def fractional_from_graph(g: Graph, variant: str, nu: float, kappa: float) -> FractionalLaplacian:
    """Fractional Laplacian per (graph, variant, nu, kappa), as an O(n) view
    over the memoized spectrum of the graph's Laplacian."""
    return _fractional_on(laplacian_spectrum(g, variant), float(nu), float(kappa))


def line_graph(n_nodes: int, weight: float = 1.0) -> Graph:
    """Path graph with zero-padded labels (sorted label order = path order)."""
    if n_nodes < 1:
        raise DataError("line graph needs at least one vertex")
    width = max(2, len(str(n_nodes - 1)))
    labels = [f"v{i:0{width}d}" for i in range(n_nodes)]
    edges = [(labels[i], labels[i + 1], weight) for i in range(n_nodes - 1)]
    return build_graph(labels, edges, directed=False)
