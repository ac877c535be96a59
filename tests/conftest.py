"""Shared helpers: random graph generation and independent oracles."""

from __future__ import annotations

import numpy as np

from graphspde import Graph, STPoint, build_graph


def random_graph(rng: np.random.Generator, max_vertices: int, connected: bool = True) -> Graph:
    """Random undirected weighted graph; a spanning tree plus extra edges."""
    n = int(rng.integers(2, max_vertices + 1))
    labels = [f"v{i:02d}" for i in range(n)]
    edges = []
    seen = set()
    if connected:
        order = rng.permutation(n)
        for k in range(1, n):
            i = int(order[k])
            j = int(order[int(rng.integers(0, k))])
            seen.add((min(i, j), max(i, j)))
    n_extra = int(rng.integers(0, n))
    for _ in range(n_extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            seen.add((min(int(i), int(j)), max(int(i), int(j))))
    for i, j in sorted(seen):
        edges.append((labels[i], labels[j], float(rng.uniform(0.5, 2.0))))
    return build_graph(labels, edges)


def union_find_components(n: int, edges) -> int:
    """Independent connected-component count (no linear algebra)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(n)})


def mvn_logpdf_bruteforce(y: np.ndarray, cov: np.ndarray) -> float:
    """Direct multivariate-normal log-density via explicit inverse and slogdet."""
    n = y.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(cov) @ y - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))


def prepared_points(prep) -> list[STPoint]:
    """The points of a prepared data set (``gp._Prepared``), in its order, at their shifted times."""
    vertices, times = prep.coordinates
    return [STPoint(int(v), float(t)) for v, t in zip(vertices, times)]
