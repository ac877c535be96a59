"""Synthetic dataset generators and CSV ingestion/serialization.

Generators build the two line-graph benchmarks (heat transfer and a
standing wave); the CSV formats are deliberately small: an edge list
``src,dst,weight`` for graphs and a long-format ``node_id,t,y`` table for
node time series.  Floats round-trip exactly (17 significant digits).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError
from .gp import SpatioTemporalDataset
from .graphs import Graph, build_graph, line_graph
from .kernels import STPoint

SYNTHETIC_KINDS = ("heat_line", "wave_line")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic line-graph dataset.

    ``coefficient`` is the conductivity k for ``heat_line`` and the wave
    speed for ``wave_line``.  Timestamps must be positive and ascending
    (the heat profile is singular at t = 0).
    """

    kind: str
    n_nodes: int
    coefficient: float
    timestamps: tuple[float, ...]
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise DataError(f"unknown synthetic kind {self.kind!r}; expected one of {SYNTHETIC_KINDS}")
        if self.n_nodes < 2:
            raise DataError("a line graph needs at least 2 nodes")
        if self.coefficient <= 0:
            raise DataError("coefficient must be positive")
        if self.noise_sd < 0:
            raise DataError("noise_sd must be non-negative")
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.size == 0 or np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
            raise DataError("timestamps must be positive and strictly ascending")


def heat_profile(x: np.ndarray, t: float, k: float) -> np.ndarray:
    """Heat field ``5 / (4 pi k t) * exp(-x^2 / (4 k t))`` on the line."""
    return 5.0 / (4.0 * math.pi * k * t) * np.exp(-(x**2) / (4.0 * k * t))


def wave_profile(n_nodes: int, t: float, speed: float) -> np.ndarray:
    """Standing wave with fixed ends: ``cos(omega t) sin(pi i / (n-1))``.

    The fundamental frequency is ``omega = pi * speed / (n - 1)`` (node
    spacing 1), so faster waves oscillate faster in time.
    """
    idx = np.arange(n_nodes)
    omega = math.pi * speed / (n_nodes - 1)
    return math.cos(omega * t) * np.sin(math.pi * idx / (n_nodes - 1))


def _generate(spec: SyntheticSpec) -> tuple[Graph, SpatioTemporalDataset]:
    graph = line_graph(spec.n_nodes)
    rng = np.random.default_rng(spec.seed)
    observations = []
    # node coordinates for the heat profile: unit spacing centered at 0
    coords = np.arange(spec.n_nodes) - (spec.n_nodes - 1) / 2.0
    for t in spec.timestamps:
        if spec.kind == "heat_line":
            clean = heat_profile(coords, float(t), spec.coefficient)
        else:
            clean = wave_profile(spec.n_nodes, float(t), spec.coefficient)
        if spec.noise_sd > 0:
            clean = clean + rng.normal(0.0, spec.noise_sd, size=spec.n_nodes)
        for v in range(spec.n_nodes):
            observations.append((STPoint(vertex=v, time=float(t)), float(clean[v])))
    return graph, SpatioTemporalDataset(graph=graph, observations=tuple(observations))


def gen_heat_line(spec: SyntheticSpec) -> tuple[Graph, SpatioTemporalDataset]:
    """Heat-transfer dataset on a line graph (default benchmark: 21 nodes)."""
    if spec.kind != "heat_line":
        raise DataError(f"expected kind 'heat_line', got {spec.kind!r}")
    return _generate(spec)


def gen_wave_line(spec: SyntheticSpec) -> tuple[Graph, SpatioTemporalDataset]:
    """Standing-wave dataset on a line graph (default benchmark: 11 nodes)."""
    if spec.kind != "wave_line":
        raise DataError(f"expected kind 'wave_line', got {spec.kind!r}")
    return _generate(spec)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_graph_csv(graph: Graph, path: str | Path) -> None:
    """Edge list with header ``src,dst,weight``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "weight"])
        for i, j, w in graph.edges:
            writer.writerow([graph.labels[i], graph.labels[j], _fmt(w)])


def load_graph_csv(path: str | Path, directed: bool = False) -> Graph:
    """Read an edge list; the weight column is optional and defaults to 1.  A self-loop, a repeated edge
    (either way round, unless ``directed``) or a non-positive weight is reported with its line number."""
    edges: list[tuple[str, str, float]] = []
    labels: set[str] = set()
    seen: set[tuple[str, str]] = set()
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["src", "dst"]:
            raise DataError(f"{path}: expected header 'src,dst[,weight]'")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) not in (2, 3):
                raise DataError(f"{path}:{line_no}: expected 2 or 3 columns, got {len(row)}")
            src, dst = row[0].strip(), row[1].strip()
            if not src or not dst:
                raise DataError(f"{path}:{line_no}: empty endpoint")
            weight = _parse_float(row[2], path, line_no) if len(row) == 3 and row[2].strip() else 1.0
            if weight <= 0:
                raise DataError(f"{path}:{line_no}: edge ({src!r}, {dst!r}) has non-positive weight {weight}")
            if src == dst:
                raise DataError(f"{path}:{line_no}: self-loop at vertex {src!r} is not allowed")
            key = (src, dst) if directed else (min(src, dst), max(src, dst))
            if key in seen:
                raise DataError(f"{path}:{line_no}: duplicate edge between {src!r} and {dst!r}")
            seen.add(key)
            labels.update((src, dst))
            edges.append((src, dst, weight))
    if not labels:
        raise DataError(f"{path}: no edges found")
    return build_graph(sorted(labels), edges, directed=directed)


def write_series_csv(dataset: SpatioTemporalDataset, path: str | Path) -> None:
    """Long-format node series with header ``node_id,t,y``."""
    labels = dataset.graph.labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "t", "y"])
        for point, y in dataset.observations:
            writer.writerow([labels[point.vertex], _fmt(point.time), _fmt(y)])


def load_series_csv(path: str | Path, graph: Graph) -> SpatioTemporalDataset:
    """Read a long-format series, resolving node ids against the graph.

    Unknown nodes, malformed or non-finite rows, and duplicate (node, t)
    pairs are reported as errors with their line number, never skipped.
    """
    observations: list[tuple[STPoint, float]] = []
    seen: set[tuple[int, float]] = set()
    vertex_of = {label: vertex for vertex, label in enumerate(graph.labels)}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["node_id", "t", "y"]:
            raise DataError(f"{path}: expected header 'node_id,t,y'")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{line_no}: expected 3 columns, got {len(row)}")
            node = row[0].strip()
            vertex = vertex_of.get(node)
            if vertex is None:
                raise DataError(f"{path}:{line_no}: unknown node {node!r}")
            t = _parse_float(row[1], path, line_no)
            if t < 0:
                raise DataError(f"{path}:{line_no}: time must be >= 0, got {t}")
            y = _parse_float(row[2], path, line_no)
            key = (vertex, t)
            if key in seen:
                raise DataError(f"{path}:{line_no}: duplicate observation for ({node!r}, {t})")
            seen.add(key)
            observations.append((STPoint(vertex=vertex, time=t), y))
    if not observations:
        raise DataError(f"{path}: no observations found")
    return SpatioTemporalDataset(graph=graph, observations=tuple(observations))


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}:{line_no}: malformed number {text!r}") from None
    if not np.isfinite(value):
        raise DataError(f"{path}:{line_no}: non-finite value {text!r}")
    return value
