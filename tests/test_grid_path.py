"""Oracle tests of the complete-grid likelihood path against the dense path.

On a complete vertex x time grid the likelihood splits into one temporal
problem per Laplacian eigenmode, with an exact gradient.  These tests hold
that path to the dense N x N likelihood and to finite differences.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphspde
from graphspde import (
    FitOptions,
    GPModel,
    KernelSpec,
    STPoint,
    SpatioTemporalDataset,
    assemble_gram,
    fit,
    line_graph,
    log_marginal_likelihood,
)
from graphspde.experiments import _data_scaled_spec
from graphspde.gp import (
    _detect_grid,
    _lml_from_gram,
    _make_objective,
    _optimizable_names,
    _prepare,
)

from conftest import random_graph

TEMPORAL = ("rbf", "exponential", "brownian", "cosine")
VARIANTS = ("unnormalized", "sym_normalized")


def grid_dataset(rng: np.random.Generator, graph, n_times: int) -> SpatioTemporalDataset:
    """Every vertex at every one of ``n_times`` random times, rows shuffled."""
    times = np.sort(rng.choice(np.arange(0.0, 8.0, 0.25), size=n_times, replace=False))
    points = [STPoint(v, float(t)) for t in times for v in range(graph.n_vertices)]
    order = rng.permutation(len(points))
    y = rng.standard_normal(len(points))
    return SpatioTemporalDataset(
        graph=graph, observations=tuple((points[k], float(y[k])) for k in order)
    )


def random_spec(rng: np.random.Generator, kind: str, large_kappa: bool = False) -> KernelSpec:
    """A kernel of ``kind`` with random hyperparameters (``laplacian`` and
    ``matern`` are the spatial-only kinds); ``large_kappa`` gives
    SHEK/SWEK near-zero modes (a graph Matern with such a kappa has spatial
    variances near kappa^(2 nu), too ill-conditioned to difference)."""
    variant = str(rng.choice(VARIANTS))
    kappa = float(rng.uniform(0.5, 3.0))
    if kind in ("shek", "swek"):
        if large_kappa:
            kappa = float(rng.uniform(1e3, 1e4))
        hyper = {
            "c": float(rng.uniform(0.2, 3.0)),
            "sigma": float(rng.uniform(0.5, 2.0)),
            "nu": float(rng.uniform(0.5, 2.5)),
            "kappa": kappa,
        }
        return KernelSpec(kind=kind, hyper=hyper, laplacian_variant=variant)
    if kind == "laplacian":
        variant = str(rng.choice(VARIANTS + ("random_walk",)))
        hyper = {"variance": float(rng.uniform(0.5, 2.0))}
        return KernelSpec(kind="laplacian_spatial", hyper=hyper, laplacian_variant=variant)
    if kind == "matern":
        hyper = {"nu": float(rng.uniform(0.5, 2.5)), "kappa": kappa, "variance": float(rng.uniform(0.5, 2.0))}
        return KernelSpec(kind="matern_spatial", hyper=hyper, laplacian_variant=variant)
    spatial_kind, temporal_kind = kind.split("-")
    if spatial_kind == "matern":
        spatial = KernelSpec(
            kind="matern_spatial",
            hyper={"nu": float(rng.uniform(0.5, 2.5)), "kappa": kappa},
            laplacian_variant=str(rng.choice(VARIANTS)),
        )
    else:
        spatial = KernelSpec(
            kind="laplacian_spatial", hyper={}, laplacian_variant=str(rng.choice(VARIANTS))
        )
    hyper = {"variance": float(rng.uniform(0.5, 2.0))}
    if temporal_kind != "brownian":
        hyper["time_lengthscale"] = float(rng.uniform(0.5, 5.0))
    return KernelSpec(
        kind="separable_product",
        hyper=hyper,
        temporal_kind=temporal_kind,
        laplacian_variant=variant,
        spatial=spatial,
    )


GRID_KINDS = ["shek", "swek", "laplacian", "matern"] + [
    f"{s}-{t}" for s in ("laplacian", "matern") for t in TEMPORAL
]


def dense_lml(model: GPModel, data: SpatioTemporalDataset) -> float:
    prep = _prepare(model, data)
    gram = assemble_gram(model.kernel, data.graph, prep.points).matrix
    return _lml_from_gram(gram, model.noise_variance, prep.y)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(GRID_KINDS))
def test_grid_lml_matches_dense_lml(seed, kind):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    data = grid_dataset(rng, graph, int(rng.integers(2, 7)))
    model = GPModel(
        kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero"
    )
    assert _detect_grid(_prepare(model, data).points, graph.n_vertices) is not None
    np.testing.assert_allclose(log_marginal_likelihood(model, data), dense_lml(model, data), rtol=1e-10)


def test_grid_path_reads_the_spatial_sub_spec_variant():
    # the outer variant is unnormalized, the Matern sub-spec's is not
    graph = line_graph(4)
    spatial = KernelSpec(
        kind="matern_spatial", hyper={"nu": 1.0, "kappa": 1.0}, laplacian_variant="sym_normalized"
    )
    spec = KernelSpec(
        kind="separable_product",
        hyper={"time_lengthscale": 2.0},
        temporal_kind="rbf",
        laplacian_variant="unnormalized",
        spatial=spatial,
    )
    rng = np.random.default_rng(0)
    points = [STPoint(v, float(t)) for t in range(1, 6) for v in range(4)]
    data = SpatioTemporalDataset(
        graph=graph, observations=tuple((p, float(rng.standard_normal())) for p in points)
    )
    model = GPModel(kernel=spec, noise_variance=0.1, mean_policy="zero")
    np.testing.assert_allclose(log_marginal_likelihood(model, data), dense_lml(model, data), rtol=1e-10)


def central_difference(fun, theta: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Five-point central differences, O(step^4) accurate."""
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        unit = np.zeros_like(theta)
        unit[i] = step
        grad[i] = (
            -fun(theta + 2 * unit) + 8 * fun(theta + unit) - 8 * fun(theta - unit) + fun(theta - 2 * unit)
        ) / (12 * step)
    return grad


def check_gradient(model: GPModel, data: SpatioTemporalDataset, optimize_nu_kappa: bool) -> None:
    names = _optimizable_names(model.kernel, optimize_nu_kappa) + ["noise"]
    objective = _make_objective(model, data, names)
    theta = np.log(
        [model.noise_variance if name == "noise" else model.kernel.hyper.get(name, 1.0) for name in names]
    )
    value = objective.value(theta)
    assert math.isfinite(value)
    exact = objective.gradient(theta, value)
    reference = central_difference(objective.value, theta)
    assert np.max(np.abs(exact - reference)) <= 1e-5 * np.max(np.abs(reference)) + 1e-8, (
        names,
        exact,
        reference,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(GRID_KINDS),
    optimize_nu_kappa=st.booleans(),
    large_kappa=st.booleans(),
)
def test_exact_grid_gradient_matches_central_differences(seed, kind, optimize_nu_kappa, large_kappa):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 5)
    data = grid_dataset(rng, graph, int(rng.integers(2, 6)))
    model = GPModel(
        kernel=random_spec(rng, kind, large_kappa),
        noise_variance=float(rng.uniform(0.05, 0.5)),
        mean_policy="zero",
    )
    check_gradient(model, data, optimize_nu_kappa)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), optimize_nu_kappa=st.booleans())
def test_exact_swek_gradient_in_the_small_theta_series(seed, optimize_nu_kappa):
    # c sqrt(mu) max(t) stays below 1e-3 for every mode, so every value
    # comes from the series expansion
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 5)
    data = grid_dataset(rng, graph, int(rng.integers(2, 6)))
    spec = random_spec(rng, "swek").with_hyper(c=float(rng.uniform(1e-7, 1e-6)), sigma=1e3)
    model = GPModel(kernel=spec, noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero")
    check_gradient(model, data, optimize_nu_kappa)


def test_noise_gradient_is_zero_below_the_noise_floor():
    graph = line_graph(3)
    rng = np.random.default_rng(1)
    data = grid_dataset(rng, graph, 4)
    model = GPModel(kernel=random_spec(rng, "shek"), noise_variance=0.1, mean_policy="zero")
    names = ["c", "sigma", "noise"]
    objective = _make_objective(model, data, names)
    theta = np.log([1.0, 1.0, 1e-14])
    grad = objective.gradient(theta, objective.value(theta))
    assert grad[2] == 0.0
    assert np.all(grad[:2] != 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(GRID_KINDS), complete=st.booleans())
def test_scale_probe_reads_the_gram_diagonal(seed, kind, complete):
    # the data-scaled start makes the mean prior variance over the training
    # points, read from the per-mode covariances, equal the data variance
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    data = grid_dataset(rng, graph, int(rng.integers(2, 7)))
    if not complete:
        data = replace(data, observations=data.observations[: max(1, len(data.observations) * 2 // 3)])
    scaled, target_var = _data_scaled_spec(random_spec(rng, kind), data, "zero")
    points = _prepare(GPModel(kernel=scaled, mean_policy="zero"), data).points
    diag_mean = np.mean(np.diag(assemble_gram(scaled, graph, points).matrix))
    np.testing.assert_allclose(diag_mean, target_var, rtol=1e-12)


@pytest.mark.parametrize("kind, optimize_nu_kappa", [("matern-rbf", False), ("shek", True)])
def test_fit_decomposes_each_operator_once(monkeypatch, kind, optimize_nu_kappa):
    original = graphspde.spectral.eigendecompose_symmetric
    calls = []

    def counting(a):
        calls.append(a.shape)
        return original(a)

    for module in (graphspde.graphs, graphspde.kernels, graphspde.spectral, graphspde.gp):
        if getattr(module, "eigendecompose_symmetric", None) is original:
            monkeypatch.setattr(module, "eigendecompose_symmetric", counting)
    graphspde.graphs.laplacian_spectrum.cache_clear()
    rng = np.random.default_rng(3)
    graph = line_graph(5)
    data = grid_dataset(rng, graph, 6)
    model = GPModel(kernel=random_spec(rng, kind), noise_variance=0.1, mean_policy="zero")
    fit(model, data, FitOptions(max_iters=20, restarts=1, optimize_nu_kappa=optimize_nu_kappa))
    assert len(calls) <= 1
