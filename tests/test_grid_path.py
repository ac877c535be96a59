"""Oracle tests of the vertex x time lattice likelihood path against the dense path.

On a vertex x time lattice the likelihood splits into one temporal problem
per Laplacian eigenmode; missing cells are corrected for by a Schur
complement.  These tests hold that path to the dense N x N likelihood and
its exact gradient, the exact gradient of both paths to finite differences,
and check which points take which path: a lattice input is answered on the
lattice alone.
"""

import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import graphspde
from graphspde import (
    DataError,
    FactorizationError,
    FitOptions,
    GPModel,
    KernelSpec,
    STPoint,
    SpatioTemporalDataset,
    SyntheticSpec,
    assemble_gram,
    fit,
    fractional_from_graph,
    gen_heat_line,
    line_graph,
    log_marginal_likelihood,
    predict,
    sampling_moments,
    shek_mean,
    swek_mean,
)
from graphspde.experiments import _data_scaled_spec
from graphspde.gp import (
    _Dense, _Lattice, _Roots, _detect_grid, _evaluator, _factorize, _missing_block, _optimizable_names, _prepare
)
from graphspde.graphs import build_graph
from graphspde.kernels import _factors, _scale, mode_covariances

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
    """The LML on the dense N x N path, whatever the points."""
    return _factorize(model.kernel, model.noise_variance, replace(_prepare(model, data), grid=None)).lml


def check_lattice_gradient_matches_dense(model: GPModel, data: SpatioTemporalDataset) -> None:
    """The lattice's exact gradient equals the dense path's on the same prep, in every name a fit
    varies (nu and kappa included) and the noise, to 1e-10 of the largest entry."""
    prep = _prepare(model, data)
    names = _optimizable_names(model.kernel, True) + ["noise"]
    lattice = _Lattice(model.kernel, model.noise_variance, prep, names).gradient()
    dense = _Dense(model.kernel, model.noise_variance, replace(prep, grid=None), names).gradient()
    assert np.any(dense), names  # a failed gradient reads all zeros
    assert np.max(np.abs(lattice - dense)) <= 1e-10 * np.max(np.abs(dense)), (names, lattice, dense)


def lattice_weight(lattice: _Lattice, covs: np.ndarray) -> np.ndarray:
    """The per-mode weights ``a_i a_i^T - W_i`` (n, T, T) of ``lattice``'s ``a``, with W_i from a dense
    inverse of each mode's ``A_i = covs[i] + s2 I``: ``W_i = A_i^-1 - G_i B^-1 G_i^T``, where E_i (T, M)
    moves the missing cells into mode i, ``G_i = A_i^-1 E_i`` and ``B = sum_i E_i^T G_i``."""
    grid, basis = lattice.prep.grid, lattice.basis
    inv = np.linalg.inv(covs + lattice.noise_variance * np.eye(covs.shape[1]))
    read = np.zeros((grid.times.shape[0], basis.shape[0]), dtype=bool)
    read[grid.cells] = True
    t_m, v_m = np.nonzero(~read)
    moved = np.zeros((basis.shape[1], grid.times.shape[0], t_m.shape[0]))
    moved[:, t_m, np.arange(t_m.shape[0])] = basis[v_m].T
    gain = inv @ moved
    weight = lattice.alpha @ lattice.alpha.swapaxes(1, 2) - inv
    if t_m.shape[0]:
        weight += gain @ np.linalg.solve(np.einsum("itm,itk->mk", moved, gain), gain.swapaxes(1, 2))
    return weight


def check_scale_entry_is_the_array_formula(model: GPModel, data: SpatioTemporalDataset) -> None:
    """On both paths, the gradient's scale entry, taken from ``y^T a``, N and the noise term,
    equals ``1/2 power vdot(a a^T - W, K)`` over the K that path factorizes (the lattice's
    per-mode stack, the dense Gram), to 1e-10 of the gradient's largest entry.  W comes from a
    dense inverse, not from the factorization (:func:`lattice_weight`)."""
    spec, prep = model.kernel, _prepare(model, data)
    scale, power = _scale(spec.kind)
    names = _optimizable_names(spec, True) + ["noise"]
    lattice = _Lattice(spec, model.noise_variance, prep, names)
    covs = mode_covariances(spec, prep.graph, prep.grid.times)[1]
    dense = _Dense(spec, model.noise_variance, replace(prep, grid=None), names)
    gram = assemble_gram(spec, prep.graph, prep.points).matrix
    dense_weight = np.outer(dense.alpha, dense.alpha) - np.linalg.inv(gram + dense.noise_variance * np.eye(len(gram)))
    for factorization, weight, cov in ((lattice, lattice_weight(lattice, covs), covs), (dense, dense_weight, gram)):
        grad = factorization.gradient()
        reference = 0.5 * power * np.vdot(weight, cov)
        assert np.any(grad), names
        assert abs(grad[names.index(scale)] - reference) <= 1e-10 * np.max(np.abs(grad)), (grad, reference)


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
    check_lattice_gradient_matches_dense(model, data)
    check_scale_entry_is_the_array_formula(model, data)


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


def check_gradient(model: GPModel, data: SpatioTemporalDataset, optimize_nu_kappa: bool, step: float = 1e-3) -> None:
    names = _optimizable_names(model.kernel, optimize_nu_kappa) + ["noise"]
    evaluate = _evaluator(model, data, names)
    theta = np.log(
        [model.noise_variance if name == "noise" else model.kernel.hyper.get(name, 1.0) for name in names]
    )
    point = evaluate(theta)
    assert math.isfinite(point.lml)
    exact = point.gradient()
    reference = central_difference(lambda th: evaluate(th).lml, theta, step)
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
    theta = np.log([1.0, 1.0, 1e-14])
    grad = _evaluator(model, data, names)(theta).gradient()
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


@pytest.mark.parametrize(
    "temporal_kind, hyper, names",
    [
        ("rbf", {"time_lengthscale": 2.0}, ["time_lengthscale", "variance"]),
        ("exponential", {"time_lengthscale": 2.0}, ["time_lengthscale", "variance"]),
        ("cosine", {"time_lengthscale": 2.0}, ["time_lengthscale", "variance"]),
        ("cosine", {"time_lengthscale": 2.0, "omega": 3.0}, ["variance"]),
        ("cosine", {"omega": 3.0}, ["variance"]),
        ("brownian", {"time_lengthscale": 2.0}, ["variance"]),
        ("brownian", {}, ["variance"]),
    ],
    ids=["rbf", "exponential", "cosine", "cosine-omega-lengthscale", "cosine-omega", "brownian-lengthscale",
         "brownian"],
)
def test_fit_varies_time_lengthscale_only_where_the_kernel_reads_it(temporal_kind, hyper, names):
    # an unread lengthscale is accepted on the spec, but its gradient is always 0
    spatial = KernelSpec(kind="laplacian_spatial", hyper={})
    spec = KernelSpec(kind="separable_product", hyper={**hyper, "variance": 1.5}, temporal_kind=temporal_kind,
                      spatial=spatial)
    assert _optimizable_names(spec, True) == names
    rng = np.random.default_rng(6)
    data = grid_dataset(rng, line_graph(4), 5)
    model = GPModel(kernel=spec, noise_variance=0.1, mean_policy="zero")
    grad = _evaluator(model, data, names + ["noise"])(theta_of(model, names + ["noise"])).gradient()
    assert np.all(grad != 0.0), grad


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
    # the 5 x 5 operator at most once; every other call is a separable value's 6 x 6 K_t
    assert calls.count((5, 5)) <= 1
    assert set(calls) - {(5, 5)} <= {(6, 6)}
    assert ((6, 6) in calls) == (kind == "matern-rbf")


def drop_cells(data: SpatioTemporalDataset, drop) -> SpatioTemporalDataset:
    """``data`` without the readings at the (vertex, time index) pairs in ``drop``."""
    times = list(data.times())
    kept = tuple(
        (p, y) for p, y in data.observations if (p.vertex, times.index(p.time)) not in drop
    )
    return replace(data, observations=kept)


def gappy_dataset(rng: np.random.Generator, graph, n_times: int, mask: str) -> SpatioTemporalDataset:
    """A lattice with missing cells: ``none`` (M = 0), ``half`` (M = N),
    ``vertex`` (one vertex at no time), ``single`` (a time with one
    reading) or ``random`` (0 < M <= N; a time may lose every reading).
    The dense sets: ``repeated`` (a complete grid plus second readings of
    some cells) and ``sparse`` (M > N)."""
    n = graph.n_vertices
    if mask == "half" and n * n_times % 2:
        n_times += 1
    data = grid_dataset(rng, graph, n_times)
    if mask == "none":
        drop = []
    elif mask == "half":
        order = rng.permutation(n)
        drop = [(v, a) for v in range(n) for a in range(n_times) if (order[v] + a) % 2]
    elif mask == "vertex":
        vertex = int(rng.integers(n))
        drop = [(vertex, a) for a in range(n_times)]
    elif mask == "single":
        a, keep = int(rng.integers(n_times)), int(rng.integers(n))
        drop = [(v, a) for v in range(n) if v != keep]
    elif mask == "random":
        cells = [(v, a) for v in range(n) for a in range(n_times)]
        count = int(rng.integers(1, len(cells) // 2 + 1))
        drop = [cells[k] for k in rng.choice(len(cells), count, replace=False)]
    elif mask == "repeated":
        again = rng.choice(len(data.observations), int(rng.integers(1, n + 1)), replace=False)
        observations = data.observations + tuple(
            (data.observations[k][0], float(rng.standard_normal())) for k in again
        )
        return replace(data, observations=observations)
    else:
        # every time keeps fewer than half of its cells, so M > N if n >= 3
        drop = []
        for a in range(n_times):
            keep = rng.choice(n, int(rng.integers(1, max(2, (n + 1) // 2))), replace=False)
            drop += [(v, a) for v in range(n) if v not in keep]
    return drop_cells(data, set(drop))


def lattice_missing(data: SpatioTemporalDataset) -> int:
    return len(data.times()) * data.graph.n_vertices - len(data.observations)


MASKS = ("none", "half", "vertex", "single", "random")
DENSE_MASKS = ("repeated", "sparse")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(GRID_KINDS), mask=st.sampled_from(MASKS))
def test_lattice_lml_with_missing_cells_matches_dense_lml(seed, kind, mask):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 7)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero"
    )
    grid = _detect_grid(_prepare(model, data).points, graph.n_vertices)
    assert grid is not None and grid.n_missing == lattice_missing(data)
    if mask == "half":
        assert grid.n_missing == len(data.observations)
    np.testing.assert_allclose(log_marginal_likelihood(model, data), dense_lml(model, data), rtol=1e-10)
    check_lattice_gradient_matches_dense(model, data)
    check_scale_entry_is_the_array_formula(model, data)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(GRID_KINDS),
    mask=st.sampled_from(MASKS[1:]),
    optimize_nu_kappa=st.booleans(),
    large_kappa=st.booleans(),
)
def test_exact_lattice_gradient_with_missing_cells_matches_central_differences(
    seed, kind, mask, optimize_nu_kappa, large_kappa
):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 5)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 6)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind, large_kappa),
        noise_variance=float(rng.uniform(0.05, 0.5)),
        mean_policy="zero",
    )
    grid = _detect_grid(_prepare(model, data).points, graph.n_vertices)
    assert grid.n_missing == lattice_missing(data)
    check_gradient(model, data, optimize_nu_kappa)


@pytest.mark.parametrize("kind", GRID_KINDS)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mask=st.sampled_from(DENSE_MASKS),
    optimize_nu_kappa=st.booleans(),
    large_kappa=st.booleans(),
)
# at a step of 1e-3 the five-point nu derivative of this swek draw is off by 5.5e-5 relative
@example(seed=480, mask="repeated", optimize_nu_kappa=True, large_kappa=False)
def test_exact_dense_gradient_matches_central_differences(kind, seed, mask, optimize_nu_kappa, large_kappa):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 5)
    assume(mask != "sparse" or graph.n_vertices >= 3)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 6)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind, large_kappa),
        noise_variance=float(rng.uniform(0.05, 0.5)),
        mean_policy="zero",
    )
    assert _detect_grid(_prepare(model, data).points, graph.n_vertices) is None
    check_gradient(model, data, optimize_nu_kappa, step=1e-4)


def count_grams(monkeypatch) -> list:
    """The point counts of the Grams ``gp`` builds: the dense likelihood's,
    with its derivative map, and every other through ``assemble_gram``; a
    rectangular block K(rows, columns) counts as (rows, columns)."""
    calls = []
    for name in ("assemble_gram", "_gram_and_derivatives"):

        def counting(*args, original=getattr(graphspde.gp, name)):
            calls.append(len(args[2]) if len(args) < 4 else (len(args[2]), len(args[3])))
            return original(*args)

        monkeypatch.setattr(graphspde.gp, name, counting)
    return calls


def test_repeated_pairs_and_sparse_lattices_take_the_dense_path(monkeypatch):
    rng = np.random.default_rng(5)
    graph = line_graph(4)
    data = grid_dataset(rng, graph, 4)
    repeated = replace(data, observations=data.observations + data.observations[:1])
    # 7 of 16 cells read: M = 9 > N = 7
    sparse = drop_cells(data, {(v, a) for v in range(4) for a in range(4) if (v + a) % 2 or v == a == 0})
    model = GPModel(kernel=random_spec(rng, "shek"), noise_variance=0.1, mean_policy="zero")
    calls = count_grams(monkeypatch)
    for dense in (repeated, sparse):
        assert _detect_grid(_prepare(model, dense).points, graph.n_vertices) is None
        log_marginal_likelihood(model, dense)
    assert calls == [17, 7]
    # with M = N = 8 the lattice path is taken
    half = drop_cells(data, {(v, a) for v in range(4) for a in range(4) if (v + a) % 2})
    log_marginal_likelihood(model, half)
    assert calls == [17, 7]


def test_gappy_fit_assembles_no_gram(monkeypatch):
    rng = np.random.default_rng(6)
    graph = line_graph(5)
    data = drop_cells(grid_dataset(rng, graph, 6), {(0, 0), (3, 2), (4, 2), (1, 5)})
    model = GPModel(kernel=random_spec(rng, "swek"), noise_variance=0.1, mean_policy="zero")
    calls = count_grams(monkeypatch)
    result = fit(model, data, FitOptions(max_iters=20, restarts=1))
    assert calls == []
    np.testing.assert_allclose(
        result.lml, dense_lml(result.model, data), rtol=1e-10
    )


@pytest.mark.parametrize("drop", [set(), {(0, 0), (3, 2), (4, 2), (1, 5)}])
def test_fit_factorizes_once_per_value_and_never_for_a_gradient(monkeypatch, drop):
    rng = np.random.default_rng(9)
    graph = line_graph(5)
    data = drop_cells(grid_dataset(rng, graph, 6), drop)
    model = GPModel(kernel=random_spec(rng, "swek"), noise_variance=0.1, mean_policy="zero")
    events = []
    cholesky, factorize = graphspde.gp.cholesky_jittered, graphspde.gp._factorize
    gradient = graphspde.gp._Factorization.gradient

    def logged(event, fun):
        def wrapped(*args):
            events.append(event)
            return fun(*args)

        return wrapped

    monkeypatch.setattr(graphspde.gp, "cholesky_jittered", logged("cholesky", cholesky))
    monkeypatch.setattr(graphspde.gp, "_factorize", logged("value", factorize))
    monkeypatch.setattr(graphspde.gp._Factorization, "gradient", logged("gradient", gradient))
    calls = count_grams(monkeypatch)
    fit(model, data, FitOptions(max_iters=20, restarts=1))
    assert calls == [] and events.count("gradient") > 0
    # each value evaluation makes one Cholesky, and nothing else makes any
    assert events.count("cholesky") == events.count("value")
    assert all(events[k + 1] == "cholesky" for k, event in enumerate(events) if event == "value")


@pytest.mark.parametrize("kind", GRID_KINDS)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mask=st.sampled_from(("none", "random", "repeated", "sparse")),
    optimize_nu_kappa=st.booleans(),
)
def test_kept_factorization_gives_the_gradient_of_a_fresh_one(kind, seed, mask, optimize_nu_kappa):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 5)
    assume(mask != "sparse" or graph.n_vertices >= 3)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 6)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero"
    )
    names = _optimizable_names(model.kernel, optimize_nu_kappa) + ["noise"]
    evaluate = _evaluator(model, data, names)
    theta = np.log(
        [model.noise_variance if name == "noise" else model.kernel.hyper.get(name, 1.0) for name in names]
    )
    kept = evaluate(theta)
    assert evaluate(theta + 0.3) is not None  # another factorization between the value and the gradient
    first = kept.gradient()
    np.testing.assert_array_equal(first, evaluate(theta).gradient())
    np.testing.assert_array_equal(first, kept.gradient())


def failing_correction(how: str):
    def patched(basis, inv, grid):
        if how == "raise":  # -A^-1 makes B_mm negative definite
            return _missing_block(basis, -inv, grid)
        chol_mm, gain = _missing_block(basis, inv, grid)
        return chol_mm, np.full_like(gain, np.nan)

    return patched


@pytest.mark.parametrize("how", ["raise", "nan"])
def test_failed_missing_cell_correction_is_an_undefined_point(monkeypatch, how):
    # the lattice answers alone: a failed correction is no cue to try the dense path
    rng = np.random.default_rng(7)
    graph = line_graph(4)
    data = drop_cells(grid_dataset(rng, graph, 5), {(1, 1), (2, 3)})
    model = GPModel(kernel=random_spec(rng, "swek"), noise_variance=0.1, mean_policy="zero")
    names = ["c", "sigma", "noise"]
    theta = np.log([model.kernel.hyper["c"], model.kernel.hyper["sigma"], model.noise_variance])
    monkeypatch.setattr(graphspde.gp, "_missing_block", failing_correction(how))
    calls = count_grams(monkeypatch)
    if how == "raise":
        with pytest.raises(FactorizationError):
            log_marginal_likelihood(model, data)
    else:
        assert math.isnan(log_marginal_likelihood(model, data))
    assert _evaluator(model, data, names)(theta) is None
    assert calls == []


def theta_of(model: GPModel, names: list[str]) -> np.ndarray:
    return np.log([model.noise_variance if name == "noise" else model.kernel.hyper[name] for name in names])


@pytest.mark.parametrize("kind", ["shek", "swek", "matern-rbf"])
@pytest.mark.parametrize("drop", [set(), {(0, 0), (3, 2), (4, 2), (1, 5)}, "repeated", "sparse"])
def test_lattice_value_and_gradient_evaluate_the_covariances_once(monkeypatch, kind, drop):
    # so do the dense path's: a repeated (vertex, time) pair, and M = 18 > N = 12; a separable
    # kind's lengthscale derivative takes the K_t its value made
    rng = np.random.default_rng(10)
    graph = line_graph(5)
    data = grid_dataset(rng, graph, 6)
    if drop == "repeated":
        data = replace(data, observations=data.observations + data.observations[:1])
    elif drop == "sparse":
        data = drop_cells(data, {(v, a) for v in range(5) for a in range(6) if (v + a) % 5 > 1})
    else:
        data = drop_cells(data, drop)
    model = GPModel(kernel=random_spec(rng, kind), noise_variance=0.1, mean_policy="zero")
    assert (_prepare(model, data).grid is None) == isinstance(drop, str)
    name = "temporal_kernel" if kind == "matern-rbf" else f"_{kind}_eig"
    scalar = getattr(graphspde.kernels, name)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return scalar(*args)

    monkeypatch.setattr(graphspde.kernels, name, counting)
    names = _optimizable_names(model.kernel, True) + ["noise"]
    grad = _evaluator(model, data, names)(theta_of(model, names)).gradient()
    assert np.all(np.isfinite(grad)) and np.all(grad[:-1] != 0.0)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["shek", "matern-rbf"])
@pytest.mark.parametrize("path", ["lattice", "dense"])
def test_factorization_copies_no_covariances(kind, path):
    # one value on the 21 x 50 heat grid: the noise goes onto the covariances in place and no
    # factorization keeps them, so the peak is the covariances and their factor (dense 2.0 Grams;
    # shek 2.7 stacks with its evaluation's temporaries, matern-rbf 0.2, which forms no stack);
    # one more copy of the covariances beside them would take at least 3.0 Grams or 3.1 stacks
    _, data = gen_heat_line(SyntheticSpec(kind="heat_line", n_nodes=21, coefficient=0.3,
                                          timestamps=tuple(0.2 * np.arange(1, 51)), noise_sd=0.01, seed=7))
    model = GPModel(kernel=random_spec(np.random.default_rng(2), kind), noise_variance=0.01)
    prep = _prepare(model, data)
    assert prep.grid is not None and prep.grid.n_missing == 0
    if path == "dense":
        prep, unit, bound = replace(prep, grid=None), 8 * 1050**2, 2.5
    else:
        unit, bound = 8 * 21 * 50 * 50, 3.0
    expected = _factorize(model.kernel, model.noise_variance, prep).lml  # warms the spectrum cache
    tracemalloc.start()
    try:
        lml = _factorize(model.kernel, model.noise_variance, prep).lml
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lml == expected
    assert peak < bound * unit, peak / unit


def value_and_gradient_peak(model: GPModel, data: SpatioTemporalDataset, names: list[str]) -> float:
    """The ``tracemalloc`` peak of one lattice value plus its gradient in ``names``, in (n, T, T)
    stacks, after a first one that warms the spectrum cache and gives the expected bits."""
    prep = _prepare(model, data)
    unit = 8 * data.graph.n_vertices * prep.grid.times.shape[0] ** 2
    expected = _Lattice(model.kernel, model.noise_variance, prep, names).gradient()
    tracemalloc.start()
    try:
        grad = _Lattice(model.kernel, model.noise_variance, prep, names).gradient()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(grad, expected)
    return peak / unit


def test_lattice_gradient_holds_one_derivative_at_a_time():
    # 21 x 50 SHEK grid, every shaped name: the derivative maps yield one mirrored derivative at a
    # time and the weight drops the inverse it read, so the peak is 6.2 stacks; all four
    # derivatives at once took 8.2
    _, data = gen_heat_line(SyntheticSpec(kind="heat_line", n_nodes=21, coefficient=0.3,
                                          timestamps=tuple(0.2 * np.arange(1, 51)), noise_sd=0.01, seed=7))
    model = GPModel(kernel=random_spec(np.random.default_rng(2), "shek"), noise_variance=0.01)
    peak = value_and_gradient_peak(model, data, ["c", "sigma", "nu", "kappa", "noise"])
    assert peak < 7.0, peak


@pytest.mark.parametrize("kind, bound", [("shek", 7.0), ("swek", 7.5), ("matern-rbf", 6.3)])
def test_gappy_lattice_gradient_reads_the_inverse_through_the_gain(kind, bound):
    # an 11 x 50 line, every tenth cell missing (M = 55): the weight takes H = G P L_mm^-T from the
    # gain and is one product in one array, so the peaks are 5.9 (shek) and 6.9 (swek) stacks, and
    # matern-rbf, which forms no weight, 3.8; scattering L_mm^-T back into the modes and applying
    # A^-1 again, beside a second copy of the weight, took 8.2, 8.2 and 7.5
    rng = np.random.default_rng(3)
    cells = [(v, 0.2 * a) for a in range(1, 51) for v in range(11)]
    data = SpatioTemporalDataset(graph=line_graph(11), observations=tuple(
        (STPoint(v, t), float(rng.standard_normal())) for k, (v, t) in enumerate(cells) if k % 10
    ))
    model = GPModel(kernel=random_spec(np.random.default_rng(2), kind), noise_variance=0.05)
    assert _prepare(model, data).grid.n_missing == 55
    peak = value_and_gradient_peak(model, data, _optimizable_names(model.kernel, False) + ["noise"])
    assert peak < bound, peak


@pytest.mark.parametrize("kind", ["matern-rbf", "laplacian-rbf"])
@pytest.mark.parametrize("complete, bound", [(True, 1.0), (False, 6.3)])
def test_separable_value_and_gradient_hold_no_mode_stack(kind, complete, bound):
    # 21 x 50 line, complete or with every tenth cell missing (M = 105): the eigenbasis operator
    # forms nothing of size (n, T, T), so the peaks are 0.33 and 5.9 stacks; an inverse root stack
    # and the weights A_i^-1 it forms took 3.41 and 6.72
    rng = np.random.default_rng(3)
    cells = [(v, 0.2 * a) for a in range(1, 51) for v in range(21)]
    data = SpatioTemporalDataset(graph=line_graph(21), observations=tuple(
        (STPoint(v, t), float(rng.standard_normal())) for k, (v, t) in enumerate(cells) if complete or k % 10
    ))
    model = GPModel(kernel=random_spec(np.random.default_rng(2), kind), noise_variance=0.05)
    assert _prepare(model, data).grid.n_missing == (0 if complete else 105)
    peak = value_and_gradient_peak(model, data, _optimizable_names(model.kernel, False) + ["noise"])
    assert peak < bound, peak


def test_half_missing_lattice_holds_no_cell_by_cell_block_per_mode():
    # a 21 x 50 line with half its cells missing (M = 525 >> T): B_mm and the weight's H read
    # the gain at the missing cells' times, so the peak of a value plus its gradient is 3.3
    # (n, T, M) arrays, against 4.2 for a rotation of the whole lattice; one (n, M, M) gather of
    # the gain would alone take 10.5
    rng = np.random.default_rng(4)
    cells = [(v, 0.2 * a) for a in range(1, 51) for v in range(21)]
    data = SpatioTemporalDataset(graph=line_graph(21), observations=tuple(
        (STPoint(v, t), float(rng.standard_normal())) for v, t in cells if round(t / 0.2 + v) % 2
    ))
    model = GPModel(kernel=random_spec(np.random.default_rng(2), "shek"), noise_variance=0.05)
    assert _prepare(model, data).grid.n_missing == 525
    peak = value_and_gradient_peak(model, data, ["c", "sigma", "noise"])
    assert peak * 50 / 525 < 6.0, peak * 50 / 525


def test_non_finite_lattice_gradient_ends_the_start_without_a_gram(monkeypatch):
    rng = np.random.default_rng(11)
    graph = line_graph(4)
    data = drop_cells(grid_dataset(rng, graph, 5), {(1, 1), (2, 3)})
    model = GPModel(kernel=random_spec(rng, "swek"), noise_variance=0.1, mean_policy="zero")
    monkeypatch.setattr(graphspde.kernels, "_swek_eig_dlog_theta", lambda k, *args: np.full_like(k, np.nan))
    calls = count_grams(monkeypatch)
    names = ["c", "sigma", "noise"]
    point = _evaluator(model, data, names)(theta_of(model, names))
    assert math.isfinite(point.lml)
    np.testing.assert_array_equal(point.gradient(), np.zeros(3))
    assert calls == []


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_gappy_lattices_at_the_noise_floor_stay_on_the_lattice(monkeypatch, kind):
    calls = count_grams(monkeypatch)
    for mask in MASKS[1:]:
        for seed in range(6):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, 6)
            data = gappy_dataset(rng, graph, int(rng.integers(2, 7)), mask)
            model = GPModel(kernel=random_spec(rng, kind), noise_variance=1e-10, mean_policy="zero")
            assert math.isfinite(log_marginal_likelihood(model, data)), (mask, seed)
    assert calls == []


def test_fit_logs_the_likelihood_path(caplog):
    rng = np.random.default_rng(8)
    graph = line_graph(3)
    data = drop_cells(grid_dataset(rng, graph, 4), {(0, 1), (2, 3)})
    model = GPModel(kernel=random_spec(rng, "shek"), noise_variance=0.1, mean_policy="zero")
    opts = FitOptions(max_iters=3, restarts=0)
    with caplog.at_level(logging.DEBUG, logger="graphspde"):
        fit(model, data, opts)
        fit(model, replace(data, observations=data.observations + data.observations[:1]), opts)
    messages = [r.getMessage() for r in caplog.records if r.name == "graphspde"]
    assert "fit: lattice likelihood over 4 times x 3 vertices, 2 missing cells" in messages
    assert "fit: dense likelihood over 11 points" in messages


def test_jittered_cholesky_is_logged_with_its_path(caplog):
    # sigma 1e6 over the 1e-10 noise floor: eight times within round-off of each other make
    # the SHEK modes singular to round-off, and a second reading of one cell does the same to
    # the dense Gram
    graph = line_graph(3)
    times = [1.0 + k * np.spacing(1.0) for k in range(8)]
    observations = tuple((STPoint(v, t), float(v + k)) for k, t in enumerate(times) for v in range(3))
    lattice = SpatioTemporalDataset(graph=graph, observations=observations)
    dense = replace(lattice, observations=observations + observations[:1])
    spec = KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1e6, "nu": 1.0, "kappa": 1.0})
    model = GPModel(kernel=spec, noise_variance=1e-10, mean_policy="zero")
    with caplog.at_level(logging.DEBUG, logger="graphspde"):
        log_marginal_likelihood(replace(model, noise_variance=0.1), lattice)
        assert caplog.records == []  # no jitter, no message
        assert math.isfinite(log_marginal_likelihood(model, lattice))
        assert math.isfinite(log_marginal_likelihood(model, dense))
    messages = [r.getMessage() for r in caplog.records if r.name == "graphspde"]
    assert len(messages) == 2, messages
    assert messages[0].startswith("lattice likelihood over 3 modes: Cholesky jitter ")
    assert messages[1].startswith("dense likelihood over 25 points: Cholesky jitter ")
    assert all(float(message.rsplit(" ", 1)[1]) > 0 for message in messages)


SEPARABLE_GRID_KINDS = [kind for kind in GRID_KINDS if kind not in ("shek", "swek")]


class CholeskyRoots(_Roots):
    """The SHEK/SWEK operator of the lattice by the plainest route, for any kind: the
    ``mode_covariances`` stack plus the noise, each mode's plain Cholesky factor L_i and its inverse as
    ``R_i``, ``log|A|`` from the factors' diagonals, and ``rho_i dK_t`` as the derivatives."""

    def __init__(self, spec: KernelSpec, noise_variance: float, graph, times: np.ndarray):
        self.spatial, covs = mode_covariances(spec, graph, times)
        eye = np.eye(times.shape[0])
        factors = [scipy.linalg.cholesky(cov + noise_variance * eye, lower=True) for cov in covs]
        self.roots = np.array([scipy.linalg.solve_triangular(factor, eye, lower=True) for factor in factors])
        self.log_det = sum(np.sum(np.log(np.diag(factor))) for factor in factors)
        _, rho, _, d_temporal = _factors(spec, graph, times)
        self.derivatives = lambda wrt: (rho[:, None, None] * d_temporal() for _ in wrt)


def lattice_answers(model: GPModel, data: SpatioTemporalDataset, query: list) -> tuple:
    """The lattice LML, its gradient in every name a fit varies and the noise, and the posterior
    mean and covariance at ``query``."""
    prep = _prepare(model, data)
    assert prep.grid is not None
    point = _Lattice(model.kernel, model.noise_variance, prep, _optimizable_names(model.kernel, True) + ["noise"])
    pred = predict(model, data, query, full_cov=True)
    return point.lml, point.gradient(), pred.mean, pred.covariance


def check_matches_per_mode_cholesky(model: GPModel, data: SpatioTemporalDataset, query: list) -> None:
    """The lattice's answers equal those of :class:`CholeskyRoots` in the place of its
    ``gp._Eigenbasis``: the LML to 1e-9 relative, the gradient and posterior to 1e-9 of their largest
    entry.  The stand-in must have run, for the likelihood and the posterior alike."""
    lml, grad, mean, cov = lattice_answers(model, data, query)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphspde.gp, "_Eigenbasis", lambda *args: calls.append(args[0].kind) or CholeskyRoots(*args))
        ref_lml, ref_grad, ref_mean, ref_cov = lattice_answers(model, data, query)
    assert calls == [model.kernel.kind] * 2, calls
    assert math.isfinite(lml) and np.any(ref_grad)
    np.testing.assert_allclose(lml, ref_lml, rtol=1e-9)
    for actual, reference in ((grad, ref_grad), (mean, ref_mean), (cov, ref_cov)):
        assert_close_to_largest(actual, reference)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(SEPARABLE_GRID_KINDS), mask=st.sampled_from(MASKS))
def test_separable_lattice_matches_a_per_mode_cholesky(seed, kind, mask):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 7)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero"
    )
    check_matches_per_mode_cholesky(model, data, query_points(rng, data))


def edge_spec(edge: str) -> KernelSpec:
    spatial = KernelSpec(kind="laplacian_spatial", hyper={"variance": 1.3}, laplacian_variant="unnormalized")
    if edge in ("null-modes", "isolated-vertex"):
        return spatial
    if edge == "all-ones":
        return KernelSpec(kind="matern_spatial", hyper={"nu": 1.5, "kappa": 2.0, "variance": 0.8})
    return KernelSpec(kind="separable_product", hyper={"variance": 0.7, "time_lengthscale": 1e5},
                      temporal_kind="rbf", spatial=replace(spatial, hyper={}))


@pytest.mark.parametrize("edge", ["null-modes", "isolated-vertex", "all-ones", "singular-rbf"])
@pytest.mark.parametrize("mask", ["none", "random"])
def test_separable_lattice_edge_cases_match_a_per_mode_cholesky(monkeypatch, edge, mask):
    # the Laplacian kernel's zero-rho null modes (two with an isolated vertex), the spatial-only
    # K_t = 1 1^T, and an RBF lengthscale so long that K_t is singular to round-off: the one
    # eigendecomposition of K_t needs no Cholesky and no jitter for any of them
    rng = np.random.default_rng(14)
    graph = line_graph(5)
    if edge == "isolated-vertex":
        graph = build_graph(["a", "b", "c", "d", "e"], [("a", "b", 1.0), ("b", "c", 0.5), ("c", "d", 2.0)])
    data = gappy_dataset(rng, graph, 7, mask)
    spec = edge_spec(edge)
    times = _prepare(GPModel(kernel=spec), data).grid.times
    _, rho, temporal, _ = _factors(spec, graph, times)
    if edge in ("null-modes", "isolated-vertex"):
        assert np.count_nonzero(rho == 0.0) == (2 if edge == "isolated-vertex" else 1)
    if edge == "all-ones":
        np.testing.assert_array_equal(temporal, np.ones((7, 7)))
    if edge == "singular-rbf":
        eigenvalues = np.linalg.eigvalsh(temporal)  # K_t = v (1 - D / 2 l^2 + O(l^-4)), D of rank 3
        assert np.max(np.abs(eigenvalues[:3])) <= 1e-14 * eigenvalues[-1], eigenvalues
    model = GPModel(kernel=spec, noise_variance=0.07, mean_policy="zero")
    calls = []
    monkeypatch.setattr(graphspde.gp, "cholesky_jittered", lambda a: calls.append(a.shape))
    assert math.isfinite(log_marginal_likelihood(model, data))
    check_matches_per_mode_cholesky(model, data, query_points(rng, data))
    assert calls == []


def query_points(rng: np.random.Generator, data: SpatioTemporalDataset) -> list:
    """Some held-out lattice cells (where the set has any) and some cells at later times."""
    times, n = data.times(), data.graph.n_vertices
    read = {(p.vertex, p.time) for p in data.points}
    held_out = [STPoint(v, float(t)) for t in times for v in range(n) if (v, t) not in read]
    later = [STPoint(int(rng.integers(n)), float(times[-1] + dt)) for dt in (0.5, 0.5, 1.75)]
    keep = rng.permutation(len(held_out))[:4]
    return [held_out[k] for k in keep] + later


def reference_posterior(model: GPModel, graph, obs, residual: np.ndarray, query) -> tuple:
    """Mean correction and covariance from the joint Gram over obs + query and a plain Cholesky."""
    n = len(obs)
    gram = assemble_gram(model.kernel, graph, tuple(obs) + tuple(query)).matrix
    factor = scipy.linalg.cholesky(gram[:n, :n] + model.noise_variance * np.eye(n), lower=True)
    half = scipy.linalg.solve_triangular(factor, gram[:n, n:], lower=True)
    white = scipy.linalg.solve_triangular(factor, residual, lower=True)
    return half.T @ white, gram[n:, n:] - half.T @ half


def assert_close_to_largest(actual: np.ndarray, reference: np.ndarray) -> None:
    assert np.max(np.abs(actual - reference)) <= 1e-9 * np.max(np.abs(reference))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(GRID_KINDS),
    mask=st.sampled_from(MASKS + DENSE_MASKS),
)
def test_posterior_matches_the_joint_gram(seed, kind, mask):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    assume(mask != "sparse" or graph.n_vertices >= 3)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 7)), mask)
    model = GPModel(
        kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)), mean_policy="zero"
    )
    prep = _prepare(model, data)
    assert (prep.grid is None) == (mask in DENSE_MASKS)
    query = query_points(rng, data)
    shifted = [STPoint(p.vertex, p.time + prep.shift) for p in query]
    mean, cov = reference_posterior(model, graph, prep.points, prep.y, shifted)
    pred = predict(model, data, query, full_cov=True)
    assert_close_to_largest(pred.mean, mean)
    assert_close_to_largest(pred.covariance, cov)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["shek", "swek"]),
    mask=st.sampled_from(MASKS + DENSE_MASKS),
)
def test_conditioned_process_moments_match_the_joint_gram(seed, kind, mask):
    # the readings at t = 0 are the initial state: they set the process mean
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    assume(mask != "sparse" or graph.n_vertices >= 3)
    data = gappy_dataset(rng, graph, int(rng.integers(2, 7)), mask)
    start = data.times()[0]
    data = replace(data, observations=tuple((STPoint(p.vertex, p.time - start), y) for p, y in data.observations))
    spec = random_spec(rng, kind)
    model = GPModel(kernel=spec, noise_variance=float(rng.uniform(0.05, 0.5)))
    frac = fractional_from_graph(graph, spec.laplacian_variant, spec.hyper["nu"], spec.hyper["kappa"])
    u0 = np.zeros(graph.n_vertices)
    for p, y in data.observations:
        if p.time == 0.0:
            u0[p.vertex] = y

    def process_mean(points) -> np.ndarray:
        c = spec.hyper["c"]
        if kind == "shek":
            return np.array([shek_mean(frac, c, u0, p.time)[p.vertex] for p in points])
        zero = np.zeros_like(u0)
        return np.array([swek_mean(frac, c, u0, zero, p.time)[p.vertex] for p in points])

    query = query_points(rng, data)
    correction, cov = reference_posterior(model, graph, data.points, data.values - process_mean(data.points), query)
    mean, moments_cov = sampling_moments(model, query, condition_on=data)
    assert_close_to_largest(mean, process_mean(query) + correction)
    assert_close_to_largest(moments_cov, cov)


@pytest.mark.parametrize("kind", GRID_KINDS)
@pytest.mark.parametrize("mask", ["none", "random"])
def test_lattice_ignores_row_order(kind, mask):
    # the lattice sums over its modes, never in the order of the rows
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, 6)
        data = gappy_dataset(rng, graph, int(rng.integers(3, 7)), mask)
        backward = replace(data, observations=data.observations[::-1])
        model = GPModel(kernel=random_spec(rng, kind), noise_variance=float(rng.uniform(0.05, 0.5)))
        assert _prepare(model, data).grid is not None
        names = _optimizable_names(model.kernel, True) + ["noise"]
        forward_point, backward_point = (_evaluator(model, d, names)(theta_of(model, names)) for d in (data, backward))
        assert forward_point.lml == backward_point.lml
        np.testing.assert_array_equal(forward_point.gradient(), backward_point.gradient())
        query = query_points(rng, data)
        forward_pred, backward_pred = (predict(model, d, query, full_cov=True) for d in (data, backward))
        np.testing.assert_array_equal(forward_pred.mean, backward_pred.mean)
        np.testing.assert_array_equal(forward_pred.covariance, backward_pred.covariance)


@pytest.mark.parametrize("kind", ["shek", "swek"])
def test_lattice_posterior_ignores_row_order_on_a_wide_graph(kind):
    # 21 vertices per time: the training x query rows at one time are one BLAS
    # product, where a row at the edge of a tile may round by its position
    rng = np.random.default_rng(3)
    data = grid_dataset(rng, line_graph(21), 8)
    shuffled = replace(data, observations=tuple(data.observations[k] for k in rng.permutation(168)))
    model = GPModel(kernel=random_spec(rng, kind), noise_variance=0.1)
    query = [STPoint(v, t) for v in range(21) for t in (2.1, 9.0)]
    forward, backward = (predict(model, d, query, full_cov=True) for d in (data, shuffled))
    np.testing.assert_array_equal(forward.mean, backward.mean)
    np.testing.assert_array_equal(forward.covariance, backward.covariance)


@pytest.mark.parametrize("drop", [set(), {(0, 0), (3, 2), (4, 2), (1, 5)}])
def test_lattice_predict_gathers_no_gram_over_the_training_points(monkeypatch, drop):
    rng = np.random.default_rng(12)
    graph = line_graph(5)
    data = drop_cells(grid_dataset(rng, graph, 6), drop)
    model = GPModel(kernel=random_spec(rng, "shek"), noise_variance=0.1, mean_policy="zero")
    query = [STPoint(v, 9.0) for v in range(5)] + [STPoint(1, 3.5)]
    calls = count_grams(monkeypatch)
    predict(model, data, query)
    # the query's Gram and the training x query block
    assert calls == [6, (len(data.observations), 6)]


@pytest.mark.parametrize("drop", [set(), {(0, 0), (3, 2)}, "repeated"])
def test_empty_or_out_of_graph_queries_are_data_errors(drop):
    rng = np.random.default_rng(13)
    graph = line_graph(4)
    data = grid_dataset(rng, graph, 5)
    if drop == "repeated":
        data = replace(data, observations=data.observations + data.observations[:1])
    else:
        data = drop_cells(data, drop)
    model = GPModel(kernel=random_spec(rng, "swek"), noise_variance=0.1)
    with pytest.raises(DataError, match="at least one point"):
        predict(model, data, [])
    with pytest.raises(DataError, match="vertex 4 outside the graph"):
        predict(model, data, [STPoint(1, 2.0), STPoint(4, 2.0)])
    with pytest.raises(DataError, match="vertex 4 outside the graph"):
        sampling_moments(model, [STPoint(4, 2.0)], condition_on=data)
