import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from graphspde import (
    DataError,
    KernelSpec,
    NumericError,
    STPoint,
    assemble_gram,
    build_graph,
    fractional_laplacian,
    heat_random_walk_check,
    heat_semigroup,
    laplacian,
    laplacian_kernel,
    line_graph,
    lyapunov_stationary,
    matern_graph_kernel,
    shek_cov,
    shek_cov_general,
    shek_matrix_noise_cov,
    shek_mean,
    swek_cov,
    swek_mean,
    temporal_kernel,
    wave_solution,
)

from conftest import random_graph


def single_vertex_operator(value: float):
    """Single-vertex fractional Laplacian whose one eigenvalue equals ``value``."""
    # with nu = 2 the exponent is 1 and the shift is 4 / kappa^2
    kappa = 2.0 / np.sqrt(value)
    return fractional_laplacian(np.array([[0.0]]), nu=2.0, kappa=kappa)


@pytest.fixture
def path3():
    return build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])


@pytest.fixture
def triangle():
    return build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])


class TestSpatialKernels:
    def test_laplacian_kernel_single_vertex(self):
        g = build_graph(["a"], [])
        np.testing.assert_allclose(laplacian_kernel(laplacian(g)), [[0.0]])

    def test_laplacian_kernel_two_path(self):
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        expected = np.array([[0.125, -0.125], [-0.125, 0.125]])
        np.testing.assert_allclose(laplacian_kernel(laplacian(g)), expected, atol=1e-12)

    def test_laplacian_kernel_symmetric_psd_random(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            g = random_graph(rng, 8, connected=False)
            k = laplacian_kernel(laplacian(g))
            np.testing.assert_allclose(k, k.T, atol=1e-10)
            assert np.linalg.eigvalsh(k).min() >= -1e-10 * max(np.max(np.abs(k)), 1.0)

    def test_matern_single_vertex(self):
        g = build_graph(["a"], [])
        np.testing.assert_allclose(
            matern_graph_kernel(laplacian(g), nu=1.0, kappa=np.sqrt(2.0)), [[1.0]]
        )

    def test_matern_two_path_by_hand(self):
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        expected = np.array([[0.375, 0.125], [0.125, 0.375]])  # (2I + L)^-1
        np.testing.assert_allclose(matern_graph_kernel(laplacian(g), 1.0, 1.0), expected, atol=1e-12)

    def test_matern_equals_inverse_gram_of_fractional(self, path3):
        lap = laplacian(path3)
        for nu, kappa in ((1.0, 1.0), (1.5, 0.7), (2.5, 3.0)):
            frac = fractional_laplacian(lap, nu, kappa)
            lt = frac.matrix
            expected = np.linalg.inv(lt.T @ lt)
            np.testing.assert_allclose(matern_graph_kernel(lap, nu, kappa), expected, atol=1e-8)


class TestHeatSemigroup:
    def test_t_zero_is_identity(self, path3):
        np.testing.assert_allclose(heat_semigroup(laplacian(path3), 1.0, 0.0), np.eye(3), atol=1e-12)

    def test_two_path_closed_form(self):
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        for t in (0.1, 0.7, 2.0):
            on = (1.0 + np.exp(-2.0 * t)) / 2.0
            off = (1.0 - np.exp(-2.0 * t)) / 2.0
            np.testing.assert_allclose(
                heat_semigroup(laplacian(g), 1.0, t), [[on, off], [off, on]], atol=1e-12
            )

    def test_long_time_limit_projects_to_stationary(self):
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        np.testing.assert_allclose(
            heat_semigroup(laplacian(g), 1.0, 50.0), np.full((2, 2), 0.5), atol=1e-12
        )

    def test_random_walk_rows_stochastic(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 2.0), ("b", "c", 1.0)])
        lap_rw = laplacian(g, "random_walk")
        prop = heat_semigroup(lap_rw, 1.0, 0.8)
        np.testing.assert_allclose(prop.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(prop >= -1e-12)


class TestHeatRandomWalkSeries:
    def test_single_term_is_scaled_identity(self, path3):
        lap_rw = laplacian(path3, "random_walk")
        for t in (0.0, 0.5, 2.0):
            np.testing.assert_allclose(
                heat_random_walk_check(lap_rw, t, 1), np.exp(-t) * np.eye(3), atol=1e-15
            )

    def test_t_zero_identity_any_terms(self, path3):
        lap_rw = laplacian(path3, "random_walk")
        for k in (1, 5, 30):
            np.testing.assert_allclose(heat_random_walk_check(lap_rw, 0.0, k), np.eye(3))

    def test_converges_to_spectral_exponential(self, path3):
        lap_rw = laplacian(path3, "random_walk")
        exact = heat_semigroup(lap_rw, 1.0, 1.0)
        series = heat_random_walk_check(lap_rw, 1.0, 30)
        np.testing.assert_allclose(series, exact, atol=1e-6)

    def test_error_halves_per_five_terms(self, path3):
        lap_rw = laplacian(path3, "random_walk")
        exact = heat_semigroup(lap_rw, 1.0, 1.0)
        errors = []
        for k in range(3, 33, 5):
            errors.append(np.max(np.abs(heat_random_walk_check(lap_rw, 1.0, k) - exact)))
        for previous, current in zip(errors, errors[1:]):
            if previous <= 1e-6:
                break
            assert current <= previous / 2.0


class TestShek:
    def test_zero_at_initial_time(self, path3):
        frac = fractional_laplacian(laplacian(path3), 1.0, 1.0)
        np.testing.assert_allclose(shek_cov(frac, 1.0, 1.0, 0.0, 0.0), np.zeros((3, 3)))
        np.testing.assert_allclose(shek_cov(frac, 1.0, 1.0, 0.0, 2.0), np.zeros((3, 3)), atol=1e-15)

    def test_single_vertex_ou_variance(self):
        # oracle: the textbook Ornstein-Uhlenbeck variance
        # Var[u(t)] = sigma^2 / (2 c a) * (1 - exp(-2 c a t)) for du = -c a u dt + sigma dW
        a, c, sigma = 1.7, 0.8, 1.3
        frac = single_vertex_operator(a)
        for t in (0.2, 1.0, 4.0):
            expected = sigma**2 / (2.0 * c * a) * (1.0 - np.exp(-2.0 * c * a * t))
            np.testing.assert_allclose(shek_cov(frac, c, sigma, t, t), [[expected]], rtol=1e-12)

    def test_stationary_limit_satisfies_lyapunov(self, triangle):
        frac = fractional_laplacian(laplacian(triangle), 2.0, 1.0)
        c, sigma = 1.0, 1.4
        mu_min = frac.shifted_eigs.min()
        t = 50.0 / (c * mu_min)
        stationary = shek_cov(frac, c, sigma, t, t)
        lt = frac.matrix
        residual = lt @ stationary + stationary @ lt.T - sigma**2 * np.eye(3)
        assert np.max(np.abs(residual)) <= 1e-6
        np.testing.assert_allclose(stationary, lyapunov_stationary(lt, sigma), atol=1e-6)

    def test_mean_at_zero_and_scalar(self, path3):
        frac = fractional_laplacian(laplacian(path3), 2.0, 1e6)
        u0 = np.array([0.0, 0.0, 10.0])
        np.testing.assert_allclose(shek_mean(frac, 1.0, u0, 0.0), u0, atol=1e-12)
        one = single_vertex_operator(np.sqrt(2.0))
        np.testing.assert_allclose(
            shek_mean(one, 1.0, np.array([1.0]), 1.0), [np.exp(-np.sqrt(2.0))], rtol=1e-12
        )

    def test_mean_long_time_reaches_average(self, path3):
        frac = fractional_laplacian(laplacian(path3), 2.0, 1e6)
        u0 = np.array([0.0, 0.0, 10.0])
        limit = shek_mean(frac, 1.0, u0, 100.0)
        np.testing.assert_allclose(limit, np.full(3, 10.0 / 3.0), atol=1e-6)


class TestShekGeneral:
    def test_matches_symmetric_form(self, triangle):
        frac = fractional_laplacian(laplacian(triangle), 2.0, 1.0)
        c, sigma, t, s = 1.0, 1.0, 1.3, 0.7
        expected = shek_cov(frac, c, sigma, t, s)
        np.testing.assert_allclose(shek_cov_general(frac.matrix, c, sigma, t, s), expected, atol=1e-8)

    def test_symmetric_reduction_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            g = random_graph(rng, 6)
            frac = fractional_laplacian(laplacian(g), float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))
            c, sigma = float(rng.uniform(0.3, 2)), float(rng.uniform(0.3, 2))
            t, s = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
            np.testing.assert_allclose(
                shek_cov_general(frac.matrix, c, sigma, t, s),
                shek_cov(frac, c, sigma, t, s),
                atol=1e-8,
            )

    def test_zero_at_t_zero(self):
        lt = np.array([[1.0, -1.0], [0.0, 0.0]])
        np.testing.assert_allclose(shek_cov_general(lt, 1.0, 1.0, 0.0, 0.0), np.zeros((2, 2)))

    def test_directed_matches_quadrature_oracle(self):
        # oracle: adaptive quadrature of the Ito integral
        # sigma^2 int_0^min exp(-G (t - x)) exp(-G^T (s - x)) dx
        lt = np.array([[1.0, -1.0], [0.0, 0.0]])  # 2-vertex graph, one directed edge
        c, sigma, t, s = 1.0, 1.0, 0.9, 0.5
        gamma = c * lt
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = quad(
                    lambda x: (expm(-gamma * (t - x)) @ expm(-gamma.T * (s - x)))[i, j],
                    0.0,
                    min(t, s),
                    limit=200,
                )[0]
        expected *= sigma**2
        np.testing.assert_allclose(shek_cov_general(lt, c, sigma, t, s), expected, atol=1e-10)


class TestShekMatrixNoise:
    def test_scalar_reduction(self, triangle):
        frac = fractional_laplacian(laplacian(triangle), 2.0, 1.0)
        c, sigma = 0.9, 1.3
        for t, s in ((0.8, 0.3), (0.3, 0.8), (1.0, 1.0)):
            np.testing.assert_allclose(
                shek_matrix_noise_cov(frac, c, sigma * np.eye(3), t, s),
                shek_cov(frac, c, sigma, t, s),
                atol=1e-8,
            )

    def test_scalar_reduction_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = random_graph(rng, 7)
            frac = fractional_laplacian(
                laplacian(g), float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
            )
            c, sigma = float(rng.uniform(0.3, 2)), float(rng.uniform(0.3, 2))
            t, s = float(rng.uniform(0.0, 2)), float(rng.uniform(0.0, 2))
            n = g.n_vertices
            np.testing.assert_allclose(
                shek_matrix_noise_cov(frac, c, sigma * np.eye(n), t, s),
                shek_cov(frac, c, sigma, t, s),
                atol=1e-8,
            )

    def test_zero_at_initial_time(self, path3):
        frac = fractional_laplacian(laplacian(path3), 1.0, 1.0)
        sig = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(shek_matrix_noise_cov(frac, 1.0, sig, 0.0, 0.0), np.zeros((3, 3)))

    def test_transpose_symmetry_in_swapped_times(self, path3):
        frac = fractional_laplacian(laplacian(path3), 1.5, 1.0)
        sig = np.array([[1.0, 0.2, 0.0], [0.0, 2.0, 0.1], [0.0, 0.0, 0.5]])
        a = shek_matrix_noise_cov(frac, 1.0, sig, 0.9, 0.4)
        b = shek_matrix_noise_cov(frac, 1.0, sig, 0.4, 0.9)
        np.testing.assert_allclose(a, b.T, atol=1e-12)


class TestLyapunov:
    def test_scalar_case(self):
        a, sigma = 2.5, 1.2
        np.testing.assert_allclose(
            lyapunov_stationary(a * np.eye(3), sigma * np.eye(3)),
            sigma**2 / (2.0 * a) * np.eye(3),
            atol=1e-12,
        )

    def test_symmetric_operator_gives_half_inverse(self, triangle):
        frac = fractional_laplacian(laplacian(triangle), 2.0, 1.0)
        lt = frac.matrix
        sigma = 1.7
        expected = sigma**2 / 2.0 * np.linalg.inv(lt)
        np.testing.assert_allclose(lyapunov_stationary(lt, sigma), expected, atol=1e-10)

    def test_residual_on_random_stable_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n)) + n * np.eye(n)  # diagonally shifted -> stable
            sig = rng.standard_normal((n, n))
            solution = lyapunov_stationary(a, sig)
            rhs = sig @ sig.T
            residual = np.max(np.abs(a @ solution + solution @ a.T - rhs))
            assert residual <= 1e-8 * max(np.max(np.abs(rhs)), 1e-30)
            np.testing.assert_allclose(solution, solution.T)

    def test_singular_pair_raises(self):
        with pytest.raises(NumericError, match="singular"):
            lyapunov_stationary(np.diag([1.0, -1.0]), np.eye(2))


class TestWaveSolution:
    def test_constant_initial_state_is_preserved(self, triangle):
        lap = laplacian(triangle)
        u0 = np.full(3, 2.5)
        for t in (0.0, 1.0, 7.0):
            np.testing.assert_allclose(
                wave_solution(lap, 1.0, u0, np.zeros(3), t), u0, atol=1e-10
            )

    def test_free_motion_of_zero_mode(self):
        out = wave_solution(np.array([[0.0]]), 1.0, np.array([1.0]), np.array([2.0]), 3.0)
        np.testing.assert_allclose(out, [7.0])

    def test_two_path_eigenmode_oscillation(self):
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        lap = laplacian(g)
        u0 = np.array([1.0, -1.0])  # eigenvector of lambda = 2
        for t in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                wave_solution(lap, 1.0, u0, np.zeros(2), t),
                np.cos(np.sqrt(2.0) * t) * u0,
                atol=1e-12,
            )


class TestSwek:
    def test_zero_when_either_time_is_zero(self, path3):
        frac = fractional_laplacian(laplacian(path3), 1.0, 1.0)
        np.testing.assert_allclose(swek_cov(frac, 1.0, 1.0, 0.0, 0.0), np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(swek_cov(frac, 1.0, 1.0, 1.5, 0.0), np.zeros((3, 3)), atol=1e-15)

    def test_scalar_variance_at_pi(self):
        # oracle: Ito integral of the scalar stochastic wave equation,
        # Var[u(t)] = sigma^2/theta^2 (t/2 - sin(2 theta t)/(4 theta)),
        # confirmed by Euler-Maruyama simulation (see test_sde).
        frac = single_vertex_operator(1.0)
        value = swek_cov(frac, 1.0, 1.0, np.pi, np.pi)[0, 0]
        np.testing.assert_allclose(value, np.pi / 2.0, rtol=1e-12)

    def test_scalar_cross_covariance_formula(self):
        frac = single_vertex_operator(1.0)
        sigma, c = 1.3, 1.0
        for t, s in ((0.7, 0.2), (2.0, 1.0), (np.pi, np.pi / 2.0)):
            integrand = lambda x: np.sin(t - x) * np.sin(s - x)
            expected = sigma**2 * quad(integrand, 0.0, min(t, s))[0]
            np.testing.assert_allclose(swek_cov(frac, c, sigma, t, s)[0, 0], expected, atol=1e-10)

    def test_variance_accumulates_with_time(self, path3):
        frac = fractional_laplacian(laplacian(path3), 1.5, 1.0)
        for big_t in (1.0, 2.0, 4.0):
            v1 = np.diag(swek_cov(frac, 1.0, 1.0, big_t, big_t))
            v2 = np.diag(swek_cov(frac, 1.0, 1.0, 2.0 * big_t, 2.0 * big_t))
            assert np.all(v2 > v1)

    def test_mean_initial_and_scalar_oscillator(self):
        frac = single_vertex_operator(1.0)
        u0, v0 = np.array([3.0]), np.array([0.0])
        np.testing.assert_allclose(swek_mean(frac, 1.0, u0, v0, 0.0), u0)
        for t in (0.5, 2.0):
            np.testing.assert_allclose(swek_mean(frac, 1.0, u0, v0, t), u0 * np.cos(t), rtol=1e-12)

    def test_mean_velocity_driven(self):
        frac = single_vertex_operator(1.0)  # theta = c * 1 = 2 with c = 2
        u0, v0 = np.array([0.0]), np.array([1.0])
        for t in (0.3, 1.0, 2.2):
            np.testing.assert_allclose(
                swek_mean(frac, 2.0, u0, v0, t), [np.sin(2.0 * t) / 2.0], rtol=1e-12
            )


class TestTemporalKernels:
    def test_rbf_at_equal_times(self):
        assert temporal_kernel("rbf", {"variance": 2.5, "time_lengthscale": 1.0}, 3.0, 3.0) == 2.5

    def test_brownian_min(self):
        assert temporal_kernel("brownian", {"variance": 1.0}, 2.0, 3.0) == 2.0

    def test_cosine(self):
        value = temporal_kernel("cosine", {"variance": 1.0, "omega": np.pi}, 2.0, 1.0)
        np.testing.assert_allclose(value, -1.0)

    def test_brownian_rejects_negative_times(self):
        with pytest.raises(DataError):
            temporal_kernel("brownian", {"variance": 1.0}, -1.0, 2.0)


class TestKernelSpec:
    def test_missing_required_hyper(self):
        with pytest.raises(DataError, match="missing"):
            KernelSpec(kind="shek", hyper={"c": 1.0, "sigma": 1.0})

    def test_nonpositive_hyper(self):
        with pytest.raises(DataError, match="strictly positive"):
            KernelSpec(kind="matern_spatial", hyper={"nu": 1.0, "kappa": 0.0})

    def test_separable_needs_spatial(self):
        with pytest.raises(DataError, match="spatial"):
            KernelSpec(kind="separable_product", hyper={"time_lengthscale": 1.0}, temporal_kind="rbf")

    @pytest.mark.parametrize("kind", ["laplacian_spatial", "matern_spatial", "shek", "swek"])
    def test_separable_fields_rejected_on_other_kinds(self, kind):
        hyper = {"nu": 1.0, "kappa": 1.0, "c": 1.0, "sigma": 1.0}
        spatial = KernelSpec(kind="laplacian_spatial", hyper={})
        for stray in ({"temporal_kind": "rbf"}, {"spatial": spatial}):
            with pytest.raises(DataError, match="takes no temporal_kind or spatial"):
                KernelSpec(kind=kind, hyper=hyper, **stray)

    def test_brownian_separable_needs_no_lengthscale(self):
        spatial = KernelSpec(kind="laplacian_spatial", hyper={})
        spec = KernelSpec(kind="separable_product", hyper={}, temporal_kind="brownian", spatial=spatial)
        assert spec.temporal_kind == "brownian"

    def test_cosine_with_omega_needs_no_lengthscale(self, path3):
        # omega fixes the frequency, so a lengthscale would go unread: the Gram is the same with one
        spatial = KernelSpec(kind="laplacian_spatial", hyper={})
        spec = KernelSpec(kind="separable_product", hyper={"omega": 2.0}, temporal_kind="cosine", spatial=spatial)
        points = [STPoint(v, t) for v in range(3) for t in (0.5, 1.0, 2.5)]
        gram = assemble_gram(spec, path3, points).matrix
        unread = assemble_gram(spec.with_hyper(time_lengthscale=50.0), path3, points).matrix
        np.testing.assert_array_equal(gram, unread)
        with pytest.raises(DataError, match="missing hyperparameters"):
            KernelSpec(kind="separable_product", hyper={}, temporal_kind="cosine", spatial=spatial)

    @pytest.mark.parametrize(
        "kind, hyper, temporal_kind",
        [
            ("shek", {"c": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0, "variance": 4.0}, None),
            ("shek", {"c": 1.0, "sigmaa": 1.0, "sigma": 1.0, "nu": 1.0, "kappa": 1.0}, None),
            ("separable_product", {"time_lengthscale": 1.0, "c": 1.0}, "rbf"),
            ("separable_product", {"time_lengthscale": 1.0, "omega": 2.0}, "exponential"),
            ("laplacian_spatial", {"variance": 1.0, "time_lengthscale": 1.0}, None),
            ("matern_spatial", {"nu": 1.0, "kappa": 1.0, "sigma": 1.0}, None),
        ],
        ids=["variance-shek", "sigmaa-shek", "c-separable", "omega-exponential", "lengthscale-laplacian",
             "sigma-matern"],
    )
    def test_foreign_hyperparameter_rejected(self, kind, hyper, temporal_kind):
        # a name the kind never reads would otherwise be ignored: the Gram is the same without it
        spatial = KernelSpec(kind="laplacian_spatial", hyper={}) if temporal_kind else None
        with pytest.raises(DataError, match="takes no hyperparameters"):
            KernelSpec(kind=kind, hyper=hyper, temporal_kind=temporal_kind, spatial=spatial)

    @pytest.mark.parametrize("value", ["1", None, [1.0]])
    def test_non_numeric_hyper_rejected(self, value):
        with pytest.raises(DataError, match="strictly positive number"):
            KernelSpec(kind="matern_spatial", hyper={"nu": value, "kappa": 1.0})

    def test_numpy_integers_and_floats_accepted_as_hyper(self):
        spec = KernelSpec(kind="matern_spatial", hyper={"nu": np.float32(1.5), "kappa": np.int64(2)})
        assert dict(spec.hyper) == {"nu": 1.5, "kappa": 2}

    @pytest.mark.parametrize(
        "temporal_kind, hyper",
        [("brownian", {"time_lengthscale": 1.0}), ("cosine", {"time_lengthscale": 1.0, "omega": 2.0})],
    )
    def test_lengthscale_on_brownian_and_omega_on_cosine_accepted(self, temporal_kind, hyper):
        spatial = KernelSpec(kind="laplacian_spatial", hyper={})
        spec = KernelSpec(kind="separable_product", hyper=hyper, temporal_kind=temporal_kind, spatial=spatial)
        assert dict(spec.hyper) == hyper


class TestSTPoint:
    @pytest.mark.parametrize("vertex", [1.5, 2.0, "1", None])
    def test_non_integer_vertex_rejected(self, vertex):
        # a float vertex would build, and fail later as a list index inside the likelihood
        with pytest.raises(DataError, match="non-negative integer"):
            STPoint(vertex, 1.0)

    def test_numpy_integers_and_floats_accepted(self):
        point = STPoint(np.int64(2), np.float32(1.5))
        assert (point.vertex, point.time) == (2, 1.5)


class TestAssembleGram:
    def test_single_point_is_variance(self, path3):
        spec = KernelSpec(
            kind="separable_product",
            hyper={"variance": 2.0, "time_lengthscale": 1.5},
            temporal_kind="rbf",
            spatial=KernelSpec(kind="matern_spatial", hyper={"nu": 1.0, "kappa": 1.0}),
        )
        point = STPoint(vertex=1, time=2.0)
        gram = assemble_gram(spec, path3, [point])
        spatial = matern_graph_kernel(laplacian(path3), 1.0, 1.0)
        np.testing.assert_allclose(gram.matrix, [[2.0 * spatial[1, 1]]])

    def test_separable_factorizes_at_common_time(self, path3):
        spec = KernelSpec(
            kind="separable_product",
            hyper={"variance": 1.0, "time_lengthscale": 2.0},
            temporal_kind="rbf",
            spatial=KernelSpec(kind="laplacian_spatial", hyper={}),
        )
        points = [STPoint(vertex=v, time=3.0) for v in range(3)]
        gram = assemble_gram(spec, path3, points)
        spatial = laplacian_kernel(laplacian(path3))
        np.testing.assert_allclose(gram.matrix, spatial, atol=1e-12)

    def test_unknown_vertex_rejected(self, path3):
        spec = KernelSpec(kind="laplacian_spatial", hyper={})
        with pytest.raises(DataError, match="vertex"):
            assemble_gram(spec, path3, [STPoint(vertex=7, time=0.0)])

    def test_shek_gram_blocks_match_entrywise_covariance(self, path3):
        # every kind and variant (SHEK and SWEK among them) against its
        # matrix-level reference, on the 3-path and on random graphs with an
        # isolated vertex; the points are unsorted and include t = 0 and
        # repeated times and rows, or lie at as many distinct times as there
        # are points, or read every vertex twice, each at its own time
        rng = np.random.default_rng(11)
        for g in [path3] + [_with_isolated_vertex(random_graph(rng, 6)) for _ in range(2)]:
            pairs = [(v, t) for t in (0.5, 1.0, 2.0) for v in range(g.n_vertices)]
            pairs += [(0, 0.0), (g.n_vertices - 1, 0.0), (1, 1.0), pairs[3]]
            near_grid = [STPoint(*pairs[k]) for k in rng.permutation(len(pairs))]
            off_grid = [
                STPoint(int(v), float(t))
                for v, t in zip(rng.integers(0, g.n_vertices, 12), rng.uniform(0.0, 3.0, 12))
            ]
            n_distinct = 2 * g.n_vertices
            distinct = [
                STPoint(int(v) % g.n_vertices, float(t))
                for v, t in zip(rng.permutation(n_distinct), np.append(0.0, rng.uniform(0.0, 3.0, n_distinct - 1)))
            ]
            for spec, cov in _gram_references(g):
                for points in (near_grid, off_grid, distinct):
                    gram = assemble_gram(spec, g, points).matrix
                    blocks = {}
                    expected = np.empty_like(gram)
                    for a, p in enumerate(points):
                        for b, q in enumerate(points):
                            if (p.time, q.time) not in blocks:
                                blocks[p.time, q.time] = cov(p.time, q.time)
                            expected[a, b] = blocks[p.time, q.time][p.vertex, q.vertex]
                    scale = max(np.max(np.abs(expected)), 1.0)
                    np.testing.assert_allclose(
                        gram, expected, rtol=0, atol=1e-10 * scale, err_msg=repr(spec)
                    )

    @pytest.mark.parametrize("kind", ["laplacian_spatial", "matern_spatial", "separable_product"])
    def test_factored_gram_memory_is_quadratic_in_points(self, kind):
        # 100 points at 100 distinct times on 20 vertices: the spatial factor
        # and the temporal kernel gather apart in O(n^2 + N^2), where the full
        # (T n)^2 cross-covariance would take 400 times the Gram
        rng = np.random.default_rng(3)
        g = build_graph([str(v) for v in range(20)], [(str(v), str(v + 1), 1.0) for v in range(19)])
        n_points = 100
        points = [
            STPoint(int(v), float(t))
            for v, t in zip(rng.integers(0, 20, n_points), rng.uniform(0.0, 5.0, n_points))
        ]
        hyper = {"nu": 1.5, "kappa": 1.0, "variance": 1.0, "time_lengthscale": 1.0}
        spec = _spec_for(kind, hyper, rng)
        expected = assemble_gram(spec, g, points).matrix  # warms the spectrum cache
        tracemalloc.start()
        try:
            gram = assemble_gram(spec, g, points).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(gram, expected)
        assert peak < 8 * expected.nbytes

        # 400 points at 6 distinct times: the Gram is the only N x N array,
        # neither the temporal gather nor the symmetrization may copy it whole
        points = [
            STPoint(int(v), float(t))
            for v, t in zip(rng.integers(0, 20, 400), rng.integers(0, 6, 400))
        ]
        expected = assemble_gram(spec, g, points).matrix
        tracemalloc.start()
        try:
            gram = assemble_gram(spec, g, points).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(gram, expected)
        np.testing.assert_array_equal(gram, gram.T)
        assert peak < 1.5 * expected.nbytes

    @pytest.mark.parametrize("kind", ["shek", "swek"])
    def test_process_gram_memory_at_distinct_times(self, kind):
        # 200 points at 200 distinct times on a 21-vertex line: the rows at
        # each time gather apart, so beside the Gram only the (n, T, T)
        # covariance stack (21 Grams) and the temporaries of its evaluation
        # exist, where the (T n)^2 cross-covariance alone would take 441 Grams.
        # SHEK peaks near 35 Grams; SWEK, one product of its generators per mode
        # and its mirror, near 43 (its pair-by-pair form took 50)
        rng = np.random.default_rng(4)
        g = line_graph(21)
        points = [
            STPoint(int(v), float(t)) for v, t in zip(rng.integers(0, 21, 200), rng.uniform(0.0, 5.0, 200))
        ]
        spec = KernelSpec(kind=kind, hyper={"c": 0.8, "sigma": 1.2, "nu": 1.5, "kappa": 1.0})
        expected = assemble_gram(spec, g, points).matrix  # warms the spectrum cache
        tracemalloc.start()
        try:
            gram = assemble_gram(spec, g, points).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(gram, expected)
        np.testing.assert_array_equal(gram, gram.T)
        assert peak < {"shek": 40, "swek": 55}[kind] * expected.nbytes

    def test_gram_symmetric_psd_randomized_all_kinds(self):
        rng = np.random.default_rng(40)
        for trial in range(24):
            g = random_graph(rng, 10)
            n_times = int(rng.integers(1, 9))
            times = np.sort(rng.uniform(0.0, 5.0, size=n_times))
            hyper = {
                name: float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
                for name in ("c", "sigma", "nu", "kappa", "time_lengthscale", "variance")
            }
            kind = ("laplacian_spatial", "matern_spatial", "separable_product", "shek", "swek")[trial % 5]
            spec = _spec_for(kind, hyper, rng)
            points = [
                STPoint(vertex=int(rng.integers(0, g.n_vertices)), time=float(t))
                for t in times
                for _ in range(2)
            ]
            gram = assemble_gram(spec, g, points).matrix
            np.testing.assert_allclose(gram, gram.T, atol=1e-8)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-6 * max(eigs.max(), 0.0) - 1e-12


def _spec_for(kind: str, hyper: dict, rng) -> KernelSpec:
    if kind == "laplacian_spatial":
        return KernelSpec(kind=kind, hyper={"variance": hyper["variance"]})
    if kind == "matern_spatial":
        return KernelSpec(kind=kind, hyper={k: hyper[k] for k in ("nu", "kappa", "variance")})
    if kind == "separable_product":
        temporal = ("rbf", "exponential", "brownian", "cosine")[int(rng.integers(0, 4))]
        sub_hyper = {"variance": hyper["variance"]}
        if temporal != "brownian":
            sub_hyper["time_lengthscale"] = hyper["time_lengthscale"]
        spatial = KernelSpec(kind="matern_spatial", hyper={"nu": hyper["nu"], "kappa": hyper["kappa"]})
        return KernelSpec(kind="separable_product", hyper=sub_hyper, temporal_kind=temporal, spatial=spatial)
    return KernelSpec(kind=kind, hyper={k: hyper[k] for k in ("c", "sigma", "nu", "kappa")})


def _with_isolated_vertex(g):
    labels = list(g.labels) + ["zz"]
    return build_graph(labels, [(g.labels[i], g.labels[j], w) for i, j, w in g.edges])


def _gram_references(g):
    """(spec, cov(t, s) -> n x n) for every kind and every variant ``g`` allows."""
    isolated = bool(np.any(g.degrees == 0))
    symmetric = ("unnormalized",) if isolated else ("unnormalized", "sym_normalized")
    spatial = []
    for variant in symmetric + (() if isolated else ("random_walk",)):
        spec = KernelSpec(kind="laplacian_spatial", hyper={"variance": 0.6}, laplacian_variant=variant)
        spatial.append((spec, 0.6 * laplacian_kernel(laplacian(g, variant))))
    for variant in symmetric:
        hyper = {"nu": 1.5, "kappa": 1.2, "variance": 1.7}
        spec = KernelSpec(kind="matern_spatial", hyper=hyper, laplacian_variant=variant)
        spatial.append((spec, 1.7 * matern_graph_kernel(laplacian(g, variant), 1.5, 1.2)))
    cases = [(spec, lambda t, s, k=k: k) for spec, k in spatial]
    for variant in symmetric:
        frac = fractional_laplacian(laplacian(g, variant), 1.0, 1.0)
        for kind, cov in (("shek", shek_cov), ("swek", swek_cov)):
            spec = KernelSpec(kind=kind, hyper={"c": 0.8, "sigma": 1.2, "nu": 1.0, "kappa": 1.0},
                              laplacian_variant=variant)
            cases.append((spec, lambda t, s, cov=cov, frac=frac: cov(frac, 0.8, 1.2, t, s)))
    hyper = {"variance": 1.3, "time_lengthscale": 0.9}
    for sub_spec, k in spatial:
        if sub_spec.laplacian_variant == "random_walk":
            continue
        for temporal in ("rbf", "exponential", "brownian", "cosine"):
            spec = KernelSpec(kind="separable_product", hyper=hyper, temporal_kind=temporal, spatial=sub_spec)
            cases.append((spec, lambda t, s, k=k, temporal=temporal: k * temporal_kernel(temporal, hyper, t, s)))
    return cases


def test_random_walk_semigroup_reaches_degree_weighted_stationary():
    g = build_graph(["a", "b", "c"], [("a", "b", 2.0), ("b", "c", 1.0)])
    lap_rw = laplacian(g, "random_walk")
    limit = heat_semigroup(lap_rw, 1.0, 60.0)
    degrees = np.array([2.0, 3.0, 1.0])
    stationary = degrees / degrees.sum()
    for row in limit:
        np.testing.assert_allclose(row, stationary, atol=1e-10)


class TestSymmetricVariantRequired:
    @pytest.mark.parametrize("kind", ["shek", "swek", "matern_spatial"])
    def test_random_walk_rejected_when_built(self, kind):
        hyper = {"nu": 1.0, "kappa": 1.0}
        if kind != "matern_spatial":
            hyper.update(c=1.0, sigma=1.0)
        with pytest.raises(DataError, match="random_walk"):
            KernelSpec(kind=kind, hyper=hyper, laplacian_variant="random_walk")

    def test_random_walk_spatial_sub_spec_rejected(self):
        spatial = KernelSpec(kind="laplacian_spatial", hyper={}, laplacian_variant="random_walk")
        with pytest.raises(DataError, match="random_walk"):
            KernelSpec(kind="separable_product", hyper={"time_lengthscale": 1.0},
                       temporal_kind="rbf", spatial=spatial)

    def test_spatial_laplacian_kernel_keeps_random_walk(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        spec = KernelSpec(kind="laplacian_spatial", hyper={}, laplacian_variant="random_walk")
        gram = assemble_gram(spec, g, [STPoint(v, 1.0) for v in range(3)]).matrix
        assert np.all(np.isfinite(gram))


def test_swek_series_derivative_is_twice_its_theta_part():
    # below theta * max(t, s) = 1e-3 the value is sigma^2 (t s^2 / 2 - s^3 / 6) + theta^2 (...) + O(theta^4),
    # whose log-theta derivative is twice its theta-dependent part, k(theta) - k(0), to O(theta^2)
    from graphspde.kernels import _swek_generators, _swek_stack

    theta = 9e-5 * np.sqrt([0.5, 2.0, 7.0])[:, None]
    times = np.array([0.0, 0.5, 1.0, 2.5, 4.0])
    sigma = 3.0
    assert np.all(theta * times < 1e-3)
    rows, cols, d_rows, d_cols = _swek_generators(theta, sigma, times)
    k = _swek_stack(rows, cols, times)
    limit = _swek_stack(*_swek_generators(1e-300 * theta, sigma, times)[:2], times)
    np.testing.assert_allclose(_swek_stack(d_rows, d_cols, times), 2.0 * (k - limit), rtol=1e-5)


def test_swek_series_is_evaluated_only_where_it_is_used(monkeypatch):
    # the series takes over below theta * t = _SWEK_SERIES, per mode and time; the direct form
    # covers every other entry, so only those below see it, in one call for the value and the
    # derivative: the modes wholly below the switch and the leading times of those partly below it
    from graphspde import kernels

    series = kernels._swek_series
    seen = []

    def recording(x):
        seen.append(x.copy())
        return series(x)

    monkeypatch.setattr(kernels, "_swek_series", recording)
    theta = np.sqrt([1e-8, 1e-6, 0.05, 0.5, 2.0, 7.0])[:, None]
    times = np.array([0.0, 0.5, 1.0, 2.5, 4.0])
    below = theta * times < kernels._SWEK_SERIES
    assert np.all(below[:3]) and not np.any(np.all(below[3:], axis=1)) and np.all(below[:, 0])
    kernels._swek_generators(theta, 1.5, times)
    assert len(seen) == 1 and seen[0].tobytes() == (theta * times)[below].tobytes()


def test_swek_stack_is_the_generators_outer_product_mirrored():
    # where t >= s each mode's stack is sum_k rows[k](t) cols[k](s), one product per mode; where
    # t < s, that triangle mirrored, so the stack is exactly symmetric; its diagonal is the
    # generators' entry-by-entry sum, bit for bit, which _mode_variances reads
    from graphspde.kernels import _rank_sum, _swek_generators, _swek_stack

    rng = np.random.default_rng(11)
    theta = np.exp(rng.uniform(-4.0, 1.5, 9))[:, None]
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 6.0, 12))])
    below = times[:, None] >= times
    generators = _swek_generators(theta, 1.3, times)
    for rows, cols in (generators[:2], generators[2:]):
        stack = _swek_stack(rows, cols, times)
        np.testing.assert_array_equal(stack, stack.swapaxes(1, 2))
        assert np.diagonal(stack, axis1=1, axis2=2).tobytes() == _rank_sum(rows, cols).tobytes()
        terms = np.einsum("kit,kis->kits", np.array(rows), np.array(cols))
        bound = 4 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(stack - terms.sum(axis=0))[:, below] <= bound[:, below])


@pytest.mark.parametrize("c", [0.02, 0.05, 0.9])
def test_swek_scalar_form_matches_the_stack_in_every_layout(c):
    # swek_cov's scalar form reads the generators of max(t, s) against those of min(t, s) entry by
    # entry: in every layout it gives the stack's entries to round-off and its diagonal bit for bit,
    # and both sides of the series switch are read at every c
    from graphspde import kernels

    rng = np.random.default_rng(5)
    mu, sigma, sides = np.exp(rng.uniform(-9.0, 3.0, 11))[:, None], 1.3, set()
    layouts = [np.arange(1.0, 51.0), 0.2 * np.arange(1, 71), np.sort(rng.uniform(0.0, 30.0, 40)),
               np.array([0.0, 3.0]), np.array([2.25, 7.5])]
    for times in layouts:
        stack = kernels._swek_stack(*kernels._swek_generators(c * np.sqrt(mu), sigma, times)[:2], times)
        scalar = kernels._swek_eig(mu[:, :, None], c, sigma, times[:, None], times[None])
        bound = 4 * np.finfo(float).eps * np.max(np.abs(stack), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(scalar - stack) <= bound)
        diagonal = np.diagonal(stack, axis1=1, axis2=2)
        assert kernels._swek_eig(mu, c, sigma, times[None], times[None]).tobytes() == diagonal.tobytes()
        pair = kernels._swek_eig(mu[:, 0], c, sigma, times[-1], times[0])  # one scalar pair, reversed
        assert np.all(np.abs(pair - stack[:, 0, -1]) <= bound[:, 0, 0])
        sides.update(np.unique(c * np.sqrt(mu) * times < kernels._SWEK_SERIES).tolist())
    assert sides == {False, True}


def _pair_form_swek(theta, sigma, t, s):
    """The SWEK covariance pair by pair in its direct form, with a series through theta^4 below
    theta * max(t, s) = 0.02: the form the covariances took before the generators, the baseline
    of the accuracy oracle."""
    m, big, gap = np.minimum(t, s), np.maximum(t, s), np.abs(t - s)
    small = theta * big < 0.02
    th = np.where(small, 1.0, theta)
    with np.errstate(invalid="ignore"):
        out = sigma**2 / (2.0 * th**2) * (m * np.cos(th * gap) - np.cos(th * big) * np.sin(th * m) / th)
    theta, m, big, gap = (np.broadcast_to(a, small.shape)[small] for a in (theta, m, big, gap))
    lead = m**3 / 6.0 + big**2 * m / 2.0 - m * gap**2 / 2.0
    correction, correction2 = _pair_form_series_terms(m, big, gap)
    out[small] = sigma**2 / 2.0 * (lead + theta**2 * (correction + theta**2 * correction2))
    return out


def _pair_form_swek_dlog_theta(k, theta, sigma, t, s):
    """The log-theta derivative of :func:`_pair_form_swek` (value ``k``), in the same form."""
    m, big, gap = np.minimum(t, s), np.maximum(t, s), np.abs(t - s)
    small = theta * big < 0.02
    th = np.where(small, 1.0, theta)
    with np.errstate(invalid="ignore"):
        cos_big, sin_m = np.cos(th * big), np.sin(th * m)
        theta_dh = (-m * gap * th * np.sin(th * gap) + big * np.sin(th * big) * sin_m
                    - m * cos_big * np.cos(th * m) + cos_big * sin_m / th)
        out = sigma**2 / (2.0 * th**2) * theta_dh - 2.0 * k
    theta, m, big, gap = (np.broadcast_to(a, small.shape)[small] for a in (theta, m, big, gap))
    correction, correction2 = _pair_form_series_terms(m, big, gap)
    out[small] = sigma**2 * theta**2 * (correction + 2.0 * theta**2 * correction2)
    return out


def _pair_form_series_terms(m, big, gap):
    """theta^4 and theta^6 coefficients of ``m cos(theta gap) - cos(theta big) sin(theta m) / theta``."""
    correction = m * gap**4 / 24.0 - m**5 / 120.0 - big**2 * m**3 / 12.0 - big**4 * m / 24.0
    correction2 = (
        m**7 / 5040.0 + big**2 * m**5 / 240.0 + big**4 * m**3 / 144.0 + big**6 * m / 720.0 - m * gap**6 / 720.0
    )
    return correction, correction2


def _mpmath_swek(theta, sigma, times):
    """The SWEK covariance and its log-theta derivative per mode, (n, T, T) each, from mpmath at 40
    digits, with theta and the times taken exactly as the floats they are."""
    import mpmath

    mpmath.mp.dps = 40
    n, size = theta.shape[0], times.shape[0]
    value, derivative = np.zeros((n, size, size)), np.zeros((n, size, size))
    for i, th in enumerate(map(mpmath.mpf, theta.ravel())):
        scale = mpmath.mpf(sigma) ** 2 / (2 * th**2)
        for a in range(size):
            for b in range(a + 1):
                big, m = mpmath.mpf(times[a]), mpmath.mpf(times[b])
                cos_big, sin_m = mpmath.cos(th * big), mpmath.sin(th * m)
                h = m * mpmath.cos(th * (big - m)) - cos_big * sin_m / th
                theta_dh = (-m * (big - m) * th * mpmath.sin(th * (big - m)) + big * mpmath.sin(th * big) * sin_m
                            - m * cos_big * mpmath.cos(th * m) + cos_big * sin_m / th)
                value[i, a, b] = value[i, b, a] = scale * h
                derivative[i, a, b] = derivative[i, b, a] = scale * (theta_dh - 2 * h)
    return value, derivative


def test_swek_generators_match_an_mpmath_reference():
    # theta * t from 1e-6 to 2e5, the range line-search trials reach under the step cap; both sides
    # of the series switch, and modes partly in the series; t = 0; and, through _process_covariances,
    # the near-zero modes of a large kappa.  The error, per mode and relative to its largest entry,
    # is no worse than the pair form's, apart from a loss at large theta t: the argument theta t
    # rounds to within eps theta t, and the generator form meets that rounding at both times of a
    # pair where the pair form meets it at their gap, so it may lose up to eps theta max(t) more
    # (on this grid 4.1e-12 against 1.3e-12 for the value at theta max(t) = 6e4).  Near the switch
    # it gains: just above its switch at 0.02 the pair form lost up to 3.6e-13 (value) and 7.6e-9
    # (derivative), where the generators stay within 1e-15
    from graphspde.kernels import _process_covariances, _swek_generators, _swek_stack

    eps, sigma = np.finfo(float).eps, 1.3
    times = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, 2.0, 3.7, 5.0, 8.0, 13.0, 20.0])
    reach = np.concatenate([np.geomspace(1e-6, 2e5, 23), np.linspace(0.5, 1.5, 9), [0.0199, 0.0201, 0.0222]])
    theta = (reach / times[-1])[:, None]
    spec = KernelSpec(kind="swek", hyper={"c": 0.7, "sigma": sigma, "nu": 2.5, "kappa": 1e4})
    basis, large_kappa, d_large_kappa = _process_covariances(spec, line_graph(5), times)
    mu = fractional_laplacian(laplacian(line_graph(5)), 2.5, 1e4).shifted_eigs
    assert np.min(0.7 * np.sqrt(mu)) < 1e-4  # a near-zero mode
    theta_kappa = 0.7 * np.sqrt(mu)[:, None]
    generators = _swek_generators(theta, sigma, times)
    value = np.concatenate([_swek_stack(*generators[:2], times), large_kappa])
    derivative = np.concatenate([_swek_stack(*generators[2:], times), next(d_large_kappa(["c"]))])
    theta = np.concatenate([theta, theta_kappa])
    assert np.min(theta * times[-1]) < 1e-5 and np.max(theta * times[-1]) > 1e5

    t, s = times[:, None][None], times[None, None]
    pair_value = _pair_form_swek(theta[:, :, None], sigma, t, s)
    pair_derivative = _pair_form_swek_dlog_theta(pair_value, theta[:, :, None], sigma, t, s)
    want_value, want_derivative = _mpmath_swek(theta, sigma, times)
    np.testing.assert_array_equal(value[:, 0], 0.0)  # t = 0: the process starts at rest
    np.testing.assert_array_equal(derivative[:, 0], 0.0)
    loss = eps * theta[:, 0] * times[-1]

    def error(got, want):
        return np.max(np.abs(got - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))

    for got, pair, want in ((value, pair_value, want_value), (derivative, pair_derivative, want_derivative)):
        assert np.all(error(got, want) <= np.maximum(error(pair, want), 8 * eps) + loss)
        assert np.all(error(got, want)[theta[:, 0] * times[-1] < 10.0] <= 8 * eps)
