import tracemalloc

import numpy as np
import pytest

from graphspde import (
    DataError,
    PathEnsemble,
    StabilityError,
    empirical_cross_cov,
    fractional_laplacian,
    laplacian,
    line_graph,
    shek_cov,
    shek_cov_general,
    shek_matrix_noise_cov,
    shek_mean,
    simulate_heat,
    simulate_wave,
    swek_cov,
    swek_mean,
)
from graphspde import sde
from graphspde.sde import _CHUNK


def path3_operator(nu=1.0, kappa=np.sqrt(2.0)):
    # shift 2*nu/kappa^2 = 1; eigenvalues (1 + {0,1,3})^(nu/2)
    return fractional_laplacian(laplacian(line_graph(3)), nu, kappa)


class TestSimulateHeat:
    def test_deterministic_limit_matches_semigroup(self):
        frac = path3_operator()
        u0 = np.array([1.0, -0.5, 2.0])
        ens = simulate_heat(frac.matrix, 1.0, 0.0, u0, dt=1e-4, t_end=1.0, n_paths=1,
                            seed=0, save_stride=10_000)
        expected = shek_mean(frac, 1.0, u0, 1.0)
        assert np.max(np.abs(ens.paths[0, -1] - expected)) < 1e-3

    def test_zero_start_mean_stays_near_zero(self):
        frac = path3_operator()
        ens = simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), dt=1e-2, t_end=1.0,
                            n_paths=4000, seed=1, save_stride=100)
        endpoint = ens.paths[:, -1, :]
        se = endpoint.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
        assert np.all(np.abs(endpoint.mean(axis=0)) <= 3.0 * se)

    def test_identical_seed_replays_identically(self):
        frac = path3_operator()
        kwargs = dict(dt=1e-2, t_end=0.5, n_paths=64, seed=7, save_stride=10)
        a = simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), **kwargs)
        b = simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), **kwargs)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_per_path_streams_do_not_depend_on_ensemble_size(self):
        frac = path3_operator()
        small = simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), dt=1e-2, t_end=0.2,
                              n_paths=3, seed=9)
        large = simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), dt=1e-2, t_end=0.2,
                              n_paths=8, seed=9)
        np.testing.assert_array_equal(small.paths, large.paths[:3])

    def test_stability_guard(self):
        frac = path3_operator()
        with pytest.raises(StabilityError):
            simulate_heat(frac.matrix, 10.0, 1.0, np.zeros(3), dt=0.05, t_end=1.0,
                          n_paths=2, seed=0)

    def test_oracle_contract_cross_covariance(self):
        # the core oracle example: empirical covariance at (t, s) = (1.0, 0.5)
        # must agree with the analytic SHEK within 4 Monte Carlo SEs elementwise
        frac = path3_operator()
        c, sigma = 1.0, 1.0
        ens = simulate_heat(frac.matrix, c, sigma, np.zeros(3), dt=1e-3, t_end=1.0,
                            n_paths=50_000, seed=11, save_stride=100)
        emp, se = empirical_cross_cov(ens, ens.index_of_time(1.0), ens.index_of_time(0.5))
        analytic = shek_cov(frac, c, sigma, 1.0, 0.5)
        assert np.max(np.abs(emp - analytic) / se) <= 4.0

    def test_matrix_noise_oracle(self):
        frac = path3_operator()
        c = 1.0
        sigma_matrix = np.diag([1.0, 2.0, 3.0])
        ens = simulate_heat(frac.matrix, c, sigma_matrix, np.zeros(3), dt=1e-3, t_end=0.8,
                            n_paths=50_000, seed=13, save_stride=100)
        emp, se = empirical_cross_cov(ens, ens.index_of_time(0.8), ens.index_of_time(0.3))
        analytic = shek_matrix_noise_cov(frac, c, sigma_matrix, 0.8, 0.3)
        assert np.max(np.abs(emp - analytic) / se) <= 4.0

    def test_directed_operator_oracle(self):
        # single directed edge; non-normal operator
        lt = np.array([[1.0, -1.0], [0.0, 0.0]])
        c, sigma, t = 1.0, 1.0, 0.5
        ens = simulate_heat(lt, c, sigma, np.zeros(2), dt=1e-3, t_end=t,
                            n_paths=50_000, seed=17, save_stride=250)
        emp, se = empirical_cross_cov(ens, ens.index_of_time(t), ens.index_of_time(t))
        analytic = shek_cov_general(lt, c, sigma, t, t)
        assert np.max(np.abs(emp - analytic) / se) <= 4.0


class TestSimulateWave:
    def test_deterministic_harmonic_oscillator(self):
        lt = np.array([[1.0]])  # theta = 1 with c = 1
        ens = simulate_wave(lt, 1.0, 0.0, np.array([1.0]), np.array([0.0]),
                            dt=1e-4, t_end=1.0, n_paths=1, seed=0, save_stride=10_000)
        assert abs(ens.paths[0, -1, 0] - np.cos(1.0)) < 1e-3

    def test_scalar_variance_at_pi(self):
        # matches the analytic scalar value pi/2 at t = s = pi (theta = sigma = 1)
        lt = np.array([[1.0]])
        dt = np.pi / 4000.0
        ens = simulate_wave(lt, 1.0, 1.0, np.array([0.0]), np.array([0.0]),
                            dt=dt, t_end=np.pi, n_paths=50_000, seed=23, save_stride=2000)
        emp, se = empirical_cross_cov(ens, -1, -1)
        frac = fractional_laplacian(np.array([[0.0]]), nu=2.0, kappa=2.0)  # eigenvalue 1
        analytic = swek_cov(frac, 1.0, 1.0, np.pi, np.pi)
        np.testing.assert_allclose(analytic[0, 0], np.pi / 2.0)
        assert abs(emp[0, 0] - analytic[0, 0]) <= 4.0 * se[0, 0]

    def test_ensemble_mean_matches_swek_mean(self):
        frac = path3_operator()
        c, sigma = 1.0, 0.5
        u0 = np.array([0.0, 0.0, 2.0])
        v0 = np.array([0.5, 0.0, 0.0])
        ens = simulate_wave(frac.matrix, c, sigma, u0, v0, dt=1e-3, t_end=1.0,
                            n_paths=20_000, seed=29, save_stride=500)
        endpoint = ens.paths[:, -1, :]
        se = endpoint.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
        expected = swek_mean(frac, c, u0, v0, 1.0)
        assert np.all(np.abs(endpoint.mean(axis=0) - expected) <= 3.0 * se)

    def test_stability_guard(self):
        lt = np.array([[100.0]])
        with pytest.raises(StabilityError):
            simulate_wave(lt, 10.0, 1.0, np.array([0.0]), np.array([0.0]),
                          dt=0.05, t_end=1.0, n_paths=2, seed=0)


class TestEmpiricalCrossCov:
    def test_constant_paths_zero_covariance(self):
        times = np.array([0.0, 0.5, 1.0])
        paths = np.ones((10, 3, 2))
        ens = PathEnsemble(times=times, paths=paths, seed=0, dt=0.5)
        cov, se = empirical_cross_cov(ens, 0, 2)
        np.testing.assert_allclose(cov, 0.0)
        np.testing.assert_allclose(se, 0.0)

    def test_same_index_gives_symmetric_psd(self):
        rng = np.random.default_rng(3)
        paths = rng.standard_normal((500, 2, 3))
        ens = PathEnsemble(times=np.array([0.0, 1.0]), paths=paths, seed=0, dt=1.0)
        cov, _ = empirical_cross_cov(ens, 1, 1)
        np.testing.assert_allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_iid_normal_recovers_identity(self):
        rng = np.random.default_rng(5)
        paths = rng.standard_normal((40_000, 1, 4))
        ens = PathEnsemble(times=np.array([0.0]), paths=paths, seed=0, dt=1.0)
        cov, se = empirical_cross_cov(ens, 0, 0)
        assert np.max(np.abs(cov - np.eye(4)) / se) <= 4.0

    @pytest.mark.parametrize("p", [2, 1000])
    def test_se_matches_the_product_tensor(self, p):
        # at p = 2 the two centred products are equal and the SE is 0, so only
        # rounding separates the two forms; readings on a 1/4 grid centre exactly
        rng = np.random.default_rng(p)
        paths = rng.standard_normal((p, 2, 3)) * [1.0, 10.0, 0.1] + 5.0
        paths[:, 1] += 0.6 * paths[:, 0]
        if p == 2:
            paths = np.round(4 * paths) / 4
        ens = PathEnsemble(times=np.array([0.0, 1.0]), paths=paths, seed=0, dt=1.0)
        xc, yc = (paths[:, i] - paths[:, i].mean(axis=0) for i in (1, 0))
        expected = (xc[:, :, None] * yc[:, None, :]).std(axis=0, ddof=1) / np.sqrt(p)
        _, se = empirical_cross_cov(ens, 1, 0)
        np.testing.assert_allclose(se, expected, rtol=1e-12, atol=0.0)

    def test_needs_two_paths(self):
        ens = PathEnsemble(times=np.array([0.0]), paths=np.zeros((1, 1, 2)), seed=0, dt=1.0)
        with pytest.raises(DataError):
            empirical_cross_cov(ens, 0, 0)


class TestPathEnsembleValidation:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(DataError, match="uniform"):
            PathEnsemble(times=np.array([0.0, 0.1, 0.5]), paths=np.zeros((2, 3, 1)), seed=0, dt=0.1)

    def test_rejects_bad_step_plan(self):
        frac = path3_operator()
        with pytest.raises(DataError, match="multiple"):
            simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), dt=0.15, t_end=1.0, n_paths=1, seed=0)
        with pytest.raises(DataError, match="divide"):
            simulate_heat(frac.matrix, 1.0, 1.0, np.zeros(3), dt=0.1, t_end=1.0, n_paths=1,
                          seed=0, save_stride=3)


def test_shek_gram_matches_stacked_empirical_covariance():
    # the 12x12 Gram over {3 vertices} x {4 times} must match the empirical
    # covariance of the stacked path vector within 5% relative
    # (1% absolute of the largest entry)
    from graphspde import KernelSpec, STPoint, assemble_gram

    graph = line_graph(3)
    frac = path3_operator()
    c, sigma = 1.0, 1.0
    times = (0.3, 0.6, 0.9, 1.2)
    spec = KernelSpec(kind="shek", hyper={"c": c, "sigma": sigma, "nu": 1.0, "kappa": np.sqrt(2.0)})
    points = [STPoint(v, t) for t in times for v in range(3)]
    gram = assemble_gram(spec, graph, points).matrix

    ens = simulate_heat(frac.matrix, c, sigma, np.zeros(3), dt=1e-3, t_end=1.2,
                        n_paths=50_000, seed=37, save_stride=300)
    stacked = np.concatenate([ens.paths[:, ens.index_of_time(t), :] for t in times], axis=1)
    centered = stacked - stacked.mean(axis=0)
    empirical = centered.T @ centered / (ens.n_paths - 1)

    tolerance = np.maximum(0.05 * np.abs(gram), 0.01 * np.max(np.abs(gram)))
    assert np.all(np.abs(empirical - gram) <= tolerance)


# ---------------------------------------------------------------------------
# block propagation against the stepwise Euler-Maruyama loop
# ---------------------------------------------------------------------------


def _stepwise_noise(seed, n_paths, steps, n):
    return np.stack([np.random.default_rng([seed, p]).standard_normal((steps, n))
                     for p in range(n_paths)])


def _stepwise_heat(lt, c, noise, u0, dt, t_end, n_paths, seed, save_stride=1, xi=None):
    """Reference: one Python iteration per Euler-Maruyama step, on normals ``xi``."""
    lt, noise = np.asarray(lt, dtype=float), np.asarray(noise, dtype=float)
    n, steps = lt.shape[0], int(round(t_end / dt))
    if xi is None:
        xi = _stepwise_noise(seed, n_paths, steps, n)
    u = np.tile(np.broadcast_to(u0, (n,)), (n_paths, 1))
    saved = [u]
    for k in range(steps):
        if noise.ndim == 0:
            kick = noise * np.sqrt(dt) * xi[:, k]
        else:
            kick = np.sqrt(dt) * xi[:, k] @ noise.T
        u = u - u @ (c * dt * lt).T + kick
        if (k + 1) % save_stride == 0:
            saved.append(u)
    return np.stack(saved, axis=1)


def _stepwise_wave(lt, c, sigma, u0, v0, dt, t_end, n_paths, seed, save_stride=1, xi=None):
    """Reference: semi-implicit Euler-Maruyama, one Python iteration per step."""
    lt = np.asarray(lt, dtype=float)
    n, steps = lt.shape[0], int(round(t_end / dt))
    if xi is None:
        xi = _stepwise_noise(seed, n_paths, steps, n)
    u = np.tile(np.broadcast_to(u0, (n,)), (n_paths, 1))
    v = np.tile(np.broadcast_to(v0, (n,)), (n_paths, 1))
    saved = [u]
    for k in range(steps):
        v = v - u @ (c**2 * dt * lt).T + sigma * np.sqrt(dt) * xi[:, k]
        u = u + v * dt
        if (k + 1) % save_stride == 0:
            saved.append(u)
    return np.stack(saved, axis=1)


DIRECTED = np.array([[1.0, -1.0], [0.0, 0.0]])  # single directed edge, non-normal
NOISE_MATRIX = np.array([[1.0, 0.3, 0.0], [-0.2, 2.0, 0.1], [0.4, 0.0, 3.0]])
STEPWISE_CASES = {
    "heat-scalar": ("heat", path3_operator().matrix, 1.3, [1.0, -0.5, 2.0], None),
    "heat-matrix": ("heat", path3_operator().matrix, NOISE_MATRIX, [0.5, 0.0, -1.0], None),
    "heat-directed": ("heat", DIRECTED, 1.0, [1.0, 2.0], None),
    "heat-sigma0": ("heat", path3_operator().matrix, 0.0, [1.0, -0.5, 2.0], None),
    "wave": ("wave", path3_operator().matrix, 0.7, [0.0, 0.0, 2.0], [0.5, 0.0, -0.3]),
    "wave-directed": ("wave", DIRECTED, 1.0, [1.0, 0.0], [0.0, -1.0]),
    "wave-sigma0": ("wave", path3_operator().matrix, 0.0, [0.0, 0.0, 2.0], [0.5, 0.0, -0.3]),
}


NOISY_CASES = sorted(name for name, case in STEPWISE_CASES.items() if np.any(case[2]))


def _simulate_case(case, n_paths, seed, save_stride, t_end=1.0, reference=False, xi=None):
    kind, lt, noise, u0, v0 = STEPWISE_CASES[case]
    kwargs = dict(dt=5e-3, t_end=t_end, n_paths=n_paths, seed=seed, save_stride=save_stride)
    if reference:
        kwargs["xi"] = xi
    if kind == "heat":
        simulate = _stepwise_heat if reference else simulate_heat
        return simulate(lt, 1.0, noise, np.array(u0), **kwargs)
    simulate = _stepwise_wave if reference else simulate_wave
    return simulate(lt, 1.0, noise, np.array(u0), np.array(v0), **kwargs)


def _record_intervals(monkeypatch):
    """Record ``(step, kick, stride, (S^b, C_b, L))`` of each ``sde._interval`` call."""
    calls, interval = [], sde._interval

    def spy(step, kick, stride):
        calls.append((step, kick, stride, interval(step, kick, stride)))
        return calls[-1][-1]

    monkeypatch.setattr(sde, "_interval", spy)
    return calls


def _lift_to_steps(step, kick, stride, root, z):
    """Per-step normals whose stepwise sum over each save interval is the chain's ``z L``.

    Step j of an interval reaches its end through ``K S^(b-1-j)``.  Stacked as
    R (b n x m), ``R^T R = C_b = L^T L``, so ``xi = z L R^+`` gives ``xi R = z L``.
    """
    responses, power = [], np.eye(len(step))
    for _ in range(stride):
        responses.append(kick @ power)
        power = power @ step
    xi = z @ root @ np.linalg.pinv(np.vstack(responses[::-1]))
    return xi.reshape(z.shape[0], -1, kick.shape[0])


# 200 steps: every step saved, two save intervals, and all steps in one interval.
# The loop runs on per-step normals lifted from the chain's one draw per saved
# time, so the two must agree pathwise, noise included.
@pytest.mark.parametrize("save_stride", [1, 100, 200])
@pytest.mark.parametrize("case", sorted(STEPWISE_CASES))
def test_block_propagation_matches_stepwise_loop(case, save_stride, monkeypatch):
    calls = _record_intervals(monkeypatch)
    ens = _simulate_case(case, _CHUNK + 3, 41, save_stride)
    ((step, kick, stride, (_, _, root)),) = calls
    z = np.random.default_rng(41).standard_normal((ens.n_paths, len(ens.times) - 1, len(root)))
    xi = _lift_to_steps(step, kick, stride, root, z)
    expected = _simulate_case(case, _CHUNK + 3, 41, save_stride, reference=True, xi=xi)
    assert ens.paths.shape == expected.shape
    assert np.max(np.abs(ens.paths - expected)) <= 1e-12 * np.max(np.abs(expected))


# stride 7 is odd, so the doubling appends single steps
@pytest.mark.parametrize("save_stride", [1, 7, 100, 200])
@pytest.mark.parametrize("case", sorted(STEPWISE_CASES))
def test_save_interval_matches_explicit_step_sums(case, save_stride, monkeypatch):
    calls = _record_intervals(monkeypatch)
    _simulate_case(case, 1, 0, save_stride, t_end=5e-3 * save_stride)
    ((step, kick, stride, (power, cov, root)),) = calls
    assert stride == save_stride
    expected_power, expected_cov = np.eye(len(step)), np.zeros_like(step)
    for _ in range(stride):  # C_b = sum_{j<b} (K S^j)^T (K S^j)
        response = kick @ expected_power
        expected_cov += response.T @ response
        expected_power = expected_power @ step
    assert np.max(np.abs(power - expected_power)) <= 1e-12 * np.max(np.abs(expected_power))
    assert np.max(np.abs(cov - expected_cov)) <= 1e-12 * np.max(np.abs(expected_cov))
    assert np.max(np.abs(root.T @ root - cov)) <= 1e-12 * np.max(np.abs(cov))


# with noise the streams differ, so the two ensembles must agree in distribution:
# cross-covariances at the last and middle saved times within 4 SE of their difference
@pytest.mark.parametrize("save_stride", [1, 100, 200])
@pytest.mark.parametrize("case", NOISY_CASES)
def test_ensemble_covariance_matches_stepwise_ensemble(case, save_stride):
    ens = _simulate_case(case, 20_000, 41, save_stride)
    reference = _simulate_case(case, 20_000, 47, save_stride, reference=True)
    expected = PathEnsemble(times=ens.times, paths=reference, seed=47, dt=ens.dt)
    last, middle = len(ens.times) - 1, len(ens.times) // 2
    for t_index, s_index in [(last, last), (last, middle), (middle, middle)]:
        cov, se = empirical_cross_cov(ens, t_index, s_index)
        expected_cov, expected_se = empirical_cross_cov(expected, t_index, s_index)
        assert np.all(np.abs(cov - expected_cov) <= 4.0 * np.hypot(se, expected_se))


@pytest.mark.parametrize("case", ["heat-matrix", "wave"])
def test_paths_replay_one_path_major_stream(case, monkeypatch):
    # path k reads normals k * intervals * m onwards of default_rng(seed), in every chunk
    calls = _record_intervals(monkeypatch)
    ens = _simulate_case(case, _CHUNK + 3, 41, 50)
    ((step, _, _, (power, _, root)),) = calls
    z = np.random.default_rng(41).standard_normal((ens.n_paths, len(ens.times) - 1, len(step)))
    _, _, _, u0, v0 = STEPWISE_CASES[case]
    x = np.tile(u0 + (v0 or []), (ens.n_paths, 1))
    for saved in range(1, len(ens.times)):
        x = x @ power + z[:, saved - 1] @ root
        u = x[:, :len(u0)]
        assert np.max(np.abs(ens.paths[:, saved] - u)) <= 1e-12 * np.max(np.abs(u))


SIMULATORS = {
    "heat-scalar": lambda n_paths: simulate_heat(
        path3_operator().matrix, 1.0, 1.0, np.zeros(3), dt=1e-2, t_end=0.5,
        n_paths=n_paths, seed=43, save_stride=10),
    "heat-matrix": lambda n_paths: simulate_heat(
        path3_operator().matrix, 1.0, NOISE_MATRIX, np.zeros(3), dt=1e-2, t_end=0.5,
        n_paths=n_paths, seed=43, save_stride=10),
    "wave": lambda n_paths: simulate_wave(
        path3_operator().matrix, 1.0, 1.0, np.zeros(3), np.zeros(3), dt=1e-2, t_end=0.5,
        n_paths=n_paths, seed=43, save_stride=10),
}


@pytest.mark.parametrize("k", [1, 2, _CHUNK + 1])
@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_each_path_is_bit_identical_whatever_the_ensemble_size(name, k):
    simulate = SIMULATORS[name]
    np.testing.assert_array_equal(simulate(k).paths, simulate(2 * _CHUNK + 5).paths[:k])


def test_wave_memory_stays_within_a_few_interval_matrices():
    # all 32 steps in one save interval of the 2n-state wave: the interval
    # matrices S^b, C_b and L and their eigh scratch are (2n)^2 each, and
    # a (_CHUNK, steps, n) noise buffer (19.7 MB at n = 300) on top of them
    # would break the bound
    n, steps, n_paths = 300, 32, 2
    lt = laplacian(line_graph(n)).matrix
    tracemalloc.start()
    try:
        ens = simulate_wave(lt, 1.0, 1.0, np.zeros(n), np.zeros(n), dt=0.1, t_end=0.1 * steps,
                            n_paths=n_paths, seed=0, save_stride=steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * (2 * n) ** 2 * 8 + ens.paths.nbytes


@pytest.mark.parametrize("save_stride", [1, 10_000])
def test_one_path_needs_no_chunk_of_noise(save_stride):
    # memory follows the ensemble: one path of 10,000 steps holds at most its own normals
    frac = path3_operator()
    tracemalloc.start()
    try:
        simulate_heat(frac.matrix, 1.0, 0.0, np.array([1.0, -0.5, 2.0]), dt=1e-4, t_end=1.0,
                      n_paths=1, seed=0, save_stride=save_stride)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestInvalidInputs:
    LT = path3_operator().matrix
    HEAT = dict(lt_matrix=LT, c=1.0, noise=1.0, u0=np.zeros(3), dt=1e-2, t_end=0.1,
                n_paths=2, seed=0)
    WAVE = dict(lt_matrix=LT, c=1.0, sigma=1.0, u0=np.zeros(3), v0=np.zeros(3), dt=1e-2,
                t_end=0.1, n_paths=2, seed=0)

    @pytest.mark.parametrize("change", [
        {"lt_matrix": np.ones((3, 2))},
        {"lt_matrix": np.ones(3)},
        {"lt_matrix": np.where(np.eye(3) > 0, np.nan, 0.0)},
        {"noise": np.eye(2)},
        {"noise": np.ones(3)},
        {"noise": np.full((3, 3), np.inf)},
        {"noise": -1.0},
        {"noise": np.nan},
        {"u0": np.zeros(2)},
        {"u0": np.array([0.0, np.inf, 0.0])},
        {"c": np.nan},
        {"dt": np.nan},
        {"t_end": np.inf},
    ], ids=lambda change: f"{next(iter(change))}-{np.shape(next(iter(change.values())))}")
    def test_heat_rejects(self, change):
        with pytest.raises(DataError):
            simulate_heat(**{**self.HEAT, **change})

    @pytest.mark.parametrize("change", [
        {"lt_matrix": np.ones((2, 3))},
        {"lt_matrix": np.full((3, 3), np.inf)},
        {"sigma": -0.5},
        {"sigma": np.inf},
        {"sigma": np.eye(3)},
        {"u0": np.zeros(4)},
        {"v0": np.zeros(2)},
        {"v0": np.full(3, np.nan)},
        {"dt": np.inf},
        {"t_end": np.nan},
    ], ids=lambda change: f"{next(iter(change))}-{np.shape(next(iter(change.values())))}")
    def test_wave_rejects(self, change):
        with pytest.raises(DataError):
            simulate_wave(**{**self.WAVE, **change})

    # numpy refuses both sizes outright, before it reserves any memory
    @pytest.mark.parametrize("n_paths", [10**30, 10**14])
    @pytest.mark.parametrize("wave", [False, True])
    def test_unallocatable_path_count_is_a_data_error(self, n_paths, wave):
        simulate, inputs = (simulate_wave, self.WAVE) if wave else (simulate_heat, self.HEAT)
        with pytest.raises(DataError, match="n_paths"):
            simulate(**{**inputs, "n_paths": n_paths})

    def test_scalar_starts_still_broadcast(self):
        ens = simulate_wave(**{**self.WAVE, "u0": 1.0, "v0": 0.0, "sigma": 0.0})
        assert ens.paths.shape == (2, 11, 3)
