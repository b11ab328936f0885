import math

import numpy as np
import pytest

from macrostab import evolve
from macrostab.errors import ValidationError
from macrostab.evolve import TrajectoryEnsemble, evolve_noisy
from macrostab.lattice import GEOMETRIES, SITE_CAP, LatticeSpec
from macrostab.noise import NoiseModel
from macrostab.rates import RATE_WINDOW_FRACTION, analytic_dephasing_rate, fit_gamma_scaling, trajectory_rate
from macrostab.scenario import TRAJECTORY_STEPS
from macrostab.states import StateVector, make_dicke, make_ghz, make_uniform_product
from conftest import (
    PAULI,
    basis_state,
    dense_site_op,
    dephasing_channel_density,
    ensemble_density,
    random_state_amps,
    replay_z,
)


def _dense_expm_oracle(psi, noise, ens):
    """f_rows from step-by-step dense exp(-i sum_x w[s,x] sigma_axis(x))."""
    from scipy.linalg import expm

    lat = psi.lattice
    n = lat.n_sites
    dense_ops = [dense_site_op(n, x, PAULI[noise.axis]) for x in range(n)]
    b_scaled = noise.kernel_sqrt(lat) * math.sqrt(noise.kappa * ens.dt)
    amps0 = psi.amplitudes.astype(complex)
    f_rows = np.empty((ens.n_traj, ens.n_steps))
    for traj in range(ens.n_traj):
        w = evolve._traj_rng(ens.seed, traj).standard_normal((ens.n_steps, n)) @ b_scaled.T
        state = amps0.copy()
        for s in range(ens.n_steps):
            gen = sum(w[s, x] * dense_ops[x] for x in range(n))
            state = expm(-1j * gen) @ state
            f_rows[traj, s] = abs(np.vdot(amps0, state)) ** 2
    return f_rows


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


class TestNoiseModel:
    def test_kernel_matrices(self):
        lat = LatticeSpec(4)
        assert np.array_equal(NoiseModel(0.1, "collective").kernel_matrix(lat), np.ones((4, 4)))
        assert np.array_equal(NoiseModel(0.1, "independent").kernel_matrix(lat), np.eye(4))
        g = NoiseModel(0.1, "exponential", xi=2.0).kernel_matrix(lat)
        assert g[0, 0] == pytest.approx(1.0)
        assert g[0, 2] == pytest.approx(math.exp(-1.0))

    def test_kernel_psd_and_sqrt(self):
        lat = LatticeSpec(5)
        for model in (NoiseModel(0.1, "collective"), NoiseModel(0.1, "exponential", xi=0.7)):
            g = model.kernel_matrix(lat)
            assert np.linalg.eigvalsh(g)[0] >= -1e-10
            b = model.kernel_sqrt(lat)
            assert np.allclose(b @ b.T, g, atol=1e-10)
        # kernel_matrix does not check PSD: exp(-|x-y|/xi) is the Ornstein-Uhlenbeck
        # covariance, and the ring distance is of negative type (Schoenberg)
        for n in range(1, SITE_CAP + 1):
            for geometry in GEOMETRIES:
                for xi in (5e-324, 1e-300, *np.logspace(-3, 3, 25), 1e300, 1e308):
                    g = NoiseModel(0.1, "exponential", xi=xi).kernel_matrix(LatticeSpec(n, geometry))
                    evals = np.linalg.eigvalsh(g)
                    assert evals[0] >= -1e-12 * evals[-1], (n, geometry, xi)

    def test_periodic_distance_kernel(self):
        lat = LatticeSpec(4, "periodic-chain")
        g = NoiseModel(0.1, "exponential", xi=1.0).kernel_matrix(lat)
        assert g[0, 3] == pytest.approx(math.exp(-1.0))


class TestAnalyticRate:
    def test_ghz_collective(self):
        for n in (4, 6):
            rate = analytic_dephasing_rate(make_ghz(LatticeSpec(n)), NoiseModel(0.01, "collective", axis="z"))
            assert rate == pytest.approx(0.01 * n * n, rel=1e-12)

    def test_ghz_independent(self):
        rate = analytic_dephasing_rate(make_ghz(LatticeSpec(4)), NoiseModel(0.01, "independent", axis="z"))
        assert rate == pytest.approx(0.04, rel=1e-12)

    def test_eigenstate_zero(self):
        lat = LatticeSpec(5)
        for kernel in ("collective", "independent"):
            rate = analytic_dephasing_rate(basis_state(lat, 9), NoiseModel(0.01, kernel, axis="z"))
            assert rate == pytest.approx(0.0, abs=1e-14)

    def test_exponential_kernel_hand_sum(self):
        n = 4
        lat = LatticeSpec(n)
        psi = make_ghz(lat)
        xi = 1.5
        noise = NoiseModel(0.02, "exponential", axis="z", xi=xi)
        # GHZ connected zz correlations are exactly 1 for every pair
        expected = 0.02 * sum(
            math.exp(-abs(x - y) / xi) for x in range(n) for y in range(n)
        )
        assert analytic_dephasing_rate(psi, noise) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_axis_couplings_match_dense_oracle(self, n, axis, rng):
        # a random state under exponentially correlated noise; the oracle
        # centers each dense coupling directly
        lat = LatticeSpec(n)
        xi = 1.5
        noise = NoiseModel(0.03, "exponential", axis=axis, xi=xi)
        amps = random_state_amps(n, rng)
        d = []
        for x in range(n):
            applied = dense_site_op(n, x, PAULI[axis]) @ amps
            d.append(applied - np.vdot(amps, applied).real * amps)
        expected = 0.03 * sum(
            math.exp(-abs(x - y) / xi) * np.vdot(d[x], d[y]).real
            for x in range(n) for y in range(n)
        )
        rate = analytic_dephasing_rate(StateVector(lat, amps), noise)
        assert rate == pytest.approx(expected, rel=1e-9)

    def test_product_all_kernels_linear(self):
        n = 5
        plus = make_uniform_product(LatticeSpec(n), math.pi / 2)
        for kernel, xi in (("collective", None), ("independent", None), ("exponential", 2.0)):
            rate = analytic_dephasing_rate(plus, NoiseModel(0.01, kernel, axis="z", xi=xi))
            assert rate == pytest.approx(0.01 * n, rel=1e-10)


class TestEvolve:
    def test_no_noise_is_identity(self):
        lat = LatticeSpec(4)
        psi = make_ghz(lat)
        noise = NoiseModel(0.0, "collective", axis="z")
        ens = TrajectoryEnsemble(n_traj=100, dt=0.05, n_steps=20, seed=3)
        res = evolve_noisy(psi, noise, ens)
        assert np.allclose(res.f_mean, 1.0, atol=1e-9)

    def test_seed_determinism(self):
        lat = LatticeSpec(4)
        psi = make_ghz(lat)
        noise = NoiseModel(0.01, "collective", axis="z")
        ens = TrajectoryEnsemble(120, 0.02, 100, seed=42)
        a = evolve_noisy(psi, noise, ens)
        b = evolve_noisy(psi, noise, ens)
        assert np.array_equal(a.f_mean, b.f_mean)
        assert np.array_equal(a.f_rows, b.f_rows)
        c = evolve_noisy(psi, noise, TrajectoryEnsemble(120, 0.02, 100, seed=43))
        assert not np.array_equal(a.f_mean, c.f_mean)

    def test_trajectory_depends_only_on_seed_and_index(self):
        # dicke-half under x noise fills every row and column of the weight
        # matrix, so it runs the split product at k = 4 (16 x 16)
        lat = LatticeSpec(8)
        psi = make_dicke(lat, 4)
        noise = NoiseModel(0.01, "exponential", axis="x", xi=2.0)
        many = evolve_noisy(psi, noise, TrajectoryEnsemble(120, 0.01, 600, 42))
        few = evolve_noisy(psi, noise, TrajectoryEnsemble(100, 0.01, 600, 42))
        assert np.array_equal(many.f_rows[:100], few.f_rows)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("kernel,xi", [("collective", None), ("independent", None), ("exponential", 1.5)])
    @pytest.mark.parametrize("state", ["ghz5", "dicke42", "random5"])
    def test_split_matches_dense_expm_oracle(self, state, kernel, xi, axis):
        # GHZ under z noise splits at k = 0 (one column); dicke-half under x
        # noise and the random state at k = N // 2, where odd N gives more rows
        # than columns.  y is the only axis with a complex eigenbasis; the
        # closed form is exact at any step, so dt = 0.2 is as good as any
        rng = np.random.default_rng(2718)
        psi = {
            "ghz5": lambda: make_ghz(LatticeSpec(5)),
            "dicke42": lambda: make_dicke(LatticeSpec(4), 2),
            "random5": lambda: StateVector(LatticeSpec(5), random_state_amps(5, rng)),
        }[state]()
        noise = NoiseModel(0.3, kernel, axis=axis, xi=xi)
        ens = TrajectoryEnsemble(100, 0.2, 5, seed=5)
        res = evolve_noisy(psi, noise, ens)
        assert np.max(np.abs(res.f_rows - _dense_expm_oracle(psi, noise, ens))) <= 1e-12

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_split_site_choice(self, n):
        # the split comes from the support: GHZ is two states, one per high row
        ghz = np.zeros(1 << n, dtype=bool)
        ghz[[0, -1]] = True
        assert evolve._split_sites(ghz) == 0
        assert evolve._split_sites(np.ones(1 << n, dtype=bool)) == n // 2

    def test_ghz_rate_matches_analytic(self):
        lat = LatticeSpec(6)
        psi = make_ghz(lat)
        noise = NoiseModel(0.01, "collective", axis="z")
        gamma = analytic_dephasing_rate(psi, noise)
        horizon = 0.5 / gamma
        ens = TrajectoryEnsemble(2000, horizon / 400, 400, seed=20260809)
        res = evolve_noisy(psi, noise, ens)
        fit = trajectory_rate(res, _window(res))
        assert abs(fit.gamma - gamma) <= max(0.05 * gamma, 3 * fit.stderr)

    @pytest.mark.parametrize("name,make_state,noise", [
        ("plus-z-independent",
         lambda: make_uniform_product(LatticeSpec(5), math.pi / 2),
         NoiseModel(0.02, "independent", axis="z")),
        ("plus-z-collective",
         lambda: make_uniform_product(LatticeSpec(5), math.pi / 2),
         NoiseModel(0.02, "collective", axis="z")),
        ("w5-x-collective",
         lambda: make_dicke(LatticeSpec(5), 1),
         NoiseModel(0.02, "collective", axis="x")),
        ("ghz5-z-exponential",
         lambda: make_ghz(LatticeSpec(5)),
         NoiseModel(0.02, "exponential", axis="z", xi=1.5)),
        ("dicke63-x-collective",
         lambda: make_dicke(LatticeSpec(6), 3),
         NoiseModel(0.01, "collective", axis="x")),
    ])
    def test_rate_consistency_across_states_and_kernels(self, name, make_state, noise):
        psi = make_state()
        gamma = analytic_dephasing_rate(psi, noise)
        horizon = 0.5 / gamma
        ens = TrajectoryEnsemble(n_traj=400, dt=horizon / 300, n_steps=300, seed=12)
        res = evolve_noisy(psi, noise, ens)
        fit = trajectory_rate(res, _window(res))
        assert abs(fit.gamma - gamma) <= max(0.1 * gamma, 4 * fit.stderr), name

    def test_channel_consistency_independent_z(self):
        lat = LatticeSpec(4)
        psi = make_ghz(lat)
        noise = NoiseModel(0.01, "independent", axis="z")
        t_final = 10.0  # kappa * t = 0.1
        exact = dephasing_channel_density(psi, noise, t_final)
        # the closed form is exact at any step: dt = 5.0 is two steps.  The
        # replay draws what evolve_noisy draws, so its fidelities must match
        # before its final states stand in for the trajectories'
        for dt, n_steps in ((0.1, 100), (5.0, 2)):
            ens = TrajectoryEnsemble(4000, dt, n_steps, seed=777)
            f_rows, finals = replay_z(psi, noise, ens)
            assert np.max(np.abs(f_rows - evolve_noisy(psi, noise, ens).f_rows)) <= 1e-12, dt
            assert trace_distance(ensemble_density(finals), exact) <= 0.02, dt

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_channel_needs_z_noise(self, axis):
        # the closed form reads the sigma_z eigenvalue pattern 1 - 2 bit
        with pytest.raises(ValidationError, match="needs z-axis noise"):
            dephasing_channel_density(make_ghz(LatticeSpec(3)), NoiseModel(0.05, "independent", axis=axis), 1.0)

    def test_channel_formula_against_dense_generator(self):
        # independent z-noise: off-diagonals decay at 2 kappa Hamming(i, j)
        lat = LatticeSpec(3)
        psi = make_uniform_product(lat, math.pi / 2)
        noise = NoiseModel(0.05, "independent", axis="z")
        rho = dephasing_channel_density(psi, noise, 2.0)
        amps = psi.amplitudes
        for i in range(8):
            for j in range(8):
                d = bin(i ^ j).count("1")
                expected = amps[i] * np.conj(amps[j]) * math.exp(-2 * 0.05 * d * 2.0)
                assert rho[i, j] == pytest.approx(expected, abs=1e-12)


def _window(res):
    """The rate window of a run recorded over its whole horizon: the first 5%."""
    return RATE_WINDOW_FRACTION * float(res.times[-1])


def _window_fit_inputs(res):
    """Window mask, times, f_mean and the inverse-variance weights of -ln f_mean."""
    sel = (res.times > 0) & (res.times <= _window(res))
    f = res.f_mean[sel]
    return sel, res.times[sel], f, (f / res.f_stderr[sel]) ** 2


# the benchmark's two decohere scenarios: kappa = 0.01, 100 trajectories and
# the automatic horizon 0.5 / gamma_analytic at N = 4, 6, 8
_DECOHERE_SCENARIOS = {
    "ghz-collective-z": (make_ghz, NoiseModel(0.01, "collective", axis="z")),
    "dicke-half-exponential-x": (
        lambda lat: make_dicke(lat, lat.n_sites // 2),
        NoiseModel(0.01, "exponential", axis="x", xi=2.0),
    ),
}


def _scenario_run(name, n, seed):
    make_state, noise = _DECOHERE_SCENARIOS[name]
    psi = make_state(LatticeSpec(n))
    gamma = analytic_dephasing_rate(psi, noise)
    horizon = 0.5 / gamma
    ens = TrajectoryEnsemble(100, horizon / TRAJECTORY_STEPS, TRAJECTORY_STEPS, seed)
    return gamma, evolve_noisy(psi, noise, ens)


class TestTrajectoryRate:
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("name", sorted(_DECOHERE_SCENARIOS))
    def test_window_run_is_the_first_steps_of_a_full_run(self, name, n):
        # run_decohere stops at the rate window's 20 steps; each trajectory's
        # stream fills its increments step by step, so they are a full run's first 20
        make_state, noise = _DECOHERE_SCENARIOS[name]
        psi = make_state(LatticeSpec(n))
        dt = 0.5 / analytic_dephasing_rate(psi, noise) / TRAJECTORY_STEPS
        window = evolve_noisy(psi, noise, TrajectoryEnsemble(100, dt, 20, 7))
        full = evolve_noisy(psi, noise, TrajectoryEnsemble(100, dt, TRAJECTORY_STEPS, 7))
        assert np.array_equal(window.f_rows, full.f_rows[:, :20])
        assert np.array_equal(window.f_mean, full.f_mean[:21])
        assert np.array_equal(window.f_stderr, full.f_stderr[:21])

    @pytest.mark.parametrize("name", sorted(_DECOHERE_SCENARIOS))
    def test_slope_matches_weighted_polyfit(self, name):
        _, res = _scenario_run(name, 6, 7)
        _, t, f, w = _window_fit_inputs(res)
        slope = np.polyfit(t, -np.log(f), 1, w=np.sqrt(w))[0]
        assert trajectory_rate(res, _window(res)).gamma == pytest.approx(slope, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(_DECOHERE_SCENARIOS))
    def test_stderr_matches_explicit_delete_one_jackknife(self, name):
        # refit the slope with each trajectory left out in turn, weights fixed
        _, res = _scenario_run(name, 6, 7)
        sel, t, _, w = _window_fit_inputs(res)
        cols = res.f_rows[:, sel[1:]]
        n = cols.shape[0]
        total = cols.sum(axis=0)
        reps = np.array([
            np.polyfit(t, -np.log((total - cols[k]) / (n - 1)), 1, w=np.sqrt(w))[0] for k in range(n)
        ])
        jackknife = math.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2))
        assert trajectory_rate(res, _window(res)).stderr == pytest.approx(jackknife, rel=0.01)

    @pytest.mark.parametrize("name", sorted(_DECOHERE_SCENARIOS))
    @pytest.mark.parametrize("seed", [
        44,
        148,
        pytest.param(1009, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP direction 3: the skewed early decay puts seed 1009's rates "
            "more than 5 errors below the analytic one",
        )),
    ])
    def test_rate_within_five_errors_of_analytic(self, name, seed):
        for n in (4, 6, 8):
            gamma, res = _scenario_run(name, n, seed)
            fit = trajectory_rate(res, _window(res))
            assert abs(fit.gamma - gamma) <= 5 * fit.stderr, (n, fit.gamma, fit.stderr, gamma)


class TestScalingFit:
    def test_quadratic_fragile(self):
        fit = fit_gamma_scaling([(4, 0.16), (6, 0.36), (8, 0.64)])
        assert fit.one_plus_delta == pytest.approx(2.0, abs=1e-9)
        assert fit.fragile

    def test_linear_not_fragile(self):
        fit = fit_gamma_scaling([(4, 0.04), (6, 0.06), (8, 0.08)])
        assert fit.one_plus_delta == pytest.approx(1.0, abs=1e-9)
        assert not fit.fragile
        assert fit.prefactor == pytest.approx(0.01, rel=1e-9)

    def test_constant_not_fragile(self):
        fit = fit_gamma_scaling([(4, 0.5), (6, 0.5), (8, 0.5)])
        assert fit.one_plus_delta == pytest.approx(0.0, abs=1e-12)
        assert not fit.fragile
