import math

import numpy as np
import pytest

from macrostab import (
    AFS,
    INTERMEDIATE,
    NFS,
    ArgumentError,
    LatticeSpec,
    StateVector,
    additive_variance,
    basis_state,
    classify_scaling,
    covariance_matrix,
    magnetization,
    make_dicke,
    make_ghz,
    make_uniform_product,
    max_additive_fluctuation,
)
from conftest import PAULI, axis_coefficients, dense_additive, dense_mean, dense_site_op, random_state_amps


class TestCovariance:
    def test_ghz_zz_block_all_ones(self):
        cov = covariance_matrix(make_ghz(LatticeSpec(4)))
        assert np.allclose(cov.axis_block("z", "z"), np.ones((4, 4)), atol=1e-12)

    def test_product_blocks(self):
        cov = covariance_matrix(basis_state(LatticeSpec(3), 0))
        assert np.allclose(cov.axis_block("z", "z"), np.zeros((3, 3)), atol=1e-12)
        assert np.allclose(cov.axis_block("x", "x"), np.eye(3), atol=1e-12)
        assert np.allclose(cov.axis_block("y", "y"), np.eye(3), atol=1e-12)

    def test_diagonal_is_one_minus_mean_squared(self, rng):
        lat = LatticeSpec(3)
        psi = StateVector(lat, random_state_amps(3, rng))
        cov = covariance_matrix(psi)
        for x in lat.sites:
            for a, axis in enumerate("xyz"):
                mean = dense_mean(dense_site_op(3, x, PAULI[axis]), psi.amplitudes)
                assert cov.entries[3 * x + a, 3 * x + a] == pytest.approx(
                    1 - mean**2, abs=1e-10
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_kron_oracle(self, n, rng):
        # rows 3x+a against sigma_a(x) built by Kronecker products
        amps = random_state_amps(n, rng)
        ops = [dense_site_op(n, x, PAULI[a]) for x in range(n) for a in "xyz"]
        applied = np.array([op @ amps for op in ops])
        means = (applied @ amps.conj()).real
        second = (applied.conj() @ applied.T).real
        cov = covariance_matrix(StateVector(LatticeSpec(n), amps))
        assert np.allclose(cov.means, means, rtol=0, atol=1e-12)
        assert np.allclose(cov.entries, second - np.outer(means, means), rtol=0, atol=1e-12)

    def test_symmetric_and_psd(self, rng):
        psi = StateVector(LatticeSpec(4), random_state_amps(4, rng))
        cov = covariance_matrix(psi)
        assert np.array_equal(cov.entries, cov.entries.T)
        assert np.linalg.eigvalsh(cov.entries)[0] >= -1e-8
        assert np.all(cov.entries.diagonal() >= -1e-12)
        assert np.all(cov.entries.diagonal() <= 1 + 1e-12)


class TestMaxFluctuation:
    def test_ghz_reaches_n_squared(self):
        rep = max_additive_fluctuation(make_ghz(LatticeSpec(4)))
        assert rep.max_variance == pytest.approx(16.0, rel=1e-10)
        # cross-check by applying the maximizing coefficients directly
        direct = additive_variance(rep.optimal_coefficients, make_ghz(LatticeSpec(4)))
        assert direct == pytest.approx(rep.max_variance, rel=1e-8)

    def test_product_scales_linearly(self):
        rep = max_additive_fluctuation(basis_state(LatticeSpec(6), 0))
        assert rep.max_variance == pytest.approx(6.0, rel=1e-10)

    def test_coefficient_normalization(self):
        rep = max_additive_fluctuation(make_dicke(LatticeSpec(4), 2))
        assert np.sum(rep.optimal_coefficients**2) == pytest.approx(4.0, rel=1e-10)

    def test_dicke_dominates_random_scan(self, rng):
        lat = LatticeSpec(4)
        psi = make_dicke(lat, 2)
        rep = max_additive_fluctuation(psi)
        best = 0.0
        for _ in range(10**4):
            c = rng.standard_normal(12)
            c *= math.sqrt(4) / np.linalg.norm(c)
            var = additive_variance(c, psi)
            best = max(best, var)
        assert best <= rep.max_variance * (1 + 1e-8)
        # the scan should get close; the optimum is not isolated
        assert best >= 0.8 * rep.max_variance

    def test_lower_bound_dominance(self, rng):
        lat = LatticeSpec(4)
        psi = StateVector(lat, random_state_amps(4, rng))
        rep = max_additive_fluctuation(psi)
        for axis in "xyz":
            var = additive_variance(axis_coefficients(4, axis), psi)
            assert var <= rep.max_variance + 1e-9

    def test_site_relabeling_invariance(self, rng):
        n = 5
        lat = LatticeSpec(n)
        amps = random_state_amps(n, rng)
        perm = rng.permutation(n)
        permuted = np.empty_like(amps)
        for idx in range(2**n):
            jdx = 0
            for k in range(n):
                if (idx >> k) & 1:
                    jdx |= 1 << perm[k]
            permuted[jdx] = amps[idx]
        a = max_additive_fluctuation(StateVector(lat, amps)).max_variance
        b = max_additive_fluctuation(StateVector(lat, permuted)).max_variance
        assert a == pytest.approx(b, abs=1e-10)


class TestMagnetization:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_oracle(self, n, rng):
        for _ in range(5):
            psi = StateVector(LatticeSpec(n), random_state_amps(n, rng))
            dense = dense_mean(dense_additive(n, "z"), psi.amplitudes)
            assert magnetization(psi) == pytest.approx(dense, abs=1e-12)
            # the order parameter is read without the two-point table
            assert psi._table is None

    def test_basis_states_count_up_spins(self):
        lat = LatticeSpec(5)
        for index in range(lat.dim):
            psi = basis_state(lat, index)
            assert magnetization(psi) == 5 - 2 * bin(index).count("1")


class TestClassifyScaling:
    def test_quadratic_is_afs(self):
        v = classify_scaling([(4, 16.0), (6, 36.0), (8, 64.0), (10, 100.0)])
        assert v.exponent == pytest.approx(2.0, abs=1e-9)
        assert v.verdict == AFS
        assert v.residual < 1e-12

    def test_linear_is_nfs(self):
        v = classify_scaling([(4, 4.0), (6, 6.0), (8, 8.0), (10, 10.0)])
        assert v.exponent == pytest.approx(1.0, abs=1e-9)
        assert v.verdict == NFS

    def test_doubling_sequence(self):
        v = classify_scaling([(4, 8.0), (8, 16.0), (16, 32.0)])
        assert v.exponent == pytest.approx(1.0, abs=1e-9)
        assert v.verdict == NFS

    def test_intermediate_band(self):
        v = classify_scaling([(4, 4.0**1.5), (6, 6.0**1.5), (8, 8.0**1.5)])
        assert v.verdict == INTERMEDIATE

    def test_zero_variance_sentinel(self):
        v = classify_scaling([(4, 0.0), (6, 0.0), (8, 0.0)])
        assert v.verdict == NFS
        assert math.isnan(v.exponent)
        assert v.residual == 0.0

    def test_too_few_points(self):
        with pytest.raises(ArgumentError):
            classify_scaling([(4, 16.0), (6, 36.0)])
        with pytest.raises(ArgumentError):
            classify_scaling([(4, 16.0), (4, 17.0), (4, 18.0)])


def test_afs_catalog_matches_verdicts():
    sizes = (4, 6, 8)
    ghz_pts = [(n, max_additive_fluctuation(make_ghz(LatticeSpec(n))).max_variance) for n in sizes]
    plus_pts = [
        (n, max_additive_fluctuation(make_uniform_product(LatticeSpec(n), math.pi / 2)).max_variance)
        for n in sizes
    ]
    assert classify_scaling(ghz_pts).verdict == AFS
    assert classify_scaling(plus_pts).verdict == NFS
