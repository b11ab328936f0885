import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from macrostab import analyzer
from macrostab.analyzer import (
    AFS,
    INTERMEDIATE,
    NFS,
    classify_scaling,
    covariance_matrix,
    magnetization,
    max_additive_fluctuation,
)
from macrostab.ground import ground_state
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec
from macrostab.operators import _apply_matrix_at_site, additive_variance
from macrostab.states import StateVector, make_dicke, make_ghz, make_uniform_product
from conftest import (
    PAULI,
    axis_coefficients,
    basis_state,
    dense_additive,
    dense_mean,
    dense_site_op,
    random_state_amps,
    subprocess_env,
)


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


def _table_from_rows(rows, amps):
    """Two-point table from the 3N applied vectors sigma_a(x)|psi>, row 3x+a."""
    means = (rows @ amps.conj()).real
    return (rows.conj() @ rows.T).real - np.outer(means, means), means


def _real_states(n):
    """Real states of n sites: random, GHZ, W and a TFIM ground state."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0x5EA1, n], dtype=np.uint64)))
    amps = rng.standard_normal(2**n)
    lat = LatticeSpec(n)
    ham = build_hamiltonian(HamiltonianSpec("transverse-ising", lat, J=1.0, h=0.7))
    return [
        StateVector(lat, amps / np.linalg.norm(amps)),
        make_ghz(lat),
        make_dicke(lat, 1),  # the W state
        ground_state(ham).states[0],
    ]


class TestBlockedTable:
    """The table is accumulated over blocks of 2^_BLOCK_BITS amplitudes; with the
    block shrunk to 1 or 2 bits, most sites lie above the block bits and read a
    partner block."""

    @pytest.mark.parametrize("bits", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blocks_match_dense_kron_oracle(self, n, bits, rng, monkeypatch):
        monkeypatch.setattr(analyzer, "_BLOCK_BITS", bits)
        states = [StateVector(LatticeSpec(n), random_state_amps(n, rng)) for _ in range(2)]
        states += _real_states(n)
        ops = [dense_site_op(n, x, PAULI[a]) for x in range(n) for a in "xyz"]
        for psi in states:
            amps = psi.amplitudes
            entries, means = _table_from_rows(np.array([op @ amps for op in ops]), amps)
            cov = covariance_matrix(psi)
            assert np.allclose(cov.means, means, rtol=0, atol=1e-12)
            assert np.allclose(cov.entries, entries, rtol=0, atol=1e-12)
            assert np.array_equal(cov.entries, cov.entries.T)

    @pytest.mark.parametrize("bits", [1, 2, analyzer._BLOCK_BITS])
    def test_real_state_has_exact_zero_sigma_y_couplings(self, bits, monkeypatch):
        monkeypatch.setattr(analyzer, "_BLOCK_BITS", bits)
        for psi in _real_states(5):
            cov = covariance_matrix(psi)
            assert np.all(cov.means[1::3] == 0.0)
            for axis in "xz":
                assert np.all(cov.axis_block(axis, "y") == 0.0)
                assert np.all(cov.axis_block("y", axis) == 0.0)

    def test_fourteen_sites_match_applied_rows(self, rng):
        # 14 sites span 4 blocks of 2^12, so sites 12 and 13 read partner blocks
        n = 14
        amps = random_state_amps(n, rng)
        rows = np.array([_apply_matrix_at_site(amps, x, PAULI[a]) for x in range(n) for a in "xyz"])
        entries, means = _table_from_rows(rows, amps)
        cov = covariance_matrix(StateVector(LatticeSpec(n), amps))
        assert np.allclose(cov.means, means, rtol=0, atol=1e-12)
        assert np.allclose(cov.entries, entries, rtol=0, atol=1e-12)

    def test_table_build_holds_one_block_of_rows(self, rng):
        # a whole-state V of 3N complex 2^N rows would take 48 MiB at N = 16; the
        # blocked build peaked at 5.0 MiB (complex) and 3.5 MiB (real) when measured
        psi = StateVector(LatticeSpec(16), random_state_amps(16, rng))
        tracemalloc.start()
        try:
            covariance_matrix(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_complex_table_same_bytes_across_threads(self):
        # the CLI thread tests only see real states; a complex one takes the
        # two-part rank-k updates
        script = (
            "import hashlib, numpy as np\n"
            "from macrostab.analyzer import covariance_matrix\n"
            "from macrostab.lattice import LatticeSpec\n"
            "from macrostab.states import StateVector\n"
            "rng = np.random.Generator(np.random.Philox(key=np.array([0x7AB1E, 16], dtype=np.uint64)))\n"
            "amps = rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16)\n"
            "amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2))  # np.linalg.norm calls BLAS\n"
            "cov = covariance_matrix(StateVector(LatticeSpec(16), amps))\n"
            "print(hashlib.sha256(cov.entries.tobytes() + cov.means.tobytes()).hexdigest())\n"
        )
        digests = {}
        for threads in ("1", "2"):
            res = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                env=subprocess_env({"OPENBLAS_NUM_THREADS": threads}),
            )
            assert res.returncode == 0, res.stderr
            digests[threads] = res.stdout.strip()
        assert digests["1"] == digests["2"]


def _optimal_coefficients(psi):
    """sqrt(N) times the table's top eigenvector: the maximizing additive operator."""
    return math.sqrt(psi.n_sites) * np.linalg.eigh(covariance_matrix(psi).entries)[1][:, -1]


class TestMaxFluctuation:
    def test_ghz_reaches_n_squared(self):
        psi = make_ghz(LatticeSpec(4))
        rep = max_additive_fluctuation(psi)
        assert rep.max_variance == pytest.approx(16.0, rel=1e-10)
        # cross-check by applying the maximizing coefficients directly
        direct = additive_variance(_optimal_coefficients(psi), psi)
        assert direct == pytest.approx(rep.max_variance, rel=1e-8)

    def test_product_scales_linearly(self):
        rep = max_additive_fluctuation(basis_state(LatticeSpec(6), 0))
        assert rep.max_variance == pytest.approx(6.0, rel=1e-10)

    def test_coefficient_normalization(self):
        psi = make_dicke(LatticeSpec(4), 2)
        c = _optimal_coefficients(psi)
        assert np.sum(c**2) == pytest.approx(4.0, rel=1e-10)
        assert additive_variance(c, psi) == pytest.approx(max_additive_fluctuation(psi).max_variance, rel=1e-8)

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


def test_afs_catalog_matches_verdicts():
    sizes = (4, 6, 8)
    ghz_pts = [(n, max_additive_fluctuation(make_ghz(LatticeSpec(n))).max_variance) for n in sizes]
    plus_pts = [
        (n, max_additive_fluctuation(make_uniform_product(LatticeSpec(n), math.pi / 2)).max_variance)
        for n in sizes
    ]
    assert classify_scaling(ghz_pts).verdict == AFS
    assert classify_scaling(plus_pts).verdict == NFS
