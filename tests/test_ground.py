import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from macrostab import ground, runner
from macrostab.analyzer import magnetization, max_additive_fluctuation
from macrostab.ground import ground_state, pure_phase_vacuum
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec
from macrostab.scenario import METHOD_DOUBLET, METHOD_SB_FIELD, Scenario, ScenarioParams
from macrostab.states import StateVector, _cdot
from conftest import basis_state, dense_additive, dense_tfim, dense_xxz, subprocess_env


def tfim(n, h, J=1.0, B=0.0):
    return build_hamiltonian(
        HamiltonianSpec("transverse-ising", LatticeSpec(n), J=J, h=h, B=B)
    )


class TestGroundState:
    @pytest.mark.parametrize("n,h", [(4, 0.5), (6, 1.0), (8, 2.0)])
    def test_energy_matches_dense(self, n, h):
        res = ground_state(tfim(n, h))
        dense_evals = np.sort(np.linalg.eigvalsh(dense_tfim(n, 1.0, h)))
        assert res.energies[0] == pytest.approx(dense_evals[0], abs=1e-8)
        assert res.energies[1] == pytest.approx(dense_evals[1], abs=1e-8)
        assert res.energies[0] <= res.energies[1]

    def test_residuals_small(self):
        res = ground_state(tfim(8, 0.7))
        assert all(r <= 1e-9 for r in res.residuals)

    def test_symmetric_ground_zero_magnetization(self):
        res = ground_state(tfim(8, 0.1))
        assert abs(magnetization(res.states[0])) < 1e-6
        assert abs(magnetization(res.states[1])) < 1e-6

    def test_ferromagnetic_doublet_is_afs_like(self):
        res = ground_state(tfim(8, 0.1))
        fluct = max_additive_fluctuation(res.states[0]).max_variance
        assert fluct >= 0.8 * 64

    def test_unresolved_doublet_keeps_the_flip_even_state_first(self):
        # E1 - E0 ~ h^N lies below the energies' rounding here (it reads ~1e-15),
        # so the order comes from the spin-flip sector, not from the energies
        res = ground_state(tfim(10, 0.02))
        assert abs(res.energies[1] - res.energies[0]) <= sum(res.residuals)
        amps = res.states[0].amplitudes.real
        assert np.array_equal(amps, amps[::-1])
        assert np.all(amps > 0.0)
        odd = res.states[1].amplitudes.real
        assert np.array_equal(odd, -odd[::-1])

    def test_deterministic(self):
        a = ground_state(tfim(6, 0.3))
        b = ground_state(tfim(6, 0.3))
        assert a.energies == b.energies
        assert np.array_equal(a.states[0].amplitudes, b.states[0].amplitudes)

    def test_two_site_chain(self):
        # dim 4: Lanczos exhausts each 2-dim flip sector
        res = ground_state(tfim(2, 1.0))
        assert res.energies[0] == pytest.approx(-np.sqrt(5.0), abs=1e-10)


class TestDotRows:
    @pytest.mark.parametrize("bits", [*range(1, 14), 17])
    def test_matches_fsum(self, bits, rng):
        # one plain product up to 2^12 entries, blocks of 2^12 above
        w = rng.standard_normal(2**bits)
        for k in (1, 8, 32):
            b = rng.standard_normal((k, 2**bits))
            got = ground._dot_rows(b, w)
            assert got.shape == (k,)
            for value, row in zip(got, b):
                terms = row * w
                # relative to the sum of |terms|, the scale of any rounding error
                assert abs(value - math.fsum(terms)) <= 1e-12 * math.fsum(np.abs(terms))

    def test_same_bytes_across_threads(self):
        # at 2^17 entries a plain b @ w changes its last bits between 1 and 2
        # OpenBLAS threads; the Krylov-axis product c @ b sums at most 32 terms
        script = (
            "import hashlib, numpy as np\n"
            "from macrostab.ground import _dot_rows\n"
            "rng = np.random.Generator(np.random.Philox(key=np.array([0xB10C, 17], dtype=np.uint64)))\n"
            "b, w = rng.standard_normal((32, 2**17)), rng.standard_normal(2**17)\n"
            "digest = hashlib.sha256()\n"
            "for k in range(1, 33):\n"
            "    c = _dot_rows(b[:k], w)\n"
            "    digest.update(c.tobytes() + (c @ b[:k]).tobytes())\n"
            "print(digest.hexdigest())\n"
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


def _spec_and_oracle(model, n, periodic, J=1.0, h=None):
    """B = 0 spec and its real dense kron oracle."""
    lattice = LatticeSpec(n, "periodic-chain" if periodic else "open-chain")
    if model == "xxz":
        h = 0.3 if h is None else h
        spec, dense = HamiltonianSpec("xxz", lattice, J=J, h=h), dense_xxz(n, J, 1.0, h, periodic=periodic)
    else:
        h = 0.5 if h is None else h
        spec, dense = HamiltonianSpec(model, lattice, J=J, h=h), dense_tfim(n, J, h, periodic=periodic)
    assert not dense.imag.any()
    return spec, dense.real


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("model", ["transverse-ising", "xxz"])
def test_solver_matches_dense_oracle(model, n, periodic):
    spec, dense = _spec_and_oracle(model, n, periodic)
    # B = 0: the lowest state of each flip sector, an exact eigenstate of P
    res = ground_state(build_hamiltonian(spec))
    half = len(dense) // 2
    top = dense[:half]
    signs = []
    for energy, state in zip(res.energies, res.states):
        v = state.amplitudes.real
        sign = 1.0 if np.array_equal(v[::-1], v) else -1.0
        assert np.array_equal(v[::-1], sign * v)
        # the sector block in the basis (|i> + s|dim-1-i>)/sqrt(2), i < dim/2
        block = top[:, :half] + sign * top[:, ::-1][:, :half]
        assert energy == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-10)
        signs.append(sign)
    assert sorted(signs) == [-1.0, 1.0]
    # an odd XXZ ring at h != 0 has its lowest level twice in one sector
    if not (model == "xxz" and periodic and n > 2 and n % 2):
        assert list(res.energies) == pytest.approx(np.linalg.eigvalsh(dense)[:2], abs=1e-10)
    # B != 0: the lowest two states, orthogonal
    biased = ground_state(build_hamiltonian(replace(spec, B=0.05)))
    dense_biased = dense - 0.05 * dense_additive(n, "z").real
    assert list(biased.energies) == pytest.approx(np.linalg.eigvalsh(dense_biased)[:2], abs=1e-10)
    assert abs(np.vdot(biased.states[0].amplitudes, biased.states[1].amplitudes)) <= 1e-10


def test_odd_xxz_ring_keeps_one_state_per_flip_sector():
    spec, dense = _spec_and_oracle("xxz", 3, True)
    assert list(np.linalg.eigvalsh(dense)[:2]) == pytest.approx([-3.3, -3.3], abs=1e-12)
    assert list(ground_state(build_hamiltonian(spec)).energies) == pytest.approx([-3.3, -2.7], abs=1e-12)


def test_degenerate_biased_ring_gives_two_orthogonal_states():
    # antiferromagnetic triangle in a field: three one-flipped states share E = -1.05
    spec, dense = _spec_and_oracle("transverse-ising", 3, True, J=-1.0, h=0.0)
    dense_biased = dense - 0.05 * dense_additive(3, "z").real
    assert list(np.linalg.eigvalsh(dense_biased)[:3]) == pytest.approx([-1.05] * 3, abs=1e-12)
    res = ground_state(build_hamiltonian(replace(spec, B=0.05)))
    assert list(res.energies) == pytest.approx([-1.05, -1.05], abs=1e-10)
    assert abs(np.vdot(res.states[0].amplitudes, res.states[1].amplitudes)) <= 1e-10


def _energy(ham, psi):
    """<psi|H|psi> by numpy's inner product."""
    return np.vdot(psi.amplitudes, ham.matvec(psi.amplitudes)).real


class TestPurePhaseVacuum:
    def test_doublet_polarized(self):
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(8), J=1.0, h=0.1)
        pp = pure_phase_vacuum(spec, METHOD_DOUBLET, ground_state(build_hamiltonian(spec)))
        assert magnetization(pp) >= 0.9 * 8
        assert max_additive_fluctuation(pp).max_variance <= 2 * 8

    def test_doublet_candidates_magnetization_matches_dense(self):
        # both signs of (|E0> +- |E1>)/sqrt(2) against the dense order parameter;
        # the vacuum is the candidate with the larger one, and no table is built
        n = 8
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(n), J=1.0, h=0.1)
        pair = ground_state(build_hamiltonian(spec))
        v0, v1 = (state.amplitudes for state in pair.states)
        m_dense = dense_additive(n, "z").real
        ms = []
        for sign in (1.0, -1.0):
            cand = StateVector(spec.lattice, (v0 + sign * v1) / np.sqrt(2.0))
            ms.append(magnetization(cand))
            assert ms[-1] == pytest.approx(np.vdot(cand.amplitudes, m_dense @ cand.amplitudes).real, abs=1e-12)
            assert cand._table is None
        pp = pure_phase_vacuum(spec, METHOD_DOUBLET, pair=pair)
        assert pp._table is None
        assert magnetization(pp) == pytest.approx(max(ms), abs=1e-12)

    def test_doublet_energy_is_midpoint(self):
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(6), J=1.0, h=0.1)
        ham = build_hamiltonian(spec)
        res = ground_state(ham)
        energy = _energy(ham, pure_phase_vacuum(spec, METHOD_DOUBLET, res))
        assert energy == pytest.approx(0.5 * (res.energies[0] + res.energies[1]), abs=1e-12)
        assert energy >= res.energies[0] - 1e-12

    def test_classical_limit_is_all_up(self):
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(5), J=1.0, h=1e-3)
        pp = pure_phase_vacuum(spec, METHOD_DOUBLET, ground_state(build_hamiltonian(spec)))
        up = basis_state(LatticeSpec(5), 0)
        assert abs(np.vdot(pp.amplitudes, up.amplitudes)) ** 2 > 0.999

    def test_sb_field_method(self):
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(6), J=1.0, h=0.1)
        pp = pure_phase_vacuum(spec, METHOD_SB_FIELD, None)
        assert magnetization(pp) >= 0.9 * 6
        ham = build_hamiltonian(spec)
        # energy under the unbiased Hamiltonian is above the true ground energy
        assert _energy(ham, pp) >= ground_state(ham).energies[0] - 1e-10
        assert max_additive_fluctuation(pp).max_variance <= 2 * 6

    def test_paramagnetic_warning(self):
        for h, warning in ((2.0, True), (0.1, False)):
            scenario = Scenario("sb", (4,), ("symmetry-breaking",), params=ScenarioParams(h=h))
            results, _ = runner.run_symmetry_breaking(scenario, None)
            assert results["symmetry-breaking"]["paramagnetic_warning"] is warning

    def test_symmetry_breaking_reuses_the_ground_pair(self, monkeypatch):
        # one lowest-two solve per size serves both the symmetric state and
        # the doublet superposition, with the same result as a standalone build
        solved = []
        made = []

        def counted(ham):
            solved.append(ham.lattice.n_sites)
            return ground_state(ham)

        def recorded(*args, **kwargs):
            made.append(pure_phase_vacuum(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(runner, "ground_state", counted)
        monkeypatch.setattr(ground, "ground_state", counted)
        monkeypatch.setattr(runner, "pure_phase_vacuum", recorded)
        sizes = (4, 6, 8)
        results, _ = runner.run_symmetry_breaking(Scenario("sb", sizes, ("symmetry-breaking",)), None)
        assert solved == list(sizes)
        rows = results["symmetry-breaking"]["per_size"]
        for row, pp in zip(rows, made):
            spec = HamiltonianSpec("transverse-ising", LatticeSpec(row["n"]), J=1.0, h=0.1)
            ham = build_hamiltonian(spec)
            alone = pure_phase_vacuum(spec, METHOD_DOUBLET, ground_state(ham))
            assert row["e_pure_phase"] == _cdot(alone.amplitudes, ham.matvec(alone.amplitudes)).real
            assert row["m_pure_phase"] == magnetization(alone)
            assert np.array_equal(pp.amplitudes, alone.amplitudes)
