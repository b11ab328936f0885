import numpy as np
import pytest

from macrostab import (
    ArgumentError,
    HamiltonianSpec,
    LatticeSpec,
    build_hamiltonian,
)
from conftest import dense_tfim, dense_xxz, random_state_amps


class TestSpec:
    def test_unknown_model(self):
        with pytest.raises(ArgumentError):
            HamiltonianSpec("ising", LatticeSpec(3))

    def test_non_finite_coupling(self):
        with pytest.raises(ArgumentError):
            HamiltonianSpec("xxz", LatticeSpec(3), J=float("inf"))


class TestTfimMatvec:
    @pytest.mark.parametrize("n,J,h,B,periodic", [
        (2, 1.0, 1.0, 0.0, False),
        (3, 1.0, 0.5, 0.2, False),
        (5, 0.7, 1.3, 0.0, False),
        (4, 1.0, 0.9, 0.1, True),
        (1, 1.0, 0.7, 0.3, False),  # no bonds
    ])
    def test_matches_dense(self, n, J, h, B, periodic, rng):
        geometry = "periodic-chain" if periodic else "open-chain"
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(n, geometry), J=J, h=h, B=B)
        ham = build_hamiltonian(spec)
        dense = dense_tfim(n, J, h, B, periodic)
        for _ in range(3):
            v = random_state_amps(n, rng)
            assert np.allclose(ham.matvec(v), dense @ v, atol=1e-12)
        assert np.allclose(ham.dense(), dense, atol=1e-12)

    def test_classical_limit_eigenstate(self):
        n = 5
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(n), J=1.0, h=0.0)
        ham = build_hamiltonian(spec)
        v = np.zeros(2**n, dtype=complex)
        v[0] = 1.0
        out = ham.matvec(v)
        assert np.allclose(out, -(n - 1) * v)

    def test_two_site_ground_energy(self):
        spec = HamiltonianSpec("transverse-ising", LatticeSpec(2), J=1.0, h=1.0)
        ham = build_hamiltonian(spec)
        evals = np.linalg.eigvalsh(ham.dense())
        assert evals[0] == pytest.approx(-np.sqrt(5.0), abs=1e-12)


class TestXxzMatvec:
    # explicit ids keep the periodic flag out of the open-chain case names
    @pytest.mark.parametrize("n,J,delta,h,B,periodic", [
        pytest.param(2, 1.0, 1.0, 0.0, 0.0, False, id="2-1.0-1.0-0.0-0.0"),
        pytest.param(3, 1.0, 0.5, 0.3, 0.0, False, id="3-1.0-0.5-0.3-0.0"),
        pytest.param(4, 0.8, 1.7, 0.0, 0.2, False, id="4-0.8-1.7-0.0-0.2"),
        pytest.param(4, 1.1, 0.6, 0.4, 0.05, True, id="4-1.1-0.6-0.4-0.05-periodic"),
    ])
    def test_matches_dense(self, n, J, delta, h, B, periodic, rng):
        geometry = "periodic-chain" if periodic else "open-chain"
        spec = HamiltonianSpec("xxz", LatticeSpec(n, geometry), J=J, h=h, delta=delta, B=B)
        ham = build_hamiltonian(spec)
        dense = dense_xxz(n, J, delta, h, B, periodic)
        for _ in range(3):
            v = random_state_amps(n, rng)
            assert np.allclose(ham.matvec(v), dense @ v, atol=1e-12)
        assert np.allclose(ham.dense(), dense, atol=1e-12)

    def test_heisenberg_two_site_spectrum(self):
        spec = HamiltonianSpec("xxz", LatticeSpec(2), J=1.0, delta=1.0)
        ham = build_hamiltonian(spec)
        evals = np.sort(np.linalg.eigvalsh(ham.dense()))
        assert np.allclose(evals, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_parity_flag():
    assert build_hamiltonian(HamiltonianSpec("transverse-ising", LatticeSpec(3), h=0.3)).parity_symmetric
    assert not build_hamiltonian(
        HamiltonianSpec("transverse-ising", LatticeSpec(3), h=0.3, B=0.1)
    ).parity_symmetric


def _columns(apply, dim):
    return np.stack([apply(e) for e in np.eye(dim)], axis=1)


@pytest.mark.parametrize("model", ["transverse-ising", "xxz"])
@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("B", [0.0, 0.3])
def test_operator_matches_the_dense_oracle(model, periodic, n, B):
    # full space and, at B = 0, both spin-flip sectors in the basis
    # (|i> + s|dim-1-i>)/sqrt(2), i < dim/2
    geometry = "periodic-chain" if periodic else "open-chain"
    spec = HamiltonianSpec(model, LatticeSpec(n, geometry), J=0.8, h=0.45, delta=1.3, B=B)
    ham = build_hamiltonian(spec)
    if model == "xxz":
        oracle = dense_xxz(n, 0.8, 1.3, 0.45, B, periodic)
    else:
        oracle = dense_tfim(n, 0.8, 0.45, B, periodic)
    assert not oracle.imag.any()
    oracle = oracle.real
    assert np.array_equal(ham.dense(), oracle)
    assert np.allclose(_columns(ham.operator(0), ham.dim), oracle, rtol=0, atol=1e-12)
    if B != 0.0:
        return
    half = ham.dim // 2
    for s in (1.0, -1.0):
        proj = np.zeros((ham.dim, half))
        proj[np.arange(half), np.arange(half)] = 1.0 / np.sqrt(2.0)
        proj[ham.dim - 1 - np.arange(half), np.arange(half)] = s / np.sqrt(2.0)
        expected = proj.T @ oracle @ proj
        assert np.allclose(_columns(ham.operator(s), half), expected, rtol=0, atol=1e-12), s
