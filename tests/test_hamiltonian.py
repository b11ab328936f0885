import warnings

import numpy as np
import pytest

from macrostab.ground import _start_vector
from macrostab.hamiltonian import HamiltonianSpec, _hash_vector, build_hamiltonian
from macrostab.lattice import LatticeSpec
from conftest import dense_tfim, dense_xxz, random_state_amps


def _columns(apply, dim):
    return np.stack([apply(e) for e in np.eye(dim)], axis=1)


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
        assert np.allclose(_columns(ham.operator(0), ham.dim), dense, atol=1e-12)

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
        evals = np.linalg.eigvalsh(_columns(ham.operator(0), ham.dim))
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
        assert np.allclose(_columns(ham.operator(0), ham.dim), dense, atol=1e-12)

    def test_heisenberg_two_site_spectrum(self):
        spec = HamiltonianSpec("xxz", LatticeSpec(2), J=1.0, delta=1.0)
        ham = build_hamiltonian(spec)
        evals = np.sort(np.linalg.eigvalsh(_columns(ham.operator(0), ham.dim)))
        assert np.allclose(evals, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_parity_flag():
    assert build_hamiltonian(HamiltonianSpec("transverse-ising", LatticeSpec(3), h=0.3)).parity_symmetric
    assert not build_hamiltonian(
        HamiltonianSpec("transverse-ising", LatticeSpec(3), h=0.3, B=0.1)
    ).parity_symmetric


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


def _splitmix64_py(z):
    mask = (1 << 64) - 1
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


class TestHashVector:
    # start and probe vectors are a counter hash: entry i of key k is the
    # splitmix64 finalizer of splitmix64(k) + i * golden, top 53 bits over [-1, 1)
    def test_pinned_values(self):
        assert _hash_vector(0x47524400, 4).tolist() == [
            -0.5594671921542436, 0.6194715149989838, 0.4698632545488104, -0.21777133718556319,
        ]

    @pytest.mark.parametrize("key", [0, 1, 0x47524401, 0x48414D03, (1 << 64) - 1])
    def test_matches_python_integer_oracle(self, key):
        mask, base = (1 << 64) - 1, _splitmix64_py(key)
        expected = [(_splitmix64_py((base + i * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0**-52 - 1.0 for i in range(64)]
        assert _hash_vector(key, 64).tolist() == expected

    @pytest.mark.parametrize("key", [0, 0x47524400, (1 << 64) - 1])
    def test_entries_lie_in_half_open_unit_interval(self, key):
        v = _hash_vector(key, 1 << 14)
        assert v.dtype == np.float64
        assert v.min() >= -1.0 and v.max() < 1.0

    def test_distinct_keys_and_indices_give_distinct_vectors(self):
        dim = 1 << 12
        vectors = [_start_vector(dim, 0), _start_vector(dim, 1)]
        vectors += [_hash_vector(0x48414D00 + k, dim) for k in range(4)]
        flat = np.concatenate(vectors)
        assert np.unique(flat).size == flat.size
        assert np.array_equal(_hash_vector(7, 16)[:8], _hash_vector(7, 8))  # a counter: prefixes agree

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key in (0, (1 << 63) + 5, (1 << 64) - 1):
                for dim in (1, 2, 1 << 10):
                    _hash_vector(key, dim)
            _start_vector(1 << 10, 1)
