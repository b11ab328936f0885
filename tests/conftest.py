"""Shared dense-matrix oracles, built by kron products independently of the
package's bit-index Hamiltonian construction, the closed-form z-noise
channel with a trajectory replay to compare against it, and the environment
for CLI subprocesses."""

import math
import os
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from macrostab import rates
from macrostab.errors import ValidationError
from macrostab.states import StateVector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def dense_site_op(n, site, matrix):
    """matrix at `site`, identity elsewhere; site k lives on bit k."""
    mats = [ID2] * n
    mats[site] = matrix
    return reduce(np.kron, reversed(mats))


def dense_bond_op(n, x, y, a, b):
    """a at site x times b at site y (x != y), identity elsewhere."""
    mats = [ID2] * n
    mats[x] = a
    mats[y] = b
    return reduce(np.kron, reversed(mats))


def dense_additive(n, axis):
    return sum(dense_site_op(n, x, PAULI[axis]) for x in range(n))


def dense_from_coefficients(n, coeffs):
    """sum_x sum_a coeffs[3x+a] sigma_a(x) as a dense matrix."""
    return sum(coeffs[3 * x + a] * dense_site_op(n, x, PAULI["xyz"[a]]) for x in range(n) for a in range(3))


def axis_coefficients(n, axis):
    """Coefficient vector of sum_x sigma_axis(x), the order parameter for axis z."""
    c = np.zeros(3 * n)
    c["xyz".index(axis) :: 3] = 1.0
    return c


def dense_tfim(n, J, h, B=0.0, periodic=False):
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    bonds = [(x, x + 1) for x in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    for x, y in bonds:
        H -= J * dense_bond_op(n, x, y, SZ, SZ)
    if h:
        H -= h * dense_additive(n, "x")
    if B:
        H -= B * dense_additive(n, "z")
    return H


def dense_xxz(n, J, delta, h=0.0, B=0.0, periodic=False):
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    bonds = [(x, x + 1) for x in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    for x, y in bonds:
        H += J * (
            dense_bond_op(n, x, y, SX, SX)
            + dense_bond_op(n, x, y, SY, SY)
            + delta * dense_bond_op(n, x, y, SZ, SZ)
        )
    if h:
        H -= h * dense_additive(n, "x")
    if B:
        H -= B * dense_additive(n, "z")
    return H


def basis_state(lattice, index):
    """Computational basis state |index> (bit k of index = site k)."""
    amps = np.zeros(lattice.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(lattice, amps)


def dephasing_channel_density(psi0, noise, t):
    """Closed-form ensemble density matrix under z-axis noise.

    sigma_z(x) has eigenvalue 1 - 2 b on bit b of site x, so
    rho_ij(t) = rho_ij(0) exp(-t R_ij) with R_ij = (kappa/2) d^T g d and d
    the difference of the eigenvalue patterns of basis states i and j.
    """
    if noise.axis != "z":
        raise ValidationError(f"closed-form channel needs z-axis noise, got axis {noise.axis!r}")
    lattice = psi0.lattice
    bits = (np.arange(lattice.dim)[:, None] >> np.arange(lattice.n_sites)) & 1
    site_vals = 1.0 - 2.0 * bits
    g = noise.kernel_matrix(lattice)
    amps = psi0.amplitudes
    rho0 = np.outer(amps, amps.conj())
    d = site_vals[:, None, :] - site_vals[None, :, :]
    rates = 0.5 * noise.kappa * np.einsum("ijx,xy,ijy->ij", d, g, d)
    return rho0 * np.exp(-t * rates)


def replay_z(psi, noise, ens):
    """Per-trajectory fidelities (n_traj, n_steps) and final states (n_traj, 2^N)
    under z-axis noise, replayed from the trajectory layer's Philox draws.

    Trajectory k draws its increments from ``rates._traj_rng(seed, k)`` and
    scales them by the kernel root; basis state i then carries the phase
    phi_i(t) = sum_x W_x(t) (1 - 2 b_x(i)), W the running sum of the scaled
    increments, so its final state is psi0 * exp(-i phi(T)).
    """
    if noise.axis != "z":
        raise ValidationError(f"replay needs z-axis noise, got axis {noise.axis!r}")
    lattice = psi.lattice
    b_scaled = noise.kernel_sqrt(lattice) * math.sqrt(noise.kappa * ens.dt)
    site_vals = 1.0 - 2.0 * ((np.arange(lattice.dim)[:, None] >> np.arange(lattice.n_sites)) & 1)
    amps = psi.amplitudes
    p = np.abs(amps) ** 2
    f_rows = np.empty((ens.n_traj, ens.n_steps))
    finals = np.empty((ens.n_traj, lattice.dim), dtype=complex)
    for traj in range(ens.n_traj):
        w = rates._traj_rng(ens.seed, traj).standard_normal((ens.n_steps, lattice.n_sites)) @ b_scaled.T
        e = np.exp(-1j * (np.cumsum(w, axis=0) @ site_vals.T))
        f_rows[traj] = np.abs(e @ p) ** 2
        finals[traj] = amps * e[-1]
    return f_rows, finals


def ensemble_density(finals):
    """Ensemble density matrix of equally weighted pure states, one per row."""
    return np.einsum("ti,tj->ij", finals, finals.conj()) / len(finals)


def product_amps_oracle(angles):
    """Product-state amplitudes for per-site Bloch angles (theta, phi), by
    explicit bitstring enumeration; site k lives on bit k."""
    n = len(angles)
    amps = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        val = 1.0 + 0j
        for k, (theta, phi) in enumerate(angles):
            bit = (idx >> k) & 1
            if bit == 0:
                val *= math.cos(theta / 2)
            else:
                val *= np.exp(1j * phi) * math.sin(theta / 2)
        amps[idx] = val
    return amps


def dense_mean(op, amps):
    """<O> by direct dense multiplication."""
    return np.vdot(amps, op @ amps).real


def dense_variance(op, amps):
    """<O^2> - <O>^2 by direct dense multiplication."""
    mean = np.vdot(amps, op @ amps).real
    second = np.vdot(amps, op @ (op @ amps)).real
    return second - mean * mean


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=np.array([0xABCDEF, 1], dtype=np.uint64)))


def random_state_amps(n, rng):
    dim = 2**n
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def subprocess_env(env_extra=None):
    """Environment for a child Python process that imports macrostab.

    The directory holding the imported package goes in front of any
    inherited PYTHONPATH, as an absolute path, so the child finds the same
    package whatever its working directory. `env_extra` overrides the rest.
    """
    import macrostab

    root = str(Path(macrostab.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, inherited]) if inherited else root
    if env_extra:
        env.update(env_extra)
    return env
