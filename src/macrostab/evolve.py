"""Stochastic trajectory ensembles under correlated dephasing noise.

Each trajectory applies, per time step, the exact unitary
exp(-i sum_x W_x sigma_axis(x)) with Gaussian increments
W ~ N(0, kappa g dt).  The system Hamiltonian is frozen, so every coupling
commutes with every other and a trajectory is a closed form in the product
eigenbasis of sigma_axis: basis state i carries the phase
sum_x Wcum_x lam(i_x), Wcum the running sum of the increments and lam the
eigenvalues of sigma_axis.  It is exact at any step, so every step is
recorded.  A decohere run steps by horizon / ``scenario.TRAJECTORY_STEPS``
and stops where the rate fit's window, the horizon's first 5%, ends.  The
phase is a sum over sites, so with i = h 2^k + l the fidelity's weighted
sum splits exactly into low-site (l) and high-site (h) phase tables joined
by the weights P = p.reshape(2^(N-k), 2^k): one small product and a
row-wise dot.  The support of p fixes k, the split with the fewest nonzero
rows plus columns of P: GHZ gets k = 0, a full-support state k = N/2,
whose step costs 2^k + 2^(N-k) cos/sin instead of 2^N.

Noise increments come from a counter-based Philox stream keyed by
(master seed, trajectory index), so a trajectory's result depends only on
that pair; the stream fills the increments step by step, so a shorter run
is exactly the first steps of a longer one.  The cross-trajectory mean
runs over an index-ordered array, making reports bit-stable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import PAULI_MATRICES, _apply_matrix_at_site


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Run configuration for a trajectory ensemble; every step is recorded."""

    n_traj: int
    dt: float
    n_steps: int
    seed: int


@dataclass(frozen=True)
class EvolveResult:
    """Fidelity series of a run.

    ``f_rows`` holds the per-trajectory fidelities at every step after
    t = 0; an error taken over whole trajectories respects the strong
    temporal correlation along each one.
    """

    times: np.ndarray
    f_mean: np.ndarray
    f_stderr: np.ndarray
    f_rows: np.ndarray
    n_traj: int
    dt: float


def _traj_rng(seed, traj):
    key = np.array([seed, traj], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _split_sites(nonzero):
    """Low-site count k whose weight matrix has the fewest nonzero rows + columns."""
    grids = [nonzero.reshape(-1, 1 << k) for k in range(nonzero.size.bit_length())]
    return int(np.argmin([g.any(axis=0).sum() + g.any(axis=1).sum() for g in grids]))


def _closed_form_ensemble(psi0, noise, ensemble):
    """Per-trajectory fidelities from phases in the coupling eigenbasis.

    With c = (q^dagger at every site) psi0 and p = |c|^2, the fidelity at step t
    is |sum_{h,l} E_H[t,h] P[h,l] E_L[t,l]|^2 over the nonzero rows h and
    columns l of P = p.reshape(2^(N-k), 2^k), E = exp(-i phi) per half.
    """
    lam, q = np.linalg.eigh(PAULI_MATRICES[noise.axis])
    n_steps, n_sites = ensemble.n_steps, psi0.n_sites
    b_scaled = noise.kernel_sqrt(psi0.lattice) * math.sqrt(noise.kappa * ensemble.dt)
    c = psi0.amplitudes
    for x in range(n_sites):
        c = _apply_matrix_at_site(c, x, q.conj().T)
    p = c.real**2 + c.imag**2
    k = _split_sites(p != 0)
    grid = p.reshape(-1, 1 << k)
    rows, cols = np.flatnonzero(grid.any(axis=1)), np.flatnonzero(grid.any(axis=0))
    p_nz = grid[np.ix_(rows, cols)].T.astype(np.complex128)
    # eigenvalue of site x in each column l (x < k) and row h (x >= k), else 0
    sites = np.arange(n_sites)
    idx = np.concatenate((cols, rows << k))
    own = (sites < k) == (np.arange(idx.size) < cols.size)[:, None]
    lam_lh = np.where(own, lam[(idx[:, None] >> sites) & 1], 0.0)
    m = -(b_scaled.T @ lam_lh.T)  # -phi = cumsum(z) @ m, the kernel root folded in
    e = np.empty((n_steps, idx.size), dtype=np.complex128)
    e_l, e_h = e[:, :cols.size], e[:, cols.size:]
    f_rows = np.empty((ensemble.n_traj, n_steps), dtype=np.float64)
    rng = _traj_rng(ensemble.seed, 0)
    state = rng.bit_generator.state
    for traj in range(ensemble.n_traj):
        # re-keying one Philox from its fresh state gives _traj_rng(seed, traj)'s stream
        state["state"]["key"][1] = traj
        rng.bit_generator.state = state
        phase = np.cumsum(rng.standard_normal((n_steps, n_sites)), axis=0) @ m
        np.cos(phase, out=e.real)
        np.sin(phase, out=e.imag)
        amp = np.einsum("th,th->t", e_h, e_l @ p_nz)
        f_rows[traj] = amp.real**2 + amp.imag**2
    return f_rows


def evolve_noisy(psi0, noise, ensemble):
    """Average fidelity F(t) = <psi0| rho(t) |psi0> over noise trajectories.

    Parameters
    ----------
    psi0 : StateVector
    noise : NoiseModel
    ensemble : TrajectoryEnsemble
    """
    f_rows = _closed_form_ensemble(psi0, noise, ensemble)
    times = np.concatenate(([0.0], ensemble.dt * np.arange(1, ensemble.n_steps + 1)))
    f_mean = np.concatenate(([1.0], f_rows.mean(axis=0)))
    spread = f_rows.std(axis=0, ddof=1) / math.sqrt(ensemble.n_traj)
    f_stderr = np.concatenate(([0.0], spread))
    return EvolveResult(times, f_mean, f_stderr, f_rows, ensemble.n_traj, ensemble.dt)
