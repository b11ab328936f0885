"""Correlated dephasing noise, trajectory ensembles and decoherence rates.

The noise field f(x, t) multiplying the coupling sigma_axis(x) is
Gaussian and white in time with

    E[f(x,t) f(y,t')] = kappa * g(x - y) * delta(t - t'),

so the ensemble obeys
drho/dt = -(kappa/2) sum_{xy} g(x-y) [sigma_axis(x),[sigma_axis(y),rho]]
and a pure state's exact initial fidelity-decay rate -dF/dt at t = 0 is
Gamma = kappa * sum_{xy} g(x-y) C_xy, with C_xy the connected correlation
of sigma_axis(x) and sigma_axis(y), the (axis, axis) block of the
two-point Pauli table.  For the collective kernel (g identically 1) Gamma
is exactly kappa times the fluctuation of the additive operator
sum_x sigma_axis(x).

Each trajectory applies, per time step, the exact unitary
exp(-i sum_x W_x sigma_axis(x)) with Gaussian increments
W ~ N(0, kappa g dt).  The system Hamiltonian is frozen, so every coupling
commutes with every other and a trajectory is a closed form in the product
eigenbasis of sigma_axis: basis state i carries the phase
sum_x Wcum_x lam(i_x), Wcum the running sum of the increments and lam the
eigenvalues of sigma_axis.  It is exact at any step, so every step is
recorded.  A decohere run steps by horizon / ``scenario.TRAJECTORY_STEPS``
and stops after ``scenario.WINDOW_STEPS``, the rate window.  The phase is
a sum over sites, so with i = h 2^k + l the fidelity's weighted sum splits
exactly into low-site (l) and high-site (h) phase tables joined by the
weights P = p.reshape(2^(N-k), 2^k): one small product and a row-wise
dot.  The support of p fixes k, the split with the fewest nonzero rows
plus columns of P: GHZ gets k = 0, a full-support state k = N/2, whose
step costs 2^k + 2^(N-k) cos/sin instead of 2^N.

Noise increments come from a counter-based Philox stream keyed by
(master seed, trajectory index), so a trajectory's result depends only on
that pair; the stream fills the increments step by step, so a shorter run
is exactly the first steps of a longer one.  The cross-trajectory mean
runs over an index-ordered array, making reports bit-stable.

The rate fit reads -ln F(t) at every step the run records, with
inverse-variance weights; its standard error is the delete-one jackknife
over trajectories, in closed form because the slope is linear in -ln F
once the weights are fixed.  Size scaling is a log-log least-squares fit
Gamma ~ K * N^(1+delta); the state counts as fragile when the fitted
exponent reaches 1.5.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import covariance_matrix, log_log_fit
from .operators import PAULI_MATRICES, _apply_matrix_at_site
from .scenario import KERNEL_COLLECTIVE, KERNEL_INDEPENDENT

FRAGILE_EXPONENT = 1.5
MIN_WINDOW_DECAY = 1e-8  # gamma x window below this leaves f_mean within rounding of 1


@dataclass(frozen=True)
class NoiseModel:
    """White noise of intensity kappa with a spatial correlation kernel,
    coupling to the Pauli ``axis`` on every site."""

    kappa: float
    kernel: str = KERNEL_COLLECTIVE
    axis: str = "z"
    xi: float = None

    def kernel_matrix(self, lattice):
        """Spatial correlation matrix g.  Every kernel is a covariance, so g
        is positive semidefinite: exp(-|x-y|/xi) is the Ornstein-Uhlenbeck
        covariance on an open chain, and on a ring the distance is of
        negative type, so exp(-d/xi) is PSD by Schoenberg's theorem."""
        n = lattice.n_sites
        if self.kernel == KERNEL_COLLECTIVE:
            g = np.ones((n, n))
        elif self.kernel == KERNEL_INDEPENDENT:
            g = np.eye(n)
        else:
            g = np.empty((n, n))
            for x in range(n):
                for y in range(n):
                    g[x, y] = np.exp(-lattice.distance(x, y) / self.xi)
        return g

    def kernel_sqrt(self, lattice):
        """Symmetric square root B with B @ B.T = g (negative dust clipped)."""
        g = self.kernel_matrix(lattice)
        evals, evecs = np.linalg.eigh(g)
        evals = np.clip(evals, 0.0, None)
        return (evecs * np.sqrt(evals)) @ evecs.T


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


def evolve_noisy(psi0, noise, ensemble):
    """Average fidelity F(t) = <psi0| rho(t) |psi0> over noise trajectories.

    With c = (q^dagger at every site) psi0 and p = |c|^2, the fidelity at step t
    is |sum_{h,l} E_H[t,h] P[h,l] E_L[t,l]|^2 over the nonzero rows h and
    columns l of P = p.reshape(2^(N-k), 2^k), E = exp(-i phi) per half.

    Parameters
    ----------
    psi0 : StateVector
    noise : NoiseModel
    ensemble : TrajectoryEnsemble
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
    times = np.concatenate(([0.0], ensemble.dt * np.arange(1, n_steps + 1)))
    f_mean = np.concatenate(([1.0], f_rows.mean(axis=0)))
    spread = f_rows.std(axis=0, ddof=1) / math.sqrt(ensemble.n_traj)
    f_stderr = np.concatenate(([0.0], spread))
    return EvolveResult(times, f_mean, f_stderr, f_rows, ensemble.n_traj, ensemble.dt)


def analytic_dephasing_rate(psi, noise):
    """Initial fidelity-decay rate of ``psi`` under ``noise``: kappa times
    the kernel g summed against the (axis, axis) block of the two-point
    Pauli table of ``psi``, computed on the state's first use and kept
    with it."""
    g = noise.kernel_matrix(psi.lattice)
    block = covariance_matrix(psi).axis_block(noise.axis, noise.axis)
    rate = noise.kappa * float(np.sum(g * block))
    return rate if rate > 0.0 else 0.0


@dataclass(frozen=True)
class DecoherenceFit:
    """Fitted Gamma ~ K N^(1+delta) over a size sequence."""

    points: tuple            # (N, Gamma) pairs
    prefactor: float         # K
    one_plus_delta: float    # fitted exponent
    residual: float          # RMS log deviation

    @property
    def fragile(self):
        return self.one_plus_delta >= FRAGILE_EXPONENT


def fit_gamma_scaling(points):
    """Log-log least squares through (N, Gamma) pairs, all Gamma > 0."""
    pts = [(int(n), float(g)) for n, g in points]
    slope, intercept, residual = log_log_fit(pts)
    return DecoherenceFit(tuple(pts), float(np.exp(intercept)), slope, residual)


@dataclass(frozen=True)
class RateFit:
    """Weighted early-time slope of -ln F with its standard error."""

    gamma: float
    stderr: float


def trajectory_rate(result):
    """Decay rate from an ensemble run with a jackknife standard error.

    The rate is a weighted least-squares slope of -ln F against the step
    index k = 1..K of every recorded step after t = 0, divided by the step
    dt, so no squared abscissa underflows however small dt is.  With the
    inverse-variance weights w held fixed it is one linear functional
    gamma = c . (-ln F), c_k = w_k (S_w k - S_k) / ((S_w S_kk - S_k^2) dt),
    so its delete-one jackknife over trajectories has a closed form:
    trajectory j's influence is a_j = c . (F_j / F) and the standard error
    is sd(a) / sqrt(n).  Per-point fidelity errors would understate the
    uncertainty because they are strongly correlated in time along each
    trajectory; each a_j sums its trajectory's whole run instead.
    """
    k = np.arange(1.0, result.times.size)
    f_mean = result.f_mean[1:]
    sigma = result.f_stderr[1:] / f_mean
    w = np.where(sigma > 1e-15, 1.0 / np.maximum(sigma, 1e-15) ** 2, 1e30)
    sw, sk, skk = np.einsum("t,mt->m", w, [np.ones_like(k), k, k * k])
    c = w * (sw * k - sk) / (sw * skk - sk * sk)
    slope = np.einsum("t,t->", c, -np.log(np.clip(f_mean, 1e-300, None)))
    influence = np.einsum("jt,t->j", result.f_rows, c / f_mean)
    stderr = influence.std(ddof=1) / math.sqrt(influence.size)
    return RateFit(float(slope / result.dt), float(stderr / result.dt))
