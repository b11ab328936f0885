"""Decoherence rates and their size scaling.

The analytic rate is the exact initial fidelity-decay slope
-dF/dt at t = 0 under white noise,

    Gamma = kappa * sum_{xy} g(x-y) C_xy,

with C_xy the connected correlation of sigma_axis(x) and sigma_axis(y):
the (axis, axis) block of the two-point Pauli table.  It reduces to kappa
times the fluctuation of sum_x sigma_axis(x) for the collective kernel.
The trajectory-side estimate fits -ln F(t) over the early-time window,
the horizon's first ``RATE_WINDOW_FRACTION``, with inverse-variance
weights; its standard error is the delete-one jackknife over
trajectories, in closed form because the slope is linear in -ln F once
the weights are fixed.  Size scaling is a log-log least-squares fit
Gamma ~ K * N^(1+delta); the state counts as fragile when the fitted
exponent reaches 1.5.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import covariance_matrix, log_log_fit

FRAGILE_EXPONENT = 1.5
RATE_WINDOW_FRACTION = 0.05
MIN_WINDOW_DECAY = 1e-8  # gamma x window below this leaves f_mean within rounding of 1


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
    window: float


def trajectory_rate(result, window):
    """Decay rate from an ensemble run with a jackknife standard error.

    The rate is a weighted least-squares slope through -ln F over the
    recorded times in (0, window], with inverse-variance weights w held
    fixed.  It is then one linear functional gamma = c . (-ln F) with
    c_t = w_t (S_w t - S_t) / (S_w S_tt - S_t^2), so its delete-one
    jackknife over trajectories has a closed form: trajectory k's influence
    is a_k = c . (F_k / F) and the standard error is sd(a) / sqrt(n).
    Per-point fidelity errors would understate the uncertainty because they
    are strongly correlated in time along each trajectory; each a_k sums
    its trajectory's whole window instead.
    """
    times = result.times
    sel = (times > 0) & (times <= window)
    t, f_mean = times[sel], result.f_mean[sel]
    sigma = result.f_stderr[sel] / f_mean
    w = np.where(sigma > 1e-15, 1.0 / np.maximum(sigma, 1e-15) ** 2, 1e30)
    sw, st, stt = np.einsum("t,mt->m", w, [np.ones_like(t), t, t * t])
    c = w * (sw * t - st) / (sw * stt - st * st)
    gamma = np.einsum("t,t->", c, -np.log(np.clip(f_mean, 1e-300, None)))
    # f_rows excludes the t = 0 column
    influence = np.einsum("kt,t->k", result.f_rows[:, sel[1:]], c / f_mean)
    stderr = influence.std(ddof=1) / math.sqrt(influence.size)
    return RateFit(float(gamma), float(stderr), window)
