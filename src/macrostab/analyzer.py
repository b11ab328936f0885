"""Fluctuation analysis of additive observables.

The covariance matrix C is the real symmetric 3N x 3N matrix of
symmetrized Pauli fluctuation correlations,

    C[(x,a),(y,b)] = (1/2) <{d sigma_a(x), d sigma_b(y)}>,

with row index 3x+a and axis order (x, y, z).  Over additive operators
A = sum_{x,a} c_{xa} sigma_a(x) with the normalization sum c^2 = N, the
fluctuation <dA^2> = c^T C c is maximized exactly by N times the largest
eigenvalue of C.  With this normalization uncorrelated product states
give O(N) and maximally correlated states give O(N^2), which is the
dichotomy the scaling verdict encodes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError
from .operators import PAULI_AXES, _real_expectation, additive_variance
from .states import _cdot

AFS = "AFS"
NFS = "NFS"
INTERMEDIATE = "intermediate"

AFS_EXPONENT_THRESHOLD = 1.75
NFS_EXPONENT_THRESHOLD = 1.25


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized Pauli fluctuation covariances on a lattice."""

    lattice: object
    entries: np.ndarray  # (3N, 3N) real symmetric
    means: np.ndarray    # (3N,) Pauli expectation values

    def site_block(self, x, y):
        """3x3 block coupling sites x and y."""
        return self.entries[3 * x : 3 * x + 3, 3 * y : 3 * y + 3]

    def axis_block(self, alpha, beta):
        """N x N block for fixed Pauli axes (alpha, beta in 'xyz')."""
        a = PAULI_AXES.index(alpha)
        b = PAULI_AXES.index(beta)
        return self.entries[a::3, b::3]


def covariance_matrix(psi):
    """Two-point Pauli table: covariances of all 3N single-site Pauli
    fluctuations of ``psi``.  It is computed on the state's first use and
    kept with the state, so every later call returns the same read-only
    table and all diagnostics of one state share it.

    Row 3x+a of V is (sigma_a(x) - <sigma_a(x)>)|psi> as real (re, im) pairs,
    filled by slicing the amplitudes along the bit of site x: sigma_x swaps
    the halves, sigma_y swaps them with re/im exchanged and signs, sigma_z
    negates the bit-1 half.  C = V V^T is one BLAS rank-k update, exactly
    symmetric and positive semidefinite by construction.
    """
    if psi._table is not None:
        return psi._table
    amps = psi.amplitudes
    flat = amps.view(np.float64)
    v = np.empty((3 * psi.n_sites, flat.size))
    for x in psi.lattice.sites:
        src = flat.reshape(-1, 2, 1 << x, 2)  # (high bits, bit x, low bits, re/im)
        sx, sy, sz = (v[3 * x + a].reshape(src.shape) for a in range(3))
        sx[:, 0] = src[:, 1]
        sx[:, 1] = src[:, 0]
        sy[:, 0, :, 0] = src[:, 1, :, 1]  # -i psi_1
        np.negative(src[:, 1, :, 0], out=sy[:, 0, :, 1])
        np.negative(src[:, 0, :, 1], out=sy[:, 1, :, 0])  # i psi_0
        sy[:, 1, :, 1] = src[:, 0, :, 0]
        sz[:, 0] = src[:, 0]
        np.negative(src[:, 1], out=sz[:, 1])
    means = np.array([_real_expectation(_cdot(amps, row)) for row in v.view(np.complex128)])
    for k in range(len(v)):
        v[k] -= means[k] * flat
    entries = v @ v.T
    entries.flags.writeable = False
    means.flags.writeable = False
    table = CovarianceMatrix(psi.lattice, entries, means)
    object.__setattr__(psi, "_table", table)
    return table


def magnetization(psi):
    """<sum_x sigma_z(x)> from the probabilities |a|^2, elementwise and
    without the two-point table: fold along bit 0 once per site (site x on
    the x-th fold), each pair's magnetization being its halves' plus
    (up - down).  The folds are a pairwise summation tree."""
    amps = psi.amplitudes
    prob = amps.real**2 + amps.imag**2
    mag = np.zeros_like(prob)
    for _ in psi.lattice.sites:
        up, down = prob[0::2], prob[1::2]
        mag = mag[0::2] + mag[1::2] + (up - down)
        prob = up + down
    return float(mag[0])


@dataclass(frozen=True)
class FluctuationReport:
    """Largest additive-operator fluctuation of a state."""

    lattice: object
    max_variance: float
    lambda_max: float
    optimal_coefficients: np.ndarray  # real 3N-vector, sum c^2 = N
    cross_check_variance: float


def max_additive_fluctuation(psi):
    """Maximize <dA^2> over additive Pauli observables with sum c^2 = N.

    The optimum is N * lambda_max of the state's covariance matrix, which
    is computed on the state's first use and kept with it.  The report is
    cross-checked by applying the maximizing operator to the state and
    evaluating its variance directly.
    """
    n = psi.n_sites
    try:
        evals, evecs = np.linalg.eigh(covariance_matrix(psi).entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance eigensolve failed: {exc}") from exc
    lam = float(evals[-1])
    vec = evecs[:, -1]
    # deterministic sign gauge
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    coeffs = vec * math.sqrt(n)
    max_var = n * lam
    check = additive_variance(coeffs, psi)
    scale = max(abs(max_var), 1e-12)
    if abs(check - max_var) > 1e-8 * scale + 1e-12:
        raise NumericalError(
            f"fluctuation cross-check failed: eig {max_var!r} vs direct {check!r}"
        )
    coeffs.flags.writeable = False
    return FluctuationReport(psi.lattice, max_var, lam, coeffs, check)


@dataclass(frozen=True)
class ScalingVerdict:
    """Fitted growth exponent of max fluctuation versus system size."""

    exponent: float
    intercept: float
    residual: float
    verdict: str
    points: tuple


def _classify_exponent(exponent):
    if math.isnan(exponent):
        return NFS
    if exponent >= AFS_EXPONENT_THRESHOLD:
        return AFS
    if exponent <= NFS_EXPONENT_THRESHOLD:
        return NFS
    return INTERMEDIATE


def log_log_fit(points):
    """Least-squares line through (ln N, ln v) of positive (N, v) pairs:
    slope, intercept and RMS residual."""
    logn = np.log([n for n, _ in points])
    logv = np.log([v for _, v in points])
    slope, intercept = np.polyfit(logn, logv, 1)
    fit = slope * logn + intercept
    residual = float(np.sqrt(np.mean((logv - fit) ** 2)))
    return float(slope), float(intercept), residual


def classify_scaling(points):
    """Least-squares log-log fit of (N, max_variance) pairs.

    A zero variance anywhere in the sequence short-circuits to an NFS
    verdict with a NaN exponent (the state has a deterministic additive
    observable, which no power law describes).
    """
    pts = [(int(n), float(v)) for n, v in points]
    if len({n for n, _ in pts}) < 3:
        raise ArgumentError("scaling fit needs at least 3 distinct sizes")
    if any(v <= 0.0 for _, v in pts):
        return ScalingVerdict(float("nan"), float("nan"), 0.0, NFS, tuple(pts))
    slope, intercept, residual = log_log_fit(pts)
    return ScalingVerdict(slope, intercept, residual, _classify_exponent(slope), tuple(pts))
