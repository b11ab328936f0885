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

from .errors import NumericalError
from .operators import additive_variance
from .scenario import PAULI_AXES

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


_BLOCK_BITS = 12  # one block's rows take 3.4 MiB at N = 18, where a whole-state V takes 216 MiB
_BIT_SIGN = np.array([[1.0], [-1.0]])  # sigma_z on the (bit 0, bit 1) halves of a block


def _site_view(u, x, hb, bits):
    """Block ``hb`` of the 2^bits entries of ``u``, its partner across the bit of
    site x and the sign of that bit: the swapped halves of the block itself for a
    site below ``bits``, block ``hb ^ 2^(x - bits)`` and one sign for a site above."""
    size = 1 << bits
    own = u[hb * size : (hb + 1) * size]
    if x < bits:
        own = own.reshape(-1, 2, 1 << x)
        return own, own[:, ::-1], _BIT_SIGN
    hp = hb ^ (1 << (x - bits))
    return own, u[hp * size : (hp + 1) * size], -1.0 if hb >> (x - bits) & 1 else 1.0


def covariance_matrix(psi):
    """Two-point Pauli table: covariances of all 3N single-site Pauli
    fluctuations of ``psi``.  It is computed on the state's first use and
    kept with the state, so every later call returns the same read-only
    table and all diagnostics of one state share it.

    With psi = a + ib, row 3x+a of A and of B is the real and the imaginary part
    of (sigma_a(x) - <sigma_a(x)>)|psi>, and C = A A^T + B B^T.  As sigma_y = -iJ
    with the real J = i sigma_y, sigma_x and sigma_z give (sigma a, sigma b) and
    sigma_y gives (J b, -J a).  The means come first, each one pairwise sum; then
    blocks of 2^12 amplitudes are filled by slicing along the bit of site x (a site
    above the block bits reads a partner block), centered and added to C by BLAS
    rank-k updates, exactly symmetric and positive semidefinite.  A real state has
    real sigma_x/sigma_z rows, imaginary sigma_y rows and zero sigma_y means: its
    x/z-y blocks are exact zeros and its zero halves are never built.
    """
    if psi._table is not None:
        return psi._table
    n, amps = psi.n_sites, psi.amplitudes
    a, b = amps.real, amps.imag
    real = not b.any()
    mean = np.zeros((3, n))  # rows below: sigma_x for every site, then sigma_z, then sigma_y
    prob = a**2 + b**2
    for x in psi.lattice.sites:
        v, p = amps.reshape(-1, 2, 1 << x), prob.reshape(-1, 2, 1 << x)
        mean[1, x] = (p[:, 0] - p[:, 1]).sum()
        c = (v[:, 0].real * v[:, 1].real if real else v[:, 0].conj() * v[:, 1]).sum()  # <sigma_x + i sigma_y> / 2
        mean[0, x], mean[2, x] = 2.0 * c.real, 2.0 * c.imag
    # (part, the part its sigma_y rows read, sign of J): one part for a real state,
    # whose sigma_y rows hold -J a, their imaginary part
    parts = ((a, a, -1.0),) if real else ((a, b, 1.0), (b, a, -1.0))
    groups = ((0, 2 * n), (2 * n, 3 * n)) if real else ((0, 3 * n),)
    bits = min(_BLOCK_BITS, n)
    rows = np.empty((3 * n, len(parts), 1 << bits))
    gram = np.zeros((3 * n, 3 * n))
    for hb in range(1 << (n - bits)):
        for q, (u, w, sign) in enumerate(parts):
            for x in psi.lattice.sites:
                own, partner, s = _site_view(u, x, hb, bits)
                sx, sz, sy = (rows[k + x, q].reshape(own.shape) for k in (0, n, 2 * n))
                np.copyto(sx, partner)
                np.multiply(own, s, out=sz)
                np.multiply(_site_view(w, x, hb, bits)[1], sign * s, out=sy)
            rows[:, q] -= mean.reshape(-1, 1) * u[hb << bits : (hb + 1) << bits]
        for r0, r1 in groups:
            block = rows[r0:r1].reshape(r1 - r0, -1)
            gram[r0:r1, r0:r1] += block @ block.T
    order = (np.array([0, 2, 1]) * n + np.arange(n)[:, None]).reshape(-1)  # row 3x+a
    entries = gram[order][:, order]
    means = mean.reshape(-1)[order]
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

    max_variance: float
    lambda_max: float


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
    max_var = n * lam
    check = additive_variance(evecs[:, -1] * math.sqrt(n), psi)
    scale = max(abs(max_var), 1e-12)
    if abs(check - max_var) > 1e-8 * scale + 1e-12:
        raise NumericalError(
            f"fluctuation cross-check failed: eig {max_var!r} vs direct {check!r}"
        )
    return FluctuationReport(max_var, lam)


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
    if any(v <= 0.0 for _, v in pts):
        return ScalingVerdict(float("nan"), float("nan"), 0.0, NFS, tuple(pts))
    slope, intercept, residual = log_log_fit(pts)
    return ScalingVerdict(slope, intercept, residual, _classify_exponent(slope), tuple(pts))
