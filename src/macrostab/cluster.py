"""Finite-size cluster-property diagnostics.

The normalized correlation rho(x, y) is the supremum of

    |<da db>| / sqrt(<da^2><db^2>)

over Hermitian single-site observables a at x and b at y.  Within the
Pauli parametrization that supremum is exactly the largest singular value
of the whitened cross-covariance block

    W = C_xx^{-1/2} C_xy C_yy^{-1/2},

where the inverse square roots are taken on the eigenspace with variance
at least ``VARIANCE_FLOOR``; deterministic directions carry no
fluctuation, so they are projected out (Cauchy-Schwarz forces their
numerators to zero as well).  Whitening a direction of variance lambda
amplifies the table's rounding by about 1/lambda: a floor of 1e-10 would
let rho of a barely fluctuating site reach 1 + 1e-6, while at 1e-6 its
excess stays near 1e-10, and a direction of smaller variance counts as
deterministic.  All pairs are read from the one two-point
table of ``covariance_matrix`` in a single batched pass.

Omega(eps, x) counts the sites y != x whose rho(x, y) exceeds eps, and
Omega(eps) is the worst case over x.  A size sequence "has the cluster
property" when Omega(eps) has stopped growing over the two largest sizes
and fills at most half the chain, a finite-size stand-in for
V-independence.
"""

from dataclasses import dataclass

import numpy as np

from .analyzer import covariance_matrix

VARIANCE_FLOOR = 1e-6


def _inverse_sqrt_projected(block):
    """(eigenspace-projected) inverse square root of a 3x3 PSD block."""
    evals, evecs = np.linalg.eigh(block)
    keep = evals >= VARIANCE_FLOOR
    inv = evecs[:, keep] * (1.0 / np.sqrt(evals[keep]))
    return inv @ evecs[:, keep].T


def correlation_field(psi):
    """All-pairs normalized correlations rho from one covariance pass: a
    read-only (N, N) symmetric array with entries in [0, 1] and rho(x,x) = 1.

    Each site block is whitened once.  A site block is C_xx = I - r r^T, r
    the site's Bloch vector, with eigenvalues 1, 1 and 1 - |r|^2, so only
    the r direction can fall below the floor.  The whitened cross blocks of
    all pairs x < y go through one stacked product and one batched SVD, and
    the lower triangle mirrors the upper one.
    """
    cov = covariance_matrix(psi)
    n = psi.n_sites
    whiten = np.stack([_inverse_sqrt_projected(cov.site_block(x, x)) for x in range(n)])
    xs, ys = np.triu_indices(n, k=1)
    cross = cov.entries.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)[xs, ys]
    rho = np.eye(n)
    rho[xs, ys] = np.linalg.svd(whiten[xs] @ cross @ whiten[ys], compute_uv=False)[:, 0]
    rho[ys, xs] = rho[xs, ys]
    rho.flags.writeable = False
    return rho


@dataclass(frozen=True)
class ClusterReport:
    """Correlated-region sizes of one state at a fixed threshold."""

    epsilon: float
    omega_of_x: np.ndarray  # per-site counts of strongly correlated partners
    omega: int              # max over sites
    rho: np.ndarray         # (N, N) normalized correlations


def omega(psi, epsilon):
    """Count, per site, the partners with rho > epsilon; report the max."""
    rho = correlation_field(psi)
    counts = (rho > epsilon).sum(axis=1) - 1  # rho(x,x) = 1 never counts
    counts.flags.writeable = False
    return ClusterReport(float(epsilon), counts, int(counts.max()), rho)


@dataclass(frozen=True)
class ClusterScalingVerdict:
    """Whether Omega(eps) has saturated across a size sequence."""

    has_cluster_property: bool
    tail_constant: bool
    tail_small: bool
    points: tuple  # (N, omega) ascending in N


def cluster_verdict(points):
    """TRUE when Omega is constant over the two largest sizes and <= N/2."""
    pts = sorted((int(n), int(om)) for n, om in points)
    tail_constant = pts[-1][1] == pts[-2][1]
    tail_small = pts[-1][1] <= pts[-1][0] / 2
    return ClusterScalingVerdict(tail_constant and tail_small, tail_constant, tail_small, tuple(pts))
