"""Spatially correlated white noise coupling along one Pauli axis.

Convention: the noise field f(x, t) multiplying the coupling
sigma_axis(x) is Gaussian and white in time with

    E[f(x,t) f(y,t')] = kappa * g(x - y) * delta(t - t'),

so the ensemble obeys
drho/dt = -(kappa/2) sum_{xy} g(x-y) [sigma_axis(x),[sigma_axis(y),rho]]
and the initial fidelity-decay rate of a pure state is
kappa * sum_{xy} g(x-y) C_xy, with C_xy the connected correlation of
sigma_axis(x) and sigma_axis(y).  For the collective kernel (g
identically 1) that rate is exactly kappa times the fluctuation of the
additive operator sum_x sigma_axis(x).
"""

from dataclasses import dataclass

import numpy as np

from .scenario import KERNEL_COLLECTIVE, KERNEL_INDEPENDENT


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
