"""Spin-chain Hamiltonians as sparse (CSR) matrices.

Models
------
transverse-ising:
    H = -J sum_bonds sz(x) sz(x+1) - h sum_x sx(x) - B sum_x sz(x)
xxz (antiferromagnetic sign convention, singlet ground state for J > 0):
    H = J sum_bonds [sx sx + sy sy + delta * sz sz] - h sum_x sx - B sum_x sz

Both commute with the global spin flip P = prod_x sx when B = 0, which the
ground-state solver exploits to resolve near-degenerate doublets.  One CSR
matrix per Hamiltonian serves every matvec and the Lanczos solve, whose
two spin-flip sector matrices are sliced out of it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, NumericalError
from .lattice import LatticeSpec

TRANSVERSE_ISING = "transverse-ising"
XXZ = "xxz"
MODELS = (TRANSVERSE_ISING, XXZ)


@dataclass(frozen=True)
class HamiltonianSpec:
    model: str
    lattice: LatticeSpec
    J: float = 1.0
    h: float = 0.0
    delta: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ArgumentError(f"model must be one of {MODELS}, got {self.model!r}")
        for name in ("J", "h", "delta", "B"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ArgumentError(f"coupling {name} must be finite, got {val!r}")


def _spin_signs(n_sites):
    """(dim, n) array of sigma_z eigenvalues, +1 for bit 0 (up)."""
    idx = np.arange(1 << n_sites, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n_sites)) & 1
    return 1.0 - 2.0 * bits


def _diagonal(spec):
    s = _spin_signs(spec.lattice.n_sites)
    diag = np.zeros(spec.lattice.dim, dtype=np.float64)
    zz_coef = -spec.J if spec.model == TRANSVERSE_ISING else spec.J * spec.delta
    for x, y in spec.lattice.bonds():
        diag += zz_coef * s[:, x] * s[:, y]
    if spec.B != 0.0:
        diag -= spec.B * s.sum(axis=1)
    return diag


class Hamiltonian:
    """Hermitian operator handle for one HamiltonianSpec."""

    def __init__(self, spec):
        self.spec = spec
        self.lattice = spec.lattice
        self.dim = dim = spec.lattice.dim
        idx = np.arange(dim, dtype=np.int64)
        rows = [idx]
        cols = [idx]
        vals = [_diagonal(spec)]
        if spec.h != 0.0:
            for x in range(spec.lattice.n_sites):
                rows.append(idx)
                cols.append(idx ^ (1 << x))
                vals.append(np.full(dim, -spec.h))
        if spec.model == XXZ and spec.J != 0.0:
            for x, y in spec.lattice.bonds():
                mx, my = 1 << x, 1 << y
                differ = ((idx & mx) == 0) != ((idx & my) == 0)
                sub = idx[differ]
                rows.append(sub)
                cols.append(sub ^ (mx | my))
                vals.append(np.full(sub.size, 2.0 * spec.J))
        self._csr = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )

    @property
    def parity_symmetric(self):
        """True when the global spin flip commutes with H (B = 0)."""
        return self.spec.B == 0.0

    def matvec(self, v):
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ArgumentError(f"vector of shape {v.shape} does not match dim {self.dim}")
        return self._csr @ v

    def to_csr(self):
        """Sparse matrix form, built once with the handle."""
        return self._csr

    def dense(self):
        if self.dim > 4096:
            raise ArgumentError("dense form capped at 4096 basis states")
        return self.to_csr().toarray()

    def energy_scale(self):
        """Crude operator-norm bound used for tolerance scaling."""
        spec = self.spec
        n_bonds = max(len(spec.lattice.bonds()), 1)
        zz = abs(spec.J) * (max(abs(spec.delta), 1.0) if spec.model == XXZ else 1.0)
        return n_bonds * (zz + 2 * abs(spec.J)) + spec.lattice.n_sites * (abs(spec.h) + abs(spec.B)) + 1.0


def build_hamiltonian(spec):
    """Construct the operator handle and self-check Hermiticity."""
    ham = Hamiltonian(spec)
    rng = np.random.Generator(np.random.Philox(key=np.array([0x48414D, spec.lattice.dim], dtype=np.uint64)))
    scale = ham.energy_scale()
    for _ in range(2):
        u = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
        w = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
        lhs = np.sum(np.conjugate(u) * ham.matvec(w))
        rhs = np.sum(np.conjugate(ham.matvec(u)) * w)
        if abs(lhs - rhs) > 1e-12 * scale * ham.dim:
            raise NumericalError(f"Hamiltonian failed the Hermiticity self-check: {lhs} vs {rhs}")
    return ham
