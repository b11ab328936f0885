"""Spin-chain Hamiltonians as matrix-free operators.

Models
------
transverse-ising:
    H = -J sum_bonds sz(x) sz(x+1) - h sum_x sx(x) - B sum_x sz(x)
xxz (antiferromagnetic sign convention, singlet ground state for J > 0):
    H = J sum_bonds [sx sx + sy sy + delta * sz sz] - h sum_x sx - B sum_x sz

A Hamiltonian is its diagonal plus a few off-diagonal terms, each a bit-flip
mask with a coefficient: one per site for the field h, one per bond for the
XXZ hopping, which acts only where the two bits differ.  A vector is viewed
as a (2,)*N tensor, so a flip mask is a reversal of its axes.  Both models
commute with the global spin flip P = prod_x sx when B = 0; in a P sector
a mask that flips the top bit folds onto the partner state.

The solver's start vectors and the Hermiticity probes of ``build_hamiltonian``
are counter hashes (``_hash_vector``), not random draws: only the trajectory
noise of ``rates`` comes from a Philox stream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lattice import LatticeSpec
from .scenario import TRANSVERSE_ISING, XXZ

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    """The splitmix64 finalizer (Steele, Lea and Flood, OOPSLA 2014) of a Python
    integer or, elementwise, of a ``uint64`` array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _hash_vector(key, dim):
    """``dim`` floats in [-1, 1): entry i is the splitmix64 finalizer of (key, i).

    The key is mixed in Python integers mod 2^64, since a numpy ``uint64`` scalar
    warns on overflow where an array wraps; the top 53 bits of each hash map
    exactly to a float.  No BLAS, so no thread-count dependence.
    """
    z = _splitmix64(np.arange(dim, dtype=np.uint64) * _GOLDEN + _splitmix64(key))
    return (z >> 11).astype(np.float64) * 2.0**-52 - 1.0


@dataclass(frozen=True)
class HamiltonianSpec:
    model: str
    lattice: LatticeSpec
    J: float = 1.0
    h: float = 0.0
    delta: float = 1.0
    B: float = 0.0


class Hamiltonian:
    """Hermitian operator handle for one HamiltonianSpec: the diagonal ``diag`` and
    the off-diagonal ``terms``, (flip mask, coefficient) pairs; a coefficient is a
    scalar or an array that broadcasts over the (2,)*N view of a vector."""

    def __init__(self, spec):
        self.spec = spec
        self.lattice = spec.lattice
        self.dim = spec.lattice.dim
        n = spec.lattice.n_sites
        # sigma_z(x) on the (2,)*N view of a vector, whose axis k holds bit N-1-k
        z = [1.0 - 2.0 * np.arange(2).reshape([2 if k == n - 1 - x else 1 for k in range(n)]) for x in range(n)]
        zz = -spec.J if spec.model == TRANSVERSE_ISING else spec.J * spec.delta
        diag = np.zeros((2,) * n)
        for x, y in spec.lattice.bonds():
            diag += zz * z[x] * z[y]
        if spec.B != 0.0:
            diag -= spec.B * sum(z)
        self.diag = diag.reshape(-1)
        self.terms = [(1 << x, -spec.h) for x in range(n) if spec.h != 0.0]
        if spec.model == XXZ and spec.J != 0.0:  # hopping only where bits x and y differ
            self.terms += [((1 << x) | (1 << y), 2.0 * spec.J * (z[x] != z[y])) for x, y in spec.lattice.bonds()]
        self._full = self.operator(0)

    def operator(self, sector):
        """H as a function of one vector: on the full space (``sector`` 0) or, at B = 0,
        on spin-flip sector s = +-1 in the basis (|i> + s|dim-1-i>)/sqrt(2), i < dim/2."""
        n, diag, terms = self.lattice.n_sites, self.diag, self.terms
        if sector:  # a mask that flips the top bit folds onto the partner dim-1-i
            half = self.dim // 2
            n, diag = n - 1, diag[:half]
            terms = [(m, c) if m < half else (~m & (half - 1), sector * c) for m, c in terms]
            terms = [(m, c[0] if np.ndim(c) else c) for m, c in terms]  # rows with top bit 0
        shape = (2,) * n or (1,)
        diag = diag.reshape(shape)
        groups, scalar = [], {}  # scalar terms with one coefficient share one accumulator
        for m, c in terms:
            flip = tuple(slice(None, None, -1) if m >> (n - 1 - k) & 1 else slice(None) for k in range(n))
            if np.ndim(c):
                groups.append((c, [flip]))
            else:
                scalar.setdefault(c, []).append(flip)
        groups += scalar.items()

        def apply(v):
            t = v.reshape(shape)
            out = diag * t
            for coef, flips in groups:
                acc = t[flips[0]].copy()
                for f in flips[1:]:
                    acc += t[f]
                acc *= coef
                out += acc
            return out.reshape(-1)

        return apply

    @property
    def parity_symmetric(self):
        """True when the global spin flip commutes with H (B = 0)."""
        return self.spec.B == 0.0

    def matvec(self, v):
        """H v on the full space; the benchmark counts its calls."""
        return self._full(v)

    def energy_scale(self):
        """Crude operator-norm bound used for tolerance scaling."""
        spec = self.spec
        n_bonds = max(len(spec.lattice.bonds()), 1)
        zz = abs(spec.J) * (max(abs(spec.delta), 1.0) if spec.model == XXZ else 1.0)
        return n_bonds * (zz + 2 * abs(spec.J)) + spec.lattice.n_sites * (abs(spec.h) + abs(spec.B)) + 1.0


def build_hamiltonian(spec):
    """Construct the operator handle and self-check, on two pairs of hashed real
    vectors, that it is symmetric."""
    ham = Hamiltonian(spec)
    scale = ham.energy_scale()
    for pair in range(2):
        u, w = (_hash_vector(0x48414D00 + 2 * pair + k, ham.dim) for k in range(2))
        lhs = np.sum(u * ham.matvec(w))
        rhs = np.sum(ham.matvec(u) * w)
        if abs(lhs - rhs) > 1e-12 * scale * ham.dim:
            raise NumericalError(f"Hamiltonian failed the Hermiticity self-check: {lhs} vs {rhs}")
    return ham
