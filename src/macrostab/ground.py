"""Iterative ground states and pure-phase vacuum construction.

One thick-restarted Lanczos solver serves every size.  Every product over the
2^N axis is a ``_dot_rows``: BLAS on fixed blocks of 2^12 entries, too short for
OpenBLAS to split a sum across threads, then the block sums in block order.  A
product over the Krylov axis sums at most 32 terms per entry in one thread.  So
no thread count moves a bit.  A solve starts from a counter hash
(``hamiltonian._hash_vector``), not a random draw.  At B = 0 the pair is the
lowest state of each sector of the global spin flip P (index i -> dim-1-i), the
flip-even one first unless the odd one is lower by more than their residual
norms: an unresolved ferromagnetic doublet leads with its symmetric member.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analyzer import magnetization
from .errors import NumericalError
from .hamiltonian import _hash_vector, build_hamiltonian
from .scenario import METHOD_DOUBLET
from .states import StateVector

RESIDUAL_TOL = 1e-9

_MAX_STEPS = 400
_BASIS = 32  # Krylov vectors held at once
_KEEP = 8  # Ritz vectors a thick restart keeps (Wu and Simon, SIMAX 22, 602 (2000))
_CHECK_EVERY = 8
_RITZ_TOL = 1e-10
_DGKS_RATIO = 0.7  # Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 772 (1976)
_BLOCK = 1 << 12  # entries per BLAS product over the 2^N axis


def _dot_rows(b, w):
    """``b @ w`` for rows ``b`` of shape (k, dim), dim a power of two: one BLAS
    product per block of 2^12 entries, then the block sums added in block order."""
    k, dim = b.shape
    if dim <= _BLOCK:
        return b @ w
    nb = dim // _BLOCK
    return np.matmul(b.reshape(k, nb, _BLOCK).transpose(1, 0, 2), w.reshape(nb, _BLOCK, 1)).sum(axis=0)[:, 0]


def _norm(v):
    return math.sqrt(_dot_rows(v[None], v)[0])


def _start_vector(dim, index=0):
    """Start vector ``index`` of a solve: 0 for the first, 1 for the second start at B != 0."""
    return _hash_vector(0x47524400 + index, dim)


def _lowest(apply, start, locked=()):
    """Lowest (energy, unit vector) of the real symmetric operator ``apply`` orthogonal to
    the unit vectors ``locked``; the Ritz pair is tested every 8 steps, on breakdown
    and on a full basis, which then keeps its lowest Ritz vectors (thick restart)."""
    dim, n_locked = start.shape[0], len(locked)
    size = min(_BASIS, dim - n_locked)
    basis = np.empty((n_locked + size, dim))
    basis[:n_locked] = np.reshape(locked, (n_locked, dim))
    proj = np.zeros((size, size))  # basis^T matrix basis; its [:j, :j] block is current
    q = start - _dot_rows(basis[:n_locked], start) @ basis[:n_locked]
    np.divide(q, _norm(q), out=basis[n_locked])
    j = 0
    for _ in range(_MAX_STEPS):
        row = n_locked + j
        q = basis[row]
        w = apply(q)
        a = float(_dot_rows(q[None], w)[0])
        proj[j, j] = a
        w -= a * q
        if j:
            w -= proj[j, j - 1] * basis[row - 1]
        for _ in range(2):  # once more only if < 0.7 of the norm is left (DGKS 1976)
            coef = _dot_rows(basis[: row + 1], w)
            w -= coef @ basis[: row + 1]
            b = _norm(w)
            if b * b >= _DGKS_RATIO**2 * (b * b + coef @ coef):
                break
        j += 1
        if j < size:
            proj[j, j - 1] = proj[j - 1, j] = b
        if j % _CHECK_EVERY == 0 or b <= _RITZ_TOL or j == size:
            theta, ritz = np.linalg.eigh(proj[:j, :j])
            if b * abs(ritz[-1, 0]) <= _RITZ_TOL:
                vec = ritz[:, 0] @ basis[n_locked : row + 1]
                return float(theta[0]), vec / _norm(vec)
            if j == size:
                j = min(_KEEP, size - 1)
                basis[n_locked : n_locked + j] = ritz[:, :j].T @ basis[n_locked:]
                proj[:j, :j] = np.diag(theta[:j])
                proj[j, :j] = proj[:j, j] = b * ritz[-1, :j]
        np.divide(w, b, out=basis[n_locked + j])  # the next q, after any restart
    raise NumericalError(f"Lanczos found no eigenpair in {_MAX_STEPS} steps at dim {dim}")


def ground_state(ham):
    """Lowest two eigenstates (B != 0) or the lowest state of each spin-flip
    sector (B = 0), with verified residuals, lowest first."""
    start = _start_vector(ham.dim)
    if ham.parity_symmetric:
        # sector s of P in the basis (|i> + s|dim-1-i>)/sqrt(2), i < dim/2
        half = ham.dim // 2
        pairs = []
        for s in (1.0, -1.0):
            e, u = _lowest(ham.operator(s), start[:half] + s * start[: half - 1 : -1])
            pairs.append((e, np.concatenate((u, s * u[::-1])) / math.sqrt(2.0)))
    else:
        e0, v0 = _lowest(ham.operator(0), start)
        pairs = [(e0, v0), _lowest(ham.operator(0), _start_vector(ham.dim, 1), locked=(v0,))]
    residuals = [_norm(ham.matvec(v) - e * v) for e, v in pairs]
    # a Ritz value lies within its residual of an eigenvalue: the second state goes first
    # only when it is lower by more than both residuals
    if pairs[1][0] < pairs[0][0] - sum(residuals):
        pairs, residuals = pairs[::-1], residuals[::-1]
    energies, residuals = tuple(e for e, _ in pairs), tuple(residuals)
    vecs = [v if v[np.argmax(np.abs(v))] > 0 else -v for _, v in pairs]
    overlap = abs(float(_dot_rows(vecs[0][None], vecs[1])[0]))
    if max(residuals) > RESIDUAL_TOL or overlap > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residuals {residuals} or overlap {overlap:.1e} over {RESIDUAL_TOL}")
    states = tuple(StateVector(ham.lattice, (v / _norm(v)).astype(complex), _take=True) for v in vecs)
    return GroundStateResult(states, energies, residuals)


@dataclass(frozen=True)
class GroundStateResult:
    states: tuple
    energies: tuple
    residuals: tuple


def pure_phase_vacuum(spec, method, pair):
    """The maximally polarized low-energy state of a ferromagnetic spec.

    doublet-superposition: (|E0> + |E1>)/sqrt(2) with the sign that
    maximizes the order parameter (+ on a tie), from ``pair``, the
    ``ground_state`` result (``GroundStateResult``) of ``spec``.
    sb-field-limit: the ground state after adding a longitudinal field
    B = 0.05 J; it ignores ``pair``.  Its energy under the B = 0
    Hamiltonian and its magnetization are the caller's to measure.
    """
    if method == METHOD_DOUBLET:
        v0, v1 = (state.amplitudes for state in pair.states)
        r = 1.0 / math.sqrt(2.0)
        cands = [StateVector(spec.lattice, r * (v0 + sign * v1), _take=True) for sign in (1.0, -1.0)]
        return max(cands, key=magnetization)
    return ground_state(build_hamiltonian(replace(spec, B=0.05 * spec.J))).states[0]
