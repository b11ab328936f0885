"""Iterative ground states and pure-phase vacuum construction.

The solver is ARPACK's implicitly restarted, reorthogonalized Lanczos
(scipy eigsh) with a fixed pseudo-random start vector for reproducibility.
For parity-symmetric Hamiltonians the returned pair is rotated into
eigenstates of the global spin flip; for a near-degenerate ferromagnetic
doublet this pins the symmetric combination (zero order parameter) and
its partner even when the splitting sits below the solver's resolution.
Very small problems (dim < 64) bypass ARPACK and use a direct dense
solve, which the residual contract covers either way.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import ArgumentError, NumericalError
from .hamiltonian import Hamiltonian, build_hamiltonian
from .operators import AdditiveOperator, expectation
from .states import StateVector, _cdot

RESIDUAL_TOL = 1e-9

METHOD_DOUBLET = "doublet-superposition"
METHOD_SB_FIELD = "sb-field-limit"
METHODS = (METHOD_DOUBLET, METHOD_SB_FIELD)

_PARITY_MIX_TOL = 1e-13
_DENSE_CUTOFF = 64


def _start_vector(dim):
    rng = np.random.Generator(np.random.Philox(key=np.array([0x475244, dim], dtype=np.uint64)))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _gauge_fix(vec):
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    return vec


def _parity_rotate(ham, vecs, energies):
    """Rotate a 2-vector span into global-spin-flip eigenstates if mixed.

    The flip of all bits maps basis index i to dim-1-i, so P|psi> is the
    reversed amplitude array.
    """
    p_mat = np.empty((2, 2))
    flipped = [v[::-1] for v in vecs]
    for i in range(2):
        for j in range(2):
            p_mat[i, j] = float(np.sum(vecs[i] * flipped[j]))
    if abs(p_mat[0, 1]) <= _PARITY_MIX_TOL and abs(p_mat[1, 0]) <= _PARITY_MIX_TOL:
        return vecs, energies
    _, rot = np.linalg.eigh(0.5 * (p_mat + p_mat.T))
    new_vecs = []
    new_energies = []
    for k in range(2):
        v = rot[0, k] * vecs[0] + rot[1, k] * vecs[1]
        v /= np.linalg.norm(v)
        new_vecs.append(v)
        new_energies.append(float(np.sum(v * ham.matvec(v))))
    order = np.argsort(new_energies)
    return [new_vecs[i] for i in order], [new_energies[i] for i in order]


def ground_state(ham):
    """Lowest two eigenstates with verified residuals, lowest first."""
    if not isinstance(ham, Hamiltonian):
        raise ArgumentError("ham must be a Hamiltonian handle")
    dim = ham.dim
    k = 2
    if dim < _DENSE_CUTOFF:
        evals, evecs = np.linalg.eigh(ham.dense())
        energies = [float(evals[i]) for i in range(k)]
        vecs = [np.ascontiguousarray(evecs[:, i]) for i in range(k)]
    else:
        try:
            evals, evecs = eigsh(
                ham.to_csr(),
                k=k,
                which="SA",
                v0=_start_vector(dim),
                ncv=min(dim - 1, 40),
                tol=0,
            )
        except (ArpackError, ArpackNoConvergence) as exc:
            raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
        order = np.argsort(evals)
        energies = [float(evals[i]) for i in order]
        vecs = [np.ascontiguousarray(evecs[:, i]) for i in order]
    if ham.parity_symmetric:
        vecs, energies = _parity_rotate(ham, vecs, energies)
    vecs = [_gauge_fix(v) for v in vecs]
    residuals = []
    for v, e in zip(vecs, energies):
        res = float(np.linalg.norm(ham.matvec(v) - e * v))
        if res > RESIDUAL_TOL:
            raise NumericalError(
                f"eigenpair residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} at energy {e!r}"
            )
        residuals.append(res)
    states = tuple(
        StateVector(ham.lattice, v.astype(np.complex128) / np.linalg.norm(v), _take=True)
        for v in vecs
    )
    return GroundStateResult(states, tuple(energies), tuple(residuals))


@dataclass(frozen=True)
class GroundStateResult:
    states: tuple
    energies: tuple
    residuals: tuple


@dataclass(frozen=True)
class PurePhaseVacuum:
    """Symmetry-broken finite-size vacuum candidate."""

    state: StateVector
    energy: float               # expectation of the B = 0 Hamiltonian
    magnetization: float        # <sum_x sigma_z(x)>
    method: str
    paramagnetic_warning: bool


def pure_phase_vacuum(spec, method=METHOD_DOUBLET, pair=None):
    """Build a maximally polarized low-energy state for a ferromagnetic spec.

    doublet-superposition: (|E0> + |E1>)/sqrt(2) with the sign that
    maximizes the order parameter.  sb-field-limit: ground state after
    adding a longitudinal field B = 0.05 J; its energy is still reported
    under the unbiased Hamiltonian.  ``pair`` is the lowest-two
    ``GroundStateResult`` of ``spec`` when the caller has already solved
    it; the doublet superposition is built from it instead of a second
    identical solve.  The sb-field limit does not use it.
    """
    if method not in METHODS:
        raise ArgumentError(f"unknown pure-phase method {method!r}")
    if pair is not None and (len(pair.states) != 2 or pair.states[0].lattice != spec.lattice):
        raise ArgumentError("pair must be the lowest-two ground-state result of spec")
    warning = not (abs(spec.h) < abs(spec.J))
    m_op = AdditiveOperator.from_axis(spec.lattice, "z")
    if method == METHOD_DOUBLET:
        if pair is None:
            pair = ground_state(build_hamiltonian(spec))
        v0 = pair.states[0].amplitudes
        v1 = pair.states[1].amplitudes
        r = 1.0 / math.sqrt(2.0)
        best_state = None
        best_m = -np.inf
        for sign in (1.0, -1.0):
            cand = StateVector(spec.lattice, r * (v0 + sign * v1), _take=True)
            m_val = expectation(m_op, cand)
            if m_val > best_m:
                best_m = m_val
                best_state = cand
        energy = 0.5 * (pair.energies[0] + pair.energies[1])
        return PurePhaseVacuum(best_state, energy, best_m, method, warning)
    ham = build_hamiltonian(spec)
    biased = build_hamiltonian(replace(spec, B=0.05 * spec.J))
    state = ground_state(biased).states[0]
    m_val = expectation(m_op, state)
    energy = float(np.real(_cdot(state.amplitudes, ham.matvec(state.amplitudes))))
    return PurePhaseVacuum(state, energy, m_val, method, warning)
