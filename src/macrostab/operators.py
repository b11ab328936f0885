"""Single-site Hermitian operators and their lattice sums.

A ``LocalOperator`` is a 2x2 Hermitian matrix at one site; an
``AdditiveOperator`` holds one term per site (terms may be zero).  For
spin-1/2 sites the identity plus the three Pauli matrices span every
single-site Hermitian operator, so additive observables are parametrized
by 3N real Pauli coefficients (identity components drop out of every
fluctuation quantity).
"""

import numpy as np

from .errors import ArgumentError, NumericalError
from .lattice import LatticeSpec
from .states import _cdot

HERMITICITY_TOL = 1e-12
IMAG_TOL = 1e-8

PAULI_AXES = ("x", "y", "z")

PAULI_MATRICES = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

_ZERO2 = np.zeros((2, 2), dtype=np.complex128)


class LocalOperator:
    """Hermitian 2x2 operator acting on a single site."""

    __slots__ = ("site", "matrix")

    def __init__(self, site, matrix):
        if not isinstance(site, int) or isinstance(site, bool) or site < 0:
            raise ArgumentError(f"site must be a non-negative integer, got {site!r}")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ArgumentError("local operator matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ArgumentError("local operator matrix is not Hermitian")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("LocalOperator is immutable")


def pauli(lattice, site, axis):
    """Pauli operator sigma_axis at ``site`` on ``lattice``."""
    lattice.validate_site(site)
    if axis not in PAULI_MATRICES:
        raise ArgumentError(f"axis must be one of {PAULI_AXES}, got {axis!r}")
    return LocalOperator(site, PAULI_MATRICES[axis])


class AdditiveOperator:
    """Sum of one local operator per lattice site."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice, terms):
        if not isinstance(lattice, LatticeSpec):
            raise ArgumentError("lattice must be a LatticeSpec")
        terms = tuple(terms)
        if len(terms) != lattice.n_sites:
            raise ArgumentError(
                f"need exactly one term per site ({lattice.n_sites}), got {len(terms)}"
            )
        for x, op in enumerate(terms):
            if not isinstance(op, LocalOperator):
                raise ArgumentError("terms must be LocalOperator instances")
            if op.site != x:
                raise ArgumentError(
                    f"term {x} carries site index {op.site}; terms must be site-ordered"
                )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("AdditiveOperator is immutable")

    @classmethod
    def from_axis(cls, lattice, axis):
        """Sum of sigma_axis over all sites, e.g. the order parameter for axis z."""
        return cls(lattice, [pauli(lattice, x, axis) for x in lattice.sites])

    @classmethod
    def from_coefficients(cls, lattice, coefficients):
        """Build sum_x sum_a c[3x+a] sigma_a(x) from a real 3N-vector."""
        c = np.asarray(coefficients, dtype=np.float64)
        if c.shape != (3 * lattice.n_sites,):
            raise ArgumentError(
                f"need {3 * lattice.n_sites} coefficients, got shape {c.shape}"
            )
        terms = []
        for x in lattice.sites:
            m = np.zeros((2, 2), dtype=np.complex128)
            for a, axis in enumerate(PAULI_AXES):
                m += c[3 * x + a] * PAULI_MATRICES[axis]
            terms.append(LocalOperator(x, m))
        return cls(lattice, terms)


def _apply_matrix_at_site(amps, site, matrix):
    """(matrix on `site`, identity elsewhere) applied to an amplitude array."""
    low = 1 << site
    block = amps.reshape(-1, 2, low)
    out = np.einsum("ab,hbl->hal", matrix, block)
    return np.ascontiguousarray(out).reshape(amps.size)


def apply_local(op, psi):
    """Amplitudes of O|psi> as a plain array: an operator image, not a state."""
    psi.lattice.validate_site(op.site)
    return _apply_matrix_at_site(psi.amplitudes, op.site, op.matrix)


def apply_additive(additive, psi):
    """Amplitudes of A|psi> for a site-summed A, as a plain array (not a state)."""
    if additive.lattice.n_sites != psi.n_sites:
        raise ArgumentError("operator and state live on different lattices")
    acc = np.zeros(psi.dim, dtype=np.complex128)
    for op in additive.terms:
        if np.any(op.matrix):
            acc += _apply_matrix_at_site(psi.amplitudes, op.site, op.matrix)
    return acc


def _real_expectation(value):
    if abs(value.imag) > IMAG_TOL:
        raise NumericalError(
            f"expectation of a Hermitian operator came out complex: {value!r}"
        )
    return float(value.real)


def expectation(op, psi):
    """<psi|O|psi> for a local or additive Hermitian operator."""
    if isinstance(op, LocalOperator):
        phi = apply_local(op, psi)
    elif isinstance(op, AdditiveOperator):
        phi = apply_additive(op, psi)
    else:
        raise ArgumentError("op must be a LocalOperator or AdditiveOperator")
    return _real_expectation(_cdot(psi.amplitudes, phi))


def additive_variance(additive, psi):
    """<A^2> - <A>^2, clamped at zero against round-off near eigenstates."""
    phi = apply_additive(additive, psi)
    second = float(np.sum(phi.real**2 + phi.imag**2))
    first = _real_expectation(_cdot(psi.amplitudes, phi))
    var = second - first * first
    return var if var > 0.0 else 0.0
