"""Single-site Hermitian operators and the variance of their lattice sums.

A ``LocalOperator`` is a 2x2 Hermitian matrix at one site, the input of the
projection-postulate oracle ``measure.conditional_distribution``.  For spin-1/2
sites the identity plus the three Pauli matrices span every single-site
Hermitian operator, so an additive observable
A = sum_x sum_a c[3x+a] sigma_a(x) is its real (3N,) coefficient vector c
(identity components drop out of every fluctuation quantity).
"""

import numpy as np

from .errors import NumericalError, ValidationError
from .scenario import PAULI_AXES
from .states import _cdot, _norm2

HERMITICITY_TOL = 1e-12
IMAG_TOL = 1e-8

PAULI_MATRICES = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

_PAULI_STACK = np.stack([PAULI_MATRICES[a] for a in PAULI_AXES])


class LocalOperator:
    """Hermitian 2x2 operator acting on a single site."""

    __slots__ = ("site", "matrix")

    def __init__(self, site, matrix):
        if not isinstance(site, int) or isinstance(site, bool) or site < 0:
            raise ValidationError(f"site must be a non-negative integer, got {site!r}")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValidationError("local operator matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("local operator matrix is not Hermitian")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("LocalOperator is immutable")


def _apply_matrix_at_site(amps, site, matrix):
    """(matrix on `site`, identity elsewhere) applied to an amplitude array."""
    low = 1 << site
    block = amps.reshape(-1, 2, low)
    out = np.einsum("ab,hbl->hal", matrix, block)
    return np.ascontiguousarray(out).reshape(amps.size)


def _real_expectation(value):
    if abs(value.imag) > IMAG_TOL:
        raise NumericalError(
            f"expectation of a Hermitian operator came out complex: {value!r}"
        )
    return float(value.real)


def additive_variance(coefficients, psi):
    """<A^2> - <A>^2 of A = sum_x c_x . sigma(x) for the real (3N,) vector
    ``coefficients``, by adding each site's term of A|psi> into its two halves
    in place; clamped at zero against round-off near eigenstates."""
    c = np.asarray(coefficients, dtype=np.float64)
    phi = np.zeros(psi.dim, dtype=np.complex128)
    for x, m in enumerate(np.einsum("xk,kij->xij", c.reshape(-1, 3), _PAULI_STACK)):
        if np.any(m):
            v, out = psi.amplitudes.reshape(-1, 2, 1 << x), phi.reshape(-1, 2, 1 << x)
            for a in (0, 1):
                out[:, a] += m[a, 0] * v[:, 0] + m[a, 1] * v[:, 1]
    second = _norm2(phi)
    first = _real_expectation(_cdot(psi.amplitudes, phi))
    var = second - first * first
    return var if var > 0.0 else 0.0
