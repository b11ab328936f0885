"""Pure states of a spin-1/2 chain as dense amplitude vectors.

Published ``StateVector`` objects are immutable and normalized; every
operation returns a new instance.  Reductions use numpy's pairwise
summation so results do not depend on how work is partitioned.
"""

import math

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-8


def _cdot(a, b):
    """<a|b> via pairwise summation (deterministic, thread-count independent)."""
    return complex(np.sum(np.conjugate(a) * b))


def _norm2(a):
    """<a|a> via pairwise summation of the squared real and imaginary parts."""
    return float(np.sum(a.real**2 + a.imag**2))


class StateVector:
    """Normalized pure state on ``lattice``; amplitudes indexed bit-wise by site.

    Normalization is checked at construction, so every ``StateVector`` is a
    state; unnormalized vectors such as operator images stay plain arrays.
    ``_table`` holds the state's two-point Pauli table once
    ``analyzer.covariance_matrix`` has built it.
    """

    __slots__ = ("lattice", "_amps", "_table")

    def __init__(self, lattice, amplitudes, *, _take=False):
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.shape != (lattice.dim,):
            raise ValidationError(
                f"amplitude count {arr.shape} does not match 2^{lattice.n_sites}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        if not _take:
            arr = arr.copy()
        n2 = _norm2(arr)
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValidationError(f"state not normalized: sum |a|^2 = {n2!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_amps", arr)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def amplitudes(self):
        """Read-only view of the 2^N complex amplitudes."""
        return self._amps

    @property
    def n_sites(self):
        return self.lattice.n_sites

    @property
    def dim(self):
        return self.lattice.dim


def make_uniform_product(lattice, theta, phi=0.0):
    """The single-site state cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>
    on every site; angles in radians."""
    v = np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )
    amps = np.ones(1, dtype=np.complex128)
    for _ in lattice.sites:
        amps = np.kron(v, amps)  # site k occupies bit k, so later sites go on the left
    n = math.sqrt(_norm2(amps))
    if abs(n - 1.0) > 1e-15:
        amps /= n
    return StateVector(lattice, amps, _take=True)


def make_ghz(lattice):
    """(|all-up> + |all-down>)/sqrt(2)."""
    if lattice.n_sites < 2:
        raise ValidationError(f"scenario.sizes must be >= 2 for a GHZ state, got {lattice.n_sites}")
    amps = np.zeros(lattice.dim, dtype=np.complex128)
    r = 1.0 / math.sqrt(2.0)
    amps[0] = r
    amps[-1] = r
    return StateVector(lattice, amps, _take=True)


def make_dicke(lattice, k):
    """Equal superposition of all basis states with exactly k down spins."""
    n = lattice.n_sites
    if not 0 <= k <= n:
        raise ValidationError(f"scenario.state.params.k must lie in [0, N] at N = {n}, got {k}")
    idx = np.arange(lattice.dim, dtype=np.uint64)
    pop = np.zeros(lattice.dim, dtype=np.int64)
    for x in range(n):
        pop += ((idx >> np.uint64(x)) & np.uint64(1)).astype(np.int64)
    hits = np.nonzero(pop == k)[0]
    amps = np.zeros(lattice.dim, dtype=np.complex128)
    amps[hits] = 1.0 / math.sqrt(len(hits))
    return StateVector(lattice, amps, _take=True)
