"""Text serialization of state vectors.

Format (normative): a header line ``macrostab-state v1 n_sites=<N>``
followed by 2^N lines ``<index> <re> <im>`` in increasing index order,
17 significant digits per float so amplitudes round-trip bit-exactly.
"""

import math
import re

import numpy as np

from .errors import CapabilityError, ValidationError
from .lattice import OPEN_CHAIN, SITE_CAP, LatticeSpec
from .states import StateVector, _norm2

_HEADER_RE = re.compile(r"^macrostab-state v1 n_sites=(\d+)$")


def export_state(psi, path):
    """Write a state to the file at ``path``."""
    amps = psi.amplitudes
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"macrostab-state v1 n_sites={psi.n_sites}\n")
        for i in range(psi.dim):
            fh.write(f"{i} {amps[i].real:.17e} {amps[i].imag:.17e}\n")


def import_state(path, geometry=OPEN_CHAIN):
    """Read the state file at ``path``, validate its layout, and renormalize.

    Renormalization is skipped when the stored norm is already 1 within
    1e-12 so that export/import round-trips are bit-exact.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _read(fh, geometry)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read state file: {exc}") from exc


def _read(fh, geometry):
    header = fh.readline().rstrip("\n")
    m = _HEADER_RE.match(header)
    if not m:
        raise ValidationError(f"malformed state-file header: {header!r}")
    try:
        n_sites = int(m.group(1))
    except ValueError as exc:  # more digits than Python's conversion limit
        raise ValidationError(f"state-file header holds an unreadable number: {exc}") from None
    # the one size that does not pass the scenario gate
    if n_sites < 1:
        raise ValidationError(f"state-file header n_sites={n_sites} must be >= 1")
    if n_sites > SITE_CAP:
        raise CapabilityError(f"state-file header n_sites={n_sites} exceeds the site cap {SITE_CAP}")
    lattice = LatticeSpec(n_sites, geometry)
    dim = lattice.dim
    amps = np.empty(dim, dtype=np.complex128)
    count = 0
    for line in fh:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"malformed amplitude line: {line!r}")
        try:
            idx = int(parts[0])
            re_part = float(parts[1])
            im_part = float(parts[2])
        except ValueError:
            raise ValidationError(f"malformed amplitude line: {line!r}")
        if idx != count:
            raise ValidationError(
                f"amplitude index {idx} out of order (expected {count})"
            )
        if count >= dim:
            raise ValidationError(f"too many amplitude lines for n_sites={n_sites}")
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ValidationError("amplitudes must be finite")
        amps[count] = complex(re_part, im_part)
        count += 1
    if count != dim:
        raise ValidationError(
            f"expected {dim} amplitudes for n_sites={n_sites}, found {count}"
        )
    with np.errstate(over="ignore"):  # refused below
        norm = math.sqrt(_norm2(amps))
    if norm == math.inf:
        raise ValidationError("state file amplitudes are too large: sum |a|^2 overflows a float")
    if norm < 1e-6:
        raise ValidationError("state file holds a (near-)zero vector")
    if abs(norm - 1.0) > 1e-12:
        amps /= norm
    return StateVector(lattice, amps, _take=True)
