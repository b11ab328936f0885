import io

import numpy as np
import pytest

from macrostab.errors import ValidationError
from macrostab.lattice import LatticeSpec
from macrostab.stateio import export_state, import_state
from macrostab.states import StateVector, make_ghz
from conftest import random_state_amps


def roundtrip(psi):
    buf = io.StringIO()
    export_state(psi, buf)
    return import_state(io.StringIO(buf.getvalue()))


def test_roundtrip_ghz_bit_exact():
    psi = make_ghz(LatticeSpec(2))
    back = roundtrip(psi)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_roundtrip_random_bit_exact(rng):
    psi = StateVector(LatticeSpec(5), random_state_amps(5, rng))
    back = roundtrip(psi)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_roundtrip_via_files(tmp_path):
    psi = make_ghz(LatticeSpec(3))
    path = tmp_path / "ghz.state"
    export_state(psi, path)
    back = import_state(path)
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    header = path.read_text().splitlines()[0]
    assert header == "macrostab-state v1 n_sites=3"


def test_wrong_amplitude_count():
    text = "macrostab-state v1 n_sites=2\n0 1.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n"
    with pytest.raises(ValidationError, match="expected 4 amplitudes for n_sites=2, found 3"):
        import_state(io.StringIO(text))


def test_unnormalized_input_renormalizes():
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 2.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n3 0.0 0.0\n"
    )
    psi = import_state(io.StringIO(text))
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])


def test_zero_vector_rejected():
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 0.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n3 0.0 0.0\n"
    )
    with pytest.raises(ValidationError, match="near-.zero vector"):
        import_state(io.StringIO(text))


def test_malformed_header():
    with pytest.raises(ValidationError, match="malformed state-file header"):
        import_state(io.StringIO("macrostab-state v2 n_sites=2\n"))
    with pytest.raises(ValidationError, match="malformed state-file header"):
        import_state(io.StringIO("hello\n"))


def test_out_of_order_indices():
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 1.0 0.0\n2 0.0 0.0\n1 0.0 0.0\n3 0.0 0.0\n"
    )
    with pytest.raises(ValidationError, match="amplitude index 2 out of order"):
        import_state(io.StringIO(text))


def test_malformed_amplitude_line():
    text = "macrostab-state v1 n_sites=1\n0 1.0 0.0\n1 zero 0.0\n"
    with pytest.raises(ValidationError, match="malformed amplitude line"):
        import_state(io.StringIO(text))
