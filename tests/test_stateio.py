import numpy as np
import pytest

from macrostab.errors import ValidationError
from macrostab.lattice import LatticeSpec
from macrostab.stateio import export_state, import_state
from macrostab.states import StateVector, make_ghz
from conftest import random_state_amps


def roundtrip(psi, tmp_path):
    path = tmp_path / "psi.state"
    export_state(psi, path)
    return import_state(path)


def _written(tmp_path, text):
    """Path of a state file holding ``text``."""
    path = tmp_path / "input.state"
    path.write_text(text)
    return path


def test_roundtrip_ghz_bit_exact(tmp_path):
    psi = make_ghz(LatticeSpec(2))
    back = roundtrip(psi, tmp_path)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_roundtrip_random_bit_exact(rng, tmp_path):
    psi = StateVector(LatticeSpec(5), random_state_amps(5, rng))
    back = roundtrip(psi, tmp_path)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_roundtrip_via_files(tmp_path):
    psi = make_ghz(LatticeSpec(3))
    path = tmp_path / "ghz.state"
    export_state(psi, path)
    back = import_state(path)
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    header = path.read_text().splitlines()[0]
    assert header == "macrostab-state v1 n_sites=3"


def test_wrong_amplitude_count(tmp_path):
    text = "macrostab-state v1 n_sites=2\n0 1.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n"
    with pytest.raises(ValidationError, match="expected 4 amplitudes for n_sites=2, found 3"):
        import_state(_written(tmp_path, text))


def test_unnormalized_input_renormalizes(tmp_path):
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 2.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n3 0.0 0.0\n"
    )
    psi = import_state(_written(tmp_path, text))
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])


def test_zero_vector_rejected(tmp_path):
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 0.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n3 0.0 0.0\n"
    )
    with pytest.raises(ValidationError, match="near-.zero vector"):
        import_state(_written(tmp_path, text))


def test_malformed_header(tmp_path):
    with pytest.raises(ValidationError, match="malformed state-file header"):
        import_state(_written(tmp_path, "macrostab-state v2 n_sites=2\n"))
    with pytest.raises(ValidationError, match="malformed state-file header"):
        import_state(_written(tmp_path, "hello\n"))


def test_out_of_order_indices(tmp_path):
    text = (
        "macrostab-state v1 n_sites=2\n"
        "0 1.0 0.0\n2 0.0 0.0\n1 0.0 0.0\n3 0.0 0.0\n"
    )
    with pytest.raises(ValidationError, match="amplitude index 2 out of order"):
        import_state(_written(tmp_path, text))


def test_malformed_amplitude_line(tmp_path):
    text = "macrostab-state v1 n_sites=1\n0 1.0 0.0\n1 zero 0.0\n"
    with pytest.raises(ValidationError, match="malformed amplitude line"):
        import_state(_written(tmp_path, text))
