"""Property-based invariants over randomized states."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from macrostab.analyzer import covariance_matrix, magnetization, max_additive_fluctuation
from macrostab.cluster import correlation_field
from macrostab.lattice import LatticeSpec
from macrostab.measure import _conditional_closed_form, conditional_distribution
from macrostab.operators import PAULI_MATRICES, LocalOperator, _apply_matrix_at_site, additive_variance
from macrostab.states import StateVector, make_uniform_product
from conftest import axis_coefficients


angle_pairs = st.tuples(
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(0.0, 2 * math.pi, allow_nan=False),
)


@st.composite
def product_states(draw, min_sites=2, max_sites=5):
    n = draw(st.integers(min_sites, max_sites))
    theta, phi = draw(angle_pairs)
    return make_uniform_product(LatticeSpec(n), theta, phi)


@st.composite
def random_states(draw, min_sites=2, max_sites=4):
    return draw(states_on(draw(st.integers(min_sites, max_sites))))


@st.composite
def states_on(draw, n):
    dim = 2**n
    res = draw(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=2 * dim, max_size=2 * dim)
    )
    amps = np.array(res[:dim]) + 1j * np.array(res[dim:])
    norm = np.linalg.norm(amps)
    if norm < 1e-6:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        norm = 1.0
    return StateVector(LatticeSpec(n), amps / norm)


@settings(max_examples=40, deadline=None)
@given(product_states())
def test_constructors_normalize(psi):
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(random_states())
def test_variance_never_negative(psi):
    for axis in "xyz":
        assert additive_variance(axis_coefficients(psi.n_sites, axis), psi) >= 0.0


@settings(max_examples=30, deadline=None)
@given(random_states())
def test_expectation_is_additive(psi):
    lat = psi.lattice
    means = covariance_matrix(psi).means
    for axis in "xz":
        total = sum(np.vdot(psi.amplitudes, _apply_matrix_at_site(psi.amplitudes, x, PAULI_MATRICES[axis])).real for x in lat.sites)
        whole = means @ axis_coefficients(lat.n_sites, axis)
        assert abs(whole - total) <= 1e-10
        if axis == "z":
            assert abs(magnetization(psi) - total) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(random_states(min_sites=2, max_sites=4))
def test_normalized_correlation_obeys_cauchy_schwarz(psi):
    rho = correlation_field(psi)
    n = psi.n_sites
    for x in range(n):
        for y in range(x + 1, n):
            assert rho[x, y] <= 1 + 1e-9


@settings(max_examples=25, deadline=None)
@given(random_states(min_sites=2, max_sites=4))
def test_axis_variances_never_beat_maximum(psi):
    rep = max_additive_fluctuation(psi)
    assert rep.max_variance >= psi.n_sites * (1 - 1e-12)
    for axis in "xyz":
        var = additive_variance(axis_coefficients(psi.n_sites, axis), psi)
        assert var <= rep.max_variance + 1e-8


@settings(max_examples=20, deadline=None)
@given(random_states(min_sites=3, max_sites=4))
def test_total_probability_identity(psi):
    lat = psi.lattice
    table = conditional_distribution(
        psi, LocalOperator(0, PAULI_MATRICES["z"]), LocalOperator(lat.n_sites - 1, PAULI_MATRICES["x"])
    )
    for jb in range(2):
        recombined = sum(
            table.p_a[ia] * table.p_b_given_a[ia, jb]
            for ia in range(2)
            if table.p_a[ia] > 1e-12
        )
        assert abs(recombined - table.p_b[jb]) <= 1e-10


def _unit(angles):
    theta, phi = angles
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def _spin(site, n_vec):
    return LocalOperator(site, sum(c * PAULI_MATRICES[a] for c, a in zip(n_vec, "xyz")))


def _closed_form(psi, x, y, n_a):
    """Worst n_b, P(b; a), P(b) and their gap for outcome +1 of n_a at x."""
    cov = covariance_matrix(psi)
    bloch, block = cov.means.reshape(-1, 3), cov.site_block(x, y)
    n_b, p_b, gap = _conditional_closed_form(block[None], bloch[x][None], bloch[y][None], n_a[None])
    return n_b[0], p_b[0] + gap[0], p_b[0], gap[0]


@settings(max_examples=40, deadline=None)
@given(random_states(), angle_pairs, st.sampled_from((1, -1)), st.data())
def test_closed_form_matches_projection_postulate(psi, angles, s, data):
    n = psi.n_sites
    x, y = data.draw(st.permutations(range(n)))[:2]
    n_a = _unit(angles)
    # outcome s of n_a.sigma is outcome +1 of (s n_a).sigma
    n_b, p_cond, p_b, _ = _closed_form(psi, x, y, s * n_a)
    table = conditional_distribution(psi, _spin(x, n_a), _spin(y, n_b))
    ia = 0 if s > 0 else 1
    if table.p_a[ia] < 1e-6:  # keeps the rounding of joint / P(a) below 1e-9
        return
    assert abs(table.p_b_given_a[ia, 0] - p_cond) <= 1e-9
    assert abs(table.p_b[0] - p_b) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(random_states(), angle_pairs, st.sampled_from((1, -1)), st.data())
def test_no_probe_direction_beats_the_closed_form_supremum(psi, angles, s, data):
    n = psi.n_sites
    x, y = data.draw(st.permutations(range(n)))[:2]
    n_a = _unit(angles)
    _, _, _, sup = _closed_form(psi, x, y, s * n_a)
    ia = 0 if s > 0 else 1
    for theta in np.linspace(0.0, math.pi, 9):
        for phi in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            table = conditional_distribution(psi, _spin(x, n_a), _spin(y, _unit((theta, phi))))
            if table.p_a[ia] < 1e-2:  # keeps the rounding of joint / P(a) below 1e-12
                return
            dev = np.max(np.abs(table.p_b_given_a[ia] - table.p_b))
            assert dev <= sup + 1e-12
