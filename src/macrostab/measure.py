"""Ideal local projective measurements and measurement-stability tests.

The stability test compares, for well-separated site pairs (x, y), the
conditional outcome distribution P(b; a) of measuring b right after an
ideal local measurement at x returned a, against the undisturbed P(b).
Only conditioning outcomes with P(a) above a floor count.

Both follow from the two-point Pauli table of the cluster diagnostic, the
Bloch vectors r_x (its means) and connected blocks
C_xy = <sigma(x) sigma(y)^T> - r_x r_y^T (its entries):
for outcome s of n_a.sigma(x) and outcome t of n_b.sigma(y),

    P(t; s) - P(t) = s t n_a^T C_xy n_b / (2 (1 + s r_x.n_a)).

The supremum over n_b is |C_xy^T n_a| / (2 (1 + s r_x.n_a)), reached at n_b
along s C_xy^T n_a, and flipping n_a absorbs s.  Only n_a is searched, under
the floor (1 + r_x.n_a)/2 >= varepsilon: a fixed (theta, phi) grid and the
floor circle, where the optimum often sits, each scored in one matrix product,
then both refined by one shrinking-patch loop (grid version v2).  Near-ties go
to the earlier candidate, so the reported maximum, a lower bound on the true
supremum, and its directions are reproducible.

States are pure.  The projection-postulate oracle ``conditional_distribution``
checks the closed form independently; the sweep and the cascade never call it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analyzer import covariance_matrix, max_additive_fluctuation
from .errors import NumericalError, ValidationError
from .operators import _apply_matrix_at_site
from .states import StateVector, _norm2

OUTCOME_FLOOR = 1e-12
GRID_VERSION = "v2"
GRID_THETA = 48           # polar rows of the n_a grid; GRID_PHI = 2 GRID_THETA columns
CIRCLE_POINTS = 256       # samples of the floor circle
REFINE_LEVELS = 24        # halvings of the refinement patch
_PATCH = (0, -2, -1, 1, 2)  # patch offsets in steps, centre first so ties keep it
_FLOOR_MARGIN = 1e-14     # searched P(a) clear varepsilon by this much, beyond rounding
_TIE_RTOL, _TIE_ATOL = 1e-9, 1e-12  # orientations of a pair this close tie: the lower site conditions
_NEAR_RTOL, _NEAR_ATOL = 1e-13, 1e-14  # search candidates this close in |C^T n| / (1 + r.n) tie
_BLOCK_ELEMENTS = 1 << 17  # cap on orderings x grid points x 2 in one product


@dataclass(frozen=True)
class ConditionalTable:
    """P(b; a) versus P(b) for one ordered pair of local observables."""

    a_values: tuple
    b_values: tuple
    p_a: np.ndarray          # (2,)
    p_b: np.ndarray          # (2,)
    p_b_given_a: np.ndarray  # (2, 2), rows follow a_values; NaN when P(a) = 0
    joint: np.ndarray        # (2, 2) P(a and b)


def conditional_distribution(psi, a_obs, b_obs):
    """Conditional and marginal distributions for measurements at two sites of
    the pure state ``psi``; ``a_obs`` and ``b_obs`` are ``LocalOperator``s.

    Computed through the projection postulate: with Pi_a the spectral
    projectors of each observable (eigenvalues descending),
    P(a and b) = |Pi_b Pi_a psi|^2, with no evolution between the two
    measurements.
    """
    if a_obs.site == b_obs.site:
        raise ValidationError("conditional distribution needs two distinct sites")
    values, projectors = [], []
    for obs in (a_obs, b_obs):
        psi.lattice.validate_site(obs.site)
        evals, evecs = np.linalg.eigh(obs.matrix)
        if abs(evals[1] - evals[0]) <= 1e-12 * max(1.0, float(np.max(np.abs(evals)))):
            raise ValidationError("observable is degenerate (proportional to the identity); it reveals nothing")
        values.append((float(evals[1]), float(evals[0])))  # descending, with their projectors
        projectors.append([np.outer(evecs[:, i], evecs[:, i].conj()) for i in (1, 0)])
    (a_vals, b_vals), (a_projs, b_projs) = values, projectors
    a_branches = [_apply_matrix_at_site(psi.amplitudes, a_obs.site, proj) for proj in a_projs]
    p_a = np.array([_norm2(branch) for branch in a_branches])
    p_b = np.array([_norm2(_apply_matrix_at_site(psi.amplitudes, b_obs.site, proj)) for proj in b_projs])
    joint = np.array([[_norm2(_apply_matrix_at_site(v, b_obs.site, proj)) for proj in b_projs] for v in a_branches])
    with np.errstate(invalid="ignore", divide="ignore"):
        p_b_given_a = joint / p_a[:, None]
    for ia in range(2):
        if p_a[ia] < OUTCOME_FLOOR:
            joint[ia] = 0.0
            p_b_given_a[ia, :] = np.nan
        elif abs(p_b_given_a[ia].sum() - 1.0) > 1e-10:
            raise NumericalError(f"conditional row sums to {p_b_given_a[ia].sum()!r}")
    if abs(p_a.sum() - 1.0) > 1e-10 or abs(p_b.sum() - 1.0) > 1e-10:
        raise NumericalError("marginal distributions do not sum to 1")
    return ConditionalTable(a_vals, b_vals, p_a, p_b, p_b_given_a, joint)


# ---------------------------------------------------------------------------
# Measurement-stability sweep from the two-point Pauli table
# ---------------------------------------------------------------------------


@functools.cache
def _grids():
    """Grid version v2, built on first use: the (theta, phi) sphere grid and the
    floor-circle angles t, with the monomials (x^2, y^2, z^2, xy, xz, yz, x, y, z)
    (9, K) of their points n and of (cos t, sin t, 1)."""
    step = math.pi / GRID_THETA
    sphere = np.stack(np.meshgrid(
        (np.arange(GRID_THETA) + 0.5) * step, np.arange(2 * GRID_THETA) * step, indexing="ij"
    ), -1).reshape(-1, 2)
    t = np.arange(CIRCLE_POINTS) * (2.0 * math.pi / CIRCLE_POINTS)
    theta, phi = sphere.T
    points = ((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)),
              (np.cos(t), np.sin(t), np.ones_like(t)))
    sphere_f, circle_f = (np.stack([x * x, y * y, z * z, x * y, x * z, y * z, x, y, z]) for x, y, z in points)
    return sphere, sphere_f, t, circle_f


def _ratios(q, lin, p_min):
    """sqrt(q) / (1 + lin) for q = |A u|^2 and lin = l.u; -inf where (1 + l.u)/2 < p_min."""
    den = 1.0 + lin
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den >= 2.0 * p_min, np.sqrt(np.maximum(q, 0.0)) / den, -np.inf)


def _pick(ratios):
    """Per row, the first candidate within the near-tie tolerance of the best."""
    best = ratios.max(-1, keepdims=True)
    return np.argmax(ratios >= best - np.maximum(_NEAR_RTOL * best, _NEAR_ATOL), -1)


def _grid_start(w, features, p_min):
    """First near-best grid point per row of w = [A; l] (P, 4, 3), scored by one
    (rows x 9) @ (9 x points) product per block of rows."""
    gram = w[:, :3].transpose(0, 2, 1) @ w[:, :3]  # |A u|^2 = u^T (A^T A) u
    coef = np.zeros((len(w), 2, 9))
    coef[:, 0, :3] = gram[:, (0, 1, 2), (0, 1, 2)]
    coef[:, 0, 3:6] = 2.0 * gram[:, (0, 0, 1), (1, 2, 2)]
    coef[:, 1, 6:] = w[:, 3]
    block = max(1, _BLOCK_ELEMENTS // (2 * features.shape[1]))
    start = np.empty(len(w), dtype=np.intp)
    for i in range(0, len(w), block):
        prod = (coef[i : i + block].reshape(-1, 9) @ features).reshape(-1, 2, features.shape[1])
        start[i : i + block] = _pick(_ratios(prod[:, 0], prod[:, 1], p_min))
    return start


def _best_conditioning(tables, bloch, p_min):
    """Maximize |C^T n| / (1 + r.n) over unit n with (1 + r.n)/2 >= p_min.

    Per ordering, the better of the interior search and the search along the
    circle (1 + r.n)/2 = p_min + margin, each from its best grid point.  The
    circle is the polar circle theta = a about r_hat, so one loop refines both
    as (theta, phi) patches, the circle's with no theta step.  Returns n (P, 3)
    and whether any direction clears the floor.
    """
    sphere, sphere_f, circle_t, circle_f = _grids()
    # the circle r.n = level is n = R (sin a cos t, sin a sin t, cos a), R = [e1, e2, r_hat]
    level = 2.0 * (p_min + _FLOOR_MARGIN) - 1.0
    radius = np.linalg.norm(bloch, axis=1)
    exists = radius > abs(level)
    axis = np.where(exists[:, None], bloch, (0.0, 0.0, 1.0))
    axis = axis / np.linalg.norm(axis, axis=1)[:, None]
    # e1 is off the first coordinate axis far from r_hat (some |component| < 1/sqrt(3)),
    # so rounding noise in components that vanish cannot turn the circle
    e1 = np.cross(axis, np.eye(3)[np.argmax(np.abs(axis) < 0.6, axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    frame = np.stack([e1, np.cross(axis, e1), axis], 2)
    cos_a = np.where(exists, level / np.where(exists, radius, 1.0), 1.0)
    # w = [C^T; r^T] scores n = u; the circle rows score u in the frame
    m = len(tables)
    w = np.concatenate([tables.transpose(0, 2, 1), bloch[:, None]], 1)
    w = np.concatenate([w, w @ frame])
    scale = np.stack([np.sqrt(1.0 - cos_a**2)] * 2 + [cos_a], 1)[:, None]  # (cos t, sin t, 1) -> frame u
    centre = np.concatenate([sphere[_grid_start(w[:m], sphere_f, p_min)], np.stack(
        [np.arccos(cos_a), circle_t[_grid_start(w[m:] * scale, circle_f, p_min)]], 1)])
    step = np.repeat([[math.pi / GRID_THETA] * 2, [0.0, 2.0 * math.pi / CIRCLE_POINTS]], m, axis=0)
    patch = np.array(_PATCH, dtype=float)
    offsets = np.stack(np.meshgrid(patch, patch, indexing="ij"), -1).reshape(-1, 2)
    u = np.empty((2 * m, 3, len(patch), len(patch)))
    for _ in range(REFINE_LEVELS):
        ang = centre[:, :, None] + step[:, :, None] * patch
        sin, cos = np.sin(ang), np.cos(ang)
        np.multiply(sin[:, 0, :, None], cos[:, 1, None, :], out=u[:, 0])
        np.multiply(sin[:, 0, :, None], sin[:, 1, None, :], out=u[:, 1])
        u[:, 2] = cos[:, 0, :, None]
        out = w @ u.reshape(2 * m, 3, -1)
        f = _ratios(np.sum(out[:, :3] ** 2, axis=1), out[:, 3], p_min)
        k = _pick(f)
        centre = centre + step * offsets[k]
        step = step / 2.0
    rows = np.arange(2 * m)
    v = f[rows, k].reshape(2, m)
    v[1] = np.where(exists, v[1], -np.inf)
    n = u.reshape(2 * m, 3, -1)[rows, :, k]
    n_c = (frame @ n[m:, :, None])[..., 0]
    return np.where((_pick(v.T) == 1)[:, None], n_c, n[:m]), v.max(0) > -np.inf


def _conditional_closed_form(tables, r_a, r_b, n_a):
    """Outcome +1 of n_a.sigma(a) and the worst probe n_b at the other site.

    ``tables`` (P, 3, 3) holds C_ab, ``r_a``, ``r_b`` and ``n_a`` are (P, 3).
    Returns n_b along C_ab^T n_a (n_a where its norm is within the tie
    tolerance _NEAR_ATOL, so rounding noise picks no direction), P(b) for
    outcome +1 of n_b.sigma(b), and P(b; a) - P(b), the supremum over n_b.
    """
    shift = (n_a[:, None] @ tables)[:, 0]
    num = np.linalg.norm(shift, axis=1)
    resolved = num > _NEAR_ATOL
    n_b = np.where(resolved[:, None], shift / np.where(resolved, num, 1.0)[:, None], n_a)
    with np.errstate(divide="ignore", invalid="ignore"):  # P(a) = 0 gives a NaN gap, as the oracle does
        gap = num / (2.0 * (1.0 + np.sum(n_a * r_a, axis=1)))
    p_b = 0.5 * (1.0 + np.sum(n_b * r_b, axis=1))
    return n_b, p_b, gap


@dataclass(frozen=True)
class PairStabilityRecord:
    """Worst conditional-versus-marginal deviation found for one site pair.

    ``x`` is where the conditioning observable acts and ``y`` where the
    probed one does; both orderings of each site pair are searched because
    the deviation divides by P(a).  Both outcomes are +1: the directions
    carry the signs.
    """

    x: int
    y: int
    distance: int
    direction_a: tuple
    direction_b: tuple
    a: float
    b: float
    p_b_given_a: float
    p_b: float
    deviation: float


@dataclass(frozen=True)
class MeasurementStabilityReport:
    epsilon: float
    varepsilon: float
    min_distance: int
    pairs: tuple                    # PairStabilityRecord per admissible pair
    max_deviation_at_distance: dict
    max_deviation: float
    stable: bool
    grid_version: str = GRID_VERSION


def stability_test(psi, epsilon, varepsilon, min_distance):
    """Sweep distant site pairs of the pure state ``psi`` for
    measurement-induced disturbance.

    Verdict: stable iff the worst deviation at the largest admissible
    separation stays within ``epsilon``.  Separations are the lattice's
    (ring distance on a periodic chain); the admissible pairs lie at least
    ``min_distance`` apart, N // 2 when it is None.  ``varepsilon`` is the
    floor on the conditioning probability P(a); a pair where no outcome
    reaches it reports zero deviation.  The scenario has checked the
    ranges: ``epsilon`` and ``varepsilon`` in (0, 1), ``min_distance`` in
    [1, the largest separation].
    """
    lattice = psi.lattice
    n = lattice.n_sites
    if min_distance is None:
        min_distance = max(1, n // 2)
    # never empty: some pair lies max_distance >= min_distance apart
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if lattice.distance(x, y) >= min_distance]
    cov = covariance_matrix(psi)
    bloch = cov.means.reshape(n, 3)
    blocks = cov.entries.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)
    # orderings: the conditioning observable at the lower site, then at the upper
    a_sites = np.array([x for x, _ in pairs] + [y for _, y in pairs])
    b_sites = np.array([y for _, y in pairs] + [x for x, _ in pairs])
    tables = blocks[a_sites, b_sites]
    r_a = bloch[a_sites]
    n_a, admissible = _best_conditioning(tables, r_a, varepsilon + _FLOOR_MARGIN)
    n_b, p_b, deviation = _conditional_closed_form(tables, r_a, bloch[b_sites], n_a)
    deviation = np.where(admissible, deviation, 0.0)
    m = len(pairs)
    lower = deviation[:m] >= deviation[m:] * (1.0 - _TIE_RTOL) - _TIE_ATOL
    records = [PairStabilityRecord(
        int(a_sites[k]), int(b_sites[k]), lattice.distance(int(a_sites[k]), int(b_sites[k])),
        tuple(float(v) for v in n_a[k]), tuple(float(v) for v in n_b[k]),
        1.0, 1.0, float(p_b[k] + deviation[k]), float(p_b[k]), float(deviation[k]),
    ) for k in np.where(lower, np.arange(m), np.arange(m, 2 * m))]
    by_distance = {}
    for rec in records:
        by_distance[rec.distance] = max(by_distance.get(rec.distance, 0.0), rec.deviation)
    return MeasurementStabilityReport(
        float(epsilon), float(varepsilon), int(min_distance), tuple(records), by_distance,
        max(r.deviation for r in records), by_distance[max(by_distance)] <= epsilon,
    )


# ---------------------------------------------------------------------------
# Repeated local measurements (symmetry-breaking cascade)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeStep:
    site: int
    outcome: float
    probability: float
    max_variance: float
    is_nfs: bool


@dataclass(frozen=True)
class CascadeResult:
    steps: tuple
    reached_nfs: bool
    final_state: StateVector


def measurement_cascade(psi, nfs_factor, fluctuation):
    """Measure sigma_z at one site after another until fluctuations look normal.

    Measuring sigma_z at site x projects by zeroing, in a copy of the
    amplitudes, the half whose bit x disagrees with the outcome; P(+-1) is
    the squared norm of that copy.  Deterministic outcome policy: take the
    more probable branch (ties within 1e-12 go to +1).  A state counts as
    NFS here once its maximal additive fluctuation drops to
    ``nfs_factor * N``, an O(N) proxy consistent with every product-like
    exemplar.  ``fluctuation`` is the ``FluctuationReport`` of ``psi``.
    """
    n = psi.n_sites
    threshold = nfs_factor * n
    steps = []
    current = psi
    reached = fluctuation.max_variance <= threshold
    for site in range(n):
        if reached:
            break
        # outcome +1 keeps the amplitudes whose bit `site` is 0, outcome -1 those where it is 1
        plus, minus = current.amplitudes.copy(), current.amplitudes.copy()
        plus.reshape(-1, 2, 1 << site)[:, 1] = 0.0
        minus.reshape(-1, 2, 1 << site)[:, 0] = 0.0
        p_plus, p_minus = _norm2(plus), _norm2(minus)
        if abs(p_plus + p_minus - 1.0) > 1e-10:
            raise NumericalError(f"outcome probabilities sum to {p_plus + p_minus!r}")
        outcome, branch, p = (1.0, plus, p_plus) if p_plus >= p_minus - 1e-12 else (-1.0, minus, p_minus)
        current = StateVector(psi.lattice, branch / math.sqrt(p), _take=True)
        fluct = max_additive_fluctuation(current).max_variance
        reached = fluct <= threshold
        steps.append(CascadeStep(site, outcome, p, float(fluct), reached))
    return CascadeResult(tuple(steps), reached, current)
