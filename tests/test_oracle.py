import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from kacrice import curves, oracle
from kacrice.errors import DomainError
from kacrice.fields import (
    FieldModel,
    Realization,
    circle_domain,
    custom_monomial_model,
    isotropic_model,
    kostlan_model,
    sample,
    sphere_domain,
)
from kacrice.oracle import (
    count_common_zeros_sphere,
    count_signed_zeros_circle,
    count_zeros_circle,
    haar_rotation,
    kinematic_mc,
    mc_expected_count,
)


def harmonic_realization():
    """A deterministic realization equal to sin(5 theta) on the circle."""
    model = custom_monomial_model(circle_domain(), [[4, 1], [2, 3], [0, 5]], np.eye(3))
    return Realization(model, np.array([5.0, -10.0, 1.0]), seed=0)


def constant_realization(value=1.0):
    model = custom_monomial_model(circle_domain(), [[0, 0]], np.eye(1))
    return Realization(model, np.array([value]), seed=0)


# ---------------------------------------------------------------------------
# Circle counting
# ---------------------------------------------------------------------------

def test_count_explicit_harmonic():
    cs = count_zeros_circle(harmonic_realization())
    assert cs.count == 10
    assert not cs.flagged
    assert cs.diagnostics["min_separation"] == pytest.approx(np.pi / 5, abs=1e-9)


def test_count_constant_field():
    assert count_zeros_circle(constant_realization()).count == 0


def test_count_rejects_vector_field():
    with pytest.raises(DomainError):
        count_zeros_circle(sample(kostlan_model(1, 3, k=2), 0))


def test_counts_are_even_on_circle():
    model = kostlan_model(1, 11)
    for s in range(50):
        cs = count_zeros_circle(sample(model, s))
        if not cs.flagged:
            assert cs.count % 2 == 0


def test_count_resolution_stability():
    model = kostlan_model(1, 25)
    for s in range(30):
        a = count_zeros_circle(sample(model, s), grid_n=1024)
        b = count_zeros_circle(sample(model, s), grid_n=2048)
        if not (a.flagged or b.flagged):
            assert a.count == b.count


def test_count_level_shift():
    # sin(5 theta) = 0.5 also has 10 solutions
    cs = count_zeros_circle(harmonic_realization(), level=0.5)
    assert cs.count == 10
    assert count_zeros_circle(constant_realization(1.0), level=2.0).count == 0


def test_count_arc_restriction():
    cs = count_zeros_circle(harmonic_realization(), arc=(0.0, np.pi))
    assert cs.count == 5


def test_signed_count_alternates_to_zero(monkeypatch):
    grids, bisections = [], []
    grid_values = FieldModel.circle_grid_values
    monkeypatch.setattr(FieldModel, "circle_grid_values",
                        lambda m, c, grid_n: grids.append(grid_n) or grid_values(m, c, grid_n))
    bisect = oracle._bisect_circle
    monkeypatch.setattr(oracle, "_bisect_circle",
                        lambda f, groups, tol: bisections.append(len(groups))
                        or bisect(f, groups, tol))
    cs = count_signed_zeros_circle(harmonic_realization(), grid_n=256)
    assert cs.count == 0
    assert cs.diagnostics["n_roots"] == 10
    assert sorted(grids) == [256, 512]  # one pass plus its grid-doubling audit
    assert bisections == [2]  # one bisection serves both grids


def test_grouped_bisection_equals_separate_calls():
    model = kostlan_model(1, 25)
    for s in range(5):
        r = sample(model, s)
        groups = []
        for n in (64, 1024, 2048):
            thetas = np.arange(n) * (2.0 * np.pi / n)
            vals = r.circle_values(thetas)
            lo = thetas[vals * np.roll(vals, -1) < 0.0]
            groups.append((lo, lo + 2.0 * np.pi / n))
        groups.append((np.zeros(0), np.zeros(0)))
        mids, steps = oracle._bisect_circle(r.circle_values, groups, 1e-12)
        alone = [oracle._bisect_circle(r.circle_values, [g], 1e-12) for g in groups]
        for mid, ((mid_alone,), _) in zip(mids, alone):
            assert np.array_equal(mid, mid_alone)
        assert steps == max(steps_alone for _, steps_alone in alone)


def test_signed_count_kostlan_samples():
    model = kostlan_model(1, 7)
    for s in range(50):
        cs = count_signed_zeros_circle(sample(model, s))
        if not cs.flagged:
            assert cs.count == 0


def test_signed_count_flags_tangency():
    # (1 - cos(theta)) touches zero without crossing: flagged, not thrown.
    model = custom_monomial_model(circle_domain(), [[0, 0], [1, 0]], np.eye(2))
    grazing = Realization(model, np.array([1.0, -1.0]), seed=0)
    cs = count_signed_zeros_circle(grazing)
    assert cs.flagged


# ---------------------------------------------------------------------------
# Sphere counting
# ---------------------------------------------------------------------------

def linear_field(coeffs):
    model = kostlan_model(2, 1)
    return Realization(model, np.asarray(coeffs, dtype=float), seed=0)


def product_of_linear_forms(*forms):
    """The realization prod_i <a_i, x> on S^2, by its monomial coefficients."""
    poly = {(0, 0, 0): 1.0}
    for a in forms:
        expanded = {}
        for exps, c in poly.items():
            for v in range(3):
                e = tuple(x + (i == v) for i, x in enumerate(exps))
                expanded[e] = expanded.get(e, 0.0) + c * a[v]
        poly = expanded
    exps = sorted(poly)
    model = custom_monomial_model(sphere_domain(), exps, np.eye(len(exps)))
    return Realization(model, np.array([poly[e] for e in exps]), seed=0)


def test_common_zeros_of_coordinate_functions():
    cs = count_common_zeros_sphere(linear_field([1, 0, 0]), linear_field([0, 1, 0]))
    assert cs.count == 1  # the projective point (0 : 0 : 1)
    assert cs.diagnostics["sphere_count"] == 2
    assert cs.diagnostics["min_separation"] == pytest.approx(np.pi)
    assert not cs.flagged


def test_common_zeros_flags_degenerate_pair():
    r = linear_field([1, 0, 0])
    cs = count_common_zeros_sphere(r, r)
    assert cs.flagged


def test_common_zeros_of_line_arrangements_meet_bezout_bound():
    # Two lines and three lines in general position meet in 2 x 3 points.
    rng = np.random.default_rng(4)
    for _ in range(20):
        lines = rng.standard_normal((5, 3))
        cs = count_common_zeros_sphere(product_of_linear_forms(*lines[:2]),
                                       product_of_linear_forms(*lines[2:]))
        assert cs.count == 6
        assert cs.diagnostics["sphere_count"] == 12
        assert not cs.flagged


def test_common_zeros_none_when_one_field_has_no_real_zero():
    norm_squared = Realization(
        custom_monomial_model(sphere_domain(), [[2, 0, 0], [0, 2, 0], [0, 0, 2]], np.eye(3)),
        np.ones(3), seed=0)
    for s in range(10):
        cs = count_common_zeros_sphere(norm_squared, sample(kostlan_model(2, 3), s))
        assert cs.count == 0
        assert not cs.flagged


def test_common_zeros_flags_a_common_zero_at_the_centre():
    a, b = np.cross(oracle.SPHERE_CENTRE, np.eye(3)[:2])
    cs = count_common_zeros_sphere(linear_field(a), linear_field(b))
    assert cs.flagged
    assert "vanishes" in cs.flag_reason


def test_common_zeros_flags_two_zeros_on_one_line_through_the_centre():
    # The line through p and q passes through the centre, so both common
    # zeros of that line and of a conic through p and q project to one point.
    rng = np.random.default_rng(9)
    p = np.array([1.0, 0.0, 0.0])
    q = oracle.SPHERE_CENTRE - 0.4 * p
    line = product_of_linear_forms(np.cross(p, q))
    conic = product_of_linear_forms(np.cross(p, rng.standard_normal(3)),
                                    np.cross(q, rng.standard_normal(3)))
    cs = count_common_zeros_sphere(line, conic)
    assert cs.flagged
    assert "too close" in cs.flag_reason


def test_common_zeros_flags_a_near_tangency():
    # The line x = (1 + delta) z touches the cone x^2 + y^2 = z^2 at delta = 0
    # and misses it by a hair at delta = 2e-12, where the resultant's roots
    # lie about 8e-7 off the unit circle and 1.6e-6 apart.
    cone = Realization(
        custom_monomial_model(sphere_domain(), [[2, 0, 0], [0, 2, 0], [0, 0, 2]], np.eye(3)),
        np.array([1.0, 1.0, -1.0]), seed=0)
    for delta in (0.0, 2e-12):
        cs = count_common_zeros_sphere(cone, product_of_linear_forms([1.0, 0.0, -1.0 - delta]))
        assert cs.flagged
        assert "too close" in cs.flag_reason


def test_common_zeros_reject_non_homogeneous_fields():
    mixed = sample(isotropic_model([np.eye(1), np.eye(1)], m=2), 1)
    with pytest.raises(DomainError):
        count_common_zeros_sphere(mixed, sample(kostlan_model(2, 2), 2))


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

def test_mc_constant_field_zero_counts():
    model = custom_monomial_model(circle_domain(), [[0, 0]], np.eye(1))
    est = mc_expected_count(model, count_zeros_circle, 50, seed=1)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_mc_kostlan_matches_formula():
    est = mc_expected_count(kostlan_model(1, 4), count_zeros_circle, 400, seed=2)
    assert abs(est.value - 4.0) < 3.0 * est.std_error + 1e-12


def test_mc_fixed_seed_reproducible():
    model = kostlan_model(1, 9)
    a = mc_expected_count(model, count_zeros_circle, 60, seed=7)
    b = mc_expected_count(model, count_zeros_circle, 60, seed=7)
    assert a == b


def test_mc_flags_when_too_many_samples_unresolved():
    from kacrice.oracle import CountSample

    def counter(r):
        bad = int(r.seed) % 10 == 0  # roughly a tenth of the samples
        return CountSample(count=2, seed=r.seed, flagged=bad,
                           flag_reason="synthetic" if bad else "")

    model = kostlan_model(1, 3)
    est = mc_expected_count(model, counter, 200, seed=5)
    assert est.flagged
    assert est.n < 200
    assert est.value == 2.0


def test_mc_rotation_invariance_of_arc_counts():
    # isotropic field: expected counts on an arc and on a rotated arc agree
    import functools
    model = kostlan_model(1, 9)
    arc1 = functools.partial(count_zeros_circle, arc=(0.0, np.pi))
    arc2 = functools.partial(count_zeros_circle, arc=(1.3, 1.3 + np.pi))
    a = mc_expected_count(model, arc1, 600, seed=11)
    b = mc_expected_count(model, arc2, 600, seed=12)
    se = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) < 3.0 * se


# ---------------------------------------------------------------------------
# Kinematic Monte Carlo
# ---------------------------------------------------------------------------

def test_haar_rotation_is_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = haar_rotation(rng)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_kinematic_great_circles_exactly_two():
    est = kinematic_mc(curves.great_circle(), curves.great_circle(axis=(0, 1, 0)),
                       n_rotations=40, seed=5)
    assert est.value == 2.0
    assert est.std_error == 0.0


def test_kinematic_antipodal_image():
    c1 = curves.great_circle(axis=(0, 0, 1))
    c2 = curves.great_circle(axis=(0, 0, -1))
    est = kinematic_mc(c1, c2, n_rotations=25, seed=6)
    assert est.value == 2.0


def test_kinematic_latitude_matches_closed_form():
    rho = 1.0
    est = kinematic_mc(curves.latitude_circle(rho), curves.great_circle(),
                       n_rotations=400, seed=8)
    assert abs(est.value - 2.0 * math.sin(rho)) < 3.0 * est.std_error


def brute_force_pairs(grid, mids):
    """All (i, j) whose midpoint cells differ by at most one on every axis.

    A k-d tree lists the stored midpoints within 2.1 cells in the max norm,
    a necessary condition for adjacent cells, and the cell indices decide.
    """
    stored = 0.5 * (grid.points + np.roll(grid.points, -1, axis=0))
    cell_q = np.floor((mids + 1.5) / grid.cell)
    cell_s = np.floor((stored + 1.5) / grid.cell)
    near = cKDTree(stored).query_ball_point(mids, r=2.1 * grid.cell, p=np.inf)
    return {(i, j) for i, js in enumerate(near) for j in js
            if np.abs(cell_q[i] - cell_s[j]).max() <= 1}


@pytest.mark.parametrize("max_segment", [1e-3, 1e-2])
def test_segment_grid_candidates_equal_brute_force(max_segment):
    p1 = curves.latitude_circle(1.0).polyline(max_segment)
    grid = oracle._SegmentGrid(curves.great_circle().polyline(max_segment), 1.05 * max_segment)
    rng = np.random.default_rng(404)
    total = 0
    for _ in range(50):
        q = p1 @ haar_rotation(rng).T
        mids = 0.5 * (q + np.roll(q, -1, axis=0))
        ii, jj = grid.candidates(mids)
        pairs = set(zip(ii.tolist(), jj.tolist()))
        assert len(pairs) == ii.size  # no pair twice
        assert pairs == brute_force_pairs(grid, mids)
        total += ii.size
    assert total > 0


def test_segment_grid_query_with_nothing_nearby():
    grid = oracle._SegmentGrid(curves.great_circle().polyline(1e-3), 1.05e-3)
    q = curves.latitude_circle(0.3).polyline(1e-3)  # stays far above the equator
    ii, jj = grid.candidates(0.5 * (q + np.roll(q, -1, axis=0)))
    assert ii.shape == jj.shape == (0,)
    assert ii.dtype.kind == jj.dtype.kind == "i"


def test_kinematic_rejects_chords_longer_than_max_segment():
    # A great circle traced at uneven speed: its polyline's longest chord is
    # about 1.5x the mean, so crossings could fall outside adjacent cells.
    def theta(t):
        return 2 * np.pi * t + 0.5 * np.sin(2 * np.pi * t)

    def gamma(t):
        return np.stack([np.cos(theta(t)), np.sin(theta(t)), np.zeros_like(t)], axis=1)

    def dgamma(t):
        speed = 2 * np.pi + np.pi * np.cos(2 * np.pi * t)
        return speed[:, None] * np.stack([-np.sin(theta(t)), np.cos(theta(t)),
                                          np.zeros_like(t)], axis=1)

    uneven = curves.SphericalCurve(gamma, dgamma, length=2 * np.pi)
    other = curves.great_circle(axis=(0, 1, 0))
    for c1, c2 in ((uneven, other), (other, uneven)):
        with pytest.raises(DomainError, match="max_segment"):
            kinematic_mc(c1, c2, n_rotations=5, seed=1)
