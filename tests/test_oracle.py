import math

import numpy as np
import pytest

from kacrice import curves, oracle
from kacrice.errors import DomainError
from kacrice.fields import (
    FieldModel,
    Realization,
    circle_domain,
    custom_monomial_model,
    kostlan_model,
    sample,
)
from kacrice.oracle import (
    count_common_zeros_sphere,
    count_signed_zeros_circle,
    count_zeros_circle,
    fibonacci_sphere,
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


def test_common_zeros_of_coordinate_functions():
    cs = count_common_zeros_sphere(linear_field([1, 0, 0]), linear_field([0, 1, 0]),
                                   n_seeds=600)
    assert cs.count == 1  # the projective point (0 : 0 : 1)
    assert cs.diagnostics["sphere_count"] == 2
    assert not cs.flagged


def test_common_zeros_flags_degenerate_pair():
    r = linear_field([1, 0, 0])
    cs = count_common_zeros_sphere(r, r, n_seeds=300)
    assert cs.flagged


def test_common_zeros_resolution_stability():
    m2, m3 = kostlan_model(2, 2), kostlan_model(2, 3)
    for s in range(10):
        a = count_common_zeros_sphere(sample(m2, s), sample(m3, 900 + s), n_seeds=1000)
        b = count_common_zeros_sphere(sample(m2, s), sample(m3, 900 + s), n_seeds=2000)
        if not (a.flagged or b.flagged):
            assert a.count == b.count


def test_fibonacci_sphere_on_unit_sphere():
    pts = fibonacci_sphere(500)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    # reasonably spread: mean should be near the origin
    assert np.abs(pts.mean(axis=0)).max() < 0.05


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
