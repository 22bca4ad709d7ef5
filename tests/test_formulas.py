import math

import numpy as np
import pytest

from kacrice import curves
from kacrice.errors import ConfigurationError, DegenerateModelError, DomainError
from kacrice.fields import isotropic_model, kostlan_model
from kacrice.formulas import (
    density_point,
    expected_count,
    gamma_identity_check,
    isotropic_point_count,
    isotropic_sphere_count,
    kinematic_rhs_sphere,
    mixed_kostlan_count,
    shub_smale,
    sign_weight,
    subgaussian_diagnostic,
    unit_weight,
)
from kacrice.level_sets import (
    circle_target,
    half_line_region,
    line_segment_target,
    linear_subspace_target,
    point_target,
    synthetic_growth_target,
)
from kacrice.quadrature import circle_region, cube_region, point_region, sphere_region


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_point_count_paper_value():
    assert isotropic_point_count([[1.0]], [[100.0]], [0.0]) == pytest.approx(20.0)


def test_point_count_zero_derivative_variance():
    assert isotropic_point_count(np.eye(2), np.zeros((2, 2)), [0.0, 0.0]) == 0.0


def test_point_count_gaussian_factor():
    val = isotropic_point_count(np.eye(2), np.eye(2), [1.0, 1.0])
    assert val == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)


def test_point_count_rejects_degenerate_sigma0():
    with pytest.raises(DegenerateModelError):
        isotropic_point_count(np.zeros((2, 2)), np.eye(2), [0.0, 0.0])


def test_point_count_scaling_invariance_exact():
    s0 = np.diag([1.0, 2.0])
    s1 = np.diag([3.0, 5.0])
    assert isotropic_point_count(4.0 * s0, 4.0 * s1, [0.0, 0.0]) == \
        isotropic_point_count(s0, s1, [0.0, 0.0])


def test_shub_smale_values():
    assert shub_smale([4, 9]) == pytest.approx(6.0)
    assert shub_smale([1, 1, 1]) == pytest.approx(1.0)
    assert shub_smale([2, 3]) == pytest.approx(math.sqrt(6.0))
    with pytest.raises(DomainError):
        shub_smale([2, 0])


def test_mixed_kostlan_ratio_orientation():
    # Pure degree-d blocks must reduce to twice the projective count.
    assert mixed_kostlan_count([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)]) == \
        pytest.approx(2.0 * shub_smale([2, 2]))
    assert mixed_kostlan_count([np.eye(1), np.eye(1)]) == pytest.approx(2.0 * math.sqrt(0.5))
    assert mixed_kostlan_count([np.eye(1)]) == 0.0


def test_gamma_identity_all_dims():
    for m in range(1, 9):
        lhs, rhs = gamma_identity_check(m)
        assert abs(lhs - rhs) / rhs < 1e-12
    assert gamma_identity_check(1)[1] == pytest.approx(4.0 * math.pi)


# ---------------------------------------------------------------------------
# Isotropic sphere count (fiber cubature form)
# ---------------------------------------------------------------------------

def test_sphere_count_point_target_matches_closed_form():
    est = isotropic_sphere_count(np.eye(2), np.diag([2.0, 3.0]), point_target([0.0, 0.0]), m=2)
    assert est.value == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-12)
    assert est.std_error == 0.0


def test_sphere_count_circle_target_hand_value():
    r, s = 0.8, 1.5
    est = isotropic_sphere_count(np.eye(2), s**2 * np.eye(2), circle_target(r), m=1)
    expected = 2.0 * (2.0 * math.pi * r) * s * math.exp(-r**2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert est.value == pytest.approx(expected, rel=1e-10)


def test_sphere_count_skips_degenerate_framing_nodes():
    base = circle_target(1.0)
    raw_framing = base.framing

    def framing(pts):
        nu = raw_framing(pts)
        nu[0] = np.nan  # one stratum where the framing is undefined
        return nu

    broken = circle_target(1.0)
    broken.framing = framing
    est = isotropic_sphere_count(np.eye(2), np.eye(2), broken, m=1, n_nodes=128)
    assert np.isfinite(est.value)
    ref = isotropic_sphere_count(np.eye(2), np.eye(2), base, m=1, n_nodes=128)
    assert est.value == pytest.approx(ref.value, rel=0.05)


# ---------------------------------------------------------------------------
# General density evaluator
# ---------------------------------------------------------------------------

def test_density_point_converges_to_closed_form():
    model = kostlan_model(1, 25)
    p = np.array([1.0, 0.0])
    est = density_point(model, point_target([0.0]), p, n_samples=100_000, seed=3)
    total = est.value * 2.0 * math.pi
    assert abs(total - 10.0) / 10.0 < 0.02


def test_density_point_decays_in_target_distance():
    model = kostlan_model(1, 9)
    p = np.array([0.0, 1.0])
    vals = [density_point(model, point_target([y]), p, n_samples=4000, seed=1).value
            for y in (0.0, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_density_point_frame_invariance_isotropic():
    model = kostlan_model(2, 3, k=2)
    p = np.array([0.0, 0.0, 1.0])
    frame = model.domain.tangent_frame(p)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
    a = density_point(model, point_target([0.0, 0.0]), p, n_samples=20_000, seed=7,
                      tangent_frame=frame)
    b = density_point(model, point_target([0.0, 0.0]), p, n_samples=20_000, seed=7,
                      tangent_frame=frame @ q)
    # the isotropic jet law is frame invariant, so far below the MC error
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_density_point_requires_matching_codim():
    model = kostlan_model(2, 3, k=2)
    with pytest.raises(DomainError):
        density_point(model, circle_target(1.0), np.array([0.0, 0.0, 1.0]))


def test_density_point_flags_undecayed_tail():
    model = kostlan_model(1, 4, k=2)
    p = np.array([1.0, 0.0])
    for nodes in (64, 256):
        short = density_point(model, line_segment_target(1.2), p, n_samples=2000, seed=2,
                              fiber_nodes=nodes)
        long = density_point(model, line_segment_target(6.0), p, n_samples=2000, seed=2,
                             fiber_nodes=nodes)
        # A compact target has no truncation tail, whatever its node count.
        compact = density_point(model, circle_target(1.0), p, n_samples=2000, seed=2,
                                fiber_nodes=nodes)
        assert short.flagged
        assert not long.flagged
        assert not compact.flagged


def test_expected_count_kostlan_within_two_percent():
    model = kostlan_model(1, 25)
    est = expected_count(model, point_target([0.0]), circle_region(8),
                         n_samples=50_000, seed=5)
    assert abs(est.value - 10.0) / 10.0 < 0.02


def test_expected_count_dim0_half_line():
    model = kostlan_model(1, 4)
    est = expected_count(model, half_line_region(0.0), point_region([[1.0, 0.0]]))
    assert est.value == pytest.approx(0.5, abs=1e-14)
    assert est.std_error == 0.0


def test_expected_count_dim0_needs_region_target():
    model = kostlan_model(1, 4)
    with pytest.raises(ConfigurationError):
        expected_count(model, point_target([0.0]), point_region([[1.0, 0.0]]))


def test_density_point_rejects_degenerate_value_covariance():
    from kacrice.fields import circle_domain, custom_monomial_model
    model = custom_monomial_model(circle_domain(), [[0, 0], [1, 0]], np.zeros((2, 2)))
    with pytest.raises(DegenerateModelError):
        density_point(model, point_target([0.0]), np.array([1.0, 0.0]), n_samples=10)


def test_density_point_needs_fiber_sampler():
    model = kostlan_model(1, 4, k=2)
    with pytest.raises(ConfigurationError):
        density_point(model, linear_subspace_target(2, 1), np.array([1.0, 0.0]),
                      n_samples=10)


def test_expected_count_additive_over_partition():
    model = kostlan_model(1, 9)
    target = point_target([0.0])
    whole = expected_count(model, target, circle_region(8), n_samples=20_000, seed=11)
    left = expected_count(model, target, circle_region(4, arc=(0.0, math.pi)),
                          n_samples=20_000, seed=12)
    right = expected_count(model, target, circle_region(4, arc=(math.pi, 2.0 * math.pi)),
                           n_samples=20_000, seed=13)
    se = math.sqrt(whole.std_error**2 + left.std_error**2 + right.std_error**2)
    assert abs(whole.value - (left.value + right.value)) < 4.0 * se + 1e-9


def test_unit_weight_reproduces_unweighted_bitwise():
    model = kostlan_model(1, 16)
    target = point_target([0.0])
    region = circle_region(4)
    a = expected_count(model, target, region, n_samples=5000, seed=21)
    b = expected_count(model, target, region, n_samples=5000, seed=21, weight=unit_weight())
    assert a.value == b.value and a.std_error == b.std_error


def test_sign_weight_integrates_to_zero():
    model = kostlan_model(1, 4)
    est = expected_count(model, point_target([0.0]), circle_region(8),
                         n_samples=200_000, weight=sign_weight(), seed=23)
    assert abs(est.value) < 0.02


def test_expected_count_continuity_in_kernel_mixture():
    # K_eps(t) = (1 - eps) t^4 + eps t^9: counts stay in [4, 6] and the gap
    # to eps = 0 shrinks monotonically (common random numbers per seed).
    def model_for(eps):
        mats = [np.zeros((1, 1))] * 10
        mats[4] = math.sqrt(1.0 - eps) * np.eye(1)
        mats[9] = math.sqrt(eps) * np.eye(1)
        return isotropic_model(mats, m=1)

    target = point_target([0.0])
    region = circle_region(4)
    base = expected_count(model_for(0.0), target, region, n_samples=20_000, seed=31)
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        est = expected_count(model_for(eps), target, region, n_samples=20_000, seed=31)
        assert 4.0 - 0.2 <= est.value <= 6.0 + 0.2
        gaps.append(abs(est.value - base.value))
    assert gaps[0] > gaps[1] > gaps[2]


def test_expected_count_non_isotropic_on_interval():
    # Affine field c0 + c1 x on [0, 1] with correlated coefficients: the
    # value/derivative cross block is nonzero, so the evaluator goes through
    # the regression-conditioned jet law.  The oracle counts roots directly.
    from kacrice.fields import cube_domain, custom_monomial_model, pivoted_cholesky

    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    model = custom_monomial_model(cube_domain(1), [[0], [1]], cov)
    level = 0.7
    est = expected_count(model, point_target([level]), cube_region(1, order=24),
                         n_samples=40_000, seed=61)

    n = 200_000
    draws = np.random.default_rng(62).standard_normal((n, 2)) @ pivoted_cholesky(cov).T
    roots = (level - draws[:, 0]) / draws[:, 1]
    counts = ((roots >= 0.0) & (roots <= 1.0)).astype(float)
    mc = counts.mean()
    se = math.hypot(counts.std(ddof=1) / math.sqrt(n), est.std_error)
    assert abs(est.value - mc) < 4.0 * se


def test_expected_count_matches_sphere_closed_form():
    model = kostlan_model(2, 3, k=2)
    est = expected_count(model, point_target([0.0, 0.0]), sphere_region(12, 24),
                         n_samples=20_000, seed=41)
    expected = 2.0 * shub_smale([3, 3])
    assert abs(est.value - expected) / expected < 0.02


# ---------------------------------------------------------------------------
# Kinematic formula on the sphere
# ---------------------------------------------------------------------------

def test_kinematic_rhs_great_circles():
    c1 = curves.great_circle()
    c2 = curves.great_circle(axis=(0.0, 1.0, 0.0))
    est = kinematic_rhs_sphere(c1, c2, n_curve_nodes=48)
    assert abs(est.value - 2.0) / 2.0 < 0.01


def test_kinematic_rhs_great_circle_with_itself():
    c = curves.great_circle()
    est = kinematic_rhs_sphere(c, c, n_curve_nodes=48)
    assert abs(est.value - 2.0) / 2.0 < 0.01


def test_kinematic_rhs_latitude_closed_form():
    # length(M) length(W) * (2/pi averaged angle) / (2 pi^2) = 2 sin(rho)
    rho = 0.8
    est = kinematic_rhs_sphere(curves.latitude_circle(rho), curves.great_circle(),
                               n_curve_nodes=48)
    assert est.value == pytest.approx(2.0 * math.sin(rho), rel=1e-3)


def test_kinematic_rejects_degenerate_curve():
    bad = curves.SphericalCurve(
        gamma=lambda t: np.stack([np.ones_like(t), np.zeros_like(t), np.zeros_like(t)], axis=1),
        dgamma=lambda t: np.zeros((np.asarray(t).size, 3)),
        length=0.0)
    with pytest.raises(DomainError):
        kinematic_rhs_sphere(bad, curves.great_circle())


# ---------------------------------------------------------------------------
# Sub-Gaussian growth diagnostic
# ---------------------------------------------------------------------------

def test_subgaussian_linear_subspace():
    fit = subgaussian_diagnostic(linear_subspace_target(3, 2), np.linspace(5.0, 20.0, 8))
    assert fit.eps_hat < 0.01


def test_subgaussian_compact_target_saturates():
    fit = subgaussian_diagnostic(circle_target(1.0), np.linspace(2.0, 10.0, 6))
    assert fit.eps_hat == 0.0


def test_subgaussian_gaussian_growth_profile():
    fit = subgaussian_diagnostic(synthetic_growth_target(lambda r: math.exp(r * r)),
                                 np.linspace(1.0, 4.0, 8))
    assert 0.9 <= fit.eps_hat <= 1.1


def test_subgaussian_needs_three_radii():
    with pytest.raises(ConfigurationError):
        subgaussian_diagnostic(linear_subspace_target(3, 2), [1.0, 2.0])
