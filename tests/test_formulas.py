import math

import numpy as np
import pytest

from kacrice import curves
from kacrice.errors import ConfigurationError, DegenerateModelError, DomainError
from kacrice.fields import (
    EIG_FLOOR,
    circle_domain,
    custom_monomial_model,
    isotropic_model,
    jet_covariance,
    kostlan_model,
    pivoted_cholesky,
    smallest_eigenvalue,
)
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
    line_segment_target,
    linear_subspace_target,
    point_target,
    synthetic_growth_target,
)
from kacrice.quadrature import circle_region, cube_region, sphere_region


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


def _loop_density_point(model, W, p, n_samples, fiber_nodes, signed, seed):
    """density_point as a loop over fiber nodes that redoes the K0 work at
    every node: a per-node einsum projection, a per-node Gaussian density
    with its own eigenvalue check, solve and determinant, and an explicit
    all-ones unit weight."""
    def gaussian_density(y, cov):
        if smallest_eigenvalue(cov) <= EIG_FLOOR:
            raise DegenerateModelError("Gaussian density requires an SPD covariance")
        quad = float(y @ np.linalg.solve(cov, y))
        det = float(np.linalg.det(cov))
        return math.exp(-0.5 * quad) / ((2.0 * math.pi) ** (y.size / 2.0) * math.sqrt(det))

    m, k = model.domain.m, model.output_dim
    jc = jet_covariance(model, p)
    a, cov = jc.conditional()
    factor = pivoted_cholesky(cov)
    nodes, wts, nus = W.framed_nodes(fiber_nodes)
    base = np.random.default_rng(seed).standard_normal((n_samples, factor.shape[0])) @ factor.T
    per_sample = np.zeros(n_samples)
    node_means = np.zeros(nodes.shape[0])
    for j in range(nodes.shape[0]):
        jets = base if a is None else base + a @ nodes[j]
        dx = jets.reshape(n_samples, m, k).transpose(0, 2, 1)
        proj = np.einsum("km,nkl->nml", nus[j], dx)
        dets = np.linalg.det(proj) if m > 1 else proj[:, 0, 0]
        alpha = np.sign(np.linalg.det(proj)) if signed else np.ones(dx.shape[0])
        contrib = wts[j] * gaussian_density(nodes[j], jc.K0) * alpha * np.abs(dets)
        per_sample += contrib
        node_means[j] = float(np.mean(np.abs(contrib)))
    flagged, reason = False, ""
    radii = np.linalg.norm(nodes, axis=1)
    if nodes.shape[0] >= 16 and np.ptp(radii) > 1e-9 * radii.max():
        mass = node_means[np.argsort(radii)]
        if mass.sum() > 0 and mass[int(0.9 * mass.size):].sum() > 1e-3 * mass.sum():
            flagged, reason = True, "fiber integral mass has not decayed at the truncation radius"
    return (float(per_sample.mean()), float(per_sample.std(ddof=1) / math.sqrt(n_samples)),
            flagged, reason)


# Non-isotropic: correlated coefficients give a nonzero value/derivative cross block.
CORRELATED = custom_monomial_model(
    circle_domain(), [[0, 0], [1, 0], [0, 1], [2, 0]],
    [[1.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.0, 0.2], [0.1, 0.0, 1.0, 0.0], [0.0, 0.2, 0.0, 1.0]])
MIXED = isotropic_model([np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([[0.8, 0.3], [0.1, 0.7]]),
                         np.array([[0.2, 0.0], [0.4, 1.0]])], m=1)
DENSITY_CASES = {
    "kostlan_circle": (kostlan_model(1, 4, k=2), circle_target(1.0), [0.6, 0.8]),
    "kostlan_segment": (kostlan_model(1, 4, k=2), line_segment_target(6.0), [1.0, 0.0]),
    "kostlan_short_segment": (kostlan_model(1, 4, k=2), line_segment_target(1.2), [0.0, 1.0]),
    "mixed_circle": (MIXED, circle_target(0.7), [0.28, -0.96]),
    "mixed_segment": (MIXED, line_segment_target(3.0, angle=0.3), [-0.8, 0.6]),
    "correlated_point": (CORRELATED, point_target([0.4]), [0.6, 0.8]),
    "sphere_point": (kostlan_model(2, 3, k=2), point_target([0.3, -0.2]), [0.6, 0.0, 0.8]),
}


@pytest.mark.parametrize("signed", [False, True], ids=["unit", "sign"])
@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_density_point_equals_per_node_loop_bitwise(case, signed):
    model, W, p = DENSITY_CASES[case]
    p = np.array(p)
    if case == "correlated_point":
        assert jet_covariance(model, p).conditional()[0] is not None  # the a @ y path
    for seed in (0, 5):
        est = density_point(model, W, p, n_samples=3000, fiber_nodes=64,
                            weight=sign_weight() if signed else None, seed=seed)
        assert (est.value, est.std_error, est.flagged, est.flag_reason) == \
            _loop_density_point(model, W, p, 3000, 64, signed, seed)
    if case == "kostlan_short_segment":
        assert est.flagged


def test_expected_count_kostlan_within_two_percent():
    model = kostlan_model(1, 25)
    est = expected_count(model, point_target([0.0]), circle_region(8),
                         n_samples=50_000, seed=5)
    assert abs(est.value - 10.0) / 10.0 < 0.02


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
    assert kinematic_rhs_sphere(c1, c2) == 2.0


def test_kinematic_rhs_great_circle_with_itself():
    c = curves.great_circle()
    assert kinematic_rhs_sphere(c, c) == 2.0


def test_kinematic_rhs_latitude_closed_form():
    # Poincaré: length(M) length(W) / (2 pi^2) = 2 sin(rho) against a great circle.
    for rho in np.linspace(0.01, math.pi - 0.01, 2001):
        got = kinematic_rhs_sphere(curves.latitude_circle(rho), curves.great_circle())
        want = 2.0 * math.sin(rho)
        assert abs(got - want) <= math.ulp(want)


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
