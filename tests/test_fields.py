import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacrice.errors import DegenerateModelError, DomainError
from kacrice.fields import (
    MonomialBasis,
    circle_domain,
    condition,
    conditional_jet_law,
    cube_domain,
    custom_monomial_model,
    isotropic_model,
    isotropic_sigmas,
    jet_covariance,
    kostlan_model,
    nabla_derivative_law,
    pivoted_cholesky,
    regression_matrix,
    sample,
    sphere_domain,
    sphere_tangent_frames,
)


def random_sphere_point(rng, dim):
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2026)


# ---------------------------------------------------------------------------
# Tangent frames
# ---------------------------------------------------------------------------

def test_sphere_tangent_frame_rule():
    pts = np.array([[0.0, 0.0, 1.0], [1e-9, 0.0, -1.0], [0.36, 0.48, 0.8]])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.abs(pts[1, 2]) > 1.0 - 1e-8  # polar branch
    t1, t2 = sphere_tangent_frames(pts)
    for i, p in enumerate(pts):
        frame = sphere_domain().tangent_frame(p)
        assert np.array_equal(frame, np.stack([t1[i], t2[i]], axis=1))
        assert np.abs(frame.T @ frame - np.eye(2)).max() < 1e-14
        assert np.abs(p @ frame).max() < 1e-14
        assert np.array_equal(t2[i], np.cross(p, t1[i]))


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

def loop_basis(basis, pts):
    """Reference (values, gradients): power tables built one exponent at a time."""
    tabs = []
    for v in range(basis.n_vars):
        t = np.empty((pts.shape[0], basis.exponents[:, v].max() + 1))
        t[:, 0] = 1.0
        for e in range(1, t.shape[1]):
            t[:, e] = t[:, e - 1] * pts[:, v]
        tabs.append(t)
    cols = [tabs[v][:, basis.exponents[:, v]] for v in range(basis.n_vars)]
    vals = np.ones((pts.shape[0], basis.n_funcs))
    for c in cols:
        vals *= c
    grads = np.empty((pts.shape[0], basis.n_funcs, basis.n_vars))
    for j in range(basis.n_vars):
        e = basis.exponents[:, j]
        g = e * tabs[j][:, np.maximum(e - 1, 0)]
        for v in range(basis.n_vars):
            if v != j:
                g = g * cols[v]
        grads[:, :, j] = g * basis.scales
    return vals * basis.scales, grads


@settings(max_examples=60, deadline=None)
@given(n_vars=st.integers(1, 3), degree=st.integers(0, 25),
       n_pts=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1))
def test_basis_matches_exponent_loop_bitwise(n_vars, degree, n_pts, seed):
    rng = np.random.default_rng(seed)
    n_funcs = int(rng.integers(1, 30))
    exps = rng.integers(0, degree + 1, size=(n_funcs, n_vars))
    exps[0, 0] = degree
    basis = MonomialBasis(exps, rng.standard_normal(n_funcs))
    pts = rng.standard_normal((n_pts, n_vars))
    vals, grads = loop_basis(basis, pts)
    assert np.array_equal(basis.evaluate(pts), vals)
    got_vals, got_grads = basis.evaluate_and_gradient(pts)
    assert np.array_equal(got_vals, vals) and np.array_equal(got_grads, grads)


def test_circle_grid_values_cached_and_bitwise(monkeypatch):
    models = [kostlan_model(1, 25), isotropic_model([np.eye(1), 0.5 * np.eye(1)])]
    for model in models:
        for grid_n in (7, 1024, 2048):
            r = sample(model, grid_n)
            thetas, vals = model.circle_grid_values(r.coeffs, grid_n)
            assert np.array_equal(thetas, np.arange(grid_n) * (2.0 * np.pi / grid_n))
            assert np.array_equal(vals, r.circle_values(thetas))
    calls = []
    evaluate = MonomialBasis.evaluate
    monkeypatch.setattr(MonomialBasis, "evaluate",
                        lambda b, pts: calls.append(len(pts)) or evaluate(b, pts))
    for model in models:
        for s in range(3):
            model.circle_grid_values(sample(model, s).coeffs, 1024)
            model.circle_grid_values(sample(model, s).coeffs, 512)
    # One build per (model, new grid size): 512 is new, 1024 was cached above.
    assert calls == [512, 512, 512]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kostlan_kernel_is_inner_product_power(rng):
    model = kostlan_model(1, 1)
    for _ in range(10):
        x, y = random_sphere_point(rng, 2), random_sphere_point(rng, 2)
        assert model.kernel(x, y)[0, 0] == pytest.approx(float(x @ y), abs=1e-12)


def test_kostlan_kernel_high_degree(rng):
    model = kostlan_model(2, 7, k=2)
    for _ in range(20):
        x, y = random_sphere_point(rng, 3), random_sphere_point(rng, 3)
        expected = float(x @ y) ** 7 * np.eye(2)
        assert np.abs(model.kernel(x, y) - expected).max() < 1e-10


def test_kostlan_kernel_unit_diagonal_on_sphere(rng):
    model = kostlan_model(2, 3)
    for _ in range(100):
        x = random_sphere_point(rng, 3)
        assert model.kernel(x, x)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_kernel_symmetry(rng):
    model = isotropic_model([0.5 * np.eye(2), np.eye(2), 0.3 * np.eye(2)], m=1)
    for _ in range(20):
        x, y = random_sphere_point(rng, 2), random_sphere_point(rng, 2)
        assert np.abs(model.kernel(x, y) - model.kernel(y, x).T).max() < 1e-12


def test_isotropic_kernel_rotation_invariance(rng):
    model = isotropic_model([np.eye(1), np.eye(1), 0.7 * np.eye(1)], m=2)
    for _ in range(100):
        x, y = random_sphere_point(rng, 3), random_sphere_point(rng, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        lhs = model.kernel(q @ x, q @ y)[0, 0]
        assert abs(lhs - model.kernel(x, y)[0, 0]) < 1e-10


def test_isotropic_kernel_equals_matrix_series(rng):
    mats = [np.array([[1.0, 0.2], [0.0, 0.5]]), np.array([[0.3, 0.0], [0.1, 1.0]])]
    model = isotropic_model(mats, m=1)
    for _ in range(10):
        x, y = random_sphere_point(rng, 2), random_sphere_point(rng, 2)
        t = float(x @ y)
        expected = mats[0] @ mats[0].T + mats[1] @ mats[1].T * t
        assert np.abs(model.kernel(x, y) - expected).max() < 1e-10


def test_isotropic_model_rejects_ragged_mats():
    with pytest.raises(DomainError):
        isotropic_model([np.eye(2), np.eye(3)])


def test_kostlan_rejects_unsupported_dimension():
    with pytest.raises(DomainError):
        kostlan_model(3, 2)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def test_kostlan_jet_blocks(rng):
    for m, d in ((1, 25), (2, 4)):
        model = kostlan_model(m, d)
        p = random_sphere_point(rng, m + 1)
        jc = jet_covariance(model, p)
        assert np.abs(jc.K0 - 1.0).max() < 1e-10
        assert np.abs(jc.K01).max() < 1e-10
        assert np.abs(jc.K1 - d * np.eye(m)).max() < 1e-10


def test_jet_full_block_is_psd(rng):
    model = isotropic_model([np.eye(2), 0.5 * np.eye(2), np.eye(2)], m=2)
    for _ in range(100):
        jc = jet_covariance(model, random_sphere_point(rng, 3))
        eigs = np.linalg.eigvalsh(jc.full())
        assert eigs.min() > -1e-10


def test_constant_field_jet_degenerate():
    model = kostlan_model(1, 0)
    jc = jet_covariance(model, np.array([1.0, 0.0]))
    assert np.abs(jc.K1).max() == 0.0
    assert jc.derivative_degenerate


def test_mixed_sigmas_by_hand():
    s0, s1 = isotropic_sigmas([np.eye(1), np.eye(1)])
    assert s0[0, 0] == pytest.approx(2.0)
    assert s1[0, 0] == pytest.approx(1.0)
    s0, s1 = isotropic_sigmas([np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(s1, np.diag([1.0, 2.0]))


def test_mixed_jet_matches_sigmas(rng):
    mats = [np.eye(2), np.array([[0.5, 0.1], [0.0, 1.0]]), 0.2 * np.eye(2)]
    model = isotropic_model(mats, m=1)
    s0, s1 = isotropic_sigmas(mats)
    jc = jet_covariance(model, random_sphere_point(rng, 2))
    assert np.abs(jc.K0 - s0).max() < 1e-10
    assert np.abs(jc.K01).max() < 1e-10
    assert np.abs(jc.K1 - s1).max() < 1e-10  # single direction block for m=1


def test_angular_kernel_curvature_matches_derivative_variance():
    # For K(t) = t^d the angular profile F(a) = K(cos a) has -F''(0) = d = K'(1).
    d = 6
    a = 1e-4
    f = lambda ang: np.cos(ang) ** d
    second = (f(a) - 2.0 * f(0.0) + f(-a)) / a**2
    assert -second == pytest.approx(d, rel=1e-5)
    model = kostlan_model(1, d)
    jc = jet_covariance(model, np.array([0.0, 1.0]))
    assert jc.K1[0, 0] == pytest.approx(d, abs=1e-10)


def test_jet_frame_rotation_invariance_isotropic(rng):
    model = kostlan_model(2, 5)
    p = random_sphere_point(rng, 3)
    frame = model.domain.tangent_frame(p)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    jc1 = jet_covariance(model, p, tangent_frame=frame)
    jc2 = jet_covariance(model, p, tangent_frame=frame @ q)
    assert np.abs(jc1.K1 - jc2.K1).max() < 1e-10


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_zero_covariance_gives_zero_realization():
    model = custom_monomial_model(circle_domain(), [[0, 0], [1, 0]], np.zeros((2, 2)))
    r = sample(model, 5)
    assert np.all(r.coeffs == 0.0)


def test_same_seed_bit_identical():
    model = kostlan_model(1, 8)
    assert np.array_equal(sample(model, 99).coeffs, sample(model, 99).coeffs)
    assert not np.array_equal(sample(model, 99).coeffs, sample(model, 100).coeffs)


def test_empirical_variance_matches_kernel(rng):
    model = kostlan_model(1, 4)
    x = random_sphere_point(rng, 2)[None, :]
    n = 20000
    vals = np.array([sample(model, s).value(x)[0] for s in range(n)])
    # variance of the variance estimator of N(0,1) is about 2/n
    assert abs(vals.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_pivoted_cholesky_handles_singular_psd(rng):
    for _ in range(20):
        a = rng.standard_normal((5, 3))
        cov = a @ a.T  # rank 3
        f = pivoted_cholesky(cov)
        assert np.abs(f @ f.T - cov).max() < 1e-10


# ---------------------------------------------------------------------------
# Regression and conditioning
# ---------------------------------------------------------------------------

def test_regression_at_same_point_is_identity(rng):
    model = kostlan_model(1, 6)
    p = random_sphere_point(rng, 2)
    assert np.abs(regression_matrix(model, p, p) - np.eye(1)).max() < 1e-12


def test_regression_scalar_kernel():
    model = kostlan_model(1, 3)
    p = np.array([1.0, 0.0])
    u = np.array([np.cos(0.4), np.sin(0.4)])
    rho = float(p @ u) ** 3
    assert regression_matrix(model, u, p)[0, 0] == pytest.approx(rho, abs=1e-12)


def test_regression_residual_uncorrelated(rng):
    model = kostlan_model(1, 6)
    factor = pivoted_cholesky(model.coeff_cov)
    n = 100_000
    z = np.random.default_rng(8).standard_normal((n, model.n_coeffs)) @ factor.T
    for _ in range(20):
        p = random_sphere_point(rng, 2)
        u = random_sphere_point(rng, 2)
        a = regression_matrix(model, u, p)[0, 0]
        phi_p = model.phi(p[None, :])[0, 0]
        phi_u = model.phi(u[None, :])[0, 0]
        xp = z @ phi_p
        xu = z @ phi_u
        resid = xu - a * xp
        corr = np.corrcoef(resid, xp)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)


def test_condition_interpolates_exactly(rng):
    model = kostlan_model(1, 1)
    p = random_sphere_point(rng, 2)
    cf = condition(model, p, 1.0)
    for s in range(5):
        z = cf.sample(s)
        assert abs(z.value(p[None, :])[0] - 1.0) < 1e-12


def test_condition_zero_value(rng):
    model = kostlan_model(1, 5)
    p = random_sphere_point(rng, 2)
    cf = condition(model, p, 0.0)
    vals = [cf.sample(s).value(p[None, :])[0] for s in range(10)]
    assert np.abs(vals).max() < 1e-12


def test_conditioned_mean_matches_regression(rng):
    model = kostlan_model(1, 4)
    p = random_sphere_point(rng, 2)
    u = random_sphere_point(rng, 2)
    q = 1.7
    cf = condition(model, p, q)
    a = regression_matrix(model, u, p)[0, 0]
    n = 4000
    vals = np.array([cf.sample(s).value(u[None, :])[0] for s in range(n)])
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - a * q) < 3.0 * se
    assert cf.mean(u[None, :])[0] == pytest.approx(a * q, abs=1e-12)


def test_conditioned_mean_bitwise_equals_direct_formula(rng):
    model = isotropic_model([0.5 * np.eye(2), np.eye(2)], m=2)
    p = random_sphere_point(rng, 3)
    q = np.array([0.4, -1.1])
    cf = condition(model, p, q)
    pts = np.array([random_sphere_point(rng, 3) for _ in range(5)])
    kup = np.einsum("nkr,rs,ls->nkl", model.phi(pts), model.coeff_cov,
                    model.phi(p[None, :])[0])
    assert np.array_equal(cf.mean(pts), kup @ np.linalg.solve(cf.kpp, q))


def test_condition_rejects_degenerate():
    model = custom_monomial_model(circle_domain(), [[0, 0]], np.zeros((1, 1)))
    with pytest.raises(DegenerateModelError):
        condition(model, np.array([1.0, 0.0]), 0.0)


def test_nabla_law_isotropic_is_raw_derivative_covariance(rng):
    model = kostlan_model(2, 3)
    p = random_sphere_point(rng, 3)
    jc = jet_covariance(model, p)
    assert np.abs(nabla_derivative_law(model, p) - jc.K1).max() < 1e-12


def test_nabla_law_decorrelates_value(rng):
    # Non-isotropic scalar model on the unit interval: basis {1, x} with
    # correlated coefficients has a nonzero value/derivative cross block.
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    model = custom_monomial_model(cube_domain(1), [[0], [1]], cov)
    p = np.array([0.3])
    jc = jet_covariance(model, p)
    assert np.abs(jc.K01).max() > 0.1
    cond_cov = nabla_derivative_law(model, p)
    # sample jets and values, checking empirical decorrelation
    factor = pivoted_cholesky(cov)
    n = 100_000
    z = np.random.default_rng(4).standard_normal((n, 2)) @ factor.T
    vals = z @ model.phi(p[None, :])[0, 0]
    derivs = z @ model.jet_matrices(p)[1][0]
    a = jc.K01[0, 0] / jc.K0[0, 0]
    resid = derivs - a * vals
    assert abs(np.corrcoef(resid, vals)[0, 1]) < 3.0 / np.sqrt(n)
    assert cond_cov[0, 0] == pytest.approx(resid.var(), rel=0.05)


def test_conditional_jet_law_mean_shift():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    model = custom_monomial_model(cube_domain(1), [[0], [1]], cov)
    p = np.array([0.3])
    jc = jet_covariance(model, p)
    y = np.array([2.0])
    mean, cond_cov = conditional_jet_law(model, p, y)
    assert mean[0] == pytest.approx(jc.K01[0, 0] / jc.K0[0, 0] * 2.0, abs=1e-12)
    assert cond_cov[0, 0] == pytest.approx(
        jc.K1[0, 0] - jc.K01[0, 0] ** 2 / jc.K0[0, 0], abs=1e-12)
