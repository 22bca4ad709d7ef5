"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Each criterion pins its tolerance explicitly; the Monte Carlo
sides use fixed seeds so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from kacrice import curves
from kacrice.area_coarea import ChartDomain, area_formula_check, coarea_formula_check
from kacrice.cli import main as cli_main
from kacrice.fields import (
    isotropic_model,
    kostlan_model,
    pivoted_cholesky,
    regression_matrix,
    condition,
    sample,
)
from kacrice.formulas import (
    expected_count,
    gamma_identity_check,
    kinematic_rhs_sphere,
    mixed_kostlan_count,
    shub_smale,
    sign_weight,
    subgaussian_diagnostic,
)
from kacrice.level_sets import linear_subspace_target, point_target, synthetic_growth_target
from kacrice.linalg import Subspace, angle_via_projection, intersect, principal_angle
from kacrice.oracle import (
    count_common_zeros_sphere,
    count_signed_zeros_circle,
    count_zeros_circle,
    kinematic_mc,
    mc_expected_count,
    mc_expected_count_seeded,
)
from kacrice.quadrature import circle_region


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_kostlan_circle_reproduction():
    t0 = time.monotonic()
    model = kostlan_model(1, 25)
    est = mc_expected_count(model, count_zeros_circle, 2000, seed=101)
    integr = expected_count(model, point_target([0.0]), circle_region(8),
                            n_samples=50_000, seed=102)
    elapsed = time.monotonic() - t0
    oracle_ok = abs(est.value - 10.0) <= 3.0 * est.std_error
    integr_ok = abs(integr.value - 10.0) / 10.0 < 0.02
    time_ok = elapsed < 30.0
    report(1, oracle_ok and integr_ok and time_ok,
           f"degree-25 circle zeros: oracle {est.value:.3f}±{est.std_error:.3f} vs 10, "
           f"integrator {integr.value:.3f} (|rel|<2%), {elapsed:.1f}s (<30s)")


def test_criterion_02_shub_smale_sphere():
    t0 = time.monotonic()
    m2, m3 = kostlan_model(2, 2), kostlan_model(2, 3)

    def counter(s):
        return count_common_zeros_sphere(sample(m2, s), sample(m3, s + 0x9E3779B9))

    est = mc_expected_count_seeded(counter, 1000, seed=202)
    elapsed = time.monotonic() - t0
    target = math.sqrt(6.0)
    mc_ok = abs(est.value - target) <= 3.0 * est.std_error
    exact_ok = shub_smale([4, 9]) == 6.0
    time_ok = elapsed < 120.0
    report(2, mc_ok and exact_ok and time_ok,
           f"degrees (2,3): oracle {est.value:.3f}±{est.std_error:.3f} vs {target:.3f}; "
           f"shub_smale(4,9)={shub_smale([4, 9])}; {elapsed:.1f}s (<120s)")


def test_criterion_03_mixed_kostlan_ratio_orientation():
    formula = mixed_kostlan_count([np.eye(1), np.eye(1)])
    model = isotropic_model([np.eye(1), np.eye(1)], m=1)
    est = mc_expected_count(model, count_zeros_circle, 2000, seed=303)
    ok = abs(est.value - formula) <= 3.0 * est.std_error
    report(3, ok and formula == pytest.approx(2.0 * math.sqrt(0.5)),
           f"mixed kernel 1+t: formula {formula:.4f} (=2/sqrt(2)), "
           f"oracle {est.value:.4f}±{est.std_error:.4f}")


def test_criterion_04_angle_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    worst_perp = 0.0
    worst_proj = 0.0
    for _ in range(10_000):
        n = int(rng.integers(5, 9))
        V = Subspace.span(rng.standard_normal((int(rng.integers(1, n)), n)))
        W = Subspace.span(rng.standard_normal((int(rng.integers(1, n)), n)))
        s = principal_angle(V, W)
        sp = principal_angle(V.orthogonal_complement(), W.orthogonal_complement())
        worst_perp = max(worst_perp, abs(s - sp))
        if W.dim - intersect(V, W).dim > 0:
            worst_proj = max(worst_proj, abs(s - angle_via_projection(V, W)))
    elapsed = time.monotonic() - t0
    ok = worst_perp < 1e-9 and worst_proj < 1e-9 and elapsed < 10.0
    report(4, ok, f"10^4 subspace pairs in R^5..R^8: complement dev {worst_perp:.2e}, "
                  f"projection-form dev {worst_proj:.2e} (<1e-9), {elapsed:.1f}s (<10s)")


def test_criterion_05_area_coarea_examples():
    one = lambda *a: np.ones_like(np.asarray(a[0], dtype=float))
    checks = []
    pair = area_formula_check(lambda x: 2 * x, lambda x: 2 + 0 * x, one, (0.0, 1.0))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - 2.0))
    pair = area_formula_check(lambda x: x**2, lambda x: 2 * x, one, (-1.0, 1.0))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - 2.0))
    pair = area_formula_check(lambda x: np.sin(3 * x), lambda x: 3 * np.cos(3 * x),
                              one, (0.0, 2 * np.pi))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - 12.0))
    pair = coarea_formula_check(lambda x, y: x + 0 * y,
                                lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                                one, ChartDomain.rectangle((0, 1), (0, 1)))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - 1.0))
    pair = coarea_formula_check(lambda x, y: x + y,
                                lambda x, y: (np.ones_like(x), np.ones_like(y)),
                                one, ChartDomain.rectangle((0, 1), (0, 1)))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - math.sqrt(2.0)))
    pair = coarea_formula_check(lambda r, t: r**2 + 0 * t,
                                lambda r, t: (2 * r, np.zeros_like(t)),
                                one, ChartDomain.polar_annulus(1.0, 2.0))
    checks.append(abs(pair.lhs - pair.rhs))
    checks.append(abs(pair.lhs - 28 * np.pi / 3))
    worst = max(checks)
    report(5, worst < 1e-6, f"area/coarea analytic examples: worst deviation {worst:.2e} (<1e-6)")


def test_criterion_06_gamma_identity():
    worst = 0.0
    for m in range(1, 9):
        lhs, rhs = gamma_identity_check(m)
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(6, worst < 1e-12,
           f"vol(S^m) vol(B^m) m! = 2 (2 pi)^m for m=1..8: worst rel dev {worst:.2e} (<1e-12)")


def test_criterion_07_signed_counts():
    model = kostlan_model(1, 7)
    signed = mc_expected_count(model, count_signed_zeros_circle, 500, seed=707)
    all_zero = signed.value == 0.0 and signed.std_error == 0.0 and signed.n == 500
    weighted = expected_count(kostlan_model(1, 4), point_target([0.0]), circle_region(8),
                              n_samples=200_000, weight=sign_weight(), seed=708)
    ok = all_zero and abs(weighted.value) < 0.02
    report(7, ok, f"signed zero counts: all 500 realizations exactly 0 ({all_zero}); "
                  f"weighted integral {weighted.value:+.4f} (|.|<0.02)")


def test_criterion_08_kinematic_formula():
    t0 = time.monotonic()
    g1 = curves.great_circle()
    g2 = curves.great_circle(axis=(0.0, 1.0, 0.0))
    mc_great = kinematic_mc(g1, g2, n_rotations=100, seed=808)
    rhs_great = kinematic_rhs_sphere(g1, g2)
    lat = curves.latitude_circle(1.0)
    mc_lat = kinematic_mc(lat, g2, n_rotations=500, seed=809)
    rhs_lat = kinematic_rhs_sphere(lat, g2)
    elapsed = time.monotonic() - t0
    great_ok = mc_great.value == 2.0 and mc_great.std_error == 0.0
    rhs_ok = abs(rhs_great - 2.0) / 2.0 < 0.01
    lat_ok = abs(mc_lat.value - rhs_lat) <= 3.0 * mc_lat.std_error
    time_ok = elapsed < 60.0
    report(8, great_ok and rhs_ok and lat_ok and time_ok,
           f"great circles mc={mc_great.value} se={mc_great.std_error} rhs={rhs_great:.4f}; "
           f"latitude mc={mc_lat.value:.3f}±{mc_lat.std_error:.3f} rhs={rhs_lat:.3f}; "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_09_continuity_of_expected_count():
    def mats(eps):
        out = [np.zeros((1, 1))] * 10
        out[4] = math.sqrt(1.0 - eps) * np.eye(1)
        out[9] = math.sqrt(eps) * np.eye(1)
        return out

    closed = [mixed_kostlan_count(mats(e)) for e in np.linspace(0.0, 1.0, 101)]
    in_range = all(4.0 - 1e-9 <= v <= 6.0 + 1e-9 for v in closed)  # fp on the endpoints

    region = circle_region(4)
    target = point_target([0.0])
    base = expected_count(isotropic_model(mats(0.0), m=1), target, region,
                          n_samples=20_000, seed=909)
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        est = expected_count(isotropic_model(mats(eps), m=1), target, region,
                             n_samples=20_000, seed=909)
        gaps.append(abs(est.value - base.value))
    shrinking = gaps[0] > gaps[1] > gaps[2]
    report(9, in_range and shrinking,
           f"kernel mixture (1-e)t^4 + e t^9: counts within [4,6] ({in_range}); "
           f"gaps to e=0 {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")


def test_criterion_10_gaussian_regression():
    model = kostlan_model(1, 6)
    rng = np.random.default_rng(1010)
    p = rng.standard_normal(2)
    p /= np.linalg.norm(p)
    q = 1.3
    cf = condition(model, p, q)
    interp_dev = max(abs(cf.sample(s).value(p[None, :])[0] - q) for s in range(20))

    n = 100_000
    factor = pivoted_cholesky(model.coeff_cov)
    z = np.random.default_rng(1011).standard_normal((n, model.n_coeffs)) @ factor.T
    worst_corr = 0.0
    for _ in range(5):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        a = regression_matrix(model, u, p)[0, 0]
        xp = z @ model.phi(p[None, :])[0, 0]
        xu = z @ model.phi(u[None, :])[0, 0]
        worst_corr = max(worst_corr, abs(np.corrcoef(xu - a * xp, xp)[0, 1]))
    ok = interp_dev < 1e-12 and worst_corr < 3.0 / math.sqrt(n)
    report(10, ok, f"conditioning interpolates (dev {interp_dev:.1e} < 1e-12); "
                   f"residual-value corr {worst_corr:.2e} < 3/sqrt(1e5)")


def test_criterion_11_subgaussian_diagnostic():
    lin = subgaussian_diagnostic(linear_subspace_target(3, 2), np.linspace(5.0, 20.0, 8))
    grow = subgaussian_diagnostic(synthetic_growth_target(lambda r: math.exp(r * r)),
                                  np.linspace(1.0, 4.0, 8))
    ok = lin.eps_hat < 0.01 and 0.9 <= grow.eps_hat <= 1.1
    report(11, ok, f"growth exponents: linear subbundle {lin.eps_hat:.4f} (<0.01), "
                   f"exp(R^2) profile {grow.eps_hat:.3f} (in [0.9, 1.1])")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "point_count",
        "model": {"kind": "kostlan", "m": 1, "degree": 16, "k": 1},
        "target": {"kind": "point", "y": [0.0]},
        "params": {"n_realizations": 150},
        "seed": 1212,
        "output": {"path": str(tmp_path / "det.csv"), "format": "csv"},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    second = (tmp_path / "det.csv").read_bytes()
    report(12, first == second and len(first) > 0,
           f"`kacrice run` twice with one config/seed: byte-identical output "
           f"({len(first)} bytes)")
