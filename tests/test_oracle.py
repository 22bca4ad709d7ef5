import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from kacrice import curves, oracle
from kacrice.errors import DomainError
from kacrice.fields import (
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


def test_count_flags_field_equal_to_its_level():
    cs = count_zeros_circle(constant_realization(0.7), level=0.7)
    assert cs.flagged
    assert "vanishes" in cs.flag_reason


@pytest.mark.parametrize("exponents, coeffs, count", [
    # x^2 + y^2 + 0.3 x + 0.2 y - 1 is 0.3 cos + 0.2 sin on the circle: its
    # degree-2 Fourier pair is rounding noise, not two roots near 0 and infinity.
    ([[2, 0], [0, 2], [1, 0], [0, 1], [0, 0]], [1.0, 1.0, 0.3, 0.2, -1.0], 2),
    # (x - 2)^2 > 0 on the circle; its double root sits at w = 2 - sqrt(3).
    ([[2, 0], [1, 0], [0, 0]], [1.0, -4.0, 4.0], 0),
])
def test_count_ignores_roots_off_the_circle(exponents, coeffs, count):
    model = custom_monomial_model(circle_domain(), exponents, np.eye(len(exponents)))
    cs = count_zeros_circle(Realization(model, np.array(coeffs), seed=0))
    assert cs.count == count
    assert not cs.flagged


def test_count_zero_weight_top_blocks_without_warnings():
    # Degree-1..3 blocks of weight 0 leave a constant: its top Fourier
    # coefficients are exactly 0, which must not become roots at w = 0.
    model = isotropic_model([np.eye(1)] + [np.zeros((1, 1))] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in range(5):
            cs = count_zeros_circle(sample(model, s))
            assert cs.count == 0
            assert not cs.flagged


# y = sin(theta) is 0 where tan(theta / 2) is 0 or infinite; x = cos(theta).
@pytest.mark.parametrize("exponents, zeros", [
    ([[0, 1]], [0.0, np.pi]),
    ([[1, 0]], [np.pi / 2, 3 * np.pi / 2]),
])
def test_count_coordinate_fields(exponents, zeros):
    model = custom_monomial_model(circle_domain(), exponents, np.eye(1))
    r = Realization(model, np.array([1.0]), seed=0)
    cs = count_zeros_circle(r)
    assert cs.count == 2
    assert not cs.flagged
    roots = oracle._circle_roots(r, 0.0)[0]
    assert np.abs(np.angle(np.exp(1j * (roots[:, None] - zeros)))).min(axis=0).max() < 1e-12


def test_count_resolves_a_close_pair_at_a_pinned_seed():
    # Two of the six roots lie 0.0070 apart: sign changes on grids of 256 and
    # 512 nodes miss both, and an exact Sturm count also gives 6.
    cs = count_zeros_circle(sample(kostlan_model(1, 9), 17224584885885320147), level=0.8)
    assert cs.count == 6
    assert not cs.flagged


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive(p):
    """p divided by the gcd of its integer coefficients."""
    g = math.gcd(*p)
    return [x // g for x in p]


def _sturm_next(a, b):
    """A positive multiple of -(a mod b), primitive (integer coefficient lists,
    lowest degree first): pseudo-division by b, with the sign of lc(b)^steps
    undone."""
    a, lead, steps = list(a), b[-1], 0
    while len(a) >= len(b):
        q, shift = a[-1], len(a) - len(b)
        a = [x * lead for x in a]
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = _poly_trim(a[:-1])
        steps += 1
    sign = -1 if lead < 0 and steps % 2 else 1
    return _primitive([-sign * x for x in a]) if a else a


def exact_circle_count(realization, level) -> int:
    """Distinct zeros of realization - level on S^1, in exact integer arithmetic.

    With t = tan(theta / 2), (1 + t^2)^D (f(cos, sin) - level) is a polynomial
    P(t) of degree at most 2D, whose distinct real roots Sturm's theorem
    counts.  Its t^(2D) coefficient is f(-1, 0) - level, so theta = pi
    (t = infinity) is a zero exactly when P has degree below 2D.  The terms
    are exact binary fractions, so one common denominator makes P integer; the
    Sturm chain keeps positive multiples of its members, made primitive.
    """
    model = realization.model
    D = max(int(b.exponents.sum(axis=1).max()) for _, b in model.components)
    terms = [(-Fraction(level), 0, 0)]
    col = 0
    for mix, basis in model.components:
        for ch in range(mix.shape[1]):
            for e, scale in zip(basis.exponents, basis.scales):
                c = Fraction(mix[0, ch]) * Fraction(scale) * Fraction(realization.coeffs[col])
                terms.append((c, int(e[0]), int(e[1])))
                col += 1
    denom = math.lcm(*(c.denominator for c, _, _ in terms))
    P = [0] * (2 * D + 1)
    for c, a, b in terms:
        term = [int(c * denom)]
        for factor, power in (([1, 0, -1], a), ([0, 2], b), ([1, 0, 1], D - a - b)):
            for _ in range(power):
                term = _poly_mul(term, factor)
        for i, x in enumerate(term):
            P[i] += x
    at_pi = int(P[-1] == 0)
    P = _primitive(_poly_trim(P))
    sturm = [P, _primitive(_poly_trim([i * x for i, x in enumerate(P)][1:]))]
    while sturm[-1]:
        sturm.append(_sturm_next(sturm[-2], sturm[-1]))
    sturm = sturm[:-1]

    def sign_changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [1 if p[-1] > 0 else -1 for p in sturm]
    at_minus = [s * (-1) ** (len(p) - 1) for s, p in zip(at_plus, sturm)]
    return sign_changes(at_minus) - sign_changes(at_plus) + at_pi


# Kostlan degrees 0-5, the mixed field with kernel 1 + <x, y>, and a mixed
# field whose degree-4 block has weight 0 (trigonometric degree 2, not 4).
LOW_DEGREE_MODELS = [kostlan_model(1, d) for d in range(6)] + [
    isotropic_model([np.eye(1), np.eye(1)]),
    isotropic_model([np.zeros((1, 1))] * 2 + [np.eye(1)] + [np.zeros((1, 1))] * 2)]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(LOW_DEGREE_MODELS), seed=st.integers(0, 2**32 - 1),
       level=st.floats(-1.5, 1.5))
def test_unflagged_counts_equal_exact_sturm_counts(model, seed, level):
    r = sample(model, seed)
    cs = count_zeros_circle(r, level=level)
    if not cs.flagged:
        assert cs.count == exact_circle_count(r, level)


# The three of criterion 1's 2000 Kostlan-25 realizations (seed 101) with the
# closest pairs of zeros: 0.0060, 0.0082 and 0.0123 apart.
@pytest.mark.parametrize("seed", [4034906785841651690, 605003646302775996, 2001954823643737063])
def test_kostlan_25_counts_equal_exact_sturm_counts(seed):
    r = sample(kostlan_model(1, 25), seed)
    cs = count_zeros_circle(r)
    assert not cs.flagged
    assert cs.count == exact_circle_count(r, 0.0)


# Kostlan 60 and 80: the top Fourier coefficients are 6e-9 to 1e-12 of the
# largest, and the sum of the term magnitudes overshoots the field's largest
# value on the circle 1e9 to 1e12 times.  The counts are the sign changes on
# 2^16 nodes.
@pytest.mark.parametrize("degree", [60, 80])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_high_degree_counts_equal_sign_changes(degree, seed):
    r = sample(kostlan_model(1, degree), seed)
    cs = count_zeros_circle(r)
    negative = r.circle_values(np.arange(2**16) * (2.0 * np.pi / 2**16)) < 0.0
    assert not cs.flagged
    assert cs.count == np.count_nonzero(negative != np.roll(negative, 1))


def test_count_rejects_vector_field():
    with pytest.raises(DomainError):
        count_zeros_circle(sample(kostlan_model(1, 3, k=2), 0))


def test_counts_are_even_on_circle():
    model = kostlan_model(1, 11)
    for s in range(50):
        cs = count_zeros_circle(sample(model, s))
        if not cs.flagged:
            assert cs.count % 2 == 0


def test_count_level_shift():
    # sin(5 theta) = 0.5 also has 10 solutions
    cs = count_zeros_circle(harmonic_realization(), level=0.5)
    assert cs.count == 10
    assert count_zeros_circle(constant_realization(1.0), level=2.0).count == 0


def test_signed_count_alternates_to_zero():
    cs = count_signed_zeros_circle(harmonic_realization())
    assert cs.count == 0
    assert cs.diagnostics["n_roots"] == 10


def test_circle_derivative_of_harmonic():
    thetas = np.linspace(0.0, 2.0 * np.pi, 257)
    derivs = harmonic_realization().circle_derivative(thetas)
    assert np.abs(derivs - 5.0 * np.cos(5.0 * thetas)).max() < 1e-12


def test_signed_count_kostlan_samples():
    model = kostlan_model(1, 7)
    for s in range(50):
        cs = count_signed_zeros_circle(sample(model, s))
        if not cs.flagged:
            assert cs.count == 0


def test_signed_count_flags_tangency():
    # (1 - cos(theta)) touches zero without crossing: both counters flag it.
    model = custom_monomial_model(circle_domain(), [[0, 0], [1, 0]], np.eye(2))
    grazing = Realization(model, np.array([1.0, -1.0]), seed=0)
    assert count_signed_zeros_circle(grazing).flagged
    assert count_zeros_circle(grazing).flagged


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


# Kostlan pairs, r2 from seed ^ 1, whose counts are R's sign changes on
# 40 000 nodes, halved (160 000 nodes give the same).  R's top Fourier
# coefficient is 8e-8 to 4e-5 of its largest at the (6, 7) pairs and 3e-11 to
# 1e-10 at the (8, 9) pairs (the first two from SeedSequence(11)), and two
# zeros of the third (6, 7) pair are 8e-4 apart.
@pytest.mark.parametrize("d1, d2, seed, count", [
    (6, 7, 11086494670875607575, 2), (6, 7, 6746118833388834578, 6),
    (6, 7, 4118713801194905118, 12),
    (8, 9, 3926704849073358691, 6), (8, 9, 2926583794887213564, 4)])
def test_common_zeros_count_right_at_pinned_seeds(d1, d2, seed, count):
    cs = count_common_zeros_sphere(sample(kostlan_model(2, d1), seed),
                                   sample(kostlan_model(2, d2), seed ^ 1))
    assert not cs.flagged and cs.count == count


def test_common_zeros_reject_non_homogeneous_fields():
    mixed = sample(isotropic_model([np.eye(1), np.eye(1)], m=2), 1)
    with pytest.raises(DomainError):
        count_common_zeros_sphere(mixed, sample(kostlan_model(2, 2), 2))


# ---------------------------------------------------------------------------
# Parity halving: the degree-d form for antipodally symmetric polynomials
# ---------------------------------------------------------------------------

def spy(monkeypatch, name):
    """Replace oracle.<name> by a wrapper that records its arguments."""
    calls, real = [], getattr(oracle, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, wrapper)
    return calls


def zeros_by_form(samples, D, s):
    """Zero angles of the trigonometric polynomial of degree D with these
    samples, from the real roots of its full-degree form ``_t_form(D, s)``."""
    fourier = np.fft.fft(samples) / samples.size
    ks, t_map = oracle._t_form(D, s)
    u = np.roots((fourier[ks] @ t_map).real)
    w = (1j - u) / (u + 1j)
    phis = np.angle(w[np.abs(np.log(np.abs(w))) < s * oracle.REAL_ROOT_TOL]) / s
    return np.sort(np.mod(np.add.outer(np.pi * np.arange(s), phis).ravel() + oracle.CIRCLE_SHIFT,
                          2.0 * np.pi))


KERNEL = isotropic_model([np.eye(1), np.eye(1)], m=1)  # kernel 1 + <x, y>
# (count of one realization by seed, the s that _t_form must be asked for).
# A homogeneous field at level 0, an even-degree one at any level and every
# sphere resultant (homogeneous of degree d1 d2 in cos phi, sin phi) are
# antipodally symmetric.
PARITY_CASES = {
    "kostlan 25 at level 0": (
        lambda seed: count_zeros_circle(sample(kostlan_model(1, 25), seed)), 2),
    "kostlan 4 at level 0.5": (
        lambda seed: count_zeros_circle(sample(kostlan_model(1, 4), seed), 0.5), 2),
    "sphere (3, 4)": (lambda seed: count_common_zeros_sphere(
        sample(kostlan_model(2, 3), seed), sample(kostlan_model(2, 4), seed ^ 1)), 2),
    "kostlan 9 at level 0.8": (
        lambda seed: count_zeros_circle(sample(kostlan_model(1, 9), seed), 0.8), 1),
    "kernel 1 + <x, y>": (lambda seed: count_zeros_circle(sample(KERNEL, seed)), 1),
}


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_parity_halving_picks_the_form_from_the_fourier_coefficients(monkeypatch, name):
    count, s = PARITY_CASES[name]
    forms = spy(monkeypatch, "_t_form")
    for seed in range(10):
        count(seed)
    assert len(forms) == 10
    assert {form_s for _, form_s in forms} == {s}


@pytest.mark.parametrize("name", [n for n in sorted(PARITY_CASES) if PARITY_CASES[n][1] == 2])
def test_halved_and_full_forms_give_the_same_zeros(monkeypatch, name):
    inputs = spy(monkeypatch, "_unit_circle_roots")
    for seed in range(10):
        PARITY_CASES[name][0](seed)
    monkeypatch.undo()
    n_zeros = 0
    for samples, D in inputs:
        angles, reason = oracle._unit_circle_roots(samples, D)
        full = zeros_by_form(samples, D, 1)
        assert reason == ""
        assert angles.shape == full.shape
        n_zeros += angles.size
        np.testing.assert_allclose(angles, full, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(zeros_by_form(samples, D, 2), full, rtol=0.0, atol=1e-9)
    assert n_zeros > 0


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


@pytest.mark.parametrize("max_segment", [1e-3, 1e-2, 0.3])
def test_segment_grid_candidates_equal_brute_force(max_segment):
    # The pairs are the same whether every query segment is searched or only
    # the runs whose bounding balls near_chunks keeps.
    p1 = curves.latitude_circle(1.0).polyline(max_segment)
    grid = oracle._SegmentGrid(curves.great_circle().polyline(max_segment), 1.05 * max_segment)
    centres, radii, run = oracle._chunk_balls(0.5 * (p1 + np.roll(p1, -1, axis=0)))
    rng = np.random.default_rng(404)
    total = culled = 0
    for _ in range(50):
        rot = haar_rotation(rng)
        q = p1 @ rot.T
        mids = 0.5 * (q + np.roll(q, -1, axis=0))
        ii, jj = grid.candidates(mids)
        pairs = set(zip(ii.tolist(), jj.tolist()))
        assert len(pairs) == ii.size  # no pair twice
        assert pairs == brute_force_pairs(grid, mids)
        total += ii.size
        kept = grid.near_chunks(centres @ rot.T, radii)
        seg = (kept[:, None] * run + np.arange(run)).ravel()
        seg = seg[seg < len(p1)]
        ii, jj = grid.candidates(mids[seg])
        assert set(zip(seg[ii].tolist(), jj.tolist())) == pairs
        culled += len(p1) - seg.size
    assert total > 0
    if max_segment < 0.3:
        assert culled > 25 * len(p1)  # most segments never reach the cube search


def test_near_chunks_keeps_midpoints_in_opposite_corners_of_adjacent_cubes():
    # A one-vertex grid is one stored midpoint with a ball of radius 0.  A
    # radius-0 query ball at the far corner of a diagonally adjacent cube is
    # almost 2 sqrt(3) cells away, yet ``candidates`` would pair it.
    cell = 1.05e-3
    rng = np.random.default_rng(406)
    for _ in range(200):
        signs = rng.choice([-1.0, 1.0], 3)
        cube = rng.integers(100, 2700, 3).astype(float)
        low = np.where(signs > 0, 1e-6, 1.0 - 1e-6)  # stored at one corner, query at the other
        stored = (cube + low) * cell - 1.5
        query = (cube + signs + 1.0 - low) * cell - 1.5
        assert np.linalg.norm(query - stored) > 3.46 * cell
        grid = oracle._SegmentGrid(stored[None], cell)
        assert grid.candidates(query[None])[0].size == 1
        assert np.array_equal(grid.near_chunks(query[None], np.zeros(1)), [0])


def count_crossings_full_polyline(p1, grid):
    """Crossings of the rotated polyline p1 with the gridded one, searching
    every segment of p1, as the package counted them before culling by balls."""
    mids = 0.5 * (p1 + np.roll(p1, -1, axis=0))
    ii, jj = grid.candidates(mids)
    a1, b1 = p1[ii], np.roll(p1, -1, axis=0)[ii]
    p2 = grid.points
    a2, b2 = p2[jj], np.roll(p2, -1, axis=0)[jj]
    n1 = np.cross(a1, b1)
    n2 = np.cross(a2, b2)
    s1a = np.einsum("ij,ij->i", a2, n1)
    s1b = np.einsum("ij,ij->i", b2, n1)
    s2a = np.einsum("ij,ij->i", a1, n2)
    s2b = np.einsum("ij,ij->i", b1, n2)
    scale = np.maximum(np.linalg.norm(n1, axis=1), np.linalg.norm(n2, axis=1))
    scale = np.where(scale > 0, scale, 1.0)
    margin = np.minimum.reduce([np.abs(s1a), np.abs(s1b), np.abs(s2a), np.abs(s2b)]) / scale
    straddle = (s1a * s1b < 0.0) & (s2a * s2b < 0.0)
    if np.any(margin < oracle.CROSSING_MARGIN_TOL):
        return 0, False
    if not straddle.any():
        return 0, True
    d = np.cross(n1[straddle], n2[straddle])
    nrm = np.linalg.norm(d, axis=1, keepdims=True)
    ok_nrm = nrm[:, 0] > 1e-14
    d = np.where(nrm > 0, d / np.where(nrm > 0, nrm, 1.0), d)
    sign1 = np.einsum("ij,ij->i", d, a1[straddle] + b1[straddle])
    d = d * np.sign(sign1)[:, None]
    sign2 = np.einsum("ij,ij->i", d, a2[straddle] + b2[straddle])
    return int(((sign2 > 0.0) & ok_nrm).sum()), True


def kinematic_mc_full_polyline(curve1, curve2, n_rotations, seed, max_segment):
    """(value, SE) of kinematic_mc with every rotation searching all of curve1."""
    p1, p2 = curve1.polyline(max_segment), curve2.polyline(max_segment)
    grid = oracle._SegmentGrid(p2, cell=1.05 * max_segment)
    rng = np.random.default_rng(seed)
    counts = []
    while len(counts) < n_rotations:
        cnt, clean = count_crossings_full_polyline(p1 @ haar_rotation(rng).T, grid)
        if clean:
            counts.append(cnt)
    counts = np.array(counts, dtype=float)
    return float(counts.mean()), float(counts.std(ddof=1) / math.sqrt(n_rotations))


KINEMATIC_PAIRS = {
    "latitude_0.3": lambda: (curves.latitude_circle(0.3), curves.great_circle()),
    "latitude_1.0": lambda: (curves.latitude_circle(1.0), curves.great_circle()),
    "latitude_2.5": lambda: (curves.latitude_circle(2.5), curves.great_circle()),
    "great_circles": lambda: (curves.great_circle(), curves.great_circle(axis=(0, 1, 0))),
    "antipodal": lambda: (curves.great_circle(axis=(0, 0, 1)), curves.great_circle(axis=(0, 0, -1))),
}


@pytest.mark.parametrize("max_segment", [1e-3, 1e-2, 0.3])
@pytest.mark.parametrize("pair", sorted(KINEMATIC_PAIRS))
def test_kinematic_mc_equals_full_polyline_search(pair, max_segment):
    c1, c2 = KINEMATIC_PAIRS[pair]()
    n_rotations = 20 if max_segment == 1e-3 else 60
    est = kinematic_mc(c1, c2, n_rotations, seed=101, max_segment=max_segment)
    assert (est.value, est.std_error) == kinematic_mc_full_polyline(
        c1, c2, n_rotations, 101, max_segment)


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
