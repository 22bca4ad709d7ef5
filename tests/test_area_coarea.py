import numpy as np
import pytest

from kacrice.area_coarea import ChartDomain, area_formula_check, coarea_formula_check
from kacrice.errors import DomainError, NumericError

ONE = lambda *args: np.ones_like(np.asarray(args[0], dtype=float))


# ---------------------------------------------------------------------------
# Area formula (one dimension)
# ---------------------------------------------------------------------------

def test_area_linear_map():
    pair = area_formula_check(lambda x: 2.0 * x, lambda x: 2.0 + 0.0 * x, ONE, (0.0, 1.0))
    assert pair.lhs == pytest.approx(2.0, abs=1e-9)
    assert pair.rhs == pytest.approx(2.0, abs=1e-9)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_area_square_map():
    # integral of |2x| over [-1, 1] is 2; each value in (0, 1) has 2 preimages.
    pair = area_formula_check(lambda x: x**2, lambda x: 2.0 * x, ONE, (-1.0, 1.0))
    assert pair.lhs == pytest.approx(2.0, abs=1e-8)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_area_oscillatory_map():
    # integral of |3 cos(3x)| over [0, 2 pi] is 12.
    pair = area_formula_check(lambda x: np.sin(3.0 * x),
                              lambda x: 3.0 * np.cos(3.0 * x), ONE, (0.0, 2.0 * np.pi))
    assert pair.lhs == pytest.approx(12.0, abs=1e-8)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_area_with_nonconstant_weight():
    # f(x) = x on [0, 1] with weight g: both sides equal the integral of g.
    g = lambda x: 1.0 + x**2
    pair = area_formula_check(lambda x: x, lambda x: np.ones_like(x), g, (0.0, 1.0))
    assert pair.lhs == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert abs(pair.lhs - pair.rhs) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_area_rejects_non_finite():
    with pytest.raises(NumericError):
        area_formula_check(lambda x: 1.0 / (x - 0.5), lambda x: -1.0 / (x - 0.5) ** 2,
                           ONE, (0.0, 1.0))


def test_area_rejects_decreasing_interval():
    with pytest.raises(DomainError):
        area_formula_check(lambda x: 2 * x, lambda x: 2 + 0 * x, ONE, (1.0, 0.0))


# ---------------------------------------------------------------------------
# Coarea formula (two dimensions)
# ---------------------------------------------------------------------------

def test_coarea_projection():
    dom = ChartDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    pair = coarea_formula_check(lambda x, y: x + 0.0 * y,
                                lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                                ONE, dom)
    assert pair.lhs == pytest.approx(1.0, abs=1e-9)
    assert abs(pair.lhs - pair.rhs) < 1e-6
    assert not pair.flagged


def test_coarea_diagonal_level_sets():
    dom = ChartDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    pair = coarea_formula_check(lambda x, y: x + y,
                                lambda x, y: (np.ones_like(x), np.ones_like(y)),
                                ONE, dom)
    assert pair.lhs == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_coarea_annulus_in_polar_coordinates():
    # f = r^2 on the annulus 1 <= r <= 2: both sides equal 28 pi / 3.
    dom = ChartDomain.polar_annulus(1.0, 2.0)
    pair = coarea_formula_check(lambda r, t: r**2 + 0.0 * t,
                                lambda r, t: (2.0 * r, np.zeros_like(t)),
                                ONE, dom)
    assert pair.lhs == pytest.approx(28.0 * np.pi / 3.0, abs=1e-8)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_coarea_with_nonconstant_weight():
    # f = x + y on the unit square, weight g = x: both sides equal sqrt(2)/2
    # (level segments have mean x equal to q/2).
    dom = ChartDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    pair = coarea_formula_check(lambda x, y: x + y,
                                lambda x, y: (np.ones_like(x), np.ones_like(y)),
                                lambda x, y: x + 0.0 * y, dom)
    assert pair.lhs == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)
    assert abs(pair.lhs - pair.rhs) < 1e-6


def test_coarea_curved_levels_euclidean():
    # f = x^2 + y^2 on [1, 2] x [0.2, 0.8]: circular arcs, checked self-consistently.
    dom = ChartDomain.rectangle((1.0, 2.0), (0.2, 0.8))
    pair = coarea_formula_check(lambda x, y: x**2 + y**2,
                                lambda x, y: (2.0 * x, 2.0 * y),
                                ONE, dom)
    assert abs(pair.lhs - pair.rhs) < 2e-6


def test_coarea_flags_vanishing_jacobian():
    dom = ChartDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
    pair = coarea_formula_check(lambda x, y: 0.0 * x * y,
                                lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
                                ONE, dom, n_grid=64, gl_order_q=4)
    assert pair.flagged


@pytest.mark.parametrize("f, grad_f, dom", [
    (lambda x, y: x + y, lambda x, y: (np.ones_like(x), np.ones_like(y)),
     ChartDomain.rectangle((1, 0), (0, 1))),
    (lambda r, t: r**2 + 0 * t, lambda r, t: (2 * r, np.zeros_like(t)),
     ChartDomain.polar_annulus(2.0, 1.0)),
], ids=["rectangle_decreasing_x", "annulus_inner_above_outer"])
def test_coarea_rejects_decreasing_ranges(f, grad_f, dom):
    with pytest.raises(DomainError):
        coarea_formula_check(f, grad_f, ONE, dom)
