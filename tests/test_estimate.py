import math

import pytest

from kacrice.estimate import Estimate


def make(value=1.0, se=0.1, n=100, seed=7, method="mc"):
    return Estimate(value=value, std_error=se, n=n, seed=seed, method=method)


def test_negative_std_error_rejected():
    with pytest.raises(ValueError):
        make(se=-0.1)


def test_discrepancy_against_scalar():
    est = make(value=1.3, se=0.1)
    assert est.discrepancy_se(1.0) == pytest.approx(3.0)


def test_discrepancy_between_estimates_combines_errors():
    a = make(value=1.0, se=0.3)
    b = make(value=2.0, se=0.4)
    assert a.discrepancy_se(b) == pytest.approx(1.0 / math.hypot(0.3, 0.4))


def test_discrepancy_with_zero_errors():
    exact = make(value=2.0, se=0.0)
    assert exact.discrepancy_se(2.0) == 0.0
    assert exact.discrepancy_se(2.5) == math.inf


def test_flag_reason_not_part_of_equality():
    a = Estimate(1.0, 0.0, 1, 0, "m", flagged=True, flag_reason="x")
    b = Estimate(1.0, 0.0, 1, 0, "m", flagged=True, flag_reason="y")
    assert a == b
