import numpy as np
import pytest

from kacrice.errors import ConfigurationError
from kacrice.quadrature import circle_region, cube_region, sphere_region


def test_circle_region_total_length():
    reg = circle_region(32)
    assert reg.volume == pytest.approx(2.0 * np.pi)
    assert np.abs(np.linalg.norm(reg.nodes, axis=1) - 1.0).max() < 1e-14


def test_circle_arc_partition():
    left = circle_region(16, arc=(0.0, np.pi))
    right = circle_region(16, arc=(np.pi, 2.0 * np.pi))
    assert left.volume + right.volume == pytest.approx(2.0 * np.pi)
    with pytest.raises(ConfigurationError):
        circle_region(8, arc=(1.0, 1.0))


def test_sphere_region_integrates_polynomials_exactly():
    reg = sphere_region(16, 32)
    assert reg.volume == pytest.approx(4.0 * np.pi, rel=1e-12)
    z2 = np.sum(reg.weights * reg.nodes[:, 2] ** 2)
    assert z2 == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)
    x4 = np.sum(reg.weights * reg.nodes[:, 0] ** 4)
    assert x4 == pytest.approx(4.0 * np.pi / 5.0, rel=1e-12)


def test_cube_region_weights_and_moments():
    reg = cube_region(2, order=8)
    assert reg.volume == pytest.approx(1.0, rel=1e-13)
    xy = np.sum(reg.weights * reg.nodes[:, 0] * reg.nodes[:, 1])
    assert xy == pytest.approx(0.25, rel=1e-12)
