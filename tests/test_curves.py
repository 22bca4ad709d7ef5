import numpy as np
import pytest

from kacrice.curves import great_circle, latitude_circle, rotation_from_z
from kacrice.errors import DomainError


def test_rotation_from_z_maps_pole():
    rng = np.random.default_rng(1)
    for _ in range(25):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = rotation_from_z(axis)
        assert np.allclose(rot @ np.array([0.0, 0.0, 1.0]), axis, atol=1e-12)
        assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    south = rotation_from_z([0.0, 0.0, -1.0])
    assert np.allclose(south @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, -1.0])


def rodrigues_one_axis(axis):
    """The single-axis Rodrigues rotation, with z . axis for the cosine and the
    skew matrix of v built entry by entry."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * (1.0 / (1.0 + c))


def test_batched_rotation_from_z_equals_one_axis_form_bitwise():
    # The circles' polylines, and so the pinned kinematic oracle records,
    # are drawn with this form's bits.
    rng = np.random.default_rng(7)
    axes = np.concatenate([
        rng.standard_normal((200, 3)) * rng.uniform(0.1, 10.0, (200, 1)),
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, -0.5],
         [1e-16, 0.0, 1.0], [0.0, -1e-16, -1.0], [1.0, 0.0, 0.0], [1.0, 2.0, 2.0]],
    ])
    for axis in axes:
        rot, want = rotation_from_z(axis), rodrigues_one_axis(axis)
        assert rot.shape == (3, 3)
        assert np.array_equal(rot, want)
        assert np.array_equal(np.signbit(rot), np.signbit(want))  # zeros keep their sign


@pytest.mark.parametrize("axes", [[[0.0, 0.0, 1.0]], [0.0, 0.0], [0.0, 0.0, 0.0],
                                  [np.nan, 0.0, 1.0], np.ones((1, 1, 3))])
def test_rotation_from_z_rejects_bad_axes(axes):
    with pytest.raises(DomainError):
        rotation_from_z(axes)


def assert_length_is_polyline_perimeter(c):
    # length is the kinematic formula's only input.
    pts = c.polyline(max_segment=1e-3)
    perimeter = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum()
    assert perimeter == pytest.approx(c.length, rel=1e-6)


def test_great_circle_geometry():
    c = great_circle(axis=(1.0, 2.0, 2.0))
    pts = c.points(200)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    assert np.abs(pts @ axis).max() < 1e-12
    assert_length_is_polyline_perimeter(c)


def test_latitude_circle_geometry():
    rho = 0.7
    c = latitude_circle(rho)
    pts = c.points(64)
    assert np.allclose(pts[:, 2], np.cos(rho))
    assert c.length == pytest.approx(2.0 * np.pi * np.sin(rho))
    assert_length_is_polyline_perimeter(c)


def test_latitude_circle_rejects_degenerate_radius():
    with pytest.raises(DomainError):
        latitude_circle(0.0)
    with pytest.raises(DomainError):
        latitude_circle(np.pi)


def test_polyline_respects_segment_bound():
    c = great_circle()
    pts = c.polyline(max_segment=1e-3)
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert seg.max() <= 1e-3
