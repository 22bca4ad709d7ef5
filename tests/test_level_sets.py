import math

import numpy as np
import pytest

from kacrice.errors import ConfigurationError, DomainError
from kacrice.level_sets import (
    circle_target,
    line_segment_target,
    linear_subspace_target,
    point_target,
    synthetic_growth_target,
    unit_ball_volume,
)


def test_point_target_structure():
    W = point_target([1.0, -2.0])
    nodes, weights, _ = W.framed_nodes(16)
    assert nodes.shape == (1, 2) and weights.sum() == 1.0
    W.validate(nodes)
    assert np.allclose(W.phi(nodes), 0.0)


def test_circle_target_nodes_and_framing():
    W = circle_target(2.0)
    nodes, weights, nus = W.framed_nodes(64)
    assert weights.sum() == pytest.approx(4.0 * math.pi)
    W.validate(nodes)
    # normals point radially: orthogonal to the tangent direction
    tangents = np.stack([-nodes[:, 1], nodes[:, 0]], axis=1) / 2.0
    assert np.abs(np.einsum("nk,nkm->nm", tangents, nus)).max() < 1e-12


def test_circle_target_rejects_bad_radius():
    with pytest.raises(DomainError):
        circle_target(0.0)


def test_validate_catches_off_manifold_nodes():
    W = circle_target(1.0)
    with pytest.raises(DomainError):
        W.validate(np.array([[2.0, 0.0]]))


def test_linear_subspace_volume_growth():
    W = linear_subspace_target(4, 2)
    assert W.codim == 2
    assert W.volume_in_ball(3.0) == pytest.approx(math.pi * 9.0)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_line_segment_volume_saturates():
    W = line_segment_target(2.0)
    assert W.volume_in_ball(1.0) == pytest.approx(2.0)
    assert W.volume_in_ball(5.0) == pytest.approx(4.0)
    nodes, weights, _ = W.framed_nodes(32)
    W.validate(nodes)
    assert weights.sum() == pytest.approx(4.0)


def test_missing_fiber_sampler_is_configuration_error():
    W = linear_subspace_target(3, 1)
    with pytest.raises(ConfigurationError):
        W.framed_nodes(8)


def test_synthetic_growth_profile():
    W = synthetic_growth_target(lambda r: r**3)
    assert W.volume_in_ball(2.0) == 8.0
