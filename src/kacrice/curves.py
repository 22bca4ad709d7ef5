"""Parametrized closed curves on the unit sphere S^2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


def rotation_from_z(axis) -> np.ndarray:
    """The rotation (3, 3) taking e_z to a nonzero 3-vector, normalized
    (Rodrigues, minimal twist)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis) if axis.shape == (3,) else 0.0
    if not norm > 0.0:
        raise DomainError("a rotation axis must be a nonzero 3-vector")
    axis = axis / norm
    v = np.cross([0.0, 0.0, 1.0], axis)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if axis[2] > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * (1.0 / (1.0 + axis[2]))


@dataclass(frozen=True)
class SphericalCurve:
    """A closed curve gamma: [0, 1) -> S^2 and its length."""

    gamma: Callable[[np.ndarray], np.ndarray]   # (N,) -> (N, 3), unit rows
    length: float

    def points(self, n: int) -> np.ndarray:
        """n polyline vertices (closure implicit: last connects to first)."""
        t = np.arange(n) / n
        return self.gamma(t)

    def polyline(self, max_segment: float = 1e-3) -> np.ndarray:
        n = max(int(np.ceil(self.length / max_segment)), 16)
        return self.points(n)


def _circle(s: float, c: float, axis) -> SphericalCurve:
    """The circle of radius s in the plane at height c along the unit axis."""
    rot = rotation_from_z(axis)

    def gamma(t):
        t = np.asarray(t, dtype=float)
        raw = np.stack([s * np.cos(2 * np.pi * t), s * np.sin(2 * np.pi * t),
                        np.full_like(t, c)], axis=1)
        return raw @ rot.T

    return SphericalCurve(gamma, length=2.0 * np.pi * s)


def great_circle(axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The great circle orthogonal to the given axis."""
    return _circle(1.0, 0.0, axis)


def latitude_circle(polar_radius: float, axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The circle at angular distance polar_radius from the axis point."""
    rho = float(polar_radius)
    if not 0.0 < rho < np.pi:
        raise DomainError("polar radius must lie strictly between 0 and pi")
    return _circle(np.sin(rho), np.cos(rho), axis)
