"""Parametrized closed curves on the unit sphere S^2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


def rotation_from_z(axis: np.ndarray) -> np.ndarray:
    """A rotation taking e_z to the given unit axis (Rodrigues, minimal twist)."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.linalg.norm(axis) > 0.0:
        raise DomainError("rotation axis must be a nonzero vector in R^3")
    axis = axis / np.linalg.norm(axis)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * (1.0 / (1.0 + c))


@dataclass(frozen=True)
class SphericalCurve:
    """A closed C^1 curve gamma: [0, 1) -> S^2 with an explicit derivative."""

    gamma: Callable[[np.ndarray], np.ndarray]   # (N,) -> (N, 3), unit rows
    dgamma: Callable[[np.ndarray], np.ndarray]  # (N,) -> (N, 3)
    length: float

    def points(self, n: int) -> np.ndarray:
        """n polyline vertices (closure implicit: last connects to first)."""
        t = np.arange(n) / n
        return self.gamma(t)

    def polyline(self, max_segment: float = 1e-3) -> np.ndarray:
        n = max(int(np.ceil(self.length / max_segment)), 16)
        return self.points(n)

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Midpoint nodes, unit tangents, inward normals in T S^2, arc weights."""
        t = (np.arange(n) + 0.5) / n
        pts = self.gamma(t)
        vel = self.dgamma(t)
        speed = np.linalg.norm(vel, axis=1)
        if speed.min() < 1e-12:
            raise DomainError("degenerate curve parametrization (vanishing speed)")
        tang = vel / speed[:, None]
        normals = np.cross(pts, tang)  # unit, tangent to the sphere, normal to the curve
        weights = speed / n
        return pts, tang, normals, weights


def great_circle(axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The great circle orthogonal to the given axis."""
    rot = rotation_from_z(np.asarray(axis, dtype=float))

    def gamma(t):
        t = np.asarray(t, dtype=float)
        raw = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), np.zeros_like(t)], axis=1)
        return raw @ rot.T

    def dgamma(t):
        t = np.asarray(t, dtype=float)
        raw = 2 * np.pi * np.stack(
            [-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), np.zeros_like(t)], axis=1)
        return raw @ rot.T

    return SphericalCurve(gamma, dgamma, length=2.0 * np.pi)


def latitude_circle(polar_radius: float, axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The circle at angular distance polar_radius from the axis point."""
    rho = float(polar_radius)
    if not 0.0 < rho < np.pi:
        raise DomainError("polar radius must lie strictly between 0 and pi")
    rot = rotation_from_z(np.asarray(axis, dtype=float))
    s, c = np.sin(rho), np.cos(rho)

    def gamma(t):
        t = np.asarray(t, dtype=float)
        raw = np.stack([s * np.cos(2 * np.pi * t), s * np.sin(2 * np.pi * t),
                        np.full_like(t, c)], axis=1)
        return raw @ rot.T

    def dgamma(t):
        t = np.asarray(t, dtype=float)
        raw = 2 * np.pi * s * np.stack(
            [-np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), np.zeros_like(t)], axis=1)
        return raw @ rot.T

    return SphericalCurve(gamma, dgamma, length=2.0 * np.pi * s)
