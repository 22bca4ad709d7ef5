"""Parametrized closed curves on the unit sphere S^2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


def rotation_from_z(axes) -> np.ndarray:
    """Rotations (n, 3, 3) taking e_z to each axis of an (n, 3) stack of nonzero
    vectors, normalized (Rodrigues, minimal twist)."""
    axes = np.asarray(axes, dtype=float)
    # Row norms as sqrt(x . x) through matmul: they round as np.linalg.norm(x) does.
    norms = np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0] if axes.ndim == 2 else 0.0
    if axes.ndim != 2 or axes.shape[1] != 3 or not np.all(norms > 0.0):
        raise DomainError("rotation axes must be an (n, 3) stack of nonzero vectors")
    axes = axes / norms
    v = np.cross([0.0, 0.0, 1.0], axes)
    pole = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0] < 1e-14
    vx = np.zeros((axes.shape[0], 3, 3))
    vx[:, (2, 0, 1), (1, 2, 0)], vx[:, (1, 2, 0), (2, 0, 1)] = v, -v
    rots = np.eye(3) + vx + vx @ vx * (1.0 / np.where(pole, 1.0, 1.0 + axes[:, 2]))[:, None, None]
    rots[pole] = np.where(axes[pole, 2, None, None] > 0, np.eye(3), np.diag([1.0, -1.0, -1.0]))
    return rots


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

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Midpoint nodes, inward normals in T S^2, arc weights."""
        t = (np.arange(n) + 0.5) / n
        pts = self.gamma(t)
        vel = self.dgamma(t)
        speed = np.linalg.norm(vel, axis=1)
        if speed.min() < 1e-12:
            raise DomainError("degenerate curve parametrization (vanishing speed)")
        tang = vel / speed[:, None]
        normals = np.cross(pts, tang)  # unit, tangent to the sphere, normal to the curve
        weights = speed / n
        return pts, normals, weights


def _circle(s: float, c: float, axis) -> SphericalCurve:
    """The circle of radius s in the plane at height c along the unit axis."""
    rot = rotation_from_z([axis])[0]

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


def great_circle(axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The great circle orthogonal to the given axis."""
    return _circle(1.0, 0.0, axis)


def latitude_circle(polar_radius: float, axis=(0.0, 0.0, 1.0)) -> SphericalCurve:
    """The circle at angular distance polar_radius from the axis point."""
    rho = float(polar_radius)
    if not 0.0 < rho < np.pi:
        raise DomainError("polar radius must lie strictly between 0 and pi")
    return _circle(np.sin(rho), np.cos(rho), axis)
