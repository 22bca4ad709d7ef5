"""Target submanifolds W in the field's value space.

A LevelSetW is a codimension-m submanifold of R^k given as a level set
phi^{-1}(0), carrying a normal framing nu (orthonormal columns spanning the
normal space) and a fiber cubature rule for integrating over W (or over
W truncated to a ball).  Targets without a fiber cubature (subspaces,
synthetic growth profiles) carry only their ball-volume profile, which the
sub-Gaussian growth diagnostic reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass
class LevelSetW:
    """W = phi^{-1}(0) in R^k with a normal framing and a fiber cubature."""

    ambient_dim: int
    codim: int
    phi: Callable[[np.ndarray], np.ndarray]          # (N, k) -> (N, m)
    framing: Callable[[np.ndarray], np.ndarray]      # (N, k) -> (N, k, m), orthonormal cols
    fiber_nodes: Optional[Callable[[int], tuple]] = None  # n -> (nodes (N,k), weights (N,))
    volume_in_ball: Optional[Callable[[float], float]] = None

    def framed_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fiber cubature (nodes (N, k), weights (N,), framings (N, k, m)) without
        the nodes whose framing is not finite (framing-degenerate strata)."""
        if self.fiber_nodes is None:
            raise ConfigurationError(
                "target has no fiber cubature; supply fiber_nodes for non-point targets"
            )
        pts, wts = self.fiber_nodes(n)
        pts, wts = np.atleast_2d(np.asarray(pts, float)), np.asarray(wts, float)
        nus = self.framing(pts)
        keep = np.all(np.isfinite(nus.reshape(pts.shape[0], -1)), axis=1)
        return pts[keep], wts[keep], nus[keep]

    def validate(self, pts: np.ndarray) -> None:
        """Assert, to 1e-10, that pts lie on W and the framing is orthonormal (tests call this)."""
        pts = np.atleast_2d(pts)
        vals = np.atleast_2d(self.phi(pts))
        if np.abs(vals).max() > 1e-10:
            raise DomainError("fiber nodes do not lie on the level set")
        nus = self.framing(pts)
        m = self.codim
        gram = np.einsum("nki,nkj->nij", nus, nus)
        if np.abs(gram - np.eye(m)).max() > 1e-10:
            raise DomainError("normal framing columns are not orthonormal")


def point_target(y0) -> LevelSetW:
    """W = {y0}: the classical count of solutions of X = y0."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    k = y0.size

    def phi(pts):
        return np.atleast_2d(pts) - y0

    def framing(pts):
        n = np.atleast_2d(pts).shape[0]
        return np.broadcast_to(np.eye(k), (n, k, k)).copy()

    def fiber_nodes(n):
        return y0[None, :], np.ones(1)

    return LevelSetW(ambient_dim=k, codim=k, phi=phi, framing=framing,
                     fiber_nodes=fiber_nodes,
                     volume_in_ball=lambda R: 1.0 if R >= np.linalg.norm(y0) else 0.0)


def circle_target(radius: float) -> LevelSetW:
    """W = circle of given radius in R^2 (codimension 1)."""
    r = float(radius)
    if r <= 0:
        raise DomainError("radius must be positive")

    def phi(pts):
        pts = np.atleast_2d(pts)
        return (np.linalg.norm(pts, axis=1) - r)[:, None]

    def framing(pts):
        pts = np.atleast_2d(pts)
        nu = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return nu[:, :, None]

    def fiber_nodes(n):
        t = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
        pts = r * np.stack([np.cos(t), np.sin(t)], axis=1)
        return pts, np.full(n, 2.0 * np.pi * r / n)

    def volume_in_ball(R):
        return 2.0 * np.pi * r if R >= r else 0.0

    return LevelSetW(ambient_dim=2, codim=1, phi=phi, framing=framing,
                     fiber_nodes=fiber_nodes, volume_in_ball=volume_in_ball)


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def linear_subspace_target(ambient_dim: int, subspace_dim: int) -> LevelSetW:
    """W = span(e_1, ..., e_j) in R^k: polynomial volume growth in balls."""
    k, j = ambient_dim, subspace_dim
    if not 0 < j < k:
        raise DomainError("subspace dimension must be strictly between 0 and ambient")
    m = k - j

    def phi(pts):
        return np.atleast_2d(pts)[:, j:]

    def framing(pts):
        n = np.atleast_2d(pts).shape[0]
        nu = np.zeros((n, k, m))
        for i in range(m):
            nu[:, j + i, i] = 1.0
        return nu

    def volume_in_ball(R):
        return unit_ball_volume(j) * R**j

    return LevelSetW(ambient_dim=k, codim=m, phi=phi, framing=framing,
                     fiber_nodes=None, volume_in_ball=volume_in_ball)


def line_segment_target(half_length: float, angle: float = 0.0) -> LevelSetW:
    """A truncated line through the origin in R^2 (codimension 1).

    The fiber cubature covers only |t| <= half_length, so the Gaussian tail
    audit of the density evaluators can be exercised on a non-compact W.
    """
    u = np.array([math.cos(angle), math.sin(angle)])
    nrm = np.array([-u[1], u[0]])

    def phi(pts):
        return (np.atleast_2d(pts) @ nrm)[:, None]

    def framing(pts):
        n = np.atleast_2d(pts).shape[0]
        return np.broadcast_to(nrm[:, None], (n, 2, 1)).copy()

    def fiber_nodes(n):
        t = (np.arange(n) + 0.5) * (2.0 * half_length / n) - half_length
        return t[:, None] * u, np.full(n, 2.0 * half_length / n)

    return LevelSetW(ambient_dim=2, codim=1, phi=phi, framing=framing,
                     fiber_nodes=fiber_nodes,
                     volume_in_ball=lambda R: 2.0 * min(R, half_length))


def synthetic_growth_target(volume_fn: Callable[[float], float]) -> LevelSetW:
    """A target carrying only a ball-volume profile, for growth diagnostics."""
    return LevelSetW(ambient_dim=1, codim=1,
                     phi=lambda pts: np.atleast_2d(pts),
                     framing=lambda pts: np.ones((np.atleast_2d(pts).shape[0], 1, 1)),
                     fiber_nodes=None, volume_in_ball=volume_fn)
