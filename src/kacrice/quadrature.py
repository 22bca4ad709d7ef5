"""Cubature rules over the supported base domains.

A Region couples quadrature nodes (points of the domain, in ambient
coordinates) with weights that sum to the region's volume: midpoint arcs
of the circle, Gauss-Legendre times trapezoid on the sphere, and tensor
Gauss-Legendre on the cube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Region:
    """Quadrature nodes and weights for a subset of the base domain."""

    nodes: np.ndarray    # (N, ambient_dim)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ConfigurationError("nodes and weights disagree in length")

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def circle_region(n_nodes: int = 64, arc: tuple[float, float] = (0.0, 2.0 * np.pi)) -> Region:
    """Midpoint rule on an arc of the unit circle (full circle by default)."""
    lo, hi = arc
    if not hi > lo:
        raise ConfigurationError("empty arc")
    theta = lo + (np.arange(n_nodes) + 0.5) * (hi - lo) / n_nodes
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(n_nodes, (hi - lo) / n_nodes)
    return Region(nodes, weights)


def sphere_region(n_polar: int = 24, n_azimuth: int = 48) -> Region:
    """Gauss-Legendre in z times a periodic trapezoid in azimuth on S^2.

    Exact for polynomial integrands of degree up to roughly 2*n_polar - 1;
    weights sum to 4*pi.
    """
    z, wz = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth
    r = np.sqrt(1.0 - z**2)
    nodes = np.stack([
        np.outer(r, np.cos(phi)).ravel(),
        np.outer(r, np.sin(phi)).ravel(),
        np.outer(z, np.ones_like(phi)).ravel(),
    ], axis=1)
    weights = np.outer(wz, np.full(n_azimuth, wphi)).ravel()
    return Region(nodes, weights)


def cube_region(m: int, order: int = 16) -> Region:
    """Tensor Gauss-Legendre on the unit cube [0, 1]^m."""
    if m < 1:
        raise ConfigurationError("cube dimension must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * m), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    idx = np.meshgrid(*([np.arange(order)] * m), indexing="ij")
    for axis in range(m):
        weights *= w[idx[axis].ravel()]
    return Region(nodes, weights)
