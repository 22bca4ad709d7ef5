"""Euclidean linear geometry: frame volumes, subspace angles, normal Jacobians.

The central object is the angle sigma(V, W) between two subspaces: the
product of the sines of their nontrivial principal angles.  It is computed
from frame volumes (Gram determinants) after splitting off the intersection
V ∩ W, which is found by singular-value thresholding.  sigma is symmetric,
lies in (0, 1], and is invariant under orthogonal complementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Rank / intersection threshold, relative to the largest vector norm in play.
TAU_RANK = 1e-10
# Orthonormality certification threshold for stored subspace bases.
TAU_ORTH = 1e-12


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """An ordered tuple of vectors in Euclidean space, stored as rows."""

    vectors: np.ndarray  # shape (k, n)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.ndim != 2:
            raise DomainError("frame vectors must form a 2-d array")
        if v.shape[0] == 0:
            raise DomainError("empty frame")
        if v.shape[0] > v.shape[1]:
            raise DomainError(
                f"frame has {v.shape[0]} vectors in dimension {v.shape[1]}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


def frame_volume(frame) -> float:
    """sqrt(det <f^T, f>): the k-volume of the parallelotope spanned by the frame.

    Returns 0 when the vectors are dependent below the rank threshold.
    Accepts a Frame or a (k, n) array of row vectors.
    """
    v = frame.vectors if isinstance(frame, Frame) else np.atleast_2d(np.asarray(frame, float))
    if v.shape[0] == 0:
        raise DomainError("empty frame")
    if v.shape[0] > v.shape[1]:
        return 0.0
    s = np.linalg.svd(v, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    if s[-1] < TAU_RANK * s[0]:
        return 0.0
    # Product of singular values equals sqrt(det(v v^T)) and is stabler.
    return float(np.prod(s))


def orthonormalize(vectors: np.ndarray, drop_tol: float = TAU_RANK) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the input rows, by thin SVD.

    Directions whose singular value is at most ``drop_tol`` times the
    largest input row norm are treated as dependent and dropped.  Returns
    an array of orthonormal rows (possibly empty, shape (0, n)).
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    scale = math.sqrt(np.einsum("ij,ij->i", v, v).max(initial=0.0))
    if scale == 0.0:
        return np.zeros((0, v.shape[1]))
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    return vh[:int(np.count_nonzero(s > drop_tol * scale))]


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace stored through an orthonormal basis (rows)."""

    basis: np.ndarray  # shape (dim, n), orthonormal rows

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_complement", None)
        if b.shape[0] > 0:
            g = b @ b.T
            if np.abs(g - np.eye(b.shape[0])).max() > 1e-10:
                raise DomainError("basis rows are not orthonormal; use Subspace.span")

    @classmethod
    def span(cls, vectors) -> "Subspace":
        return cls(orthonormalize(np.atleast_2d(np.asarray(vectors, float))))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of x (vector or stack of rows) onto the subspace."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.ambient_dim:
            raise DomainError("vector dimension does not match the subspace ambient space")
        if self.dim == 0:
            return np.zeros_like(x)
        return (x @ self.basis.T) @ self.basis

    def orthogonal_complement(self) -> "Subspace":
        if self._complement is not None:
            return self._complement
        n = self.ambient_dim
        if self.dim == 0:
            comp = Subspace(np.eye(n))
        elif self.dim == n:
            comp = Subspace(np.zeros((0, n)))
        else:
            # Trailing right-singular vectors of the basis span the null space.
            _, _, vh = np.linalg.svd(self.basis, full_matrices=True)
            comp = Subspace(vh[self.dim:])
        object.__setattr__(self, "_complement", comp)
        object.__setattr__(comp, "_complement", self)
        return comp


def orthogonal_projection(V: Subspace, x: np.ndarray) -> np.ndarray:
    """Pi_V x.  Idempotent; the residual x - Pi_V x is orthogonal to V."""
    return V.project(x)


def _split(V: Subspace, W: Subspace):
    """(V ∩ W, V ∩ (V∩W)_perp) as orthonormal rows, from one SVD.

    The singular values of V.basis - Pi_W V.basis are the sines of the
    principal angles from V to W; the left singular vectors with sine at most
    TAU_RANK give the directions of V inside W, and the others the rest of V.
    """
    if V.ambient_dim != W.ambient_dim:
        raise DomainError("subspaces live in different ambient spaces")
    if V.dim == 0:
        return V.basis, V.basis
    u, s, _ = np.linalg.svd(V.basis - W.project(V.basis), full_matrices=False)
    frames = u.T @ V.basis
    inside = s <= TAU_RANK
    return frames[inside], frames[~inside]


def intersect(V: Subspace, W: Subspace) -> Subspace:
    """Numerical V ∩ W with rank thresholding."""
    return Subspace(_split(V, W)[0])


def principal_angle(V: Subspace, W: Subspace) -> float:
    """The angle sigma(V, W): product of sines of the nontrivial principal angles.

    Computed as vol(v w) / (vol(v) vol(w)) for frames v, w spanning
    V ∩ (V∩W)_perp and W ∩ (V∩W)_perp; returns exactly 1.0 when one
    subspace is contained in the other (up to the rank threshold).
    """
    v = _split(V, W)[1]
    w = _split(W, V)[1]
    if v.shape[0] == 0 or w.shape[0] == 0:
        return 1.0
    # v and w are orthonormal, so vol(v) = vol(w) = 1.
    vol = frame_volume(np.vstack([v, w]))
    return min(vol, 1.0) if vol > 0.0 else float(vol)


def angle_via_projection(V: Subspace, W: Subspace) -> float:
    """sigma(V, W) as vol(Pi_{V_perp}(w)) / vol(w); requires W ⊄ V."""
    w = _split(W, V)[1]
    if w.shape[0] == 0:
        raise DomainError("angle_via_projection requires W not contained in V")
    vol = frame_volume(w - V.project(w))
    return min(vol, 1.0) if vol > 0.0 else float(vol)


def sine_angle_lines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|sin| of the angle between the lines spanned by u and v, vectorized.

    ``u`` and ``v`` are arrays of row vectors with matching broadcast shape
    (..., n).  Equals principal_angle(span u, span v) for nonzero vectors
    spanning distinct lines, and 1.0 for identical lines by the containment
    convention; this helper returns 0.0 there (callers in quadrature loops
    never hit the measure-zero coincident case).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu = np.sum(u * u, axis=-1)
    vv = np.sum(v * v, axis=-1)
    uv = np.sum(u * v, axis=-1)
    cross_sq = np.clip(uu * vv - uv * uv, 0.0, None)
    return np.sqrt(cross_sq / (uu * vv))


# ---------------------------------------------------------------------------
# Normal Jacobians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMapMetric:
    """A linear map R^m -> R^n together with SPD metrics on both spaces."""

    matrix: np.ndarray          # (n, m)
    domain_metric: np.ndarray   # (m, m) SPD
    codomain_metric: np.ndarray  # (n, n) SPD

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, float))
        g1 = np.atleast_2d(np.asarray(self.domain_metric, float))
        g2 = np.atleast_2d(np.asarray(self.codomain_metric, float))
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "domain_metric", g1)
        object.__setattr__(self, "codomain_metric", g2)
        n, m = a.shape
        if g1.shape != (m, m) or g2.shape != (n, n):
            raise DomainError("metric shapes do not match the map")
        for g, name in ((g1, "domain"), (g2, "codomain")):
            try:
                np.linalg.cholesky(0.5 * (g + g.T))
            except np.linalg.LinAlgError:
                raise DomainError(f"{name} metric is not symmetric positive definite")


def jacobian(L: LinearMapMetric) -> float:
    """Volume distortion of L on the orthogonal complement of its kernel.

    sqrt(det(A^T g2 A) / det g1) when m <= n, sqrt(det(A g1^{-1} A^T) det g2)
    when m >= n; exactly 0 for maps of non-maximal rank.
    """
    a = L.matrix
    n, m = a.shape
    s = np.linalg.svd(a, compute_uv=False) if min(n, m) > 0 else np.zeros(0)
    if s.size == 0 or s[-1] <= TAU_RANK * max(s[0], 1.0):
        return 0.0
    if m <= n:
        num = np.linalg.det(a.T @ L.codomain_metric @ a)
        den = np.linalg.det(L.domain_metric)
        val = num / den
    else:
        num = np.linalg.det(a @ np.linalg.solve(L.domain_metric, a.T))
        val = num * np.linalg.det(L.codomain_metric)
    return float(np.sqrt(max(val, 0.0)))
