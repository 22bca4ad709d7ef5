"""Euclidean linear geometry: frame volumes and subspace angles.

The central object is the angle sigma(V, W) between two subspaces: the
product of the sines of their nontrivial principal angles, which are the
singular values of V's basis minus its projection onto W above a rank
threshold.  sigma is symmetric, lies in (0, 1], and is invariant under
orthogonal complementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Rank / intersection threshold, relative to the largest vector norm in play.
TAU_RANK = 1e-10


def frame_volume(frame) -> float:
    """sqrt(det <f^T, f>): the k-volume of the parallelotope spanned by the rows.

    ``frame`` is a (k, n) array of row vectors.  Returns 0 when the vectors
    are dependent below the rank threshold.
    """
    v = np.atleast_2d(np.asarray(frame, float))
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


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the input rows, by thin SVD.

    Directions whose singular value is at most TAU_RANK times the largest
    input row norm are treated as dependent and dropped.  Returns
    an array of orthonormal rows (possibly empty, shape (0, n)).
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    scale = math.sqrt(np.einsum("ij,ij->i", v, v).max(initial=0.0))
    if scale == 0.0:
        return np.zeros((0, v.shape[1]))
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    return vh[:int(np.count_nonzero(s > TAU_RANK * scale))]


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
        if b.shape[0] > 0:
            g = b @ b.T
            if np.abs(g - np.eye(b.shape[0])).max() > 1e-10:
                raise DomainError("basis rows are not orthonormal; use Subspace.span")

    @classmethod
    def _orthonormal(cls, basis: np.ndarray) -> "Subspace":
        """Subspace(basis) for rows orthonormal by construction (an SVD's), unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        return self

    @classmethod
    def span(cls, vectors) -> "Subspace":
        return cls._orthonormal(orthonormalize(np.atleast_2d(np.asarray(vectors, float))))

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
        n = self.ambient_dim
        if self.dim == 0:
            return Subspace._orthonormal(np.eye(n))
        if self.dim == n:
            return Subspace._orthonormal(np.zeros((0, n)))
        # Trailing right-singular vectors of the basis span the null space.
        _, _, vh = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace._orthonormal(vh[self.dim:])


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
    return Subspace._orthonormal(_split(V, W)[0])


def principal_angle(V: Subspace, W: Subspace) -> float:
    """The angle sigma(V, W): product of sines of the nontrivial principal angles.

    For dim V <= dim W, the singular values of V.basis - Pi_W V.basis are
    the sines of the principal angles; sigma is the product of those above
    TAU_RANK, and exactly 1.0 when none is, that is when one subspace is
    contained in the other (up to the rank threshold).
    """
    if V.dim > W.dim:  # from the larger side the extra right angles read 1 - eps
        V, W = W, V
    sines = np.linalg.svd(V.basis - W.project(V.basis), compute_uv=False)
    return min(float(np.prod(sines[sines > TAU_RANK])), 1.0)


def angle_via_projection(V: Subspace, W: Subspace) -> float:
    """sigma(V, W) as vol(Pi_{V_perp}(w)) / vol(w); requires W ⊄ V."""
    w = _split(W, V)[1]
    if w.shape[0] == 0:
        raise DomainError("angle_via_projection requires W not contained in V")
    vol = frame_volume(w - V.project(w))
    return min(vol, 1.0) if vol > 0.0 else float(vol)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (n, 3) arrays, rounded as np.cross rounds them
    (each component one product minus another) without its axis handling."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a.take(i, axis=1) * b.take(j, axis=1) - a.take(j, axis=1) * b.take(i, axis=1)
