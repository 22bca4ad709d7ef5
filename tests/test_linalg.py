import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacrice.errors import DomainError
from kacrice.linalg import (
    Frame,
    LinearMapMetric,
    Subspace,
    angle_via_projection,
    frame_volume,
    intersect,
    jacobian,
    orthogonal_projection,
    orthonormalize,
    principal_angle,
    sine_angle_lines,
)


def svd_angle_oracle(V: Subspace, W: Subspace) -> float:
    """Independent check: product of sines of the nontrivial principal angles,
    read off the singular values of the basis overlap matrix."""
    s = np.linalg.svd(V.basis @ W.basis.T, compute_uv=False) if min(V.dim, W.dim) else np.zeros(0)
    c = np.clip(s, 0.0, 1.0)
    nontrivial = c < 1.0 - 1e-8
    return float(np.prod(np.sqrt(1.0 - c[nontrivial] ** 2))) if nontrivial.any() else 1.0


def random_subspace(rng, n, d) -> Subspace:
    return Subspace.span(rng.standard_normal((d, n)))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_frame_volume_orthonormal_pair():
    assert frame_volume(np.array([[1.0, 0, 0], [0, 1.0, 0]])) == pytest.approx(1.0)


def test_frame_volume_single_vector_norm():
    assert frame_volume(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_frame_volume_hand_gram():
    # Gram matrix [[1, 1], [1, 2]] has determinant 1.
    assert frame_volume(np.array([[1.0, 0.0], [1.0, 1.0]])) == pytest.approx(1.0)


def test_frame_volume_rank_deficient_is_zero():
    assert frame_volume(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_frame_empty_rejected():
    with pytest.raises(DomainError):
        frame_volume(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        Frame(np.zeros((0, 3)))


def test_frame_too_many_vectors_rejected():
    with pytest.raises(DomainError):
        Frame(np.ones((3, 2)))


def test_orthonormalize_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 1e-14, 0.0], [0.0, 0.0, 2.0]])
    basis = orthonormalize(rows)
    assert basis.shape == (2, 3)
    assert np.abs(basis @ basis.T - np.eye(2)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 9), st.integers(0, 7))
def test_orthonormalize_properties_hypothesis(seed, n, k, rank):
    # Rows of a generic rank-r product: well conditioned up to their rank.
    rng = np.random.default_rng(seed)
    r = min(rank, n, k)
    rows = rng.standard_normal((k, r)) @ rng.standard_normal((r, n))
    basis = orthonormalize(rows)
    assert basis.shape == (np.linalg.matrix_rank(rows), n)
    assert np.abs(basis @ basis.T - np.eye(basis.shape[0])).max(initial=0.0) < 1e-12
    assert np.abs(rows - rows @ basis.T @ basis).max() <= 1e-10 * max(np.abs(rows).max(), 1.0)


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def test_angle_orthogonal_lines():
    V = Subspace.span([[1.0, 0.0]])
    W = Subspace.span([[0.0, 1.0]])
    assert principal_angle(V, W) == pytest.approx(1.0)


def test_angle_lines_at_pi_over_six():
    V = Subspace.span([[1.0, 0.0]])
    t = np.pi / 6
    W = Subspace.span([[np.cos(t), np.sin(t)]])
    assert principal_angle(V, W) == pytest.approx(0.5, abs=1e-12)


def test_angle_matches_svd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        V = random_subspace(rng, 5, 2)
        W = random_subspace(rng, 5, 3)
        assert principal_angle(V, W) == pytest.approx(svd_angle_oracle(V, W), abs=1e-9)


def test_angle_containment_branch():
    V = Subspace.span([[1.0, 0.0, 0.0]])
    W = Subspace.span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert principal_angle(V, W) == 1.0
    assert principal_angle(W, V) == 1.0
    assert principal_angle(V, V) == 1.0


def test_angle_dimension_mismatch():
    with pytest.raises(DomainError):
        principal_angle(Subspace.span([[1.0, 0.0]]), Subspace.span([[1.0, 0.0, 0.0]]))


def test_angle_is_one_for_orthogonal_split():
    # V = A + B, W = A + C with B orthogonal to C gives angle exactly 1.
    rng = np.random.default_rng(11)
    basis = orthonormalize(rng.standard_normal((3, 6)))
    a, b, c = basis
    V = Subspace.span(np.stack([a, b]))
    W = Subspace.span(np.stack([a, c]))
    assert principal_angle(V, W) == pytest.approx(1.0, abs=1e-12)


def test_angle_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        V = random_subspace(rng, n, int(rng.integers(1, n)))
        W = random_subspace(rng, n, int(rng.integers(1, n)))
        s = principal_angle(V, W)
        assert 0.0 < s <= 1.0
        assert abs(s - principal_angle(W, V)) < 1e-12


def test_angle_complement_invariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        V = random_subspace(rng, n, int(rng.integers(1, n)))
        W = random_subspace(rng, n, int(rng.integers(1, n)))
        s = principal_angle(V, W)
        sp = principal_angle(V.orthogonal_complement(), W.orthogonal_complement())
        assert abs(s - sp) < 1e-9


def test_projection_form_matches_angle():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        V = random_subspace(rng, n, int(rng.integers(1, n - 1)))
        W = random_subspace(rng, n, int(rng.integers(1, n - 1)))
        if W.dim - intersect(V, W).dim == 0:
            continue
        assert abs(angle_via_projection(V, W) - principal_angle(V, W)) < 1e-9


def test_projection_form_rejects_contained_subspace():
    V = Subspace.span([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    W = Subspace.span([[1.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        angle_via_projection(V, W)


def test_projection_form_orthogonal_lines():
    V = Subspace.span([[1.0, 0.0]])
    W = Subspace.span([[0.0, 1.0]])
    assert angle_via_projection(V, W) == pytest.approx(1.0)


def test_projection_form_lines_at_pi_over_four():
    V = Subspace.span([[1.0, 0.0]])
    W = Subspace.span([[1.0, 1.0]])
    assert angle_via_projection(V, W) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)


def test_sine_angle_lines_matches_principal_angle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        expected = principal_angle(Subspace.span([u]), Subspace.span([v]))
        assert sine_angle_lines(u, v) == pytest.approx(expected, abs=1e-10)


def test_hadamard_bound_for_orthonormal_blocks():
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = orthonormalize(rng.standard_normal((2, 6)))
        w = orthonormalize(rng.standard_normal((3, 6)))
        vol = frame_volume(np.vstack([v, w]))
        assert vol <= frame_volume(v) * frame_volume(w) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_angle_properties_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    V = random_subspace(rng, n, int(rng.integers(1, n)))
    W = random_subspace(rng, n, int(rng.integers(1, n)))
    s = principal_angle(V, W)
    assert 0.0 < s <= 1.0
    assert abs(s - principal_angle(W, V)) < 1e-12
    assert abs(s - principal_angle(V.orthogonal_complement(),
                                   W.orthogonal_complement())) < 1e-9


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_projection_onto_axis():
    V = Subspace.span([[1.0, 0.0]])
    assert np.allclose(orthogonal_projection(V, np.array([3.0, 4.0])), [3.0, 0.0])


def test_projection_onto_whole_space_is_identity():
    V = Subspace.span(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(orthogonal_projection(V, x), x)


def test_projection_idempotent_and_orthogonal_residual():
    rng = np.random.default_rng(29)
    for _ in range(50):
        V = random_subspace(rng, 6, 3)
        x = rng.standard_normal(6)
        px = orthogonal_projection(V, x)
        assert np.allclose(orthogonal_projection(V, px), px, atol=1e-12)
        residual = x - px
        assert np.abs(V.basis @ residual).max() < 1e-12


# ---------------------------------------------------------------------------
# Normal Jacobians
# ---------------------------------------------------------------------------

def euclid(n):
    return np.eye(n)


def test_jacobian_square_diagonal():
    L = LinearMapMetric(np.diag([2.0, 3.0]), euclid(2), euclid(2))
    assert jacobian(L) == pytest.approx(6.0)


def test_jacobian_column_map():
    L = LinearMapMetric(np.array([[3.0], [4.0]]), euclid(1), euclid(2))
    assert jacobian(L) == pytest.approx(5.0)


def test_jacobian_row_map_second_branch():
    L = LinearMapMetric(np.array([[3.0, 4.0]]), euclid(2), euclid(1))
    assert jacobian(L) == pytest.approx(5.0)


def test_jacobian_square_equals_abs_det():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        L = LinearMapMetric(a, euclid(4), euclid(4))
        assert abs(jacobian(L) - abs(np.linalg.det(a))) < 1e-12 * max(1, abs(np.linalg.det(a)))


def test_jacobian_rank_deficient_is_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert jacobian(LinearMapMetric(a, euclid(2), euclid(2))) == 0.0


def test_jacobian_respects_metrics():
    # One-dimensional map x -> a x with domain metric g1 and codomain g2
    # has Jacobian |a| sqrt(g2 / g1).
    L = LinearMapMetric(np.array([[2.0]]), np.array([[4.0]]), np.array([[9.0]]))
    assert jacobian(L) == pytest.approx(2.0 * 3.0 / 2.0)


def test_jacobian_rejects_non_spd_metric():
    with pytest.raises(DomainError):
        LinearMapMetric(np.eye(2), np.diag([1.0, -1.0]), np.eye(2))
