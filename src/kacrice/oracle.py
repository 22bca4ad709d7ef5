"""Brute-force validators that avoid the Kac-Rice formulas entirely.

Counts here come from individual realizations: the zeros of one
trigonometric polynomial (the field itself on the circle, a resultant on the
sphere), found as the real roots of one real polynomial in u = tan(phi / 2),
or tan(phi) when it is antipodally symmetric, with phi measured from
CIRCLE_SHIFT, and exact segment-pair intersection of polylines under
Haar-random rotations.  Root counts read the rounding noise off the samples,
and flag a polynomial that vanishes identically and roots too close to call,
including zeros that the polynomial does not cross (a sign check at the
midpoints between them), so unresolved realizations are observable rather
than silent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .estimate import Estimate
from .fields import FieldModel, Realization, sample
from .linalg import cross_rows

TRANSVERSALITY_TOL = 1e-8  # |derivative| below which a circle zero is non-transverse
MAX_EXCLUDED_FRACTION = 0.05  # flagged-sample share above which an MC estimate is flagged
CROSSING_MARGIN_TOL = 1e-10   # distance to tangency below which a rotation is resampled
NOISE_FACTOR = 1e4            # multiple of the sampled noise floor below which a coefficient is 0
REAL_ROOT_TOL = 1e-9          # |log|w|| below which a root counts as real
AMBIGUOUS_ROOT_TOL = 1e-6     # |log|w|| or root gap below which a root is too close to call

# Projection centre of the sphere resultant, a generic point: not a coordinate
# axis, where simple test fields put their common zeros.  The rows U1, U2 of
# _SPHERE_PLANE complete it to an orthonormal basis.
SPHERE_CENTRE = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)
_U1 = np.cross(SPHERE_CENTRE, [1.0, 0.0, 0.0])
_SPHERE_PLANE = np.stack([_U1, np.cross(SPHERE_CENTRE, _U1)]) / np.linalg.norm(_U1)

# Angle from which the circle root finder measures, a generic one: not 0 or
# pi, where simple test fields put their zeros (see _unit_circle_roots).
CIRCLE_SHIFT = math.sqrt(2.0)


@dataclass(frozen=True)
class CountSample:
    """An exact per-realization count with resolution diagnostics."""

    count: int
    seed: object
    diagnostics: dict = field(default_factory=dict, compare=False)
    flagged: bool = False
    flag_reason: str = ""


# ---------------------------------------------------------------------------
# Real roots of trigonometric polynomials
# ---------------------------------------------------------------------------

def _min_separation(angles: np.ndarray) -> float:
    """Smallest gap between sorted angles around the circle (inf below two)."""
    if angles.size < 2:
        return float("inf")
    return float((np.concatenate((angles[1:], angles[:1] + 2.0 * np.pi)) - angles).min())


@functools.lru_cache(maxsize=None)
def _t_form(d: int, s: int):
    """(ks, map) for a real trigonometric polynomial p of degree d whose Fourier
    coefficients c_k vanish for k outside ks = d mod s .. d in steps of s: the
    real part of c_ks times the map is (1 + u^2)^(d / s) p(CIRCLE_SHIFT + phi),
    u = tan(s phi / 2), as a real polynomial in u, highest power first.

    With e^{i s phi} = (1 + iu) / (1 - iu), (1 + u^2)^(d / s) e^{ik phi} is
    (1 + iu)^((d + k) / s) (1 - iu)^((d - k) / s).  Row k holds that times
    e^{ik CIRCLE_SHIFT}, doubled for k >= 1 for the conjugate term of c_-k.
    """
    ks = np.arange(d % s, d + 1, s)
    plus = [np.ones(1, dtype=complex)]  # u-coefficients of (1 + iu)^j, lowest first
    for _ in range(2 * d // s):
        plus.append(np.convolve(plus[-1], [1.0, 1.0j]))
    rows = np.array([np.convolve(plus[(d + k) // s], plus[(d - k) // s].conj()) for k in ks])
    weights = 2.0 * np.exp(1j * CIRCLE_SHIFT * ks)
    weights[ks == 0] = 1.0
    t_map = weights[:, None] * rows[:, ::-1]
    ks.flags.writeable = t_map.flags.writeable = False  # cached: shared by every caller
    return ks, t_map


def _unit_circle_roots(samples: np.ndarray, D: int):
    """Zeros of a real trigonometric polynomial p of degree at most D from its
    values at the N = 4(D + 1) nodes 2 pi j / N.

    The samples give p's Fourier coefficients c_k.  Those above D are rounding
    noise alone, so a c_k, k <= D, at most NOISE_FACTOR times the largest of
    them is noise too (as in Aurentz & Trefethen's standardChop).  The top
    ones would add spurious roots, so p is taken to degree d, the largest k
    above it.  If every k above it is d mod 2, p(theta + pi) = +-p(theta) and
    s = 2, else s = 1.  With theta = CIRCLE_SHIFT + phi and u = tan(s phi / 2),
    (1 + u^2)^(d / s) p is a real polynomial of degree at most 2d / s in u
    (``_t_form``).  Its roots map to w = -(u - i) / (u + i) = e^{i s phi};
    those on the unit circle give the zeros phi = arg(w) / s + j pi, j < s.
    CIRCLE_SHIFT keeps zeros at theta = 0 or pi, where simple fields put
    them, away from u = infinity.

    Returns (sorted zero angles in [0, 2 pi), reason).  The reason is
    "vanishes identically" when no c_k is above the noise, and "roots too
    close to call" when a root off the circle (by |log|w|| / s, in theta, at
    least REAL_ROOT_TOL) or the gap between two zeros is below
    AMBIGUOUS_ROOT_TOL, or when an even number of zeros does not alternate the
    sign of p at the midpoints between them.  It is "" otherwise; an odd
    number of zeros is left to the caller.
    """
    fourier = np.fft.rfft(samples) / samples.size
    noise = np.abs(fourier[D + 1:]).max()
    above = np.flatnonzero(np.abs(fourier[:D + 1]) > NOISE_FACTOR * noise)
    if above.size == 0:
        return np.zeros(0), "vanishes identically"
    d = int(above[-1])
    s = 2 if ((d - above) % 2 == 0).all() else 1
    ks, t_map = _t_form(d, s)
    u = np.roots((fourier[ks] @ t_map).real)
    w = (1j - u) / (u + 1j)
    off_circle = np.abs(np.log(np.abs(w))) / s
    real = off_circle < REAL_ROOT_TOL
    phis = (np.angle(w[real]) / s + np.pi * np.arange(s)[:, None]).ravel()
    angles = np.sort(np.mod(phis + CIRCLE_SHIFT, 2.0 * np.pi))
    reason = ""
    if min(off_circle[~real].min(initial=np.inf), _min_separation(angles)) < AMBIGUOUS_ROOT_TOL:
        reason = "roots too close to call"
    elif angles.size > 0 and angles.size % 2 == 0:
        # The sign of p, from all its Fourier coefficients (trimmed ones too),
        # at the midpoints: a zero that p does not cross was miscounted.
        # An even number of signs alternates all round when neighbours differ.
        mids = 0.5 * (angles + np.concatenate((angles[1:], angles[:1] + 2.0 * np.pi)))
        powers = np.exp(1j * mids)[:, None] ** np.arange(1, D + 1)
        positive = fourier[0].real + 2.0 * (powers @ fourier[1:D + 1]).real > 0.0
        if not (positive[1:] != positive[:-1]).all():
            reason = "roots too close to call"
    return angles, reason


# ---------------------------------------------------------------------------
# Zeros of scalar fields on the circle
# ---------------------------------------------------------------------------

def _circle_roots(realization: Realization, level: float):
    """Sorted zeros of realization - level on S^1, with diagnostics and the
    reason they are flagged ("" when they are not).

    On the unit circle a scalar field whose monomials have total degree at
    most D is a trigonometric polynomial of degree D, sampled at 4(D + 1) nodes.
    """
    model = realization.model
    if model.output_dim != 1:
        raise DomainError("circle zero counting needs a scalar field")
    D = max(int(basis.exponents.sum(axis=1).max()) for _, basis in model.components)
    thetas = np.arange(4 * D + 4) * (2.0 * np.pi / (4 * D + 4))
    roots, reason = _unit_circle_roots(realization.circle_values(thetas) - level, D)
    if not reason and roots.size % 2 == 1:
        reason = "odd zero count on a closed loop"
    return roots, {"min_separation": _min_separation(roots)}, reason


def count_zeros_circle(realization: Realization, level: float = 0.0) -> CountSample:
    """Exact count of solutions of X = level for a scalar realization on S^1.

    The zeros are the unit-circle roots of one polynomial (see
    ``_unit_circle_roots``).  A sample is flagged when X - level vanishes
    identically, when roots are too close to call, or when the count is odd
    (transverse level sets of a closed loop have even cardinality).
    """
    roots, diag, reason = _circle_roots(realization, level)
    return CountSample(count=int(roots.size), seed=realization.seed, diagnostics=diag,
                       flagged=bool(reason), flag_reason=reason)


def count_signed_zeros_circle(realization: Realization) -> CountSample:
    """Sum of derivative signs over the zeros of a scalar realization on S^1.

    Transverse zeros on a closed loop alternate in sign, so the result is 0
    for every transverse realization; zeros with |derivative| below the
    transversality tolerance flag the sample instead of contributing.
    """
    roots, diag, reason = _circle_roots(realization, 0.0)
    derivs = realization.circle_derivative(roots) if roots.size else np.zeros(0)
    if roots.size and np.abs(derivs).min() < TRANSVERSALITY_TOL:
        reason = "non-transverse zero (derivative below tolerance)"
    signed = int(np.sign(derivs).sum()) if roots.size else 0
    diag["n_roots"] = int(roots.size)
    return CountSample(count=signed, seed=realization.seed, diagnostics=diag,
                       flagged=bool(reason), flag_reason=reason)


# ---------------------------------------------------------------------------
# Common zeros of two scalar fields on the sphere
# ---------------------------------------------------------------------------

def _homogeneous_degree(r: Realization) -> int:
    """Total degree d of a scalar realization on S^2 whose monomials all have degree d."""
    model = r.model
    if model.output_dim != 1 or model.domain.name != "sphere":
        raise DomainError("common-zero counting needs scalar fields on the sphere")
    degrees = {int(d) for _, basis in model.components for d in basis.exponents.sum(axis=1)}
    if len(degrees) != 1:
        raise DomainError("common-zero counting needs homogeneous fields "
                          "(monomials of one total degree)")
    return degrees.pop()


def _z_coefficients(r: Realization, d: int, pts: np.ndarray) -> np.ndarray:
    """Coefficients (N, d + 1) of z^0..z^d in r(p + z C) at each point p of pts (N, 3).

    The polynomial of degree d is fitted exactly through its values at d + 1
    Chebyshev nodes of z."""
    z = np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1))
    vals = r.value((pts[:, None, :] + z[None, :, None] * SPHERE_CENTRE).reshape(-1, 3))
    return np.linalg.solve(np.vander(z, increasing=True), vals.reshape(-1, d + 1).T).T


# What each ``_unit_circle_roots`` reason means for the sphere resultant.
_RESULTANT_REASONS = {
    "": "",
    "vanishes identically":
        "resultant vanishes identically (a common zero at the centre, or a shared factor)",
    "roots too close to call":
        "resultant roots too close to call (a non-transverse intersection, "
        "or two zeros on one line through the centre)",
}


def count_common_zeros_sphere(r1: Realization, r2: Realization) -> CountSample:
    """Projective count of common zeros of two homogeneous scalar realizations on S^2.

    Projecting RP^2 from the centre C onto the line u(phi) = cos phi U1 +
    sin phi U2 (U1, U2 orthonormal to C) turns the common zeros into the real
    roots of R(phi) = Res_z(f1(u(phi) + z C), f2(u(phi) + z C)), a
    trigonometric polynomial of degree exactly D = d1 d2.  R is sampled at
    4(D + 1) nodes (Sylvester determinants of the z-coefficients), and its
    zeros (``_unit_circle_roots``) are the common zeros, each projective
    zero twice (phi and phi + pi).  The sample is flagged when R vanishes
    identically or its roots are too close to call; ``_RESULTANT_REASONS``
    says what each means for the sphere.
    """
    d1, d2 = _homogeneous_degree(r1), _homogeneous_degree(r2)
    D = d1 * d2
    phis = np.arange(4 * D + 4) * (2.0 * np.pi / (4 * D + 4))
    u = np.cos(phis)[:, None] * _SPHERE_PLANE[0] + np.sin(phis)[:, None] * _SPHERE_PLANE[1]
    a, b = _z_coefficients(r1, d1, u)[:, ::-1], _z_coefficients(r2, d2, u)[:, ::-1]
    sylvester = np.zeros((phis.size, d1 + d2, d1 + d2))
    for i in range(d2):
        sylvester[:, i, i:i + d1 + 1] = a
    for i in range(d1):
        sylvester[:, d2 + i, i:i + d2 + 1] = b
    angles, reason = _unit_circle_roots(np.linalg.det(sylvester), D)
    return CountSample(count=angles.size // 2, seed=r1.seed,
                       diagnostics={"min_separation": _min_separation(angles),
                                    "sphere_count": int(angles.size)},
                       flagged=bool(reason), flag_reason=_RESULTANT_REASONS[reason])


# ---------------------------------------------------------------------------
# Monte Carlo over realizations
# ---------------------------------------------------------------------------

def mc_expected_count_seeded(counter_by_seed: Callable[[int], CountSample],
                             n_samples: int, seed: int) -> Estimate:
    """Mean and standard error of exact counts indexed by derived seeds.

    Flagged (unresolved) samples are excluded and reported; the estimate is
    itself flagged when the exclusions exceed MAX_EXCLUDED_FRACTION.
    Deterministic for a fixed (counter, n_samples, seed): per-sample seeds
    are derived from ``seed`` up front.
    """
    child_seeds = np.random.SeedSequence(seed).generate_state(n_samples, np.uint64)
    samples = [counter_by_seed(int(s)) for s in child_seeds]
    kept = np.array([cs.count for cs in samples if not cs.flagged], dtype=float)
    excluded = n_samples - kept.size
    if kept.size == 0:
        return Estimate(value=float("nan"), std_error=float("inf"), n=0, seed=seed,
                        method="mc_expected_count", flagged=True,
                        flag_reason="all samples unresolved")
    reason = f"{excluded}/{n_samples} samples unresolved" if excluded else ""
    return Estimate.from_samples(kept, seed, "mc_expected_count",
                                 flagged=excluded > MAX_EXCLUDED_FRACTION * n_samples,
                                 flag_reason=reason)


def mc_expected_count(model: FieldModel, counter: Callable[[Realization], CountSample],
                      n_samples: int, seed: int) -> Estimate:
    """mc_expected_count_seeded specialized to realizations of one model."""
    return mc_expected_count_seeded(lambda s: counter(sample(model, s)), n_samples, seed)


# ---------------------------------------------------------------------------
# Kinematic Monte Carlo on S^2
# ---------------------------------------------------------------------------

def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _chunk_balls(mids: np.ndarray):
    """(centres, radii, run) of balls around runs of ceil(sqrt(n)) consecutive
    rows of mids (n, 3), so that two polylines compare O(n) pairs of balls."""
    run = math.isqrt(len(mids) - 1) + 1
    chunks = np.concatenate((mids, mids[-1:].repeat(-len(mids) % run, axis=0))).reshape(-1, run, 3)
    centres = chunks.mean(axis=1)
    return centres, np.linalg.norm(chunks - centres[:, None], axis=2).max(axis=1), run


class _SegmentGrid:
    """Spatial hash of polyline segment midpoints in cubes of side ``cell``.

    ``keys_sorted`` and ``order`` list the stored segments by cube key;
    ``near`` holds the distinct keys of every cube within one step of a
    stored segment's cube, so one search skips the queries far from all.
    Crossing segments have midpoints in adjacent cubes only if every chord
    is shorter than ``cell``.  ``near_chunks`` culls whole runs of query
    segments before that search by their bounding balls (``_chunk_balls``).
    """

    def __init__(self, points: np.ndarray, cell: float):
        self.points = points
        self.cell = cell
        self.side = int(math.ceil(3.0 / cell)) + 2
        # Key offsets of the 3x3x3 block of cubes around a cube.
        self.shifts = (np.indices((3, 3, 3)).reshape(3, -1).T - 1) @ [self.side**2, self.side, 1]
        mids = 0.5 * (points + np.roll(points, -1, axis=0))
        self.centres, self.radii, _ = _chunk_balls(mids)
        self.sq = (self.centres * self.centres).sum(axis=1)
        keys = self._key(mids)
        self.order = np.argsort(keys, kind="stable")
        self.keys_sorted = keys[self.order]
        near = (self.keys_sorted[:, None] + self.shifts).ravel()
        near.sort()
        self.near = near[np.concatenate(([True], near[1:] != near[:-1]))]

    def _key(self, mids: np.ndarray) -> np.ndarray:
        idx = np.floor((mids + 1.5) / self.cell).astype(np.int64)
        return (idx[:, 0] * self.side + idx[:, 1]) * self.side + idx[:, 2]

    def near_chunks(self, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Indices of the query balls within reach of a stored ball: midpoints in
        adjacent cubes are under 2 sqrt(3) cell apart.  The 1e-9 covers the rounding
        of rotated centres and of |c|^2 + |s|^2 - 2 c.s, far below it at any cell."""
        reach = radii[:, None] + self.radii + (2.0 * math.sqrt(3.0) * self.cell + 1e-9)
        dist2 = (centres * centres).sum(axis=1)[:, None] + self.sq - 2.0 * centres @ self.centres.T
        return np.flatnonzero((dist2 < reach * reach).any(axis=1))

    def candidates(self, mids: np.ndarray):
        """Pairs (i, j): query segment i in a cube next to stored segment j's."""
        keys = self._key(mids)
        at = np.minimum(np.searchsorted(self.near, keys), self.near.size - 1)
        qi = np.flatnonzero(self.near[at] == keys)
        target = (keys[qi, None] + self.shifts).ravel()
        lo = np.searchsorted(self.keys_sorted, target, side="left")
        cnt = np.searchsorted(self.keys_sorted, target, side="right") - lo
        ii = np.repeat(qi, cnt.reshape(-1, self.shifts.size).sum(axis=1))
        pos = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(ii.size)
        return ii, self.order[pos]


def _count_crossings(p1: np.ndarray, rot: np.ndarray, balls, grid: _SegmentGrid):
    """Transverse intersections of polyline p1 rotated by rot with the gridded polyline.

    Only the runs of p1's segments whose ``balls`` (``_chunk_balls`` of p1's
    midpoints) ``grid.near_chunks`` keeps are rotated and searched.
    Returns (count, clean): clean is False when a candidate pair sits within
    CROSSING_MARGIN_TOL of tangency, in which case the rotation should be resampled.
    """
    centres, radii, run = balls
    seg = (grid.near_chunks(centres @ rot.T, radii)[:, None] * run + np.arange(run)).ravel()
    seg = seg[seg < len(p1)]
    # One product of at least two rows: it rounds each row as p1 @ rot.T does.
    ends = np.concatenate((p1[seg], p1[(seg + 1) % len(p1)])) @ rot.T
    ii, jj = grid.candidates(0.5 * (ends[:seg.size] + ends[seg.size:]))
    a1, b1 = ends[ii], ends[seg.size + ii]
    p2 = grid.points
    a2, b2 = p2[jj], p2[(jj + 1) % p2.shape[0]]
    n1 = cross_rows(a1, b1)
    n2 = cross_rows(a2, b2)
    s1a = np.einsum("ij,ij->i", a2, n1)
    s1b = np.einsum("ij,ij->i", b2, n1)
    s2a = np.einsum("ij,ij->i", a1, n2)
    s2b = np.einsum("ij,ij->i", b1, n2)
    scale = np.maximum(np.linalg.norm(n1, axis=1), np.linalg.norm(n2, axis=1))
    scale = np.where(scale > 0, scale, 1.0)
    margin = np.minimum.reduce([np.abs(s1a), np.abs(s1b), np.abs(s2a), np.abs(s2b)]) / scale
    straddle = (s1a * s1b < 0.0) & (s2a * s2b < 0.0)
    # Ambiguous geometry (vertex hits, tangencies) anywhere among the
    # candidates: ask for a fresh rotation rather than guessing.
    if np.any(margin < CROSSING_MARGIN_TOL):
        return 0, False
    if not straddle.any():
        return 0, True
    # Same-hemisphere check resolves the antipodal ambiguity for short arcs.
    d = cross_rows(n1[straddle], n2[straddle])
    nrm = np.linalg.norm(d, axis=1, keepdims=True)
    ok_nrm = nrm[:, 0] > 1e-14
    d = np.where(nrm > 0, d / np.where(nrm > 0, nrm, 1.0), d)
    sign1 = np.einsum("ij,ij->i", d, a1[straddle] + b1[straddle])
    d = d * np.sign(sign1)[:, None]
    sign2 = np.einsum("ij,ij->i", d, a2[straddle] + b2[straddle])
    hits = (sign2 > 0.0) & ok_nrm
    return int(hits.sum()), True


def kinematic_mc(curve1, curve2, n_rotations: int, seed: int,
                 max_segment: float = 1e-3) -> Estimate:
    """Mean intersection count of a Haar-rotated copy of curve1 with curve2.

    Curves are densified to polylines with segments shorter than
    ``max_segment``; crossings are counted exactly per rotation, among the
    runs of curve1's segments whose bounding balls reach curve2's (see
    ``_SegmentGrid``), and rotations with a near-tangential crossing are
    resampled (a measure-zero event).  A longer chord (a curve of uneven
    speed) raises ``DomainError``: the cell search would miss crossings.
    """
    p1 = curve1.polyline(max_segment)
    p2 = curve2.polyline(max_segment)
    chords = [np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1).max() for p in (p1, p2)]
    if max(chords) > max_segment:
        raise DomainError("a polyline chord exceeds max_segment (uneven curve speed)")
    grid = _SegmentGrid(p2, cell=1.05 * max_segment)
    balls = _chunk_balls(0.5 * (p1 + np.roll(p1, -1, axis=0)))
    rng = np.random.default_rng(seed)
    counts = np.empty(n_rotations)
    for i in range(n_rotations):
        for _ in range(100):
            rot = haar_rotation(rng)
            cnt, clean = _count_crossings(p1, rot, balls, grid)
            if clean:
                counts[i] = cnt
                break
        else:
            raise DomainError("could not draw a clean rotation in 100 attempts")
    return Estimate.from_samples(counts, seed, "kinematic_mc")
