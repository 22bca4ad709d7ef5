"""Brute-force validators that avoid the Kac-Rice formulas entirely.

Counts here come from individual realizations: sign-change bisection on the
circle, projected Newton from dense seed grids on the sphere, and exact
segment-pair intersection of polylines under Haar-random rotations.  Every
count carries a resolution audit (doubling the grid must not change it) so
under-resolution is observable rather than silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .estimate import Estimate
from .fields import FieldModel, Realization, sample
from .fields import sphere_tangent_frames as _sphere_tangent_frames

BISECT_TOL = 1e-12         # bracket width at which circle-root bisection stops
TRANSVERSALITY_TOL = 1e-8  # |derivative| below which a circle zero is non-transverse
MAX_EXCLUDED_FRACTION = 0.05  # flagged-sample share above which an MC estimate is flagged
CROSSING_MARGIN_TOL = 1e-10   # distance to tangency below which a rotation is resampled


@dataclass(frozen=True)
class CountSample:
    """An exact per-realization count with resolution diagnostics."""

    count: int
    seed: object
    diagnostics: dict = field(default_factory=dict, compare=False)
    flagged: bool = False
    flag_reason: str = ""


# ---------------------------------------------------------------------------
# Zeros of scalar fields on the circle
# ---------------------------------------------------------------------------

def _bisect_circle(func, groups, tol):
    """Vectorized bisection of sign-change brackets down to width tol.

    ``groups`` lists (lo, hi) bracket arrays; each group stops once its own widest
    bracket is <= tol, exactly as if bisected alone, and every step makes one call
    of func on the brackets still running.  Returns (midpoints per group, steps)."""
    los, his = map(list, zip(*groups))
    flos = np.split(func(np.concatenate(los)), np.cumsum([lo.size for lo in los])[:-1])
    steps = 0
    while steps <= 200:
        run = [i for i, lo in enumerate(los) if lo.size and np.max(his[i] - lo) > tol]
        if not run:
            break
        mids = [0.5 * (los[i] + his[i]) for i in run]
        fms = func(np.concatenate(mids))
        for i, mid in zip(run, mids):
            fm, fms = fms[:mid.size], fms[mid.size:]
            left = flos[i] * fm <= 0.0
            his[i] = np.where(left, mid, his[i])
            los[i] = np.where(left, los[i], mid)
            flos[i] = np.where(left, flos[i], fm)
        steps += 1
    return [0.5 * (lo + hi) for lo, hi in zip(los, his)], steps


def _audited_circle_roots(realization: Realization, grid_n: int, level: float,
                          closed: bool):
    """Sorted roots at grid_n, with diagnostics and the reason the grid-doubling
    audit flags them ("" when it does not)."""
    if realization.model.output_dim != 1:
        raise DomainError("circle zero counting needs a scalar field")
    node_zeros, brackets = [], []
    for n in (grid_n, 2 * grid_n):
        thetas, vals = realization.model.circle_grid_values(realization.coeffs, n)
        vals -= level
        node_zeros.append(thetas[np.abs(vals) < 1e-14])
        lo = thetas[vals * np.roll(vals, -1) < 0.0]
        brackets.append((lo, lo + 2.0 * np.pi / n))
    mids, steps = _bisect_circle(lambda t: realization.circle_values(t) - level,
                                 brackets, BISECT_TOL)
    found = []
    for zeros, mid in zip(node_zeros, mids):
        out = np.sort(np.concatenate([zeros, np.mod(mid, 2.0 * np.pi)]))
        # Merge duplicates created by node-zeros adjacent to a sign change.
        if out.size > 1:
            out = out[np.diff(out, append=out[0] + 2.0 * np.pi) > BISECT_TOL * 10]
        found.append(out)
    roots, roots2 = found
    min_sep = float("inf")
    if roots.size > 1:
        min_sep = float(np.diff(roots, append=roots[0] + 2.0 * np.pi).min())
    reason = ""
    if roots.size != roots2.size:
        reason = "count changed under grid doubling"
    elif roots.size > 1 and min_sep < 2.0 * np.pi / (2 * grid_n):
        reason = "roots closer than the refined grid resolution"
    elif closed and roots.size % 2 == 1:
        reason = "odd zero count on a closed loop"
    return roots, {"n_bisection_steps": steps, "min_separation": min_sep}, reason


def count_zeros_circle(realization: Realization, grid_n: int = 1024, level: float = 0.0,
                       arc: tuple[float, float] | None = None) -> CountSample:
    """Exact count of solutions of X = level for a scalar realization on S^1.

    Sign changes on a uniform grid are refined by bisection; the count is
    audited by doubling the grid, and samples whose count changes (or whose
    roots come closer than the refined grid can separate) are flagged.
    ``arc=(lo, hi)`` restricts the count to an angular window; full-circle
    counts are additionally audited for evenness (transverse level sets of
    a closed loop have even cardinality).
    """
    roots, diag, reason = _audited_circle_roots(realization, grid_n, level, closed=arc is None)
    if arc is not None:
        lo, hi = arc
        inside = (np.mod(roots - lo, 2.0 * np.pi)) < (hi - lo)
        roots = roots[inside]
    return CountSample(count=int(roots.size), seed=realization.seed, diagnostics=diag,
                       flagged=bool(reason), flag_reason=reason)


def count_signed_zeros_circle(realization: Realization, grid_n: int = 1024) -> CountSample:
    """Sum of derivative signs over the zeros of a scalar realization on S^1.

    Transverse zeros on a closed loop alternate in sign, so the result is 0
    for every transverse realization; zeros with |derivative| below the
    transversality tolerance flag the sample instead of contributing.
    """
    roots, diag, reason = _audited_circle_roots(realization, grid_n, 0.0, closed=True)
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

def fibonacci_sphere(n: int) -> np.ndarray:
    """n reasonably even deterministic points on S^2 (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _projective_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """RP^2 distances min(|a - b|, |a + b|) between the rows of a (N, 3) and b (M, 3)."""
    a, b = a[:, None, :], b[None, :, :]
    return np.minimum(np.linalg.norm(a - b, axis=2), np.linalg.norm(a + b, axis=2))


def _projective_dedup(roots: np.ndarray, radius: float) -> np.ndarray:
    """Roots not within radius (in RP^2) of an earlier kept root, in input order.

    Each kept root is the first one not yet covered, and it covers every root
    within radius of it; a root can only be covered by an earlier kept root,
    so this is the sequential greedy selection."""
    uncovered = np.ones(roots.shape[0], dtype=bool)
    kept = []
    while uncovered.any():
        i = int(np.argmax(uncovered))
        kept.append(i)
        uncovered &= _projective_distances(roots[i:i + 1], roots)[0] >= radius
        uncovered[i] = False  # also when radius <= 0
    return roots[kept]


def count_common_zeros_sphere(r1: Realization, r2: Realization,
                              n_seeds: int = 1500, max_iter: int = 150,
                              tol: float = 1e-12, dedup_radius: float = 1e-6) -> CountSample:
    """Projective count of common zeros of two scalar realizations on S^2.

    Projected Newton is run from a dense deterministic seed grid; converged
    roots are deduplicated up to the antipodal map and the count is reported
    in RP^2 (sphere count halved by antipodal identification).  The count is
    audited by doubling the seed density.
    """
    for r in (r1, r2):
        if r.model.output_dim != 1:
            raise DomainError("common-zero counting needs scalar fields")

    def residual(pts):
        return np.maximum(np.abs(r1.value(pts)), np.abs(r2.value(pts)))

    def tangential_system(pts):
        """(f1, f2, tangent frames t1 and t2, Jacobian entries (a, b, c, d), det):
        J = [[a, b], [c, d]] holds the derivatives of (f1, f2) along (t1, t2)."""
        f1, g1 = r1.value_and_ambient_gradient(pts)
        f2, g2 = r2.value_and_ambient_gradient(pts)
        t1, t2 = _sphere_tangent_frames(pts)
        a = (g1 * t1).sum(1)
        b = (g1 * t2).sum(1)
        c = (g2 * t1).sum(1)
        d = (g2 * t2).sum(1)
        return f1, f2, t1, t2, (a, b, c, d), a * d - b * c

    def newton_pass(pts, iters):
        """Damped projected Newton; returns (roots, n_unfinished).

        Backtracking keeps the residual monotone, killing the attracting
        cycles plain Newton is prone to.  Seeds then terminate either at a
        zero or at a positive local minimum of the residual; the latter is
        a legitimate outcome (the seed's basin holds no zero) and is evicted
        quietly.  Only seeds still improving when the iteration budget runs
        out count as non-converged.
        """
        found: list[np.ndarray] = []
        res = residual(pts)
        n_degenerate = 0
        for _ in range(iters):
            if pts.shape[0] == 0:
                break
            done = res < 1e3 * tol
            if done.any():
                found.append(pts[done])
                pts, res = pts[~done], res[~done]
                if pts.shape[0] == 0:
                    break
            # 2x2 tangential systems J delta = -F, solved in closed form.
            f1, f2, t1, t2, (a, b, c, d), det = tangential_system(pts)
            degenerate = np.abs(det) < 1e-300
            safe = np.where(degenerate, 1.0, det)
            d1 = (-f1 * d + f2 * b) / safe
            d2 = (-f2 * a + f1 * c) / safe
            step = t1 * d1[:, None] + t2 * d2[:, None]
            norm = np.linalg.norm(step, axis=1, keepdims=True)
            factor = np.where(norm > 0.5, 0.5 / np.maximum(norm, 1e-300), 1.0)
            step = np.where(degenerate[:, None], 0.0, step * factor)
            scale = np.ones(pts.shape[0])
            best_pts, best_res = pts.copy(), res.copy()
            improved = np.zeros(pts.shape[0], dtype=bool)
            for _ in range(5):
                todo = ~improved
                if not todo.any():
                    break
                cand = pts[todo] + scale[todo, None] * step[todo]
                cand /= np.linalg.norm(cand, axis=1, keepdims=True)
                cand_res = residual(cand)
                better = cand_res < best_res[todo]
                idx = np.nonzero(todo)[0][better]
                best_pts[idx] = cand[better]
                best_res[idx] = cand_res[better]
                improved[idx] = True
                scale *= 0.5
            # Evict stalled seeds (no improvement along the Newton direction)
            # and valley crawlers (improving, but too slowly to be heading
            # for a zero, which Newton approaches superlinearly).
            crawling = improved & (best_res > 0.7 * res) & (best_res > 1e-6)
            bad = ~improved | degenerate | crawling
            n_degenerate += int(degenerate.sum())
            if bad.any():
                best_pts, best_res = best_pts[~bad], best_res[~bad]
            pts, res = best_pts, best_res
        n_unfinished = pts.shape[0]
        roots = np.concatenate(found) if found else np.zeros((0, 3))
        return roots, n_unfinished, n_degenerate

    def solve(n: int):
        roots, n_unfinished, n_degenerate = newton_pass(fibonacci_sphere(n), max_iter)
        return roots, n_unfinished / n, n_degenerate / n

    roots, fail_frac, degen_frac = solve(n_seeds)
    proj = _projective_dedup(roots, dedup_radius)
    roots_b, _, _ = solve(2 * n_seeds)
    proj_b = _projective_dedup(roots_b, dedup_radius)

    flagged = False
    reason = ""
    if fail_frac > 0.01:
        flagged, reason = True, f"newton failed to converge on {fail_frac:.1%} of seeds"
    if degen_frac > 0.2:
        flagged, reason = True, "singular tangential Jacobian on many seeds (non-transverse pair)"
    if proj.shape[0] != proj_b.shape[0]:
        flagged, reason = True, "count changed under seed-grid doubling"

    min_sep = float("inf")
    if proj.shape[0] > 1:
        dist = _projective_distances(proj, proj)
        min_sep = float(dist[np.triu_indices(proj.shape[0], 1)].min())

    if proj.shape[0]:
        # Antipodal pairing is exact for (anti)symmetric homogeneous fields.
        parity_err = max(
            float(np.abs(np.abs(r1.value(-proj)) - np.abs(r1.value(proj))).max()),
            float(np.abs(np.abs(r2.value(-proj)) - np.abs(r2.value(proj))).max()),
        )
        if parity_err > 1e-8:
            flagged, reason = True, "antipodal parity violated at roots"
        # Transversality: the tangential 2x2 Jacobian must be invertible.
        if np.abs(tangential_system(proj)[-1]).min() < 1e-8:
            flagged, reason = True, "non-transverse intersection at a root"

    return CountSample(count=int(proj.shape[0]), seed=r1.seed,
                       diagnostics={"min_separation": min_sep,
                                    "newton_fail_fraction": fail_frac,
                                    "sphere_count": int(2 * proj.shape[0])},
                       flagged=flagged, flag_reason=reason)


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
    counts = []
    excluded = 0
    for cs in samples:
        if cs.flagged:
            excluded += 1
        else:
            counts.append(cs.count)
    kept = np.asarray(counts, dtype=float)
    if kept.size == 0:
        return Estimate(value=float("nan"), std_error=float("inf"), n=0, seed=seed,
                        method="mc_expected_count", flagged=True,
                        flag_reason="all samples unresolved")
    se = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    flagged = excluded > MAX_EXCLUDED_FRACTION * n_samples
    reason = f"{excluded}/{n_samples} samples unresolved" if excluded else ""
    return Estimate(value=float(kept.mean()), std_error=se, n=int(kept.size), seed=seed,
                    method="mc_expected_count", flagged=flagged, flag_reason=reason)


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


class _SegmentGrid:
    """Spatial hash of polyline segments for near-pair lookup on the sphere."""

    def __init__(self, points: np.ndarray, cell: float):
        self.points = points
        self.cell = cell
        self.side = int(math.ceil(3.0 / cell)) + 2
        mids = 0.5 * (points + np.roll(points, -1, axis=0))
        keys = self._key(mids)
        self.order = np.argsort(keys, kind="stable")
        self.keys_sorted = keys[self.order]

    def _key(self, mids: np.ndarray) -> np.ndarray:
        idx = np.floor((mids + 1.5) / self.cell).astype(np.int64)
        return (idx[:, 0] * self.side + idx[:, 1]) * self.side + idx[:, 2]

    def candidates(self, mids: np.ndarray):
        """Pairs (i, j): query segment i near stored segment j."""
        keys = self._key(mids)
        n = mids.shape[0]
        out_i, out_j = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    shift = (dx * self.side + dy) * self.side + dz
                    target = keys + shift
                    lo = np.searchsorted(self.keys_sorted, target, side="left")
                    hi = np.searchsorted(self.keys_sorted, target, side="right")
                    cnt = hi - lo
                    tot = int(cnt.sum())
                    if tot == 0:
                        continue
                    i_exp = np.repeat(np.arange(n), cnt)
                    starts = np.repeat(lo, cnt)
                    base = np.repeat(np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
                    pos = starts + (np.arange(tot) - base)
                    out_i.append(i_exp)
                    out_j.append(self.order[pos])
        if not out_i:
            return np.zeros(0, int), np.zeros(0, int)
        return np.concatenate(out_i), np.concatenate(out_j)


def _count_crossings(p1: np.ndarray, grid: _SegmentGrid):
    """Transverse intersections of polyline p1 with the gridded polyline.

    Returns (count, clean): clean is False when a candidate pair sits within
    CROSSING_MARGIN_TOL of tangency, in which case the rotation should be resampled.
    """
    mids = 0.5 * (p1 + np.roll(p1, -1, axis=0))
    ii, jj = grid.candidates(mids)
    if ii.size == 0:
        return 0, True
    a1, b1 = p1[ii], np.roll(p1, -1, axis=0)[ii]
    p2 = grid.points
    a2, b2 = p2[jj], np.roll(p2, -1, axis=0)[jj]
    n1 = np.cross(a1, b1)
    n2 = np.cross(a2, b2)
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
    d = np.cross(n1[straddle], n2[straddle])
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
    ``max_segment``; intersections are counted exactly per rotation, and
    rotations producing a near-tangential crossing are resampled (they form
    a measure-zero event).
    """
    p1 = curve1.polyline(max_segment)
    p2 = curve2.polyline(max_segment)
    grid = _SegmentGrid(p2, cell=1.05 * max_segment)
    rng = np.random.default_rng(seed)
    counts = np.empty(n_rotations)
    for i in range(n_rotations):
        for _ in range(100):
            rot = haar_rotation(rng)
            cnt, clean = _count_crossings(p1 @ rot.T, grid)
            if clean:
                counts[i] = cnt
                break
        else:
            raise DomainError("could not draw a clean rotation in 100 attempts")
    se = float(counts.std(ddof=1) / math.sqrt(n_rotations)) if n_rotations > 1 else 0.0
    return Estimate(value=float(counts.mean()), std_error=se, n=n_rotations,
                    seed=seed, method="kinematic_mc")
