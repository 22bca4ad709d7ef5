"""Deterministic numeric checkers for the area and coarea formulas.

Both checkers evaluate the two sides of a change-of-variables identity
independently and return them as a pair, so tests can assert agreement:

* area (dim 1 -> dim 1):   integral of g |f'|  vs  integral over values q of
  the sum of g over the preimage f^{-1}(q);
* coarea (dim 2 -> dim 1): integral of g Jf    vs  integral over values q of
  the line integral of g along the level set f^{-1}(q).

The value-side integrations are split into panels at detected critical
values, where the preimage count / level-set length is allowed to jump;
inside a panel the integrand is smooth and Gauss-Legendre converges fast.
Preimages are located by sign-change bisection on a fixed uniform grid
(4096 cells, refined to 1e-12), level sets by marching squares with the
crossing points polished onto the level set by Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError
from .oracle import _bisect_circle

_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class CheckPair:
    """The two sides of a checked identity, plus a degeneracy flag."""

    lhs: float
    rhs: float
    flagged: bool = False
    flag_reason: str = ""

    def __iter__(self):
        return iter((self.lhs, self.rhs))


def _gauss_panel(lo: float, hi: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _merge_breaks(values, lo, hi, tol):
    vals = np.concatenate([[lo, hi], np.asarray(values, dtype=float)])
    vals = vals[(vals >= lo - tol) & (vals <= hi + tol)]
    vals = np.clip(np.sort(vals), lo, hi)
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    return np.array(keep)


# ---------------------------------------------------------------------------
# Area formula, one dimension
# ---------------------------------------------------------------------------

def area_formula_check(
    f: Callable[[np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    n_cells: int = 4096,
    gl_order: int = 64,
) -> CheckPair:
    """Check  ∫ g|f'| dx  ==  ∫ (Σ_{p in f^{-1}(q)} g(p)) dq  on an interval.

    ``f``, ``fprime`` and ``weight`` must accept ndarray arguments.
    """
    a, b = float(interval[0]), float(interval[1])
    xs = np.linspace(a, b, n_cells + 1)
    fx = f(xs)
    fpx = fprime(xs)
    if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(fpx))):
        raise NumericError("non-finite samples of f or f' on the grid")

    # Critical points from sign changes of f' (plus exact node zeros).
    change = fpx[:-1] * fpx[1:] < 0.0
    crit = np.zeros(0)
    if change.any():
        (crit,), _ = _bisect_circle(fprime, [(xs[:-1][change], xs[1:][change])], _BISECT_TOL)
    node_zero = xs[np.abs(fpx) == 0.0]
    crit = np.concatenate([crit, node_zero])

    # Left side: panels split at critical points so |f'| is smooth inside.
    x_panels = _merge_breaks(crit, a, b, tol=1e-12 * max(b - a, 1.0))
    lhs = 0.0
    for lo, hi in zip(x_panels[:-1], x_panels[1:]):
        xg, wg = _gauss_panel(lo, hi, gl_order)
        lhs += float(np.sum(wg * weight(xg) * np.abs(fprime(xg))))

    # Right side: panels split at critical values, where the count jumps.
    q_lo, q_hi = float(fx.min()), float(fx.max())
    crit_vals = np.concatenate([f(crit) if crit.size else np.zeros(0), [fx[0], fx[-1]]])
    q_panels = _merge_breaks(crit_vals, q_lo, q_hi, tol=1e-9 * max(q_hi - q_lo, 1.0))

    scale = max(np.abs(fx).max(), 1.0)
    rhs = 0.0
    for lo, hi in zip(q_panels[:-1], q_panels[1:]):
        qg, wq = _gauss_panel(lo, hi, gl_order)
        sums = np.empty_like(qg)
        for idx, q in enumerate(qg):
            s = fx - q
            if np.abs(s).min() < 1e-13 * scale:  # nudge off exact node hits
                q = q + 1e-11 * max(q_hi - q_lo, 1.0)
                s = fx - q
            hit = s[:-1] * s[1:] < 0.0
            if hit.any():
                (roots,), _ = _bisect_circle(lambda t: f(t) - q, [(xs[:-1][hit], xs[1:][hit])],
                                             _BISECT_TOL)
                sums[idx] = float(np.sum(weight(roots)))
            else:
                sums[idx] = 0.0
        rhs += float(np.sum(wq * sums))

    return CheckPair(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Coarea formula, two dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartDomain:
    """A coordinate rectangle with an optional diagonal metric.

    ``scale(x, y) -> (h1, h2)`` gives the metric scale factors, so that a
    coordinate displacement (dx, dy) has length sqrt((h1 dx)^2 + (h2 dy)^2)
    and the area element is h1 h2 dx dy.  ``None`` means Euclidean.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    scale: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    @classmethod
    def rectangle(cls, x_range, y_range) -> "ChartDomain":
        return cls(tuple(x_range), tuple(y_range), None)

    @classmethod
    def polar_annulus(cls, r_inner: float, r_outer: float) -> "ChartDomain":
        return cls((r_inner, r_outer), (0.0, 2.0 * np.pi),
                   lambda r, t: (np.ones_like(r), r))

    def factors(self, x, y):
        if self.scale is None:
            one = np.ones_like(np.asarray(x, dtype=float))
            return one, np.ones_like(np.asarray(y, dtype=float)) * one
        h1, h2 = self.scale(np.asarray(x, float), np.asarray(y, float))
        return np.broadcast_arrays(h1, h2)


def _edge_breakpoints(values: np.ndarray, rng: float) -> list[float]:
    """Critical values of f restricted to one boundary edge (sampled)."""
    out: list[float] = []
    if values.max() - values.min() < 1e-12 * rng:
        out.append(float(values[0]))  # constant edge: its value is a breakpoint
        return out
    d = np.diff(values)
    flips = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    out.extend(float(values[i + 1]) for i in flips)
    out.append(float(values[0]))
    out.append(float(values[-1]))
    return out


def _segment_endpoints(S, xs, ys, f, q):
    """Locate level-set crossings on grid edges and pair them per cell.

    Returns two arrays (n_segments, 2): the chart coordinates of the two
    crossing points of each cell the level set passes through.
    """
    nx, ny = len(xs) - 1, len(ys) - 1
    sx = S[:-1, :] * S[1:, :] < 0.0  # horizontal edges, shape (nx, ny+1)
    sy = S[:, :-1] * S[:, 1:] < 0.0  # vertical edges, shape (nx+1, ny)

    # Refine crossing positions along their edges by bisection on f itself.
    hx = np.full(sx.shape, np.nan)
    if sx.any():
        ii, jj = np.nonzero(sx)
        y_fix = ys[jj]
        (roots,), _ = _bisect_circle(lambda t: f(t, y_fix) - q, [(xs[ii], xs[ii + 1])],
                                     _BISECT_TOL)
        hx[ii, jj] = roots
    vy = np.full(sy.shape, np.nan)
    if sy.any():
        ii, jj = np.nonzero(sy)
        x_fix = xs[ii]
        (roots,), _ = _bisect_circle(lambda t: f(x_fix, t) - q, [(ys[jj], ys[jj + 1])],
                                     _BISECT_TOL)
        vy[ii, jj] = roots

    bottom, top = sx[:, :-1], sx[:, 1:]
    left, right = sy[:-1, :], sy[1:, :]
    count = (bottom.astype(np.int8) + top.astype(np.int8)
             + left.astype(np.int8) + right.astype(np.int8))

    p_list, q_list = [], []
    two = np.nonzero(count == 2)
    if two[0].size:
        i, j = two
        cand = np.stack([
            np.stack([hx[i, j], ys[j] * np.ones(i.size)], axis=1),        # bottom
            np.stack([hx[i, j + 1], ys[j + 1] * np.ones(i.size)], axis=1),  # top
            np.stack([xs[i] * np.ones(i.size), vy[i, j]], axis=1),        # left
            np.stack([xs[i + 1] * np.ones(i.size), vy[i + 1, j]], axis=1),  # right
        ], axis=1)  # (m, 4, 2)
        good = ~np.isnan(cand[:, :, 0]) & ~np.isnan(cand[:, :, 1])
        order = np.argsort(~good, axis=1, kind="stable")[:, :2]
        rows = np.arange(i.size)[:, None]
        pts = cand[rows, order]  # (m, 2, 2)
        p_list.append(pts[:, 0])
        q_list.append(pts[:, 1])

    # Saddle cells (4 crossings): the center sign picks the pairing.
    four = np.nonzero(count == 4)
    for i, j in zip(*four):
        xc, yc = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
        c = float(f(np.array([xc]), np.array([yc]))[0]) - q
        pb = (hx[i, j], ys[j])
        pt = (hx[i, j + 1], ys[j + 1])
        pl = (xs[i], vy[i, j])
        pr = (xs[i + 1], vy[i + 1, j])
        same_as_bl = c * S[i, j] > 0.0
        pairs = [(pb, pr), (pt, pl)] if same_as_bl else [(pb, pl), (pt, pr)]
        for u, v in pairs:
            p_list.append(np.array([u]))
            q_list.append(np.array([v]))

    if not p_list:
        return np.zeros((0, 2)), np.zeros((0, 2))
    return np.concatenate(p_list), np.concatenate(q_list)


def _project_to_level(points, f, grad_f, q, scale, max_iter=30):
    """Newton-project points onto {f = q} along the chart gradient."""
    pts = points.copy()
    for _ in range(max_iter):
        r = f(pts[:, 0], pts[:, 1]) - q
        if np.abs(r).max() < 1e-13 * scale:
            break
        gx, gy = grad_f(pts[:, 0], pts[:, 1])
        g2 = gx * gx + gy * gy
        g2 = np.where(g2 > 0, g2, 1.0)
        pts[:, 0] -= r * gx / g2
        pts[:, 1] -= r * gy / g2
    return pts


def coarea_formula_check(
    f: Callable,
    grad_f: Callable,
    weight: Callable,
    domain: ChartDomain,
    n_grid: int = 768,
    gl_order_area: int = 96,
    gl_order_q: int = 48,
    breakpoints: Sequence[float] = (),
) -> CheckPair:
    """Check  ∫∫ g Jf dA  ==  ∫ (∫_{f^{-1}(q)} g ds) dq  on a chart domain.

    ``f(x, y)``, ``grad_f(x, y) -> (f_x, f_y)`` and ``weight(x, y)`` take
    ndarray arguments in chart coordinates; Jf and all lengths/areas are
    measured with the domain's metric scale factors.
    """
    (x0, x1), (y0, y1) = domain.x_range, domain.y_range

    # Left side: tensor Gauss-Legendre of g * |grad f|_metric * area element.
    xg, wx = _gauss_panel(x0, x1, gl_order_area)
    yg, wy = _gauss_panel(y0, y1, gl_order_area)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    fx_, fy_ = grad_f(X, Y)
    h1, h2 = domain.factors(X, Y)
    jf = np.sqrt((fx_ / h1) ** 2 + (fy_ / h2) ** 2)
    lhs = float(np.einsum("i,j,ij->", wx, wy, weight(X, Y) * jf * h1 * h2))

    f_scale = 1.0
    flagged = False
    flag_reason = ""
    grad_scale = float(np.max(jf))
    if grad_scale == 0.0 or np.mean(jf < 1e-10 * max(grad_scale, 1.0)) > 1e-3:
        flagged = True
        flag_reason = "Jacobian vanishes on a non-negligible set"

    # Node grid for marching squares.
    xs = np.linspace(x0, x1, n_grid + 1)
    ys = np.linspace(y0, y1, n_grid + 1)
    Xn, Yn = np.meshgrid(xs, ys, indexing="ij")
    F = f(Xn, Yn)
    if not np.all(np.isfinite(F)):
        raise NumericError("non-finite samples of f on the grid")
    q_lo, q_hi = float(F.min()), float(F.max())
    rng = max(q_hi - q_lo, 1e-30)
    f_scale = max(abs(q_lo), abs(q_hi), 1.0)

    # Breakpoints: user-supplied, corner values, and boundary-edge criticals.
    breaks = list(breakpoints)
    for edge_vals in (F[:, 0], F[:, -1], F[0, :], F[-1, :]):
        breaks.extend(_edge_breakpoints(edge_vals, rng))
    q_panels = _merge_breaks(breaks, q_lo, q_hi, tol=1e-9 * rng)

    rhs = 0.0
    for lo, hi in zip(q_panels[:-1], q_panels[1:]):
        qg, wq = _gauss_panel(lo, hi, gl_order_q)
        lengths = np.empty_like(qg)
        for idx, q in enumerate(qg):
            if np.abs(F - q).min() < 1e-13 * f_scale:
                q = q + 1e-11 * rng
            S = F - q
            p1, p2 = _segment_endpoints(S, xs, ys, f, q)
            if p1.shape[0] == 0:
                lengths[idx] = 0.0
                continue
            mid = _project_to_level(0.5 * (p1 + p2), f, grad_f, q, f_scale)

            def seg_len(u, v):
                mx, my = 0.5 * (u[:, 0] + v[:, 0]), 0.5 * (u[:, 1] + v[:, 1])
                h1m, h2m = domain.factors(mx, my)
                return np.sqrt((h1m * (v[:, 0] - u[:, 0])) ** 2
                               + (h2m * (v[:, 1] - u[:, 1])) ** 2)

            chord = seg_len(p1, p2)
            halves = seg_len(p1, mid) + seg_len(mid, p2)
            arc = (4.0 * halves - chord) / 3.0  # Richardson: removes O(h^2) chord error
            wgt = (weight(p1[:, 0], p1[:, 1]) + 4.0 * weight(mid[:, 0], mid[:, 1])
                   + weight(p2[:, 0], p2[:, 1])) / 6.0
            lengths[idx] = float(np.sum(arc * wgt))
        rhs += float(np.sum(wq * lengths))

    return CheckPair(lhs=lhs, rhs=rhs, flagged=flagged, flag_reason=flag_reason)
