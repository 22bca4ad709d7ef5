"""Kac-Rice density evaluators and closed-form expected counts.

The general evaluator ``density_point`` computes the density of the expected
counting measure of {p : X(p) in W} at a base point p:

    rho(p) = ∫_W  E{ alpha * |det(nu(y)^T d_pX)|  |  X(p) = y }
             * gaussian_density(y; K0)  dW(y)

by fiber cubature over W and Monte Carlo over the conditional jet law
(Gaussian regression; for isotropic fields the value and the derivative are
independent and the conditioning drops).  ``expected_count`` integrates it
over a region of the base manifold.  Closed forms for isotropic fields on
spheres (point counts, Shub-Smale, mixed Kostlan) are exact and carry zero
standard error.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateModelError, DomainError
from .estimate import Estimate
from .fields import (
    EIG_FLOOR,
    FieldModel,
    isotropic_sigmas,
    jet_covariance,
    pivoted_cholesky,
    smallest_eigenvalue,
)
from .level_sets import GaussianRegion, LevelSetW, unit_ball_volume
from .linalg import sine_angle_lines
from .quadrature import Region

# Volume of SO(3) under the bi-invariant metric scaled so that the orbit map
# onto the unit sphere is a Riemannian submersion (fibers have length 2*pi).
VOL_SO3 = 8.0 * math.pi**2


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFn:
    """A per-solution weight alpha evaluated on the jet at the base point.

    ``evaluate(dx, projected, y, p)`` receives the sampled derivative
    matrices dx (n, k, m), their normal projections nu(y)^T dx (n, m, m),
    the fiber node y and the base point p, and returns (n,) weights.
    The unit weight reproduces the plain count bit-for-bit.
    """

    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    bounded: bool = True
    label: str = "custom"


def unit_weight() -> WeightFn:
    return WeightFn(lambda dx, proj, y, p: np.ones(dx.shape[0]), bounded=True, label="unit")


def sign_weight() -> WeightFn:
    """Intersection-degree weight: the orientation sign of the projected jet.

    Ties (vanishing determinant) get weight 0, so transversality failures
    contribute nothing instead of crashing the estimator.
    """
    return WeightFn(lambda dx, proj, y, p: np.sign(np.linalg.det(proj)),
                    bounded=True, label="sign")


# ---------------------------------------------------------------------------
# Gaussian density and closed forms
# ---------------------------------------------------------------------------

def gaussian_density(y: np.ndarray, cov: np.ndarray) -> float:
    """Standard centered Gaussian density on R^k at y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    k = y.size
    if smallest_eigenvalue(cov) <= EIG_FLOOR:
        raise DegenerateModelError("Gaussian density requires an SPD covariance")
    quad = float(y @ np.linalg.solve(cov, y))
    det = float(np.linalg.det(cov))
    return math.exp(-0.5 * quad) / ((2.0 * math.pi) ** (k / 2.0) * math.sqrt(det))


def isotropic_point_count(sigma0, sigma1, y) -> float:
    """E #X^{-1}(y) for an isotropic field on S^m with jet (Sigma_0, Sigma_1):

        2 * sqrt(det Sigma_1 / det Sigma_0) * exp(-y^T Sigma_0^{-1} y / 2).

    Exact; invariant under rescaling the field when y = 0.
    """
    s0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    s1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if smallest_eigenvalue(s0) <= EIG_FLOOR:
        raise DegenerateModelError("Sigma_0 must be positive definite")
    # det(Sigma_0^{-1} Sigma_1): scale invariant, so rescaling the field
    # (Sigma_i -> c^2 Sigma_i) leaves the count at y = 0 exactly unchanged.
    ratio = float(np.linalg.det(np.linalg.solve(s0, s1)))
    if ratio <= 0.0:
        return 0.0
    quad = float(y @ np.linalg.solve(s0, y))
    return 2.0 * math.sqrt(ratio) * math.exp(-0.5 * quad)


def shub_smale(degrees: Sequence[float]) -> float:
    """Expected number of projective common zeros of independent Kostlan
    polynomials: sqrt(d_1 * ... * d_m)."""
    degrees = list(degrees)
    if any(d <= 0 for d in degrees):
        raise DomainError("degrees must be positive")
    return math.sqrt(math.prod(degrees))


def mixed_kostlan_count(coeff_mats: Sequence[np.ndarray]) -> float:
    """E #X^{-1}(0) on S^m for the mixed Kostlan field sum_l A_l psi_l:

        2 * sqrt(det(sum_l l A_l A_l^T) / det(sum_l A_l A_l^T)).

    The ratio orientation is fixed by the pure-degree-d consistency check
    (A_d = I alone must give 2 sqrt(d^m), twice the Shub-Smale count) and is
    confirmed against the realization-counting oracle in the test suite.
    """
    s0, s1 = isotropic_sigmas(coeff_mats)
    return isotropic_point_count(s0, s1, np.zeros(s0.shape[0]))


def sphere_volume(m: int) -> float:
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def gamma_identity_check(m: int) -> tuple[float, float]:
    """(vol(S^m) vol(B^m) m!,  2 (2 pi)^m): equal for every m >= 1."""
    if m < 1:
        raise DomainError("m must be >= 1")
    lhs = sphere_volume(m) * unit_ball_volume(m) * math.factorial(m)
    rhs = 2.0 * (2.0 * math.pi) ** m
    return lhs, rhs


def isotropic_sphere_count(sigma0, sigma1, W: LevelSetW, m: int,
                           n_nodes: int = 512) -> Estimate:
    """E #X^{-1}(W) for an isotropic field S^m -> R^k and codimension-m W:

        2 ∫_W sqrt(det(nu^T Sigma_1 nu)) exp(-y^T Sigma_0^{-1} y / 2)
              / ((2 pi)^{(k-m)/2} sqrt(det Sigma_0))  dW(y)

    evaluated by the target's fiber cubature; the standard error is the
    refinement delta between the full- and half-resolution rules.
    """
    s0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    s1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    if smallest_eigenvalue(s0) <= EIG_FLOOR:
        raise DegenerateModelError("Sigma_0 must be positive definite")
    if W.codim != m:
        raise DomainError("the target codimension must equal the sphere dimension")
    k = W.ambient_dim

    def evaluate(n: int) -> float:
        nodes, weights = W.nodes(n)
        nus = W.framing(nodes)  # (N, k, m)
        keep = np.all(np.isfinite(nus.reshape(nodes.shape[0], -1)), axis=1)
        nodes, weights, nus = nodes[keep], weights[keep], nus[keep]
        quad = np.einsum("ni,ij,nj->n", nodes, np.linalg.inv(s0), nodes)
        gram = np.einsum("nki,kl,nlj->nij", nus, s1, nus)
        dets = np.linalg.det(gram) if m > 1 else gram[:, 0, 0]
        dets = np.clip(dets, 0.0, None)
        dens = np.exp(-0.5 * quad) / (
            (2.0 * math.pi) ** ((k - m) / 2.0) * math.sqrt(float(np.linalg.det(s0))))
        return 2.0 * float(np.sum(weights * np.sqrt(dets) * dens))

    full = evaluate(n_nodes)
    half = evaluate(max(n_nodes // 2, 1))
    return Estimate(value=full, std_error=abs(full - half), n=n_nodes, seed=0,
                    method="isotropic_sphere_count")


# ---------------------------------------------------------------------------
# General density evaluator
# ---------------------------------------------------------------------------

def _conditional_jet_sampler(model: FieldModel, p: np.ndarray,
                             tangent_frame: Optional[np.ndarray]):
    """Common machinery: returns (gauss cov K0, mean_fn(y) -> (mk,), factor L).

    The conditional covariance of the jet given X(p) = y does not depend on
    y, so one factor serves every fiber node; only the mean shifts.  For
    isotropic models (zero cross block) the mean is identically zero and the
    conditioning drops entirely.
    """
    jc = jet_covariance(model, p, tangent_frame)
    a, cov = jc.conditional()
    mean_fn = None if a is None else (lambda y: a @ y)
    return jc.K0, mean_fn, pivoted_cholesky(cov)


def density_point(model: FieldModel, W: LevelSetW, p: np.ndarray,
                  n_samples: int = 20_000, fiber_nodes: int = 256,
                  weight: Optional[WeightFn] = None, seed: int = 0,
                  tangent_frame: Optional[np.ndarray] = None) -> Estimate:
    """Kac-Rice density of the expected counting measure at a base point."""
    if W.ambient_dim != model.output_dim:
        raise DomainError("target ambient dimension must equal the field output dimension")
    m = model.domain.m
    if W.codim != m:
        raise DomainError("target codimension must equal the base dimension")
    wfn = unit_weight() if weight is None else weight
    p = np.asarray(p, dtype=float)
    k = model.output_dim

    k0, mean_fn, factor = _conditional_jet_sampler(model, p, tangent_frame)

    nodes, wts = W.nodes(fiber_nodes)
    nus = W.framing(nodes)
    finite = np.all(np.isfinite(nus.reshape(nodes.shape[0], -1)), axis=1)
    nodes, wts, nus = nodes[finite], wts[finite], nus[finite]  # skip framing-degenerate strata
    if nodes.shape[0] == 0:
        raise ConfigurationError("no usable fiber nodes on the target")

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, factor.shape[0]))
    base = z @ factor.T  # (n, mk), direction-major

    per_sample = np.zeros(n_samples)
    node_means = np.zeros(nodes.shape[0])
    for j in range(nodes.shape[0]):
        jets = base if mean_fn is None else base + mean_fn(nodes[j])
        dx = jets.reshape(n_samples, m, k).transpose(0, 2, 1)  # (n, k, m)
        proj = np.einsum("km,nkl->nml", nus[j], dx)
        dets = np.linalg.det(proj) if m > 1 else proj[:, 0, 0]
        alpha = wfn.evaluate(dx, proj, nodes[j], p)
        dens = gaussian_density(nodes[j], k0)
        contrib = wts[j] * dens * alpha * np.abs(dets)
        per_sample += contrib
        node_means[j] = float(np.mean(np.abs(contrib)))

    value = float(per_sample.mean())
    se = float(per_sample.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0

    # Tail audit for truncated non-compact targets: flag if the outermost
    # tenth of the fiber nodes still carries a visible share of the mass.
    # Targets whose nodes all sit at one radius (circles) have no tail.
    flagged = False
    reason = ""
    radii = np.linalg.norm(nodes, axis=1)
    if nodes.shape[0] >= 16 and np.ptp(radii) > 1e-9 * radii.max():
        order = np.argsort(radii)
        mass = node_means[order]
        total = mass.sum()
        tail = mass[int(0.9 * mass.size):].sum()
        if total > 0 and tail > 1e-3 * total:
            flagged = True
            reason = "fiber integral mass has not decayed at the truncation radius"

    return Estimate(value=value, std_error=se, n=n_samples, seed=seed,
                    method="density_point", flagged=flagged, flag_reason=reason)


def expected_count(model: FieldModel, W, region: Region,
                   n_samples: int = 20_000, fiber_nodes: int = 256,
                   weight: Optional[WeightFn] = None, seed: int = 0) -> Estimate:
    """Integral of the Kac-Rice density over a region of the base manifold.

    For dimension-0 regions the count is the sum of the marginal
    probabilities P{X(p) in W} over the region's points, and W must be a
    GaussianRegion (an open subset of the value space).
    """
    if region.dim == 0:
        if not isinstance(W, GaussianRegion):
            raise ConfigurationError("dimension-0 regions need an open-region target")
        total, var = 0.0, 0.0
        for idx, p in enumerate(region.nodes):
            cov = model.kernel(p, p)
            prob, se = W.probability(cov, seed=seed + idx)
            total += prob
            var += se * se
        return Estimate(value=total, std_error=math.sqrt(var), n=region.nodes.shape[0],
                        seed=seed, method="expected_count_dim0")

    if not isinstance(W, LevelSetW):
        raise ConfigurationError("positive-dimension regions need a level-set target")
    children = np.random.SeedSequence(seed).generate_state(region.nodes.shape[0])
    total = 0.0
    var = 0.0
    flagged = False
    reasons = []
    for p, w, child in zip(region.nodes, region.weights, children):
        est = density_point(model, W, p, n_samples=n_samples, fiber_nodes=fiber_nodes,
                            weight=weight, seed=int(child))
        total += w * est.value
        var += (w * est.std_error) ** 2
        if est.flagged:
            flagged = True
            reasons.append(est.flag_reason)
    return Estimate(value=total, std_error=math.sqrt(var), n=n_samples, seed=seed,
                    method="expected_count", flagged=flagged,
                    flag_reason="; ".join(dict.fromkeys(reasons)))


# ---------------------------------------------------------------------------
# Kinematic formula on S^2 (rotations of one curve against another)
# ---------------------------------------------------------------------------

def _pulled_back_normals(curve, n: int):
    """Curve quadrature plus the normal lines moved to the reference tangent plane.

    Each base point x is written as mu . e_z for a rotation mu; the normal
    line of the curve at x is carried to the tangent plane at e_z (the xy
    plane) by mu^{-1}, where lines from different points can be compared.
    """
    from .curves import rotation_from_z

    pts, _, normals, weights = curve.quadrature(n)
    planar = np.empty((n, 2))
    for i in range(n):
        mu = rotation_from_z(pts[i])
        v = mu.T @ normals[i]
        planar[i] = v[:2]
    return planar, weights


def kinematic_rhs_sphere(curve1, curve2, n_curve_nodes: int = 96,
                         n_frame_nodes: int = 256) -> Estimate:
    """Kinematic average of #(g . curve1 ∩ curve2) over probability-Haar g.

    Numerically evaluates the double line integral of the fiber-averaged
    angle between pulled-back normal lines, divided by vol(SO(3)) = 8 pi^2
    so the result is directly comparable to a Monte Carlo mean over uniform
    rotations.  The unimodularity factor of the rotation group is 1.
    """

    def evaluate(n: int) -> float:
        a, wa = _pulled_back_normals(curve1, n)
        b, wb = _pulled_back_normals(curve2, n)
        t = 2.0 * math.pi * (np.arange(n_frame_nodes) + 0.5) / n_frame_nodes
        ct, st = np.cos(t), np.sin(t)
        # b rotated by every frame angle: (ny, nt, 2)
        brot = np.stack([b[:, 0, None] * ct - b[:, 1, None] * st,
                         b[:, 0, None] * st + b[:, 1, None] * ct], axis=2)
        sines = sine_angle_lines(a[:, None, None, :], brot[None, :, :, :])
        sigma_bar = 2.0 * math.pi * sines.mean(axis=2)  # unnormalized fiber integral
        return float(wa @ sigma_bar @ wb) / VOL_SO3

    full = evaluate(n_curve_nodes)
    half = evaluate(max(n_curve_nodes // 2, 8))
    return Estimate(value=full, std_error=abs(full - half),
                    n=n_curve_nodes * n_curve_nodes * n_frame_nodes, seed=0,
                    method="kinematic_rhs_sphere")


# ---------------------------------------------------------------------------
# Sub-Gaussian concentration diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgaussianFit:
    """Fitted growth exponent of log Vol(W ∩ B_R) against R^2."""

    eps_hat: float
    radii: np.ndarray
    volumes: np.ndarray


def subgaussian_diagnostic(W: LevelSetW, R_grid: Sequence[float]) -> SubgaussianFit:
    """Least-squares slope of log Vol(W ∩ B_R) vs R^2 over the largest radii.

    A slope near 0 indicates sub-Gaussian concentration (polynomial or
    saturating growth); a slope near epsilon indicates e^{epsilon R^2} growth.
    """
    radii = np.asarray(sorted(float(r) for r in R_grid))
    if radii.size < 3:
        raise ConfigurationError("need at least 3 radii to fit a growth exponent")
    if W.volume_in_ball is None:
        raise ConfigurationError("target carries no ball-volume evaluator")
    vols = np.array([W.volume_in_ball(r) for r in radii])
    take = max(radii.size // 2, 3)
    r_fit, v_fit = radii[-take:], vols[-take:]
    if np.any(v_fit <= 0.0):
        raise ConfigurationError("volumes must be positive over the fitted radii")
    x = r_fit**2
    y = np.log(v_fit)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:  # saturated (compact) targets
        slope = 0.0
    else:
        slope = float(np.polyfit(x, y, 1)[0])
    return SubgaussianFit(eps_hat=slope, radii=radii, volumes=vols)
