"""Kac-Rice density evaluators and closed-form expected counts.

The general evaluator ``density_point`` computes the density of the expected
counting measure of {p : X(p) in W} at a base point p:

    rho(p) = ∫_W  E{ alpha * |det(nu(y)^T d_pX)|  |  X(p) = y }
             * phi_{K0}(y)  dW(y)

by fiber cubature over W and Monte Carlo over the conditional jet law
(Gaussian regression; for isotropic fields the value and the derivative are
independent and the conditioning drops).  K0 = Cov X(p) is checked once per
base point, and phi_{K0} of every fiber node is computed before the jet loop
projects the jets onto each node's normals.  ``expected_count`` integrates it
over a region of the base manifold.  Closed forms for isotropic fields on
spheres (point counts, Shub-Smale, mixed Kostlan) and Poincaré's kinematic
formula on S^2 are exact and carry zero standard error.  Everything is
deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .estimate import Estimate
from .fields import (
    FieldModel,
    isotropic_sigmas,
    jet_covariance,
    pivoted_cholesky,
    require_nonsingular,
)
from .level_sets import LevelSetW, unit_ball_volume
from .quadrature import Region

# Volume of SO(3) under the bi-invariant metric scaled so that the orbit map
# onto the unit sphere is a Riemannian submersion (fibers have length 2*pi).
VOL_SO3 = 8.0 * math.pi**2


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

# A per-solution weight alpha on the jet at the base point: weight(proj, y, p)
# maps the normal projections nu(y)^T d_pX (n, m, m) of the sampled jets, the
# fiber node y and the base point p to (n,) weights; proj is overwritten at
# the next node.  The unit weight reproduces the plain count bit-for-bit.
WeightFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def unit_weight() -> WeightFn:
    return lambda proj, y, p: np.ones(proj.shape[0])


def sign_weight() -> WeightFn:
    """Intersection-degree weight: the orientation sign of the projected jet.

    Ties (vanishing determinant) get weight 0, so transversality failures
    contribute nothing instead of crashing the estimator.
    """
    return lambda proj, y, p: np.sign(np.linalg.det(proj))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def isotropic_point_count(sigma0, sigma1, y) -> float:
    """E #X^{-1}(y) for an isotropic field on S^m with jet (Sigma_0, Sigma_1):

        2 * sqrt(det Sigma_1 / det Sigma_0) * exp(-y^T Sigma_0^{-1} y / 2).

    Exact; invariant under rescaling the field when y = 0.
    """
    s0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    s1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    require_nonsingular(s0, "Sigma_0")
    # det(Sigma_0^{-1} Sigma_1): scale invariant, so rescaling the field
    # (Sigma_i -> c^2 Sigma_i) leaves the count at y = 0 exactly unchanged.
    ratio = float(np.linalg.det(np.linalg.solve(s0, s1)))
    if ratio <= 0.0:
        return 0.0
    with np.errstate(over="ignore"):  # a quadratic form past the float range counts 0
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
    require_nonsingular(s0, "Sigma_0")
    if W.codim != m:
        raise DomainError("the target codimension must equal the sphere dimension")
    k = W.ambient_dim

    def evaluate(n: int) -> float:
        nodes, weights, nus = W.framed_nodes(n)  # nus (N, k, m)
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
    p = np.asarray(p, dtype=float)
    k = model.output_dim

    # The conditional covariance of the jet given X(p) = y does not depend on
    # y, so one factor serves every fiber node; only the mean a @ y shifts.
    # For isotropic models (zero cross block) a is None and the conditioning
    # drops.  conditional() also rejects a numerically singular K0, so K0 is
    # checked once here and its determinant serves every node's density.
    jc = jet_covariance(model, p, tangent_frame)
    a, cov = jc.conditional()
    factor = pivoted_cholesky(cov)

    nodes, wts, nus = W.framed_nodes(fiber_nodes)
    if nodes.shape[0] == 0:
        raise ConfigurationError("no usable fiber nodes on the target")

    # phi_{K0}(y) of each node, with each node solved as its own right-hand
    # side: one solve with all nodes as columns rounds differently.
    sol = np.linalg.solve(np.broadcast_to(jc.K0, (len(nodes), k, k)), nodes[:, :, None])[:, :, 0]
    dens = np.array([math.exp(-0.5 * float(y @ s)) for y, s in zip(nodes, sol)])
    norm = (2.0 * math.pi) ** (k / 2.0) * math.sqrt(float(np.linalg.det(jc.K0)))
    node_wts = wts * (dens / norm)

    z = np.random.default_rng(seed).standard_normal((n_samples, factor.shape[0]))
    cols = np.ascontiguousarray((z @ factor.T).T)  # (mk, n): row l k + i is d_l X_i
    del z

    per_sample = np.zeros(n_samples)
    node_means = np.zeros(len(nodes))
    jacs = np.empty((n_samples, m, m))  # nu(y)^T d_pX, one (m, m) matrix per jet
    for j, y in enumerate(nodes):
        jets = cols if a is None else cols + (a @ y)[:, None]
        nu = nus[j]
        # jacs[:, r, l] = sum_i nu[i, r] * jets[l k + i], accumulated in i order.
        for r, l in np.ndindex(m, m):
            out = np.multiply(nu[0, r], jets[l * k], out=jacs[:, r, l])
            for i in range(1, k):
                out += nu[i, r] * jets[l * k + i]
        dets = jacs[:, 0, 0] if m == 1 else np.linalg.det(jacs)
        alpha = node_wts[j] if weight is None else node_wts[j] * weight(jacs, y, p)
        contrib = alpha * np.abs(dets)
        per_sample += contrib
        node_means[j] = np.abs(contrib).sum() / n_samples

    # Tail audit for truncated non-compact targets: flag if the outermost
    # tenth of the fiber nodes still carries a visible share of the mass.
    # Targets whose nodes all sit at one radius (circles) have no tail.
    flagged, reason = False, ""
    radii = np.linalg.norm(nodes, axis=1)
    if nodes.shape[0] >= 16 and np.ptp(radii) > 1e-9 * radii.max():
        mass = node_means[np.argsort(radii)]
        total = mass.sum()
        tail = mass[int(0.9 * mass.size):].sum()
        if total > 0 and tail > 1e-3 * total:
            flagged = True
            reason = "fiber integral mass has not decayed at the truncation radius"

    return Estimate.from_samples(per_sample, seed, "density_point",
                                 flagged=flagged, flag_reason=reason)


def expected_count(model: FieldModel, W: LevelSetW, region: Region,
                   n_samples: int = 20_000, fiber_nodes: int = 256,
                   weight: Optional[WeightFn] = None, seed: int = 0) -> Estimate:
    """Integral of the Kac-Rice density over a region of the base manifold."""
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

def kinematic_rhs_sphere(curve1, curve2) -> float:
    """Kinematic average of #(g . curve1 ∩ curve2) over probability-Haar g.

    Poincaré's formula on S^2 = SO(3)/SO(2): the stabilizer turns one normal
    line through every direction, so the fiber mean of |sin| of the angle
    between the normal lines is 2/pi at every pair of points, and the double
    line integral divided by vol(SO(3)) = 8 pi^2 is 4 L1 L2 / 8 pi^2 =
    L1 L2 / (2 pi^2) (Santaló 1976, ch. 18).  It is directly comparable to a
    Monte Carlo mean over uniform rotations.
    """
    return 4.0 * curve1.length * curve2.length / VOL_SO3


# ---------------------------------------------------------------------------
# Sub-Gaussian concentration diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgaussianFit:
    """Fitted growth exponent of log Vol(W ∩ B_R) against R^2."""

    eps_hat: float


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
    r_fit = radii[-max(radii.size // 2, 3):]
    try:
        with np.errstate(over="raise"):
            v_fit = np.array([W.volume_in_ball(r) for r in r_fit])
            if not np.all((v_fit > 0.0) & (v_fit < np.inf)):
                raise ConfigurationError("volumes must be finite and positive at the fitted radii")
            x, y = r_fit**2, np.log(v_fit)
            # A saturated (compact) target has slope 0.
            slope = 0.0 if np.ptp(x) == 0.0 or np.ptp(y) == 0.0 else float(np.polyfit(x, y, 1)[0])
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigurationError("ball volumes or the growth fit overflow a float") from exc
    return SubgaussianFit(eps_hat=slope)
