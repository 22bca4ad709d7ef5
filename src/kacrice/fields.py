"""Finite-rank Gaussian random fields: kernels, first jets, regression, sampling.

A field is X(x) = Phi(x) c with a fixed basis matrix Phi(x) (output_dim x
n_coeffs) and a centered Gaussian coefficient vector c ~ N(0, coeff_cov).
Phi(x) is one monomial basis, a column per coefficient, times one mixing
matrix (``FieldModel``).  Everything downstream (covariance kernels, jet
covariances, Gaussian regression, conditioning) is exact linear algebra on
that representation; sampling has no truncation error, and a conditioned
sample is a realization of the same model with shifted coefficients.

Supported domains are the unit circle S^1 in R^2, the unit sphere S^2 in
R^3, and the cube [0, 1]^m; points are always given in ambient coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateModelError, DomainError

EIG_FLOOR = 1e-12  # non-degeneracy threshold for covariance blocks
COV_TOL = 1e-10    # relative symmetry and PSD tolerance of a coefficient covariance
FACTOR_TOL = 1e-8  # largest relative entry of F F^T - cov that a factor may leave


# ---------------------------------------------------------------------------
# Domains and tangent frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """A base manifold: name, intrinsic dim m, ambient dim."""

    name: str          # "circle" | "sphere" | "cube"
    m: int
    ambient_dim: int

    def tangent_frame(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal tangent basis at p, columns, shape (ambient_dim, m).

        The frame rule is fixed and deterministic so results are reproducible;
        estimators must be invariant under replacing it by any rotation of it.
        """
        p = np.asarray(p, dtype=float)
        if self.name == "circle":
            return np.array([[-p[1]], [p[0]]])
        if self.name == "sphere":
            t1, t2 = sphere_tangent_frames(p[None, :])
            return np.stack([t1[0], t2[0]], axis=1)
        return np.eye(self.ambient_dim)  # cube


def sphere_tangent_frames(pts: np.ndarray):
    """Orthonormal tangent frames (t1, t2) at unit vectors pts (N, 3), t2 = p x t1.

    t1 is the normalized azimuthal direction (-y, x, 0), or e_1 projected onto
    the tangent plane within 1e-8 of the poles, where the former vanishes.
    """
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    polar = np.abs(z) > 1.0 - 1e-8
    t1 = np.stack([-y, x, np.zeros_like(z)], axis=1)
    t1_polar = np.stack([np.ones_like(z), np.zeros_like(z), np.zeros_like(z)], axis=1)
    t1 = np.where(polar[:, None], t1_polar - (t1_polar * pts).sum(1, keepdims=True) * pts, t1)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(pts, t1)
    return t1, t2


def circle_domain() -> Domain:
    return Domain("circle", 1, 2)


def sphere_domain() -> Domain:
    return Domain("sphere", 2, 3)


def cube_domain(m: int) -> Domain:
    return Domain("cube", m, m)


def unit_sphere(m: int) -> Domain:
    """S^1 or S^2 by intrinsic dimension."""
    if m not in (1, 2):
        raise DomainError(f"unsupported sphere dimension m={m}")
    return circle_domain() if m == 1 else sphere_domain()


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------

def _monomial_exponents(n_vars: int, degree: int) -> np.ndarray:
    """All exponent multi-indices of total degree == degree, ordered lexicographically."""
    if n_vars == 1:
        return np.array([[degree]])
    rows = []
    for lead in range(degree, -1, -1):
        for tail in _monomial_exponents(n_vars - 1, degree - lead):
            rows.append([lead, *tail])
    return np.array(rows)


class MonomialBasis:
    """Scalar monomials x^alpha with per-monomial scaling coefficients.

    Evaluation goes through per-variable power tables (cumulative products)
    instead of float exponentiation.
    """

    def __init__(self, exponents: np.ndarray, scales: np.ndarray):
        self.exponents = np.asarray(exponents, dtype=int)
        self.scales = np.asarray(scales, dtype=float)
        self.n_funcs = self.exponents.shape[0]
        self.n_vars = self.exponents.shape[1]

    def _power_tables(self, pts: np.ndarray) -> list[np.ndarray]:
        """Per variable v, rows t[e] = x_v^e (e_max + 1, N) as cumulative products."""
        tables = []
        for v in range(self.n_vars):
            t = np.empty((int(self.exponents[:, v].max()) + 1, pts.shape[0]))
            t[0] = 1.0
            if pts.shape[0] < 128:  # accumulate costs per point, the row loop per row
                t[1:] = pts[:, v]
                np.multiply.accumulate(t, axis=0, out=t)
            else:
                for e in range(1, t.shape[0]):
                    np.multiply(t[e - 1], pts[:, v], out=t[e])
            tables.append(t)
        return tables

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Values at points (N, n_vars) -> (N, n_funcs)."""
        tabs = self._power_tables(np.atleast_2d(pts))
        vals = tabs[0][self.exponents[:, 0]]  # (n_funcs, N) rows x_0^alpha_0
        for v in range(1, self.n_vars):
            vals *= tabs[v][self.exponents[:, v]]
        return np.multiply(vals.T, self.scales, order="C")

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        """Gradients at points (N, n_vars) -> (N, n_funcs, n_vars)."""
        pts = np.atleast_2d(pts)
        tabs = self._power_tables(pts)
        cols = [tabs[v][self.exponents[:, v]] for v in range(self.n_vars)]
        out = np.empty((pts.shape[0], self.n_funcs, self.n_vars))
        for j in range(self.n_vars):
            e = self.exponents[:, j]
            g = e[:, None] * tabs[j][np.maximum(e - 1, 0)]  # e=0 rows vanish
            for v in range(self.n_vars):
                if v != j:
                    g *= cols[v]
            out[:, :, j] = g.T * self.scales
        return out


def kostlan_basis(n_vars: int, degree: int) -> MonomialBasis:
    """Degree-d homogeneous monomials with square-root multinomial weights."""
    exps = _monomial_exponents(n_vars, degree)
    # log a! of the exact integer: float(a!) overflows from a = 171 on.
    log_fact = np.array([math.log(math.factorial(a)) for a in range(degree + 1)])
    logs = np.array([0.5 * (log_fact[degree] - sum(log_fact[row])) for row in exps])
    return MonomialBasis(exps, np.exp(logs))


# ---------------------------------------------------------------------------
# Field models
# ---------------------------------------------------------------------------

class FieldModel:
    """A finite-rank centered Gaussian random field on a domain.

    X(x) = Phi(x) c with Phi(x)[i, j] = mixing[i, j] basis(x)[j]: one
    MonomialBasis with a column per coefficient times a (k, n_coeffs) matrix.
    ``components`` lists (mix, basis) pairs, a (k, b) ``mix`` applied to b
    channels of ``basis`` with independent coefficients; each channel adds the
    basis's monomials to ``basis`` and its mix column, once per monomial, to
    ``mixing``.  ``coeff_cov`` defaults to the identity, and a given one must
    be finite, symmetric and PSD up to COV_TOL times its largest entry.
    """

    def __init__(self, domain: Domain, components, output_dim: int,
                 coeff_cov: Optional[np.ndarray] = None):
        self.domain = domain
        self.output_dim = output_dim
        exponents, scales, mixing = [], [], []
        for mix, basis in components:
            mix = np.atleast_2d(np.asarray(mix, dtype=float))
            if mix.shape[0] != output_dim:
                raise DomainError("mixing matrix height must equal output_dim")
            exponents += [basis.exponents] * mix.shape[1]
            scales += [basis.scales] * mix.shape[1]
            mixing.append(np.repeat(mix, basis.n_funcs, axis=1))
        self.basis = MonomialBasis(np.concatenate(exponents), np.concatenate(scales))
        self.mixing = np.concatenate(mixing, axis=1)
        self.n_coeffs = self.mixing.shape[1]
        if coeff_cov is None:
            self.coeff_cov = np.eye(self.n_coeffs)
        else:
            self.coeff_cov = np.asarray(coeff_cov, dtype=float)
            if self.coeff_cov.shape != (self.n_coeffs, self.n_coeffs):
                raise DomainError("coefficient covariance shape mismatch")
            cov = self.coeff_cov
            tol = COV_TOL * np.abs(cov).max(initial=0.0)
            if not (np.isfinite(cov).all() and np.abs(cov - cov.T).max(initial=0.0) <= tol
                    and (cov.size == 0 or smallest_eigenvalue(cov) >= -tol)):
                raise DomainError("coefficient covariance must be finite, symmetric and PSD")
        self._factor: Optional[np.ndarray] = None

    # -- basis matrices ----------------------------------------------------

    def phi(self, pts: np.ndarray) -> np.ndarray:
        """Basis matrix at points: (N, output_dim, n_coeffs)."""
        return self.basis.evaluate(np.asarray(pts, dtype=float))[:, None, :] * self.mixing

    def dphi(self, pts: np.ndarray) -> np.ndarray:
        """Ambient basis gradients: (N, output_dim, n_coeffs, ambient_dim)."""
        return self.basis.gradient(np.asarray(pts, dtype=float))[:, None] * self.mixing[:, :, None]

    # -- covariance structure ----------------------------------------------

    def kernel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Covariance K(x, y) = E{X(x) X(y)^T}, shape (k, k)."""
        px = self.phi(np.asarray(x, float)[None, :])[0]
        py = self.phi(np.asarray(y, float)[None, :])[0]
        return px @ self.coeff_cov @ py.T

    def jet_matrices(self, p: np.ndarray, tangent_frame: Optional[np.ndarray] = None):
        """(Phi(p), D(p)): value rows (k, R) and derivative rows (m*k, R).

        Derivative rows are direction-major: m blocks of k rows, block i
        holding the basis derivatives along the i-th tangent frame vector.
        """
        p = np.asarray(p, dtype=float)
        frame = self.domain.tangent_frame(p) if tangent_frame is None else tangent_frame
        val = self.phi(p[None, :])[0]                    # (k, R)
        grad = self.dphi(p[None, :])[0]                  # (k, R, amb)
        der = np.einsum("krv,vi->ikr", grad, frame)      # (m, k, R)
        return val, der.reshape(-1, self.n_coeffs)

    def _cholesky_factor(self) -> np.ndarray:
        if self._factor is None:
            self._factor = pivoted_cholesky(self.coeff_cov)
        return self._factor


@dataclass(frozen=True)
class JetCovariance:
    """Joint covariance of (X(p), d_p X) in an orthonormal tangent frame.

    Block layout is direction-major: the derivative vector stacks m blocks
    of size k, one per tangent direction, so for isotropic models
    K1 = I_m ⊗ Sigma_1 (block-diagonal with equal blocks) and K01 = 0.
    """

    K0: np.ndarray    # (k, k)
    K01: np.ndarray   # (k, m*k)
    K1: np.ndarray    # (m*k, m*k)

    def full(self) -> np.ndarray:
        top = np.hstack([self.K0, self.K01])
        bot = np.hstack([self.K01.T, self.K1])
        return np.vstack([top, bot])

    def conditional(self):
        """Law of the derivative jet given X(p) = y: (A or None, C).

        The conditional mean is A y with A = K01^T K0^{-1} (m*k, k), and the
        covariance C = K1 - K01^T K0^{-1} K01 does not depend on y.  When the
        cross block is negligible (isotropic models) A is None and C is K1.
        """
        require_nonsingular(self.K0, "K0 at the base point")
        scale = max(np.abs(self.K0).max(), np.abs(self.K1).max(), 1.0)
        if np.abs(self.K01).max() <= 1e-12 * scale:
            return None, self.K1
        a = np.linalg.solve(self.K0, self.K01).T
        return a, self.K1 - a @ self.K01


def smallest_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def require_nonsingular(mat: np.ndarray, what: str) -> None:
    if smallest_eigenvalue(mat) <= EIG_FLOOR:
        raise DegenerateModelError(f"{what} is numerically singular")


def pivoted_cholesky(cov: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = cov for symmetric PSD cov (rank-revealing).

    Uses LAPACK's pivoted Cholesky and clamps the numerically-semidefinite
    trailing block to zero, so degenerate test covariances work unchanged.
    A diagonal cov (every Kostlan model) replays dpstrf's pivots and rank on
    its diagonal, bit for bit, so scipy is imported only for correlated ones.
    A cov that F F^T misses by over FACTOR_TOL (relative) raises DegenerateModelError.
    """
    a = np.asarray(cov, dtype=float)
    n = a.shape[0]
    if n == 0:
        return a.copy()
    if a.tobytes() == np.diag(np.diagonal(a)).tobytes():  # +0.0 off it: dpstrf keeps a -0.0
        d, c, piv, rank = np.diagonal(a).tolist(), np.zeros((n, n)), np.arange(1, n + 1), 0
        stop = n * 2.0 ** -53 * max(d)  # dpstrf's n * dlamch('E') * max
        while rank < n:
            j = d.index(max(d[rank:]), rank)  # dpstrf pivots on the first maximum
            if not d[j] > (stop if rank else 0.0):  # and tests its first pivot against 0
                break
            d[rank], d[j], piv[rank], piv[j] = d[j], d[rank], piv[j], piv[rank]
            c[rank, rank] = math.sqrt(d[rank])
            rank += 1
    else:
        from scipy.linalg import lapack
        c, piv, rank, _ = lapack.dpstrf(a, lower=1)
        c = np.tril(c)
    c[:, rank:] = 0.0
    f = c[np.argsort(piv - 1)]
    if not np.abs(f @ f.T - a).max() <= FACTOR_TOL * np.abs(a).max():
        raise DegenerateModelError("covariance is not positive semidefinite")
    return f


def jet_covariance(model: FieldModel, p: np.ndarray,
                   tangent_frame: Optional[np.ndarray] = None) -> JetCovariance:
    """Covariance blocks of the first jet (X(p), d_p X)."""
    val, der = model.jet_matrices(p, tangent_frame)
    cov = model.coeff_cov
    k0 = val @ cov @ val.T
    k01 = val @ cov @ der.T
    k1 = der @ cov @ der.T
    return JetCovariance(K0=k0, K01=k01, K1=k1)


# ---------------------------------------------------------------------------
# Standard models
# ---------------------------------------------------------------------------

def kostlan_model(m: int, d: int, k: int = 1) -> FieldModel:
    """Independent Kostlan polynomials of degree d restricted to S^m.

    The covariance kernel is <x, y>^d I_k; the jet has Sigma_0 = I_k,
    Sigma_1 = d I_k in any orthonormal tangent frame.
    """
    domain = unit_sphere(m)
    if d < 0:
        raise DomainError("degree must be >= 0")
    basis = kostlan_basis(domain.ambient_dim, d)
    return FieldModel(domain, [(np.eye(k), basis)], k)


def isotropic_model(coeff_mats: Sequence[np.ndarray], m: int = 1) -> FieldModel:
    """Mixed Kostlan field X = sum_l A_l psi_l with independent degree-l blocks.

    ``coeff_mats`` lists A_0, ..., A_d (all k x k); the kernel equals
    sum_l A_l A_l^T <x, y>^l.
    """
    mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeff_mats]
    if not mats:
        raise DomainError("need at least one coefficient matrix")
    k = mats[0].shape[0]
    for a in mats:
        if a.shape != (k, k):
            raise DomainError("all coefficient matrices must be k x k with equal k")
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(s).all() for s in isotropic_sigmas(mats)):
            raise DomainError("sum_l A_l A_l^T must be finite")
    domain = unit_sphere(m)
    comps = [(a, kostlan_basis(domain.ambient_dim, ell)) for ell, a in enumerate(mats)]
    return FieldModel(domain, comps, k)


def custom_monomial_model(domain: Domain, exponents, coeff_cov) -> FieldModel:
    """Scalar field from explicit monomials x^alpha and a full coefficient covariance.

    The coefficient covariance may correlate coefficients, producing
    non-isotropic models with nonzero value/derivative cross-covariance.
    """
    exps = np.atleast_2d(np.asarray(exponents, dtype=int))
    if exps.shape[1] != domain.ambient_dim or exps.min() < 0:
        raise DomainError("exponents must be nonnegative with one entry per ambient coordinate")
    basis = MonomialBasis(exps, np.ones(exps.shape[0]))
    return FieldModel(domain, [(np.eye(1), basis)], 1, coeff_cov=np.asarray(coeff_cov, float))


def isotropic_sigmas(coeff_mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma_0, Sigma_1) = (sum A_l A_l^T, sum l A_l A_l^T) of a mixed Kostlan field."""
    mats = [np.atleast_2d(np.asarray(a, dtype=float)) for a in coeff_mats]
    k = mats[0].shape[0]
    s0 = np.zeros((k, k))
    s1 = np.zeros((k, k))
    for ell, a in enumerate(mats):
        s0 += a @ a.T
        s1 += ell * (a @ a.T)
    return s0, s1


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class Realization:
    """One sample path: the model plus a drawn coefficient vector."""

    def __init__(self, model: FieldModel, coeffs: np.ndarray, seed):
        self.model = model
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.seed = seed

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points (N, amb) -> (N, k); scalar fields squeeze to (N,)."""
        model = self.model
        out = model.basis.evaluate(np.asarray(pts, dtype=float)) @ (model.mixing * self.coeffs).T
        return out[:, 0] if model.output_dim == 1 else out

    def circle_values(self, thetas: np.ndarray) -> np.ndarray:
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        return self.value(pts)

    def circle_derivative(self, thetas: np.ndarray) -> np.ndarray:
        """d/dtheta of a scalar field along the unit circle."""
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        tang = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
        g = np.einsum("nkrv,r->nkv", self.model.dphi(pts), self.coeffs)[:, 0, :]
        return np.sum(g * tang, axis=1)


def sample(model: FieldModel, seed) -> Realization:
    """Draw one realization; deterministic for a fixed (model, seed)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(model.n_coeffs)
    coeffs = model._cholesky_factor() @ z
    return Realization(model, coeffs, seed)


# ---------------------------------------------------------------------------
# Gaussian regression and conditioning
# ---------------------------------------------------------------------------

def regression_matrix(model: FieldModel, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A(u, p) = K(u, p) K(p, p)^{-1}: the Gaussian regression of X(u) on X(p).

    The residual Y(u) = X(u) - A(u, p) X(p) is uncorrelated with X(p).
    """
    kup = model.kernel(u, p)
    kpp = model.kernel(p, p)
    require_nonsingular(kpp, "K(p, p)")
    return np.linalg.solve(kpp, kup.T).T


class ConditionedField:
    """Sampler for the field conditioned on X(p) = q, via Gaussian regression.

    Realizations are Z(u) = X(u) + A(u, p)(q - X(p)); they interpolate
    Z(p) = q exactly and their law is the regular conditional probability
    of the Gaussian field given the measure-zero event X(p) = q.
    """

    def __init__(self, model: FieldModel, p: np.ndarray, q: np.ndarray):
        self.model = model
        self.p = np.asarray(p, dtype=float)
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if q.shape != (model.output_dim,):
            raise DomainError("conditioning value has the wrong dimension")
        self.q = q
        self.kpp = model.kernel(p, p)
        require_nonsingular(self.kpp, "K(p, p)")
        self._phi_p = model.phi(self.p[None, :])[0]
        # K(u, p) = phi(u) @ _cov_phi_p: the regression term, (n_coeffs, k).
        self._cov_phi_p = model.coeff_cov @ self._phi_p.T
        self._kpp_inv_q = np.linalg.solve(self.kpp, q)

    def mean(self, pts: np.ndarray) -> np.ndarray:
        """Conditional mean A(u, p) q at each point."""
        out = self.model.phi(pts) @ self._cov_phi_p @ self._kpp_inv_q
        return out[:, 0] if self.model.output_dim == 1 else out

    def sample(self, seed) -> Realization:
        """The realization of ``model`` at seed, with coefficients c shifted to
        c + Sigma Phi(p)^T K(p, p)^{-1} (q - Phi(p) c): a field of the same model."""
        c = sample(self.model, seed).coeffs
        shift = self._cov_phi_p @ np.linalg.solve(self.kpp, self.q - self._phi_p @ c)
        return Realization(self.model, c + shift, seed)


def condition(model: FieldModel, p: np.ndarray, q) -> ConditionedField:
    """Condition the field on X(p) = q (exact interpolation, no rejection)."""
    return ConditionedField(model, p, np.atleast_1d(np.asarray(q, dtype=float)))
