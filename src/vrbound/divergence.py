"""Renyi alpha-divergence between Gaussians, plus a quadrature ground truth.

For two Gaussians p = N(mu_p, S_p), q = N(mu_q, S_q) at a finite order alpha,
let t = 1 - alpha, S_p V = S_q V diag(lam) with V' S_q V = I, and
z = V'(mu_p - mu_q). The mixture covariance M = alpha S_q + t S_p is
V^-T diag(1 + t (lam - 1)) V^-1, and

    D_alpha[p||q] = (alpha/2) sum z_i^2 / (1 + t (lam_i - 1))
                    + (1/2) sum [ log1p(t (lam_i - 1)) / t - log lam_i ]

where the log1p term is lam_i - 1 at t = 0, giving KL[p||q]: one expression
for every finite order, accurate next to alpha = 1 and continuous through it.
The generalized eigenproblem is solved with numpy.linalg by LAPACK sygv's
Cholesky reduction, so the closed form loads no scipy package.
The defining integral converges exactly when M is positive definite; when
some 1 + t (lam_i - 1) <= 0 the value is reported as +inf, a sentinel
meaning "the integral diverges / the divergence is undefined here". This keeps
sweeps over alpha total. Callers that need the signed limit of the underlying
objective (e.g. the exact variational bound) must interpret the sentinel
themselves.

At alpha -> +inf the same eigenpairs give sup_x log p(x)/q(x), the closed
form's limit

    D_inf[p||q] = (1/2) sum z_i^2 / (1 - lam_i) + (1/2)(log|S_q| - log|S_p|)

with the log-determinants of the two Gaussians, and +inf (an unbounded
ratio) where some lam_i > 1, or lam_i = 1 with z_i != 0. Order -inf is the
skew-symmetry limit -D_inf[q||p]. Only alpha = 0 is an explicit branch:
-log(mass of q on the support of p), identically 0 for Gaussians.

``quadrature_oracle`` integrates the defining integral on a dense trapezoidal
grid (dimension <= 2) and is the independent reference implementation the
closed form is tested against; it alone imports scipy (scipy.stats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianDist

__all__ = [
    "GridSpec",
    "quadrature_oracle",
    "quadrature_oracle_batch",
    "renyi_gaussian",
]


def _check_same_dim(p: GaussianDist, q: GaussianDist) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: p has dim {p.dim}, q has dim {q.dim}")


# A generalized eigenvalue within this of 1 counts as 1 at alpha = +-inf:
# two equal covariances give eigenvalues that are 1 only to about
# eps cond(S_q) (1e-13 at cond 1e3), and past 1 such a rounding would make the
# 0 of two equal Gaussians +inf. It stays below the margin of 1e-10 by which
# the +inf mean-field fit keeps lam inside 1, so that a rounding of its mean
# does not make its finite bound -inf.
_AT_ONE = 1e-12


def renyi_gaussian(p: GaussianDist, q: GaussianDist, alpha: float) -> float:
    """Renyi divergence of order ``alpha`` between two Gaussians.

    Returns +inf at a finite order whose defining integral diverges (a
    mixture covariance that is not positive definite). Orders +-inf are the
    closed form's limit (see the module docstring), +-inf where the density
    ratio is unbounded.
    """
    _check_same_dim(p, q)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if alpha == 0.0:
        return 0.0
    if math.isfinite(alpha):
        return renyi_gaussian_terms(p.mean - q.mean, p.cov, q.cov, float(alpha))[0]
    # the swap leaves every lam of a finite value in [0, 1], where one that
    # underflows to 0 costs nothing; a lam that overflows, or a reduction
    # that overflows (NaN lam, or no convergence), lies above 1, where the
    # value is +inf anyway
    sign = math.copysign(1.0, alpha)
    p, q = (p, q) if sign > 0.0 else (q, p)
    try:
        lam, vec = _generalized_eigh(p.cov, q.cov)
    except np.linalg.LinAlgError:
        return sign * math.inf
    at_one = np.abs(lam - 1.0) <= _AT_ONE
    if np.any(~(lam < 1.0) & ~at_one):
        return sign * math.inf
    # z / 2^(1 + k), scaled by powers of two, which is exact: half of
    # mu_p - mu_q never overflows, and 2^-k more keeps every product of V' by
    # it in range
    half_diff = np.ldexp(p.mean, -1) - np.ldexp(q.mean, -1)
    k = max(0, _exponent(half_diff) + _exponent(vec) - 1000)
    z = vec.T @ np.ldexp(half_diff, -k)
    if np.any(z[at_one] != 0.0):
        return sign * math.inf
    # every term is positive, so a z_i^2 or a sum that overflows means a value
    # beyond the float range, +inf
    with np.errstate(over="ignore"):
        half_quad = np.ldexp(np.sum(z[~at_one] ** 2 / (1.0 - lam[~at_one])), 2 * k + 1)
    return sign * (float(half_quad) + 0.5 * (q.log_det_cov - p.log_det_cov))


def _exponent(x: np.ndarray) -> int:
    """The k with the largest |x| / 2^k in [0.5, 1); 0 for x = 0."""
    return int(np.frexp(np.max(np.abs(x)))[1])


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with a V = b V diag(lam) and V' b V = I, for symmetric a and
    symmetric positive definite b (LinAlgError otherwise).

    LAPACK sygv's reduction: with b = L L', the eigenpairs (lam, W) of
    C = L^-1 a L^-T give V = L^-T W. The solves run inside LAPACK, so a lam
    beyond the float range comes out 0 or inf without a warning (or, where C
    overflows in more than one dimension, NaN or eigh's LinAlgError); eigh
    reads the lower triangle of C only, which makes C symmetric.
    """
    low = np.linalg.cholesky(b)
    lam, w = np.linalg.eigh(np.linalg.solve(low, np.linalg.solve(low, a).T))
    return lam, np.linalg.solve(low.T, w)


def renyi_gaussian_terms(
    diff: np.ndarray, cov_p: np.ndarray, cov_q: np.ndarray, alpha: float
) -> tuple[float, np.ndarray | None]:
    """D_alpha[N(mu_p, cov_p) || N(mu_q, cov_q)] and diag(M^-1), finite alpha.

    ``diff`` is mu_p - mu_q. The gradient of the divergence in a diagonal
    cov_p is (diag(M^-1) - 1 / diag(cov_p)) / 2. (+inf, None) where M is not
    positive definite.
    """
    lam, vec = _generalized_eigh(cov_p, cov_q)
    t = 1.0 - alpha
    # overflow here means an infinite divergence, which the value carries
    with np.errstate(over="ignore"):
        shift = t * (lam - 1.0)
        # 1 + shift = alpha + t lam are the eigenvalues of M in the basis V
        if np.any(shift <= -1.0):
            return math.inf, None
        inv_mix = 1.0 / (1.0 + shift)
        quad = float((vec.T @ diff) ** 2 @ inv_mix)
        logs = lam - 1.0 if t == 0.0 else np.log1p(shift) / t
        diag_inv_mix = (vec * vec) @ inv_mix
    return 0.5 * alpha * quad + 0.5 * float(np.sum(logs - np.log(lam))), diag_inv_mix


# ----------------------------------------------------------------------
# quadrature oracle


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned trapezoidal grid for 1-D or 2-D integration."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    step: float

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if any(hi <= lo for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("upper must exceed lower on every axis")
        if self.step <= 0.0:
            raise ValueError("step must be positive")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        out = []
        for lo, hi in zip(self.lower, self.upper):
            n = int(math.floor((hi - lo) / self.step + 0.5)) + 1
            out.append(lo + self.step * np.arange(n))
        return out

    @classmethod
    def covering(
        cls, p: GaussianDist, q: GaussianDist, *, sigmas: float = 8.0, step: float = 0.01
    ) -> "GridSpec":
        """Grid extending ``sigmas`` marginal standard deviations past both means."""
        sd_p = np.sqrt(p.variances)
        sd_q = np.sqrt(q.variances)
        lower = np.minimum(p.mean - sigmas * sd_p, q.mean - sigmas * sd_q)
        upper = np.maximum(p.mean + sigmas * sd_p, q.mean + sigmas * sd_q)
        return cls(tuple(float(x) for x in lower), tuple(float(x) for x in upper), step)


# Minimum coverage demanded of a caller-supplied grid: both distributions must
# have their mean +- half this many standard deviations inside the box.
_COVERAGE_SIGMAS = 8.0
_MAX_STEP = 0.05


def _check_grid(p: GaussianDist, q: GaussianDist, grid: GridSpec) -> None:
    if grid.dim != p.dim:
        raise ValueError(f"grid dimension {grid.dim} does not match distributions ({p.dim})")
    if p.dim > 2:
        raise ValueError("quadrature oracle supports dimension <= 2 only")
    if grid.step > _MAX_STEP:
        raise ValueError(f"grid step {grid.step} too coarse; must be <= {_MAX_STEP}")
    half = 0.5 * _COVERAGE_SIGMAS
    for dist, name in ((p, "p"), (q, "q")):
        sd = np.sqrt(dist.variances)
        lo_needed = dist.mean - half * sd
        hi_needed = dist.mean + half * sd
        lower = np.asarray(grid.lower)
        upper = np.asarray(grid.upper)
        if np.any(lower > lo_needed + 1e-12) or np.any(upper < hi_needed - 1e-12):
            raise ValueError(
                f"grid does not cover {_COVERAGE_SIGMAS} standard deviations of {name}"
            )


def _trapezoid_weights(axis: np.ndarray, step: float) -> np.ndarray:
    w = np.full(axis.shape[0], step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def quadrature_oracle(
    p: GaussianDist, q: GaussianDist, alpha: float, grid: GridSpec | None = None
) -> float:
    """Renyi divergence by dense trapezoidal quadrature (dimension <= 2).

    Integrates p(x)^alpha q(x)^(1-alpha) on the grid; at alpha = 1 it
    integrates the KL integrand p log(p/q) instead. Densities are evaluated
    with scipy.stats, independently of the closed-form path this oracle
    validates. Raises if the grid is too coarse, too small, or if the
    integrand has not decayed at the grid boundary.
    """
    return quadrature_oracle_batch(p, q, [alpha], grid)[0]


def quadrature_oracle_batch(
    p: GaussianDist, q: GaussianDist, alphas, grid: GridSpec | None = None
) -> list[float]:
    """``quadrature_oracle`` for several orders, evaluating densities once."""
    # imported here: scipy.stats is slow to import and only this reference uses it
    from scipy import stats

    _check_same_dim(p, q)
    alphas = [float(a) for a in alphas]
    if any(not math.isfinite(a) for a in alphas):
        raise ValueError("quadrature oracle requires finite alpha")
    if grid is None:
        grid = GridSpec.covering(p, q)
    _check_grid(p, q, grid)

    axes = grid.axes()
    if grid.dim == 1:
        pts = axes[0][:, None]
        weights = _trapezoid_weights(axes[0], grid.step)
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        weights = np.outer(
            _trapezoid_weights(axes[0], grid.step),
            _trapezoid_weights(axes[1], grid.step),
        ).ravel()

    log_p = stats.multivariate_normal.logpdf(pts, mean=p.mean, cov=p.cov)
    log_q = stats.multivariate_normal.logpdf(pts, mean=q.mean, cov=q.cov)

    out = []
    for alpha in alphas:
        if alpha == 1.0:
            integrand = np.exp(log_p) * (log_p - log_q)
        else:
            integrand = np.exp(alpha * log_p + (1.0 - alpha) * log_q)
        _check_boundary_decay(integrand, axes, grid.dim)
        total = float(np.sum(weights * integrand))
        if alpha == 1.0:
            out.append(total)
        elif total <= 0.0:
            raise ValueError("integral underflowed to a non-positive value")
        else:
            out.append(math.log(total) / (alpha - 1.0))
    return out


def _check_boundary_decay(integrand: np.ndarray, axes: list[np.ndarray], dim: int) -> None:
    mags = np.abs(integrand)
    peak = float(np.max(mags))
    if peak == 0.0:
        raise ValueError("integrand underflowed to zero everywhere; grid misplaced")
    if dim == 1:
        boundary = max(mags[0], mags[-1])
    else:
        grid2d = mags.reshape(axes[0].shape[0], axes[1].shape[0])
        boundary = max(
            float(np.max(grid2d[0, :])),
            float(np.max(grid2d[-1, :])),
            float(np.max(grid2d[:, 0])),
            float(np.max(grid2d[:, -1])),
        )
    if boundary > 1e-8 * peak:
        raise ValueError(
            "integrand has not decayed at the grid boundary; enlarge the grid "
            "(the integral may diverge for this alpha)"
        )
