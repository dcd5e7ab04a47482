"""Bayesian linear regression with a standard-normal prior on the weights.

The model is y_n = x_n' theta + eps_n with eps_n ~ N(0, sigma^2) and
theta ~ N(0, I). Everything is conjugate: the posterior is the Gaussian
N(m, V) with precision Lam = X'X / sigma^2 + I and mean m = V X'y / sigma^2,
and the log evidence has the closed form

    log p(y | X, sigma) = -N/2 log(2 pi sigma^2) - ||y||^2 / (2 sigma^2)
                          + m' Lam m / 2 - log|Lam| / 2.

Because both the posterior and the evidence are exact, this model is the test
bed for the variational bound: the bound equals the evidence minus the Renyi
divergence from q to the exact posterior, with no approximation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import autodiff as ad
from ..alpha import AlphaKind, classify_alpha
from ..divergence import renyi_gaussian, renyi_gaussian_terms
from ..gaussian import GaussianDist

_LOG_2PI = math.log(2.0 * math.pi)


class BLRModel:
    """Design matrix, targets, and observation noise for conjugate regression."""

    def __init__(self, design: np.ndarray, targets: np.ndarray, noise_std: float):
        self.design = np.asarray(design, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.design.ndim != 2:
            raise ValueError("design must be a matrix")
        if self.targets.shape != (self.design.shape[0],):
            raise ValueError("targets must match the number of design rows")
        if not np.all(np.isfinite(self.design)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("design and targets must be finite")
        noise_std = float(noise_std)
        variance = noise_std * noise_std
        if not (noise_std > 0.0 and 0.0 < variance < math.inf):
            raise ValueError(
                f"noise_std must be positive with a positive finite square, got {noise_std!r}"
            )
        # The exact posterior and evidence use the data only through these
        # statistics over the noise variance; each must be representable.
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = self.design, self.targets
            stats = (x.T @ x, x.T @ y, y @ y)
            if not all(np.all(np.isfinite(s / variance)) for s in stats):
                raise ValueError(
                    f"noise_std {noise_std!r} is too small for the data: X'X, X'y or y'y "
                    "over its square overflows"
                )
        self.noise_std = noise_std

    @property
    def n_data(self) -> int:
        return self.design.shape[0]

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def with_noise(self, noise_std: float) -> "BLRModel":
        return BLRModel(self.design, self.targets, noise_std)

    # ------------------------------------------------------------------
    # plain-numpy joint density

    def log_prior(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(-0.5 * theta @ theta - 0.5 * self.dim * _LOG_2PI)

    def log_lik(self, theta: np.ndarray, idx: np.ndarray | None = None) -> float:
        """Summed Gaussian log likelihood of the rows in ``idx`` (all by default)."""
        x = self.design if idx is None else self.design[idx]
        y = self.targets if idx is None else self.targets[idx]
        resid = y - x @ theta
        s2 = self.noise_std**2
        return float(-0.5 * np.sum(resid**2) / s2 - 0.5 * x.shape[0] * (_LOG_2PI + math.log(s2)))

    def log_joint(self, theta: np.ndarray) -> float:
        return self.log_prior(theta) + self.log_lik(theta)

    def grad_log_joint(self, theta: np.ndarray) -> np.ndarray:
        resid = self.targets - self.design @ theta
        return -theta + self.design.T @ resid / self.noise_std**2

    # ------------------------------------------------------------------
    # tape-facing builders (used by the reparameterized gradient engine);
    # theta is one weight vector (dim,) or K stacked draws (K, dim), and the
    # result has one value per draw

    def log_prior_node(self, theta: ad.Node) -> ad.Node:
        return ad.vsum(theta * theta, axis=-1) * (-0.5) + (-0.5 * self.dim * _LOG_2PI)

    def log_lik_node(self, theta: ad.Node, idx: np.ndarray | None = None) -> ad.Node:
        x = self.design if idx is None else self.design[idx]
        y = self.targets if idx is None else self.targets[idx]
        s2 = self.noise_std**2
        resid = y - ad.matmul(theta, x.T)
        const = -0.5 * x.shape[0] * (_LOG_2PI + math.log(s2))
        return ad.vsum(resid * resid, axis=-1) * (-0.5 / s2) + const

    def log_joint_node(self, theta: ad.Node) -> ad.Node:
        return self.log_prior_node(theta) + self.log_lik_node(theta)


# ----------------------------------------------------------------------
# exact posterior and evidence


def blr_exact_posterior(model: BLRModel) -> tuple[GaussianDist, float]:
    """Exact Gaussian posterior over the weights and the exact log evidence."""
    x, y = model.design, model.targets
    s2 = model.noise_std**2
    lam = x.T @ x / s2 + np.eye(model.dim)
    try:
        chol = np.linalg.cholesky(lam)
    except np.linalg.LinAlgError as exc:
        raise ValueError("posterior precision is not positive definite") from exc
    rhs = x.T @ y / s2
    m = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    cov = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(model.dim)))
    cov = 0.5 * (cov + cov.T)
    logdet_lam = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_evidence = (
        -0.5 * model.n_data * (_LOG_2PI + math.log(s2))
        - 0.5 * float(y @ y) / s2
        + 0.5 * float(m @ lam @ m)
        - 0.5 * logdet_lam
    )
    return GaussianDist.full(m, cov), log_evidence


def exact_vr_bound_blr(model: BLRModel, q: GaussianDist, alpha: float) -> float:
    """Exact variational Renyi bound log p(D) - D_alpha[q || posterior].

    When the divergence integral diverges the bound's defining expectation is
    infinite as well; the sign follows the 1/(1-alpha) prefactor, so the
    result is +inf for alpha < 1 and -inf for alpha > 1.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("exact bound requires finite alpha")
    posterior, log_evidence = blr_exact_posterior(model)
    div = renyi_gaussian(q, posterior, alpha)
    if math.isinf(div):
        return math.inf if alpha < 1.0 else -math.inf
    return log_evidence - div


# ----------------------------------------------------------------------
# mean-field fit: closed forms at orders 0, 1 and +inf, L-BFGS-B elsewhere


@dataclass
class MeanFieldFitResult:
    q: GaussianDist
    bound: float
    iterations: int
    converged: bool


# L-BFGS-B stops on a relative objective change below ftol or a largest
# gradient entry below gtol; much tighter values fall under the rounding
# noise of the objective, where the line search ends abnormally.
_LBFGS_OPTIONS = {"maxiter": 20000, "gtol": 1e-7, "ftol": 1e-12}
# Relative margin on the +inf fit's precisions, so that q is strictly feasible.
_INF_MARGIN = 1e-10


def _feasible_variances(log_pivots: np.ndarray, lam: np.ndarray, c: float):
    """Variances s2 with diag(1/s2) - c lam = L L', and ds2/dlog_pivots.

    L is lower triangular with diagonal exp(log_pivots), the rest fixed by the
    off-diagonal of -c lam, so inputs map one to one onto the s2 that make
    diag(1/s2) - c lam positive definite. d(1/s2) = 2 (L^-1 * L^-1)^-1 dz.
    """
    low = np.diag(np.exp(log_pivots))
    for i in range(len(log_pivots)):
        for j in range(i):
            low[i, j] = (-c * lam[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    prec = np.sum(low**2, axis=1) + c * np.diag(lam)
    jac = 2.0 * np.linalg.inv(np.linalg.inv(low) ** 2)
    return 1.0 / prec, -jac / prec[:, None] ** 2


def _log_std_variances(log_std: np.ndarray):
    s2 = np.exp(2.0 * log_std)
    return s2, np.diag(2.0 * s2)


def _inf_precisions(lam: np.ndarray):
    """Diagonal d minimizing sum(log d) subject to diag(d) >= lam (Loewner order).

    Over r = log s2, rescaling s2 by 1 / lambda_max(S^1/2 lam S^1/2) onto the
    boundary gives the unconstrained sum(log d) = dim log lambda_max - sum(r),
    with gradient dim v^2 - 1 for the unit top eigenvector v. Returns d and
    the solver result.
    """
    from scipy.optimize import minimize

    dim = lam.shape[0]

    def objective(r):
        h = np.exp(0.5 * r)
        eigvals, eigvecs = np.linalg.eigh(h[:, None] * lam * h[None, :])
        return dim * math.log(eigvals[-1]) - float(np.sum(r)), dim * eigvecs[:, -1] ** 2 - 1.0

    res = minimize(
        objective, -np.log(np.diag(lam)), jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS
    )
    # d = exp(-r) lambda_max, and the objective value holds log lambda_max
    return np.exp((res.fun + np.sum(res.x)) / dim - res.x), res


def blr_mean_field_fit(model: BLRModel, alpha: float) -> MeanFieldFitResult:
    """Diagonal-Gaussian maximizer of the exact bound at the given order.

    The mean is the posterior mean at every order: the divergence's mean term
    is a positive definite quadratic form in the offset from it wherever the
    divergence is finite. The variances are closed-form at three orders,
    with ``iterations`` 0 and ``converged`` True at the first two:

      alpha = 1  1 / diag(Lam), Lam the posterior precision;
      alpha = 0  the posterior marginal variances, the minimizer of the
          limit KL[posterior || q] as alpha -> 0+ (the bound itself is the
          log evidence for any full-support q);
      alpha = +inf  solved directly: sup log q/posterior is finite only when
          diag(1/s2) >= Lam (Loewner order), and the best precisions minimize
          sum log(1/s2) on that boundary (in 2-D, 1/s2_i = Lam_ii +
          |Lam_12| sqrt(Lam_ii / Lam_jj)). Scaled up by a relative 1e-10,
          they give a strictly feasible q.

    Other orders minimize D_alpha[q || posterior] over the variances alone by
    L-BFGS-B on its analytic gradient; ``converged`` is the solver's success
    flag. Below order 1 the search runs over the log standard deviations.
    Above order 1 the divergence is finite only where diag(1/s2) - (1 -
    1/alpha) Lam is positive definite and the line search cannot step back
    from points outside, so the search runs over the log Cholesky pivots of
    that matrix, from the +inf fit. Orders next to 1 are searched too, so
    the fit is continuous through alpha = 1. The bound is log Z - D_alpha[q
    || posterior] (the log evidence at alpha = 0). Dimension <= 3.

    Negative orders are rejected: there the exact bound is an upper bound on
    the evidence whose supremum over q is +inf (approached at the boundary
    where the defining integral starts to diverge), so no maximizer exists.
    """
    from scipy.optimize import minimize

    if model.dim > 3:
        raise ValueError("mean-field fit is desk-scale only (dim <= 3)")
    posterior, log_evidence = blr_exact_posterior(model)
    kind = classify_alpha(alpha)
    if alpha < 0.0:
        raise ValueError("mean-field fit requires alpha >= 0; the bound has no "
                         "finite maximizer for negative orders")
    lam = posterior.precision()

    iterations, converged = 0, True
    if kind is AlphaKind.ONE:
        s2 = 1.0 / np.diag(lam)
    elif alpha == 0.0:
        s2 = posterior.variances
    else:
        mode_seeking = alpha > 1.0
        if mode_seeking:
            prec, res = _inf_precisions(lam)
            prec, iterations, converged = prec * (1.0 + _INF_MARGIN), res.nit, res.success
            s2 = 1.0 / prec
        if kind is AlphaKind.FINITE:
            if mode_seeking:
                c = 1.0 - 1.0 / alpha
                variances = partial(_feasible_variances, lam=lam, c=c)
                # the +inf fit is feasible at every order above 1
                z0 = np.log(np.diag(np.linalg.cholesky(np.diag(prec) - c * lam)))
            else:
                variances, z0 = _log_std_variances, 0.5 * np.log(posterior.variances)

            def objective(z):
                s2, ds2_dz = variances(z)
                value, diag_inv_mix = renyi_gaussian_terms(
                    np.zeros_like(s2), np.diag(s2), posterior.cov, alpha
                )
                if diag_inv_mix is None:
                    return value, np.zeros_like(z)
                return value, ds2_dz.T @ (0.5 * (diag_inv_mix - 1.0 / s2))

            res = minimize(objective, z0, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS)
            s2 = variances(res.x)[0]
            iterations += res.nit
            # an objective that is +inf at the start stops the solver "converged"
            converged = converged and res.success and math.isfinite(res.fun)

    q = GaussianDist.diagonal(posterior.mean, s2)
    bound = log_evidence - renyi_gaussian(q, posterior, alpha)
    return MeanFieldFitResult(q, bound, int(iterations), bool(converged))


# ----------------------------------------------------------------------
# bundled synthetic instance


def synthetic_blr_instance(
    seed: int = 0,
    n_data: int = 25,
    noise_std: float = 1.0,
    correlation: float = 0.9,
) -> BLRModel:
    """Two-feature regression whose posterior is a visibly correlated Gaussian.

    The feature columns are correlated, which makes the weight posterior
    correlated and the mean-field family strictly poorer than the exact
    posterior.
    """
    if not abs(correlation) <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {correlation!r}")
    rng = np.random.default_rng([int(seed), 11])
    x1 = rng.standard_normal(n_data)
    x2 = correlation * x1 + math.sqrt(max(1.0 - correlation**2, 1e-12)) * rng.standard_normal(
        n_data
    )
    design = np.column_stack([x1, x2])
    weights = np.array([1.0, -0.5])
    targets = design @ weights + noise_std * rng.standard_normal(n_data)
    return BLRModel(design, targets, noise_std)
