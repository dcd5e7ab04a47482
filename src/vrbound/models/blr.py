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
from scipy.optimize import minimize

from .. import autodiff as ad
from ..alpha import AlphaKind, classify_alpha
from ..divergence import renyi_gaussian
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
        if noise_std <= 0.0:
            raise ValueError("noise_std must be positive")
        self.noise_std = float(noise_std)

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
        resid = ad.as_node(y) - ad.matmul(theta, ad.as_node(x.T))
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
# mean-field fit: L-BFGS-B at finite orders, a direct solve at +inf


@dataclass
class MeanFieldFitResult:
    q: GaussianDist
    bound: float
    iterations: int
    grad_norm: float
    converged: bool


def _divergence_grads(
    mu: np.ndarray, s2: np.ndarray, post: GaussianDist, alpha: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and gradients of D_alpha[N(mu, diag(s2)) || post].

    Returns (value, d/d mu, d/d s2). Finite alpha not in {0, 1} only; +inf
    value with zero gradients when the mixture covariance is not SPD.
    """
    v = post.cov
    d = mu.shape[0]
    diff = mu - post.mean
    mix = alpha * v + (1.0 - alpha) * np.diag(s2)
    try:
        chol = np.linalg.cholesky(mix)
    except np.linalg.LinAlgError:
        return math.inf, np.zeros(d), np.zeros(d)
    inv_mix = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(d)))
    logdet_mix = 2.0 * float(np.sum(np.log(np.diag(chol))))
    w = inv_mix @ diff
    value = 0.5 * alpha * float(diff @ w)
    value += (logdet_mix - (1.0 - alpha) * float(np.sum(np.log(s2))) - alpha * post.log_det_cov) / (
        2.0 * (1.0 - alpha)
    )
    g_mu = alpha * w
    g_s2 = -0.5 * alpha * (1.0 - alpha) * w**2 + 0.5 * (np.diag(inv_mix) - 1.0 / s2)
    return value, g_mu, g_s2


def _kl_q_post_grads(
    mu: np.ndarray, s2: np.ndarray, post: GaussianDist
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL[N(mu, diag(s2)) || post] with gradients (the alpha -> 1 branch)."""
    prec = post.precision()
    diff = mu - post.mean
    value = 0.5 * (
        float(np.sum(np.diag(prec) * s2))
        + float(diff @ prec @ diff)
        - mu.shape[0]
        + post.log_det_cov
        - float(np.sum(np.log(s2)))
    )
    g_mu = prec @ diff
    g_s2 = 0.5 * (np.diag(prec) - 1.0 / s2)
    return value, g_mu, g_s2


def _kl_post_q_grads(
    mu: np.ndarray, s2: np.ndarray, post: GaussianDist
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL[post || N(mu, diag(s2))] with gradients (the alpha -> 0 limit)."""
    v_diag = post.variances
    diff = mu - post.mean
    value = 0.5 * (
        float(np.sum((v_diag + diff**2) / s2))
        + float(np.sum(np.log(s2)))
        - post.log_det_cov
        - mu.shape[0]
    )
    g_mu = diff / s2
    g_s2 = 0.5 * (1.0 / s2 - (v_diag + diff**2) / s2**2)
    return value, g_mu, g_s2


# L-BFGS-B stops on a relative objective change below _FTOL or a largest
# gradient entry below `gtol`; much tighter values fall under the rounding
# noise of the objective, where the line search ends abnormally.
_FTOL = 1e-12
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


def _inf_precisions(lam: np.ndarray, options: dict):
    """Diagonal d minimizing sum(log d) subject to diag(d) >= lam (Loewner order).

    Over r = log s2, rescaling s2 by 1 / lambda_max(S^1/2 lam S^1/2) onto the
    boundary gives the unconstrained sum(log d) = dim log lambda_max - sum(r),
    with gradient dim v^2 - 1 for the unit top eigenvector v. Returns d and
    the solver result.
    """
    dim = lam.shape[0]

    def objective(r):
        h = np.exp(0.5 * r)
        eigvals, eigvecs = np.linalg.eigh(h[:, None] * lam * h[None, :])
        return dim * math.log(eigvals[-1]) - float(np.sum(r)), dim * eigvecs[:, -1] ** 2 - 1.0

    res = minimize(objective, -np.log(np.diag(lam)), jac=True, method="L-BFGS-B", options=options)
    # d = exp(-r) lambda_max, and the objective value holds log lambda_max
    return np.exp((res.fun + np.sum(res.x)) / dim - res.x), res


def blr_mean_field_fit(
    model: BLRModel,
    alpha: float,
    *,
    max_iter: int = 20000,
    gtol: float = 1e-7,
) -> MeanFieldFitResult:
    """Diagonal-Gaussian maximizer of the exact bound at the given order.

    Finite orders minimize D_alpha[q || posterior] by L-BFGS-B on its analytic
    gradient, over the mean and log standard deviations; ``converged`` is the
    solver's success flag. Above order 1 the divergence is finite only where
    diag(1/s2) - (1 - 1/alpha) Lam is positive definite (Lam the posterior
    precision) and the line search cannot step back from points outside, so
    the variances are searched through the log Cholesky pivots of that
    matrix, from the +inf fit. At alpha = 0 the bound is the log evidence for
    any full-support q, so the fit minimizes the limit as alpha -> 0+,
    KL[posterior || q], which matches the posterior marginals.

    alpha = +inf is solved directly: sup log q/posterior is finite only when
    diag(1/s2) >= Lam (Loewner order); the best mean is then the posterior
    mean and the best precisions minimize sum log(1/s2) on the boundary (in
    2-D, 1/s2_i = Lam_ii + |Lam_12| sqrt(Lam_ii / Lam_jj)). Scaled up by a
    relative 1e-10, they give a strictly feasible q, and the bound is its
    exact order-inf bound log Z - D_inf[q || posterior]. Dimension <= 3.

    Negative orders are rejected: there the exact bound is an upper bound on
    the evidence whose supremum over q is +inf (approached at the boundary
    where the defining integral starts to diverge), so no maximizer exists.
    """
    if model.dim > 3:
        raise ValueError("mean-field fit is desk-scale only (dim <= 3)")
    posterior, log_evidence = blr_exact_posterior(model)
    kind = classify_alpha(alpha)
    if kind is AlphaKind.NEG_INF or (kind is AlphaKind.FINITE and float(alpha) < 0.0):
        raise ValueError("mean-field fit requires alpha >= 0; the bound has no "
                         "finite maximizer for negative orders")
    lam, dim = posterior.precision(), model.dim
    options = {"maxiter": max_iter, "gtol": gtol, "ftol": _FTOL}
    at_zero = kind is AlphaKind.FINITE and abs(float(alpha)) <= 1e-12

    mode_seeking = kind is AlphaKind.POS_INF or (kind is AlphaKind.FINITE and float(alpha) > 1.0)
    iterations, converged = 0, True
    if mode_seeking:
        prec, res = _inf_precisions(lam, options)
        prec, iterations, converged = prec * (1.0 + _INF_MARGIN), res.nit, res.success

    if kind is AlphaKind.POS_INF:
        q = GaussianDist.diagonal(posterior.mean, 1.0 / prec)
    else:
        grads, extra = _divergence_grads, (float(alpha),)
        if at_zero:
            grads, extra = _kl_post_q_grads, ()
        elif kind is AlphaKind.ONE:
            grads, extra = _kl_q_post_grads, ()
        if mode_seeking:
            c = 1.0 - 1.0 / float(alpha)
            variances = partial(_feasible_variances, lam=lam, c=c)
            # the +inf fit is feasible at every order above 1
            z0 = np.log(np.diag(np.linalg.cholesky(np.diag(prec) - c * lam)))
        else:
            variances, z0 = _log_std_variances, 0.5 * np.log(posterior.variances)

        def objective(x):
            s2, ds2_dz = variances(x[dim:])
            value, g_mu, g_s2 = grads(x[:dim], s2, posterior, *extra)
            return value, np.concatenate([g_mu, ds2_dz.T @ g_s2])

        x0 = np.concatenate([posterior.mean, z0])
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", options=options)
        q = GaussianDist.diagonal(res.x[:dim], variances(res.x[dim:])[0])
        iterations += res.nit
        # an objective that is +inf at the start stops the solver "converged"
        converged = converged and res.success and math.isfinite(res.fun)

    bound = log_evidence if at_zero else log_evidence - renyi_gaussian(q, posterior, alpha)
    grad_norm = float(np.max(np.abs(res.jac)))
    return MeanFieldFitResult(q, bound, int(iterations), grad_norm, bool(converged))


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
    rng = np.random.default_rng([int(seed), 11])
    x1 = rng.standard_normal(n_data)
    x2 = correlation * x1 + math.sqrt(max(1.0 - correlation**2, 1e-12)) * rng.standard_normal(
        n_data
    )
    design = np.column_stack([x1, x2])
    weights = np.array([1.0, -0.5])
    targets = design @ weights + noise_std * rng.standard_normal(n_data)
    return BLRModel(design, targets, noise_std)
