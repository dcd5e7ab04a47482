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
from dataclasses import dataclass, field

import numpy as np

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
# mean-field fit by deterministic gradient ascent


@dataclass
class MeanFieldFitResult:
    q: GaussianDist
    bound: float
    iterations: int
    grad_norm: float
    converged: bool
    path: list[float] = field(default_factory=list, repr=False)


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


def _ascend(objective, x0: np.ndarray, max_iter: int, gtol: float):
    """Backtracking gradient ascent on objective(x) -> (value, grad)."""
    x = x0.copy()
    value, grad = objective(x)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < gtol:
            return x, value, iterations, gnorm, True
        step = 1.0
        improved = False
        g2 = float(grad @ grad)
        while step > 1e-18:
            cand = x + step * grad
            cand_value, cand_grad = objective(cand)
            if math.isfinite(cand_value) and cand_value >= value + 1e-4 * step * g2:
                x, value, grad = cand, cand_value, cand_grad
                improved = True
                break
            step *= 0.5
        if not improved:
            return x, value, iterations, float(np.max(np.abs(grad))), False
    return x, value, max_iter, float(np.max(np.abs(grad))), False


# Orders used for the +inf fit: a warm-started continuation over increasingly
# mode-seeking finite orders, ending at a good proxy for the limit.
_INF_CONTINUATION = (2.0, 8.0, 32.0, 128.0, 512.0)


def blr_mean_field_fit(
    model: BLRModel,
    alpha: float,
    *,
    max_iter: int = 20000,
    gtol: float = 1e-10,
) -> MeanFieldFitResult:
    """Diagonal-Gaussian maximizer of the exact bound at the given order.

    Deterministic gradient ascent with backtracking line search on the exact
    bound. At alpha = 0 the bound itself is constant in q (it equals the log
    evidence for any full-support q), so the fit maximizes the limiting
    objective as alpha -> 0+, which is -KL[posterior || q]; its optimum
    matches the posterior marginals. alpha = +inf is fit by continuation over
    large finite orders. Dimension is expected to be small (<= 3).

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

    def make_objective(a_val: float | None):
        # a_val None marks the alpha -> 0 limiting objective.
        def objective(x):
            mu, rho = x[: model.dim], x[model.dim :]
            s2 = np.exp(2.0 * rho)
            if a_val is None:
                value, g_mu, g_s2 = _kl_post_q_grads(mu, s2, posterior)
            elif abs(a_val - 1.0) <= 1e-12:
                value, g_mu, g_s2 = _kl_q_post_grads(mu, s2, posterior)
            else:
                value, g_mu, g_s2 = _divergence_grads(mu, s2, posterior, a_val)
            if not math.isfinite(value):
                return -math.inf, np.zeros_like(x)
            grad = -np.concatenate([g_mu, g_s2 * 2.0 * s2])
            return -value, grad

        return objective

    if kind is AlphaKind.POS_INF:
        schedule = list(_INF_CONTINUATION)
        fitted_alpha = schedule[-1]
    elif abs(float(alpha)) <= 1e-12:
        schedule = [None]
        fitted_alpha = None
    else:
        schedule = [float(alpha)]
        fitted_alpha = float(alpha)

    # Mass-covering orders start from the posterior marginals; mode-seeking
    # orders (alpha > 1) start from the always-feasible precision-diagonal
    # solution of the KL fit.
    if fitted_alpha is not None and fitted_alpha > 1.0:
        init_vars = 1.0 / np.diag(posterior.precision())
    else:
        init_vars = posterior.variances
    x = np.concatenate([posterior.mean, 0.5 * np.log(init_vars)])

    total_iters = 0
    gnorm, converged = math.inf, False
    for a_val in schedule:
        objective = make_objective(a_val)
        # Mode-seeking orders push the optimum toward the feasibility
        # boundary where ascent crawls; a looser gradient tolerance there
        # costs only second-order error in the bound value.
        if a_val is not None and a_val > 1.0 + 1e-12:
            stage_iter, stage_gtol = min(max_iter, 5000), max(gtol, 1e-7)
        else:
            stage_iter, stage_gtol = max_iter, gtol
        # Shrink the scales until the mixture covariance is SPD; ascent can
        # only move through the feasible region from there.
        guard = 0
        while not math.isfinite(objective(x)[0]) and guard < 200:
            x = np.concatenate([x[: model.dim], x[model.dim :] - 0.25])
            guard += 1
        if not math.isfinite(objective(x)[0]):
            raise RuntimeError(f"could not find a feasible start for alpha={a_val}")
        x, _, iters, gnorm, converged = _ascend(objective, x, stage_iter, stage_gtol)
        total_iters += iters

    mu, rho = x[: model.dim], x[model.dim :]
    q = GaussianDist.diagonal(mu, np.exp(2.0 * rho))
    if fitted_alpha is None:
        bound = log_evidence
    else:
        # For the +inf fit this is the bound at the final continuation order.
        bound = exact_vr_bound_blr(model, q, fitted_alpha)
    return MeanFieldFitResult(
        q=q,
        bound=bound,
        iterations=total_iters,
        grad_norm=gnorm,
        converged=converged,
    )


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
