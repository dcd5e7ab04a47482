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

The first two terms are the N(0, sigma^2 I) log density of y,
``autodiff.normal_logpdf_rows(y, 0, log sigma)``. For training,
``log_lik_node`` gives the likelihood of K stacked weight draws on arrays,
``normal_logpdf_rows(y, theta X', log sigma)``, together with its VJP,
``autodiff.normal_rows_vjp``'s gradient at the means carried back through
X; ``training.posterior_log_weights`` chains it into the VJP that every
model shares, of the reparameterization, the N(0, I) prior and log q.
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

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Initial mean-field parameters: mu 0 and rho log 0.1 (the seed is unused)."""
        return {"mu": np.zeros(self.dim), "rho": np.full(self.dim, math.log(0.1))}

    def log_lik_node(self, theta: np.ndarray, params: dict, x: np.ndarray, y: np.ndarray):
        """Summed Gaussian log likelihood of targets y at rows x, one value
        per draw of theta (dim,) or (K, dim), and its VJP: given g at the
        values, the gradient at theta and of the parameters (none; the noise
        is fixed and ``params`` unused). The prior is the caller's
        (``training.posterior_log_weights``)."""
        mean, log_std = theta @ x.T, math.log(self.noise_std)
        rows = ad.normal_logpdf_rows(y, mean, log_std)

        def vjp(g):
            return ad.normal_rows_vjp(y, mean, log_std, g)[0] @ x, {}

        return rows, vjp


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
        float(ad.normal_logpdf_rows(y, 0.0, math.log(model.noise_std)))
        + 0.5 * float(m @ lam @ m)
        - 0.5 * logdet_lam
    )
    return GaussianDist.full(m, cov), log_evidence


def exact_vr_bound_blr(model: BLRModel, q: GaussianDist, alpha: float) -> float:
    """Exact variational Renyi bound log p(D) - D_alpha[q || posterior].

    When the divergence integral diverges the bound's defining expectation is
    infinite as well; the sign follows the 1/(1-alpha) prefactor, so the
    result is +inf for alpha < 1 and -inf for alpha > 1, alpha = +-inf
    included.
    """
    alpha = float(alpha)
    posterior, log_evidence = blr_exact_posterior(model)
    div = renyi_gaussian(q, posterior, alpha)
    if math.isinf(div):
        return math.inf if alpha < 1.0 else -math.inf
    return log_evidence - div


# ----------------------------------------------------------------------
# mean-field fit: closed forms at orders 0, 1 and +inf, BFGS elsewhere


@dataclass
class MeanFieldFitResult:
    q: GaussianDist
    bound: float
    iterations: int
    converged: bool


# The solver stops on L-BFGS-B's two tests, at the values scipy's gtol and
# ftol took here: a largest gradient entry at most _GTOL, or a relative
# decrease at most _FTOL; much tighter values fall under the rounding noise
# of the objective, where no step decreases it any more.
_GTOL, _FTOL, _MAXITER = 1e-7, 1e-12, 20000
# Armijo's sufficient-decrease constant (Nocedal & Wright, eq. 3.4), and
# the trial points of one line search (L-BFGS-B's maxls)
_ARMIJO, _MAXLS = 1e-4, 20
# Relative margin on the +inf fit's precisions, so that q is strictly feasible.
_INF_MARGIN = 1e-10


def _minimize(objective, x0: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
    """Minimize ``objective(x) -> (value, gradient)`` by dense BFGS with
    Armijo backtracking (Nocedal & Wright, Numerical Optimization, Alg. 6.1).

    A trial point whose value or gradient is not finite, or that does not
    decrease the value enough, halves the step, so the iterates stay where
    the objective is finite. Returns (x, value, iterations, success):
    success on either stopping test; failure after _MAXITER iterations, when
    _MAXLS trial points in a row fail, or at once when the value at x0 is
    not finite.
    """
    x = np.asarray(x0, dtype=float)
    f, g = objective(x)
    if not math.isfinite(f):
        return x, f, 0, False
    h = np.eye(x.size)
    for it in range(_MAXITER):
        if np.max(np.abs(g)) <= _GTOL:
            return x, f, it, True
        p = -h @ g
        # the first direction is the gradient's; its first step is at most 1 long
        step = min(1.0, 1.0 / float(np.linalg.norm(p))) if it == 0 else 1.0
        slope = _ARMIJO * float(g @ p)
        for _ in range(_MAXLS):
            x_new = x + step * p
            f_new, g_new = objective(x_new)
            if math.isfinite(f_new) and f_new <= f + step * slope and np.all(np.isfinite(g_new)):
                break
            step *= 0.5
        else:
            return x, f, it, False
        s, y = x_new - x, g_new - g
        decrease, scale = f - f_new, max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= _FTOL * scale:
            return x, f, it + 1, True
        sy = float(s @ y)
        if sy > 0.0:
            if it == 0:
                h *= sy / float(y @ y)  # Nocedal & Wright, eq. 6.20
            v = np.eye(x.size) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
    return x, f, _MAXITER, False


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
    with gradient dim v^2 - 1 for the unit top eigenvector v; ``_minimize``
    searches it from r = -log diag(lam). Where the top eigenvalue is repeated
    to within rounding, v is any unit vector of its eigenspace, so the
    subgradient taken is the mean of dim v^2 - 1 over the eigenvectors whose
    eigenvalues lie within 8 dim eps of it (relative): 0 when
    S^1/2 lam S^1/2 is a multiple of I, the minimum. Returns d and the
    search's iteration count and success flag.
    """
    dim = lam.shape[0]
    tie = 8.0 * dim * np.finfo(float).eps

    def objective(r):
        h = np.exp(0.5 * r)
        eigvals, eigvecs = np.linalg.eigh(h[:, None] * lam * h[None, :])
        top = eigvals[-1] - eigvals <= tie * eigvals[-1]
        grad = dim * np.mean(eigvecs[:, top] ** 2, axis=1) - 1.0
        return dim * math.log(eigvals[-1]) - float(np.sum(r)), grad

    r, value, iterations, success = _minimize(objective, -np.log(np.diag(lam)))
    # d = exp(-r) lambda_max, and the objective value holds log lambda_max
    return np.exp((value + np.sum(r)) / dim - r), iterations, success


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
    BFGS (``_minimize``) on its analytic gradient; ``iterations`` counts the
    BFGS iterations, and ``converged`` is the search's success flag. Below
    order 1 the search runs over the log standard deviations. Above order 1
    the divergence is finite only where diag(1/s2) - (1 - 1/alpha) Lam is
    positive definite, so the search runs over the log Cholesky pivots of
    that matrix, which map onto exactly that region, from the +inf fit (its
    iterations and success flag count too). Orders next to 1 are searched too, so
    the fit is continuous through alpha = 1. The bound is
    ``exact_vr_bound_blr`` of the fit (the log evidence at alpha = 0).
    Dimension <= 3.

    Negative orders are rejected: there the exact bound is an upper bound on
    the evidence whose supremum over q is +inf (approached at the boundary
    where the defining integral starts to diverge), so no maximizer exists.
    """
    if model.dim > 3:
        raise ValueError("mean-field fit is desk-scale only (dim <= 3)")
    posterior = blr_exact_posterior(model)[0]
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
            prec, iterations, converged = _inf_precisions(lam)
            prec = prec * (1.0 + _INF_MARGIN)
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

            z, _, nit, success = _minimize(objective, z0)
            s2 = variances(z)[0]
            iterations += nit
            converged = converged and success

    q = GaussianDist.diagonal(posterior.mean, s2)
    bound = exact_vr_bound_blr(model, q, alpha)
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
