"""Variational Renyi bound inference.

Exact Renyi alpha-divergences between Gaussians (with a quadrature ground
truth), Monte Carlo estimators of the variational Renyi bound and their bias
analysis, reparameterized stochastic gradients including the max-weight
limit, and desk-scale trainers for Bayesian linear regression, Bayesian
neural networks, and variational auto-encoders.
"""

__version__ = "0.1.0"

from .alpha import AlphaKind, classify_alpha, parse_alpha
from .bounds import (
    BiasTable,
    bias_simulation,
    exact_vr_bound_blr,
    mc_vr_estimate,
    validate_log_weights,
)
from .divergence import GridSpec, gaussian_kl, quadrature_oracle, renyi_gaussian
from .gaussian import GaussianDist
from .gradients import (
    GaussianReparam,
    finite_diff_check,
    normalize_weights,
    select_backprop_sample,
    vr_grad,
)
from .models import (
    BLRModel,
    BNNModel,
    Dataset,
    VAEModel,
    blr_exact_posterior,
    blr_mean_field_fit,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
)
from .training import (
    Adam,
    RunRecord,
    TrainConfig,
    TrainingDiverged,
    energy_approx_objective,
    evaluate_vae,
    train,
    weight_diagnostics,
)

__all__ = [
    "Adam",
    "AlphaKind",
    "BLRModel",
    "BNNModel",
    "BiasTable",
    "Dataset",
    "GaussianDist",
    "GaussianReparam",
    "GridSpec",
    "RunRecord",
    "TrainConfig",
    "TrainingDiverged",
    "VAEModel",
    "bias_simulation",
    "blr_exact_posterior",
    "blr_mean_field_fit",
    "classify_alpha",
    "energy_approx_objective",
    "evaluate_vae",
    "exact_vr_bound_blr",
    "finite_diff_check",
    "gaussian_kl",
    "mc_vr_estimate",
    "normalize_weights",
    "parse_alpha",
    "quadrature_oracle",
    "renyi_gaussian",
    "select_backprop_sample",
    "synthetic_binary_images",
    "synthetic_blr_instance",
    "synthetic_regression",
    "train",
    "validate_log_weights",
    "vr_grad",
    "weight_diagnostics",
]
