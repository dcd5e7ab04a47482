"""Single-hidden-layer Bayesian neural network for regression.

The network is f(x) = W2 relu(x W1 + b1) + b2 with a standard-normal prior
on every weight, a Gaussian likelihood whose noise scale is a learnable
hyper-parameter (kept in the log domain), and a mean-field Gaussian
approximation over the flattened weight vector. The flattened layout is
(W1, b1, W2, b2); the graph builders unpack it with differentiable slices so
all gradient flow goes through the shared tape. They take one weight vector
(W,) or K stacked draws (K, W), and return one value per draw. The prior is
not a method: ``training.posterior_log_weights`` takes it from
``ad.std_normal_logpdf_rows``, as for BLR.
"""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad

class BNNModel:
    """ReLU regression network with a factorized standard-normal prior."""

    def __init__(self, in_dim: int, hidden: int = 50):
        if in_dim < 1 or hidden < 1:
            raise ValueError("in_dim and hidden must be positive")
        self.in_dim = int(in_dim)
        self.hidden = int(hidden)

    @property
    def n_weights(self) -> int:
        return self.in_dim * self.hidden + self.hidden + self.hidden + 1

    def _split(self, theta: ad.Node):
        """W1 (..., d, h), b1 (..., 1, h), w2 (..., h, 1), b2 (..., 1)."""
        d, h = self.in_dim, self.hidden
        lead = ad.value(theta).shape[:-1]
        ofs = 0
        w1 = ad.reshape(ad.slice1d(theta, ofs, ofs + d * h), lead + (d, h))
        ofs += d * h
        b1 = ad.reshape(ad.slice1d(theta, ofs, ofs + h), lead + (1, h))
        ofs += h
        w2 = ad.reshape(ad.slice1d(theta, ofs, ofs + h), lead + (h, 1))
        ofs += h
        b2 = ad.slice1d(theta, ofs, ofs + 1)
        return w1, b1, w2, b2

    def predict_node(self, theta: ad.Node, x: np.ndarray) -> ad.Node:
        """Network outputs for inputs x (n, in_dim): shape (n,) for theta
        (W,), (K, n) for theta (K, W)."""
        w1, b1, w2, b2 = self._split(theta)
        hidden = ad.dense(x, w1, b1, "relu")
        out = ad.matmul(hidden, w2)
        return ad.reshape(out, ad.value(out).shape[:-1]) + b2

    def log_lik_node(self, theta: ad.Node, params: dict, x: np.ndarray, y: np.ndarray) -> ad.Node:
        """Summed Gaussian log likelihood of targets y at inputs x, per draw,
        with noise scale exp(params["log_noise"])."""
        preds = self.predict_node(theta, x)
        return ad.normal_logpdf_rows(np.asarray(y, dtype=float), preds, params["log_noise"])

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Initial mean-field parameters {mu, rho} plus {log_noise}."""
        rng = np.random.default_rng([int(seed), 0])
        mu = 0.1 * rng.standard_normal(self.n_weights)
        rho = np.full(self.n_weights, math.log(0.05))
        return {"mu": mu, "rho": rho, "log_noise": np.zeros(1)}
