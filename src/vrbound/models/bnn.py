"""Single-hidden-layer Bayesian neural network for regression.

The network is f(x) = W2 relu(x W1 + b1) + b2 with a standard-normal prior
on every weight, a Gaussian likelihood whose noise scale is a learnable
hyper-parameter (kept in the log domain), and a mean-field Gaussian
approximation over the flattened weight vector. The flattened layout is
(W1, b1, W2, b2). Everything runs on arrays: ``predict`` and
``log_lik_node`` take one weight vector (W,) or K stacked draws (K, W), and
give one value per draw and point, or per draw. ``log_lik_node`` returns
its VJP with it, written out through the Gaussian likelihood, the output
layer and the ReLU layer; ``training.posterior_log_weights`` chains it into
the VJP of the reparameterization, the N(0, I) prior and log q, and returns
the training step's log weights with that one VJP.
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

    def _split(self, theta: np.ndarray):
        """Views W1 (..., d, h), b1 (..., 1, h), w2 (..., h, 1), b2 (..., 1)."""
        d, h = self.in_dim, self.hidden
        lead = theta.shape[:-1]
        w1 = theta[..., : d * h].reshape(lead + (d, h))
        b1 = theta[..., d * h : d * h + h].reshape(lead + (1, h))
        w2 = theta[..., d * h + h : d * h + 2 * h].reshape(lead + (h, 1))
        return w1, b1, w2, theta[..., -1:]

    def _forward(self, theta: np.ndarray, x: np.ndarray):
        """The ReLU layer (..., n, h) and the outputs (..., n)."""
        w1, b1, w2, b2 = self._split(theta)
        hidden = ad.dense(x, w1, b1, "relu")
        out = hidden @ w2
        return hidden, out.reshape(out.shape[:-1]) + b2

    def predict(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Network outputs for inputs x (n, in_dim): shape (n,) for theta
        (W,), (K, n) for theta (K, W)."""
        return self._forward(np.asarray(theta, dtype=float), x)[1]

    def log_lik_node(self, theta: np.ndarray, params: dict, x: np.ndarray, y: np.ndarray):
        """Summed Gaussian log likelihood of targets y at inputs x, per draw,
        with noise scale exp(params["log_noise"]), and its VJP: given g at
        the values, the gradient at theta and {"log_noise": its gradient}.
        The prior is the caller's (``training.posterior_log_weights``)."""
        y = np.asarray(y, dtype=float)
        log_noise = params["log_noise"]
        hidden, preds = self._forward(theta, x)
        rows = ad.normal_logpdf_rows(y, preds, log_noise)

        def vjp(g):
            g_preds, g_noise = ad.normal_rows_vjp(y, preds, log_noise, g)
            g_out = g_preds[..., None]  # at hidden @ w2, (..., n, 1)
            g_pre = g_out @ np.swapaxes(self._split(theta)[2], -1, -2)
            g_pre *= hidden > 0.0
            g_theta = np.concatenate(
                [
                    (x.T @ g_pre).reshape(theta.shape[:-1] + (-1,)),
                    g_pre.sum(axis=-2),
                    (np.swapaxes(hidden, -1, -2) @ g_out)[..., 0],
                    g_preds.sum(axis=-1, keepdims=True),
                ],
                axis=-1,
            )
            return g_theta, {"log_noise": g_noise}

        return rows, vjp

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Initial mean-field parameters {mu, rho} plus {log_noise}."""
        rng = np.random.default_rng([int(seed), 0])
        mu = 0.1 * rng.standard_normal(self.n_weights)
        rho = np.full(self.n_weights, math.log(0.05))
        return {"mu": mu, "rho": rho, "log_noise": np.zeros(1)}
