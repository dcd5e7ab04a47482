"""Single-hidden-layer Bayesian neural network for regression.

The network is f(x) = W2 relu(x W1 + b1) + b2 with a standard-normal prior
on every weight, a Gaussian likelihood whose noise scale is a learnable
hyper-parameter (kept in the log domain), and a mean-field Gaussian
approximation over the flattened weight vector. The flattened layout is
(W1, b1, W2, b2), so each layer's weights and bias are one contiguous
block [W; b], and a layer is one product of its inputs, which end in a
column of ones, with its block (``ad.layer`` for the ReLU layer), as the
VAE's layers are. Everything runs on arrays: ``predict`` and
``log_lik_node`` take one weight vector (W,) or K stacked draws (K, W),
and give one value per draw and point, or per draw. ``log_lik_node``
returns its VJP with it, written out through the Gaussian likelihood, the
output layer and the ReLU layer: each block's gradient is one product,
written into its view of one array of theta's shape.
``training.posterior_log_weights`` chains it into the VJP of the
reparameterization, the N(0, I) prior and log q, and returns the training
step's log weights with that one VJP.
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
        """Views of the layers' blocks [W1; b1] (..., d + 1, h) and
        [W2; b2] (..., h + 1, 1), each layer's bias the last row of its
        block."""
        cut = (self.in_dim + 1) * self.hidden
        lead = theta.shape[:-1]
        return (
            theta[..., :cut].reshape(lead + (self.in_dim + 1, self.hidden)),
            theta[..., cut:].reshape(lead + (self.hidden + 1, 1)),
        )

    def _forward(self, theta: np.ndarray, x: np.ndarray):
        """The inputs with their column of ones (n, d + 1), the ReLU layer
        with its own (..., n, h + 1), and the outputs (..., n): one product
        per layer."""
        block1, block2 = self._split(theta)
        x1 = np.ones((x.shape[0], self.in_dim + 1))
        x1[:, :-1] = x
        hidden = ad.layer(x1, block1, "relu")
        return x1, hidden, (hidden @ block2)[..., 0]

    def predict(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Network outputs for inputs x (n, in_dim): shape (n,) for theta
        (W,), (K, n) for theta (K, W)."""
        return self._forward(np.asarray(theta, dtype=float), x)[2]

    def log_lik_node(self, theta: np.ndarray, params: dict, x: np.ndarray, y: np.ndarray):
        """Summed Gaussian log likelihood of targets y at inputs x, per draw,
        with noise scale exp(params["log_noise"]), and its VJP: given g at
        the values, the gradient at theta and {"log_noise": its gradient}.
        The prior is the caller's (``training.posterior_log_weights``)."""
        y = np.asarray(y, dtype=float)
        log_noise = params["log_noise"]
        x1, hidden, preds = self._forward(theta, x)
        rows = ad.normal_logpdf_rows(y, preds, log_noise)

        def vjp(g):
            g_preds, g_noise = ad.normal_rows_vjp(y, preds, log_noise, g)
            g_out = g_preds[..., None]  # at hidden @ [W2; b2], (..., n, 1)
            g_theta = np.empty(theta.shape)
            g_block1, g_block2 = self._split(g_theta)
            np.matmul(np.swapaxes(hidden, -1, -2), g_out, out=g_block2)
            g_hidden = g_out @ np.swapaxes(self._split(theta)[1], -1, -2)
            np.matmul(x1.T, ad.layer_grad(g_hidden, hidden, "relu"), out=g_block1)
            return g_theta, {"log_noise": g_noise}

        return rows, vjp

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Initial mean-field parameters {mu, rho} plus {log_noise}."""
        rng = np.random.default_rng([int(seed), 0])
        mu = 0.1 * rng.standard_normal(self.n_weights)
        rho = np.full(self.n_weights, math.log(0.05))
        return {"mu": mu, "rho": rho, "log_noise": np.zeros(1)}
