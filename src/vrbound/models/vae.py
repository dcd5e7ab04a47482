"""One-stochastic-layer variational auto-encoder.

Encoder: x -> tanh layer -> (mu, rho) for the Gaussian recognition density
q(h|x) = N(mu(x), diag(exp(2 rho(x)))). Decoder: h -> tanh layer -> logits
(Bernoulli likelihood) or means (Gaussian likelihood with a learnable log
scale). The latent prior is the standard normal. Parameters live in a flat
dict of named arrays so the trainer can move them through Adam generically;
the graph builders accept the matching dict of leaf nodes. Noise may carry a
leading axis of K draws, which the builders carry through to their outputs,
so K log weights per datapoint come from one graph with one encoder pass.
"""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad

_LOG_2PI = math.log(2.0 * math.pi)


class VAEModel:
    """MLP encoder/decoder pair with a single stochastic latent layer."""

    def __init__(
        self,
        data_dim: int,
        latent_dim: int = 2,
        hidden: int = 16,
        likelihood: str = "bernoulli",
        encoder_hidden: int | None = None,
    ):
        if likelihood not in ("bernoulli", "gaussian"):
            raise ValueError("likelihood must be 'bernoulli' or 'gaussian'")
        encoder_hidden = hidden if encoder_hidden is None else encoder_hidden
        if min(data_dim, latent_dim, hidden, encoder_hidden) < 1:
            raise ValueError("data_dim, latent_dim, hidden and encoder_hidden must be positive")
        self.data_dim = int(data_dim)
        self.latent_dim = int(latent_dim)
        self.hidden = int(hidden)
        self.encoder_hidden = int(encoder_hidden)
        self.likelihood = likelihood

    # ------------------------------------------------------------------
    # parameters

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng([int(seed), 0])
        d, l = self.data_dim, self.latent_dim
        he, hd = self.encoder_hidden, self.hidden

        def layer(n_in, n_out):
            return rng.standard_normal((n_in, n_out)) / math.sqrt(n_in)

        params = {
            "enc_w1": layer(d, he),
            "enc_b1": np.zeros(he),
            "enc_w_mu": layer(he, l),
            "enc_b_mu": np.zeros(l),
            "enc_w_rho": layer(he, l),
            "enc_b_rho": np.full(l, -1.0),
            "dec_w1": layer(l, hd),
            "dec_b1": np.zeros(hd),
            "dec_w2": layer(hd, d),
            "dec_b2": np.zeros(d),
        }
        if self.likelihood == "gaussian":
            params["dec_log_noise"] = np.zeros(1)
        return params

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: value.shape for name, value in self.init_params(0).items()}

    # ------------------------------------------------------------------
    # graph builders (x is always a constant (n, data_dim) array; latents
    # h are (n, latent_dim) or (K, n, latent_dim), and outputs keep the K)

    def encode_nodes(self, nodes: dict[str, ad.Node], x: np.ndarray):
        """Recognition parameters (mu, rho), each shape (n, latent_dim)."""
        hid = ad.tanh(ad.matmul(ad.as_node(x), nodes["enc_w1"]) + nodes["enc_b1"])
        mu = ad.matmul(hid, nodes["enc_w_mu"]) + nodes["enc_b_mu"]
        rho = ad.matmul(hid, nodes["enc_w_rho"]) + nodes["enc_b_rho"]
        return mu, rho

    def decode_nodes(self, nodes: dict[str, ad.Node], h: ad.Node) -> ad.Node:
        """Decoder outputs (logits or means), shape (..., n, data_dim)."""
        hid = ad.tanh(ad.matmul(h, nodes["dec_w1"]) + nodes["dec_b1"])
        return ad.matmul(hid, nodes["dec_w2"]) + nodes["dec_b2"]

    def log_lik_rows(self, nodes: dict[str, ad.Node], h: ad.Node, x: np.ndarray) -> ad.Node:
        """Per-datapoint log p(x | h), shape (..., n)."""
        out = self.decode_nodes(nodes, h)
        if self.likelihood == "bernoulli":
            return ad.bernoulli_logpmf_rows(out, x)
        return ad.normal_logpdf_rows(np.asarray(x, dtype=float), out, nodes["dec_log_noise"])

    def log_prior_rows(self, h: ad.Node) -> ad.Node:
        """Per-datapoint standard-normal log density of the latents."""
        return ad.vsum(h * h, axis=-1) * (-0.5) + (-0.5 * self.latent_dim * _LOG_2PI)

    def log_weight_rows(
        self, nodes: dict[str, ad.Node], x: np.ndarray, eps: np.ndarray
    ) -> ad.Node:
        """Per-datapoint log p(h, x) - log q(h|x).

        ``eps`` of shape (n, latent_dim) is one noise draw and gives (n,);
        (K, n, latent_dim) is K draws and gives (K, n). The encoder runs once
        either way; the latent is the reparameterized
        h = mu(x) + exp(rho(x)) * eps.
        """
        from ..gradients import GaussianReparam

        mu, rho = self.encode_nodes(nodes, x)
        reparam = GaussianReparam(mu, rho)
        h = reparam.theta(eps)
        joint = self.log_lik_rows(nodes, h, x) + self.log_prior_rows(h)
        return joint - reparam.log_q(eps)

    # ------------------------------------------------------------------
    # value-only paths

    def log_weight_matrix(
        self,
        params: dict[str, np.ndarray],
        x: np.ndarray,
        eps: np.ndarray,
    ) -> np.ndarray:
        """Log weights for eps of shape (K, n, latent_dim); returns (n, K)."""
        nodes = {name: ad.Node(value) for name, value in params.items()}
        return self.log_weight_rows(nodes, np.asarray(x, dtype=float), eps).value.T
