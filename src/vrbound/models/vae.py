"""One-stochastic-layer variational auto-encoder.

Encoder: x -> tanh layer -> (mu, rho) for the Gaussian recognition density
q(h|x) = N(mu(x), diag(exp(2 rho(x)))). Decoder: h -> tanh layer -> logits
(Bernoulli likelihood) or means (Gaussian likelihood with a learnable log
scale). The latent prior is the standard normal. Parameters are a dict of
named arrays (the trainer keeps them as views of one vector). Noise may
carry a leading axis of K draws, which is carried through to the outputs,
so K log weights per datapoint come from one encoder pass.

``log_weight_rows`` returns the log weights with their written-out VJP: the
forward pass runs the array pieces ``_encode``, ``_decode``,
``GaussianReparam`` and, for the prior, ``ad.std_normal_logpdf_rows``, and
``_log_weight_vjp`` takes the gradients back through the likelihood and
the decoder, then through the reparameterization, the prior and log q
(``GaussianReparam.vjp``, which BLR and BNN share) and the encoder, once
per VJP call.

``log_weight_matrix`` is the value-only path of held-out evaluation, where K
runs to thousands: it takes a noise generator and a draw count, and makes
one sampler (``_sampler``) for them. A sampler is made once per call, of
``log_weight_matrix`` or of ``training.evaluate_vae``, and makes what does
not depend on the draws: the encoding, exp(rho) and sum(rho), the decoder's
biases repeated for every point, the likelihood's products of the data with
the decoder's output layer, and whether that layer's logits can reach the
probability floor's cap at all. Its ``fill(rng, out)`` writes the log
weights of ``out``'s columns of new draws over chunks of draws small enough
to stay in cache, pulled by a worker per usable core. The worker that takes
a chunk draws its noise under the lock that hands the chunk out, so the
draws come in chunk order, into its workspace of chunk arrays, which the
sampler keeps for its later ``fill`` calls, and computes the chunk's log
weights in it with the forward pass that ``log_weight_rows`` runs on new
arrays. Each chunk writes its own columns of ``out``, so ``out`` is the
same, bit for bit, at any worker count.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import autodiff as ad
from ..gradients import GaussianReparam

# Byte budget of one float64 (rows, n * max(data_dim, hidden, latent_dim))
# array of a chunk of draws in a ``_sampler``'s ``fill``. A chunk is a few dozen
# numpy operations, and a worker holds the GIL between them, so a chunk must
# be long enough for the arithmetic, which runs without the GIL, to dominate.
# On 2 cores, a 5000-draw call on 100 points of width 64 took about as long
# at 1, 1.5 and 2 MiB (20, 30 and 40 draws a chunk; medians of 10 calls in
# each of 2 fresh processes: 275-357, 276-310 and 288-304 ms on a slow spell
# of the host, where an earlier measurement read 125-128 ms at each). A
# chunk holds two arrays of the noise's width at once (the noise, and the
# latents that the prior squares in place), so at latent width 50 two
# workers peaked at 5.5, 8.0 and 10.6 MiB at 1, 1.5 and 2 MiB, against the
# 10.3 MiB bound of ``test_memory_does_not_grow_with_the_latent_width``.
# Evaluating 100 points at k_ref 5000 twice in a fresh process
# (``tests/test_training.py``'s fault probe) took 1.1k, 1.4k, 1.8k and 3.2k
# minor page faults at 1, 1.5, 2 and 4 MiB.
_CHUNK_BYTES = 1536 * 1024


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
    # the log weights (x is always a constant (n, data_dim) array; latents
    # h are (n, latent_dim) or (K, n, latent_dim), and outputs keep the K)

    def log_weight_rows(self, params: dict[str, np.ndarray], x: np.ndarray, eps: np.ndarray):
        """Per-datapoint log p(h, x) - log q(h|x), and its VJP: ``vjp(g)``
        gives the gradient of every parameter by name (see ``vr_grad``).

        ``eps`` of shape (n, latent_dim) is one noise draw and gives (n,);
        (K, n, latent_dim) is K draws and gives (K, n). The encoder runs once
        either way; the latent is the reparameterized
        h = mu(x) + exp(rho(x)) * eps. The value is ``_forward``'s, which
        ``log_weight_matrix`` runs too, here on new arrays that the VJP,
        ``_log_weight_vjp``, keeps.
        """
        x = np.asarray(x, dtype=float)
        eps = np.asarray(eps, dtype=float)
        hid_e, mu, rho = self._encode(params, x)
        reparam = GaussianReparam(mu, rho)
        out, saved = self._forward(params, x, self._fixed(params, x), reparam, eps)
        return out, lambda g: self._log_weight_vjp(params, x, eps, (hid_e, reparam, *saved), g)

    def _encode(self, params: dict[str, np.ndarray], x: np.ndarray):
        """The encoder's tanh layer and the recognition parameters (mu, rho)."""
        hid = ad.dense(x, params["enc_w1"], params["enc_b1"], "tanh")
        mu = ad.dense(hid, params["enc_w_mu"], params["enc_b_mu"])
        rho = ad.dense(hid, params["enc_w_rho"], params["enc_b_rho"])
        return hid, mu, rho

    def _fixed(self, params: dict[str, np.ndarray], x: np.ndarray) -> dict:
        """What the decoder takes of the parameters and the data whatever the
        draws: its biases repeated for every point, so that adding them
        loops over whole matrices (see ``b_rows`` of ``ad.bernoulli_layer``),
        and for the Bernoulli likelihood ``ad.bernoulli_layer`` of the
        output layer, whose input is a tanh layer's."""
        lead = (*x.shape[:-1], 1)
        fixed = {"dec_b1": np.tile(params["dec_b1"], lead)}
        if self.likelihood == "bernoulli":
            fixed["layer"] = ad.bernoulli_layer(
                params["dec_w2"], params["dec_b2"], x, unit_inputs=True
            )
        else:
            fixed["dec_b2"] = np.tile(params["dec_b2"], lead)
        return fixed

    def _forward(self, params, x, fixed: dict, reparam: GaussianReparam, eps, ws=None):
        """The log weights of the noise ``eps`` under the encoder's
        ``reparam``, and what their gradient needs: (the latents, the
        decoder's tanh layer, the likelihood's state). ``fixed`` is
        ``_fixed``'s. Each row's value depends on that row's draw alone.

        Without ``ws`` every array is new and kept. ``ws`` is a chunk's
        workspace (``_workspace``), and ``eps`` its noise: every array of
        the chunk's size but the latents is written into it, and the
        latents and the noise are squared in place for the prior and log q
        once the decoder has read them, so what is returned is the
        workspace's and only the log weights hold their values.
        """
        reuse, ws = ws is not None, ws or {}
        h = reparam.theta(eps)
        lik, hid, state = self._decode(params, h, x, fixed, ws)
        prior = ad.std_normal_logpdf_rows(h, h if reuse else None, ws.get("prior"))
        lik += prior
        lik -= reparam.log_q(eps, eps if reuse else None, ws.get("log_q"))
        return lik, (h, hid, state)

    def _decode(self, params, h: np.ndarray, x: np.ndarray, fixed: dict, ws=None):
        """Per-datapoint log p(x | h), shape (..., n); the decoder's tanh
        layer; and what the likelihood's gradient needs: the softplus buffer
        and cap mask of ``ad.bernoulli_rows_forward``, or the Gaussian means.
        ``fixed`` and ``ws`` are ``_forward``'s; ``ws`` may be none."""
        ws = ws or {}
        hid = ad.dense(h, params["dec_w1"], fixed["dec_b1"], "tanh", ws.get("hid"))
        if self.likelihood == "bernoulli":
            rows, softplus, inside = ad.bernoulli_rows_forward(
                hid, params["dec_w2"], params["dec_b2"], x, fixed["layer"],
                (ws["decoded"], ws["t_dot_z"], ws["rows"]) if ws else None,
            )
            return rows, hid, (softplus, inside)
        means = ad.dense(hid, params["dec_w2"], fixed["dec_b2"], None, ws.get("decoded"))
        rows = ad.normal_logpdf_rows(
            x, means, params["dec_log_noise"], ws.get("decoded"), ws.get("rows")
        )
        return rows, hid, means

    def _log_weight_vjp(self, params, x, eps, saved, g) -> dict[str, np.ndarray]:
        """The gradient of every parameter from ``g`` at the log weights,
        back through ``log_weight_rows``'s forward pass, whose arrays
        ``saved`` holds. The weight gradient of a stacked (K, n, .) layer is
        one product over its flattened rows."""
        hid_e, reparam, h, hid, state = saved
        grads = {}
        if self.likelihood == "bernoulli":
            g_out = ad.bernoulli_rows_at_logits(*state, x, g)
        else:
            # dec_log_noise is one log scale (``init_params`` makes it of
            # shape (1,), and a larger one fails to reshape)
            g_out, grads["dec_log_noise"] = ad.normal_rows_vjp(
                x, state, params["dec_log_noise"], g
            )
        grads["dec_w2"] = _rows(hid).T @ _rows(g_out)
        grads["dec_b2"] = _rows(g_out).sum(axis=0)
        g_pre = g_out @ params["dec_w2"].T
        g_pre *= 1.0 - hid * hid
        grads["dec_w1"] = _rows(h).T @ _rows(g_pre)
        grads["dec_b1"] = _rows(g_pre).sum(axis=0)
        g_mu, g_rho = reparam.vjp(h, eps, g, g_pre @ params["dec_w1"].T)
        grads["enc_w_mu"] = _rows(hid_e).T @ _rows(g_mu)
        grads["enc_b_mu"] = _rows(g_mu).sum(axis=0)
        grads["enc_w_rho"] = _rows(hid_e).T @ _rows(g_rho)
        grads["enc_b_rho"] = _rows(g_rho).sum(axis=0)
        g_pre = g_mu @ params["enc_w_mu"].T
        g_pre += g_rho @ params["enc_w_rho"].T
        g_pre *= 1.0 - hid_e * hid_e
        grads["enc_w1"] = _rows(x).T @ _rows(g_pre)
        grads["enc_b1"] = _rows(g_pre).sum(axis=0)
        return grads

    # ------------------------------------------------------------------
    # value-only path

    def log_weight_matrix(
        self,
        params: dict[str, np.ndarray],
        x: np.ndarray,
        rng: np.random.Generator,
        k: int,
    ) -> np.ndarray:
        """Log weights of ``k`` noise draws per row of ``x``; returns (n, k).

        Equal bit for bit to ``log_weight_rows(params, x, eps)[0].T`` with eps
        the one-shot draw ``rng.standard_normal((k, n, latent_dim))``, and
        ``rng`` is left in the state that draw leaves it in. One ``_sampler``
        call makes the draws, so the memory is the (n, k) result and a few
        chunks, whatever the latent width, and the result does not depend on
        the worker count. k = 0 gives an empty (n, 0) matrix.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty((x.shape[0], k))
        self._sampler(params, x)(rng, out)
        return out

    def _sampler(self, params: dict[str, np.ndarray], x: np.ndarray):
        """``fill(rng, out)``, which writes the log weights of
        ``out.shape[1]`` new draws of ``rng`` into the columns of the
        (n, draws) array ``out``, in draw order, as ``log_weight_matrix``
        returns them. The encoding, ``GaussianReparam`` and ``_fixed`` are
        made here, once for every ``fill`` call.

        ``fill`` runs ``log_weight_rows``'s forward pass over chunks of
        draws whose float64 (rows, n * max(data_dim, hidden, latent_dim))
        arrays take at most ``_CHUNK_BYTES``, or one draw each, on min(cores,
        chunks) workers that pull the chunks in order. One lock hands out
        the next chunk and draws its noise, so the draws come in chunk order
        whichever worker takes them, and a worker that is done early takes
        the next chunk rather than waiting for the others at the end. Each
        worker computes its chunks in one workspace (``_workspace``), sized
        by the first chunk of the call that makes it and kept for the later
        calls; a shorter chunk takes views of it. The calling thread is one
        worker; the others are threads of a pool that lives for one call,
        each running in a copy of the caller's context, so the caller's
        ``np.errstate`` holds in every worker. Once a worker raises, no
        worker pulls another chunk, and the exception is raised once all
        workers have stopped. Chunk bounds do not depend on the worker
        count, and neither does ``out``.
        """
        n = x.shape[0]
        reparam = GaussianReparam(*self._encode(params, x)[1:])
        fixed = self._fixed(params, x)
        width = n * max(self.data_dim, self.hidden, self.latent_dim)
        step = max(1, _CHUNK_BYTES // (8 * width))
        kept = []  # the workspaces of earlier calls' workers

        def fill(rng: np.random.Generator, out: np.ndarray) -> None:
            k = out.shape[1]
            draws = min(step, k)  # the largest chunk
            starts = range(0, k, step)
            pending = iter(starts)
            lock = threading.Lock()
            failed = threading.Event()

            def work() -> None:
                ws = None
                try:
                    while True:
                        with lock:
                            start = None if failed.is_set() else next(pending, None)
                            if start is None:
                                return
                            if ws is None:
                                ws = kept.pop() if kept else None
                                if ws is None or len(ws["eps"]) < draws:
                                    ws = self._workspace(draws, n)
                            chunk = {name: a[: min(draws, k - start)] for name, a in ws.items()}
                            rng.standard_normal(out=chunk["eps"])
                        log_w = self._forward(params, x, fixed, reparam, chunk["eps"], chunk)[0]
                        out[:, start : start + len(log_w)] = log_w.T
                except BaseException:
                    failed.set()
                    raise
                finally:
                    if ws is not None:
                        kept.append(ws)

            workers = min(_usable_cores(), len(starts))
            if workers <= 1:
                work()
                return
            with ThreadPoolExecutor(max_workers=workers - 1) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, work) for _ in range(1, workers)
                ]
                work()
                for future in futures:
                    future.result()

        return fill

    def _workspace(self, draws: int, n: int) -> dict[str, np.ndarray]:
        """A worker's arrays for chunks of up to ``draws`` draws of ``n``
        points, the draws on axis 0: the noise, the decoder's tanh layer,
        its output (the logits or the Gaussian means), and rows for the
        prior, log q, the likelihood and the Bernoulli sums of t z."""
        shapes = {
            "eps": (draws, n, self.latent_dim),
            "hid": (draws, n, self.hidden),
            "decoded": (draws, n, self.data_dim),
        }
        shapes.update(dict.fromkeys(("prior", "log_q", "t_dot_z", "rows"), (draws, n)))
        return {name: np.empty(shape) for name, shape in shapes.items()}


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix of its last axis, its other axes flattened."""
    return a.reshape(-1, a.shape[-1])


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1

