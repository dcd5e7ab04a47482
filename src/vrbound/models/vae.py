"""One-stochastic-layer variational auto-encoder.

Encoder: x -> tanh layer -> (mu, rho) for the Gaussian recognition density
q(h|x) = N(mu(x), diag(exp(2 rho(x)))). Decoder: h -> tanh layer -> logits
(Bernoulli likelihood) or means (Gaussian likelihood with a learnable log
scale). The latent prior is the standard normal. Parameters are a dict of
named arrays, each layer's weights followed by its bias (the trainer keeps
them as views of one vector in that order). Each layer is one matrix
product: its inputs end in a column of ones, and its weights and bias form
one block [W; b] (``layers``, views of the trainer's vector), so no pass
adds a bias or sums one's gradient; the tanh layers are ``ad.layer``, as
the BNN's ReLU layer is. Noise may carry a leading axis of K draws, which
is carried through to the outputs, so K log weights per datapoint come
from one encoder pass.

``log_weight_rows`` returns the log weights with their written-out VJP: the
forward pass runs the array pieces ``_encode``, ``_decode``,
``GaussianReparam`` and, for the prior, ``ad.std_normal_logpdf_rows``, and
``_log_weight_vjp`` takes the gradients back through the likelihood and
the decoder, then through the reparameterization, the prior and log q
(``GaussianReparam.vjp``, which BLR and BNN share) and the encoder, once
per VJP call. ``train`` calls ``_log_weight_rows``, which takes the blocks
and the rows with their column of ones that it makes once per run.

``log_weight_matrix`` is the value-only path of held-out evaluation, where K
runs to thousands: it takes a noise generator and a draw count, and makes
one sampler (``_sampler``) for them. A sampler is made once per call, of
``log_weight_matrix`` or of ``training.evaluate_vae``, and makes what does
not depend on the draws: the layer blocks, the encoding, exp(rho) and
sum(rho), and the Bernoulli likelihood's products t w^T of the data with
the decoder's output layer. Its ``fill(rng, out)`` writes the log
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
# array of a chunk of draws in a ``_sampler``'s ``fill``. A worker holds the
# GIL between a chunk's few dozen numpy operations, so a chunk must be long
# enough for the arithmetic, which runs without the GIL, to dominate; and it
# must be short enough for two workers' chunks, each holding two arrays of
# the noise's width, to stay under the 10.3 MiB bound of
# ``test_memory_does_not_grow_with_the_latent_width``, and for the held-out
# fault probes of ``tests/test_training.py`` to stay under theirs. The
# timings, peaks and fault counts at 1 to 4 MiB are in CHANGES.md, in the
# entries that re-measured this comment.
_CHUNK_BYTES = 1536 * 1024

# Each layer's weights and bias by layer name, in ``init_params``'s order;
# ``VAEModel.layers`` makes of each pair one block [W; b].
_LAYERS = {
    "enc_1": ("enc_w1", "enc_b1"),
    "enc_mu": ("enc_w_mu", "enc_b_mu"),
    "enc_rho": ("enc_w_rho", "enc_b_rho"),
    "dec_1": ("dec_w1", "dec_b1"),
    "dec_2": ("dec_w2", "dec_b2"),
}


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

    def layers(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each layer's weights W and bias b as one block [W; b], its last
        row the bias, by layer name (``_LAYERS``), and ``dec_log_noise`` for
        the Gaussian likelihood: views of ``flat``, one float vector of
        every parameter in ``init_params``'s order, where each bias follows
        its weights, as ``train`` keeps them. A layer is then one product of
        its inputs, which end in a column of ones (``with_ones``), with its
        block."""
        shapes = self.param_shapes()
        if flat.shape != (sum(math.prod(shape) for shape in shapes.values()),):
            raise ValueError(f"flat parameters of shape {flat.shape} do not fit this model")
        blocks, start = {}, 0
        for layer, (weights, _) in _LAYERS.items():
            n_in, n_out = shapes[weights]
            blocks[layer] = flat[start : start + (n_in + 1) * n_out].reshape(n_in + 1, n_out)
            start += (n_in + 1) * n_out
        if self.likelihood == "gaussian":
            blocks["dec_log_noise"] = flat[start:]
        return blocks

    def _layers_of(self, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """``layers`` of parameters by name, in new blocks. The parameters
        must be those of ``param_shapes``, each of its shape there."""
        shapes = self.param_shapes()
        missing, extra = sorted(set(shapes) - set(params)), sorted(set(params) - set(shapes))
        if missing or extra:
            raise ValueError(f"tensors not the model's: missing {missing}, unexpected {extra}")
        for name, shape in shapes.items():
            if np.shape(params[name]) != shape:
                raise ValueError(f"tensor '{name}' has shape {np.shape(params[name])}, not {shape}")
        return self.layers(np.concatenate([np.ravel(params[name]) for name in shapes], dtype=float))

    def with_ones(self, x) -> np.ndarray:
        """The data rows ``x`` (..., data_dim) with a column of ones after
        their last, as the encoder's first layer takes them (see
        ``layers``). Bernoulli data must be 0 or 1, the mass's support."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.data_dim,):
            raise ValueError(f"data rows of shape {x.shape} must have {self.data_dim} columns")
        if self.likelihood == "bernoulli" and not ((x == 0.0) | (x == 1.0)).all():
            other = x[(x != 0.0) & (x != 1.0)][0]
            raise ValueError(f"the Bernoulli likelihood takes data of 0 and 1 only, not {other}")
        out = np.ones((*x.shape[:-1], self.data_dim + 1))
        out[..., :-1] = x
        return out

    # ------------------------------------------------------------------
    # the log weights (past ``log_weight_rows``, x is always a constant
    # (n, data_dim + 1) array of rows that end in ones; latents h are
    # (n, latent_dim) or (K, n, latent_dim), the decoder's input is them
    # with a column of ones, and outputs keep the K)

    def log_weight_rows(self, params: dict[str, np.ndarray], x: np.ndarray, eps: np.ndarray):
        """Per-datapoint log p(h, x) - log q(h|x), and its VJP: ``vjp(g)``
        gives the gradient of every parameter by name (see ``vr_grad``).

        ``eps`` of shape (n, latent_dim) is one noise draw and gives (n,);
        (K, n, latent_dim) is K draws and gives (K, n). The encoder runs once
        either way; the latent is the reparameterized
        h = mu(x) + exp(rho(x)) * eps. ``params`` are those of
        ``param_shapes`` by name, each of its shape there, and ``x`` holds
        rows of data_dim columns; each is checked and copied
        (``_layers_of``, ``with_ones``). The value is ``_forward``'s, which
        ``log_weight_matrix`` runs too, here on new arrays that the VJP,
        ``_log_weight_vjp``, keeps.
        """
        return self._log_weight_rows(self._layers_of(params), self.with_ones(x), eps)

    def _log_weight_rows(self, layers: dict[str, np.ndarray], x: np.ndarray, eps):
        """``log_weight_rows`` of the ``layers`` blocks and the rows ``x``
        with their column of ones, as ``train`` makes them once per run."""
        eps = np.asarray(eps, dtype=float)
        hid_e, mu, rho = self._encode(layers, x)
        reparam = GaussianReparam(mu, rho)
        out, saved = self._forward(layers, x[..., :-1], reparam, eps)
        return out, lambda g: self._log_weight_vjp(layers, x, eps, (hid_e, reparam, *saved), g)

    def _encode(self, layers: dict[str, np.ndarray], x: np.ndarray):
        """The encoder's tanh layer, with its column of ones, and the
        recognition parameters (mu, rho), of rows ``x`` that end in ones."""
        hid = ad.layer(x, layers["enc_1"], "tanh")
        return hid, hid @ layers["enc_mu"], hid @ layers["enc_rho"]

    def _forward(self, layers, targets, reparam: GaussianReparam, eps, t_w=None, ws=None):
        """The log weights of the noise ``eps`` under the encoder's
        ``reparam``, for the data rows ``targets``, and what their gradient
        needs: (the latents, a copy of them with a column of ones, the
        decoder's tanh layer with its own, the likelihood's state). The
        latents are made whole and then copied: numpy buffers a ufunc whose
        output rows are not contiguous. ``t_w`` is the Bernoulli
        likelihood's t w^T of the targets and the output layer, or None.
        Each row's value depends on that row's draw alone.

        Without ``ws`` every array is new and kept. ``ws`` is a chunk's
        workspace (``_workspace``), and ``eps`` its noise: every array of
        the chunk's size but the latents is written into it. Once log q has
        read the noise, its memory takes the latents with their column of
        ones, which the decoder reads. Nothing is squared in place. What is
        returned is the workspace's, and the caller reads only the log
        weights.
        """
        ws = ws or {}
        h = reparam.theta(eps)
        log_q = reparam.log_q(eps, ws.get("log_q"))
        h1 = ws["h"] if ws else np.empty((*h.shape[:-1], h.shape[-1] + 1))
        h1[..., :-1] = h
        h1[..., -1] = 1.0
        lik, hid, state = self._decode(layers, h1, targets, t_w, ws)
        lik += ad.std_normal_logpdf_rows(h, ws.get("prior"))
        lik -= log_q
        return lik, (h, h1, hid, state)

    def _decode(self, layers, h: np.ndarray, targets: np.ndarray, t_w=None, ws=None):
        """Per-datapoint log p(targets | h) of latents ``h`` that end in
        ones, shape (..., n); the decoder's tanh layer, with its column of
        ones; and what the likelihood's gradient needs: the softplus buffer
        of ``ad.bernoulli_rows_forward``, whose mass is exact at any logit,
        or the Gaussian means. ``t_w`` and ``ws`` are ``_forward``'s."""
        ws = ws or {}
        hid = ad.layer(h, layers["dec_1"], "tanh", ws.get("hid"))
        if self.likelihood == "bernoulli":
            rows, softplus = ad.bernoulli_rows_forward(
                hid, layers["dec_2"], targets, t_w,
                (ws["decoded"], ws["t_dot_z"], ws["rows"]) if ws else None,
            )
            return rows, hid, softplus
        means = np.matmul(hid, layers["dec_2"], out=ws.get("decoded"))
        rows = ad.normal_logpdf_rows(
            targets, means, layers["dec_log_noise"], ws.get("decoded"), ws.get("rows")
        )
        return rows, hid, means

    def _log_weight_vjp(self, layers, x, eps, saved, g) -> dict[str, np.ndarray]:
        """The gradient of every parameter from ``g`` at the log weights,
        back through ``log_weight_rows``'s forward pass, whose arrays
        ``saved`` holds. The gradient of a layer's block [W; b] is one
        product over its stacked (K, n, .) input rows, which end in ones
        (``_block_grads``). The gradient at a tanh layer's pre-activations
        (``ad.layer_grad``) is formed over its whole output, column of ones
        included, whose tanh' = 1 - 1 * 1 is 0, so that every elementwise
        step runs on a whole array."""
        hid_e, reparam, h, h1, hid, state = saved
        grads = {}
        if self.likelihood == "bernoulli":
            g_out = ad.bernoulli_rows_at_logits(state, x[..., :-1], g)
        else:
            # dec_log_noise is one log scale (``init_params`` makes it of
            # shape (1,), and a larger one fails to reshape)
            g_out, grads["dec_log_noise"] = ad.normal_rows_vjp(
                x[..., :-1], state, layers["dec_log_noise"], g
            )
        _block_grads(grads, "dec_2", hid, g_out)
        g_pre = ad.layer_grad(g_out @ layers["dec_2"].T, hid, "tanh")
        _block_grads(grads, "dec_1", h1, g_pre)
        g_mu, g_rho = reparam.vjp(h, eps, g, g_pre @ layers["dec_1"][:-1].T)
        _block_grads(grads, "enc_mu", hid_e, g_mu)
        _block_grads(grads, "enc_rho", hid_e, g_rho)
        g_pre = g_mu @ layers["enc_mu"].T
        g_pre += g_rho @ layers["enc_rho"].T
        _block_grads(grads, "enc_1", x, ad.layer_grad(g_pre, hid_e, "tanh"))
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
        returns them. The layer blocks, the rows with their column of ones,
        the encoding, ``GaussianReparam`` and, for the Bernoulli likelihood,
        the data's t w^T with the output layer are made here, once for every
        ``fill`` call.

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
        layers = self._layers_of(params)
        reparam = GaussianReparam(*self._encode(layers, self.with_ones(x))[1:])
        t_w = x @ layers["dec_2"].T if self.likelihood == "bernoulli" else None
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
                        log_w = self._forward(layers, x, reparam, chunk["eps"], t_w, chunk)[0]
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
        points, the draws on axis 0: the noise, and in its memory, once log
        q has read it, the latents with their column of ones (``_forward``);
        the decoder's tanh layer, with its column; its output (the logits or
        the Gaussian means); and rows for the prior, log q, the likelihood
        and the Bernoulli sums of t z, but no squares. A chunk of fewer draws
        takes the first draws of each, so its noise and latents share memory."""
        lead = (draws, n)
        latents = np.empty(draws * n * (self.latent_dim + 1))
        ws = {
            "eps": latents[: draws * n * self.latent_dim].reshape(*lead, self.latent_dim),
            "h": latents.reshape(*lead, self.latent_dim + 1),
            "hid": np.ones((*lead, self.hidden + 1)),
            "decoded": np.empty((*lead, self.data_dim)),
        }
        ws.update({name: np.empty(lead) for name in ("prior", "log_q", "t_dot_z", "rows")})
        return ws


def _block_grads(grads: dict, layer: str, inputs: np.ndarray, g_out: np.ndarray) -> None:
    """Put the gradients of ``layer``'s weights and bias into ``grads`` by
    name: one product of its input rows, which end in ones, with the
    gradient ``g_out`` at its outputs, their leading axes flattened, gives
    its block's, whose last row is the bias's."""
    weights, bias = _LAYERS[layer]
    block = inputs.reshape(-1, inputs.shape[-1]).T @ g_out.reshape(-1, g_out.shape[-1])
    grads[weights], grads[bias] = block[:-1], block[-1]


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1

