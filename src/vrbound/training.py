"""Stochastic optimization of variational Renyi objectives.

Two training regimes share one loop:

* posterior inference (Bayesian linear regression, BNN): the objective is
  the mini-batch energy approximation, the K-sample bound estimate applied to
  log w = log p0(theta) + (N/M) * sum_{x in S} log p(x|theta) - log q(theta),
  which coincides with the full-data estimate when the batch is the whole
  dataset. ``posterior_log_weights`` forms them, with their VJP, from the
  standard-normal prior ``ad.std_normal_logpdf_rows(theta)`` and the
  model's ``log_lik_node(theta, params, x, y)``, which BLR and BNN share:
  it gives the likelihood of every draw and its VJP;
* maximum likelihood for latent-variable models (VAE): the per-datapoint
  K-sample bound, averaged over the mini-batch, with each datapoint getting
  its own noise draws.

Both regimes support the single-backward-pass mode: instead of the full
weighted gradient, one sample j is selected per weight set (categorically for
finite alpha, argmax of the log weights at alpha = -inf, argmin at +inf) and
only log w_j is back-propagated.

The models differ only in their initial parameters (``init_params(seed)``),
training rows, noise shape and log-weight builder. Every step draws the noise
for all K draws, runs the builder once (one forward pass that returns the log
weights and their written-out VJP), makes one ``vr_grad`` call on them (one
check of the log weights, one VJP call and one check of the gradients, which
land in the trainer's flat gradient vector, ``out``), stops the run on a -inf
log weight, which ``vr_grad`` allows, takes the gradient norm as one
reduction over the flat gradient, takes an Adam step on one flat vector
that holds every parameter in the same layout (``params`` are named views
of it), and keeps the log weights, without a second check: at the end of
each epoch the run record gets every step's estimate and log R, averaged
over its weight sets, from one reduction over the epoch's sets. For the
VAE, what a step would otherwise make for one use is made once per run:
each layer's block [W; b] is a view of the flat vector (``VAEModel.layers``),
and every training row gets its column of ones (``VAEModel.with_ones``).

Held-out evaluation (``evaluate_vae``) needs no gradient. It makes one
sampler per call (``VAEModel._sampler``, the model's value-only path, which
``log_weight_matrix`` runs too): the encoding once, and then cache-sized
chunks of draws, pulled by a worker per usable core, each drawing its
chunk's noise as it takes the chunk into the workspace of chunk arrays that
it keeps across the sampler's calls. Per repeat it draws max(K, k_ref)
samples per point through the sampler, in segments of ``_SEGMENT`` draws,
and keeps no (n, max(K, k_ref)) matrix: a segment's log weights go to one
buffer, and each (alpha, K) cell keeps each point's estimate of the
segment's columns among its first K draws, which it merges at the end of
the repeat. The buffer, the sampler and its workspaces are made once per
call, whatever the latent width, the K shown and k_ref; what grows with a
K is its cells' (n, K / _SEGMENT) estimates. The table is the same at any
chunk size, worker count and estimator block size.

Randomness is organized in named streams derived from (seed, stream id,
index), so shuffling, noise, and evaluation draws are reproducible
independently of each other.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .alpha import classify_alpha
from .bounds import _estimate, _segment_counts, mc_vr_estimate, validate_log_weights
from .gradients import GaussianReparam, _log_ratio, vr_grad
from .models.blr import BLRModel
from .models.bnn import BNNModel
from .models.data import Dataset
from .models.vae import VAEModel

__all__ = [
    "Adam",
    "EvalRow",
    "RunRecord",
    "TrainConfig",
    "TrainingDiverged",
    "evaluate_vae",
    "mc_vr_estimate",
    "posterior_log_weights",
    "train",
]

# Stream ids for seed derivation.
_STREAM_SHUFFLE = 1
_STREAM_NOISE = 2
_STREAM_SELECT = 3
_STREAM_EVAL = 4

# Held-out evaluation draws the max(K, k_ref) samples of a repeat in
# segments of this many, and keeps each segment's estimate rather than its
# log weights (see ``evaluate_vae``). A segment's (n, _SEGMENT) buffer is the
# eval block's largest array, so a shorter segment holds less; but each
# segment is one ``fill`` call of the sampler, whose workers meet at its end,
# so a shorter one waits more. Peaks and timings at 256 to 2048 draws are in
# ``BENCH_26.json`` and its CHANGES.md entry.
_SEGMENT = 1024

# The largest log R whose exp is a finite float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class TrainingDiverged(RuntimeError):
    """Raised when the objective or a gradient stops being finite."""

    def __init__(self, step: int, message: str, last_params: dict[str, np.ndarray]):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.last_params = last_params


@dataclass
class TrainConfig:
    alpha: float = 1.0
    k: int = 5
    minibatch: int = 32
    steps: int = 1000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    single_backprop: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.minibatch < 1:
            raise ValueError("minibatch must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
        classify_alpha(self.alpha)


@dataclass
class RunRecord:
    """Append-only per-step metrics of one training run."""

    seed: int
    alpha: float
    steps: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    log_weight_ratio: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)

    def append(self, step: int, objective: float, grad_norm: float, log_r: float, wall: float):
        self.steps.append(step)
        self.objective.append(objective)
        self.grad_norm.append(grad_norm)
        self.log_weight_ratio.append(log_r)
        self.wall_time.append(wall)

    def as_records(self) -> list[dict]:
        return [
            {
                "step": s,
                "objective": o,
                "grad_norm": g,
                "log_weight_ratio": r,
                "weight_ratio": math.exp(r) if r <= _LOG_FLOAT_MAX else math.inf,
                "wall_time": w,
            }
            for s, o, g, r, w in zip(
                self.steps, self.objective, self.grad_norm, self.log_weight_ratio, self.wall_time
            )
        ]


class Adam:
    """Adam with bias correction on one flat parameter vector. Zero
    gradients from the start leave the parameters fixed; after a nonzero
    one, momentum moves them on."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Ascent step on ``params`` in place (gradients point uphill). Each
        element is updated by the same operations, in the same order, as
        the textbook per-tensor form, so the bits do not depend on how the
        parameters are laid out in the vector."""
        self.t += 1
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        g2 = (1.0 - self.beta2) * grads
        g2 *= grads
        v += g2
        step = m / (1.0 - self.beta1**self.t)
        step *= self.lr
        denom = v / (1.0 - self.beta2**self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params += step


# ----------------------------------------------------------------------
# energy approximation (posterior inference objective)


def posterior_log_weights(model, params, x, y, noise, scale):
    """log p0(theta) + scale * log p(y | x, theta) - log q(theta) for the K
    draws in ``noise`` (K, dim), shape (K,): the energy log weights of batch
    rows (x, y) at scale N/M, whose bound estimate is
    ``mc_vr_estimate(log_w, alpha)``.

    ``params`` are q's mu and rho, and BNN's log_noise. Returns the log
    weights and their VJP, which chains the model's likelihood VJP, from
    ``log_lik_node``, into ``GaussianReparam.vjp``: ``vjp(g)`` gives the
    gradient of every parameter by name (see ``vr_grad``).
    """
    reparam = GaussianReparam(params["mu"], params["rho"])
    theta = reparam.theta(noise)
    log_lik, log_lik_vjp = model.log_lik_node(theta, params, x, y)
    out = ad.std_normal_logpdf_rows(theta) + log_lik * scale - reparam.log_q(noise)

    def vjp(g):
        g_theta, grads = log_lik_vjp(g * scale)
        grads["mu"], grads["rho"] = reparam.vjp(theta, noise, g, g_theta)
        return grads

    return out, vjp


# ----------------------------------------------------------------------
# training loops


def train(model, config: TrainConfig, dataset: Dataset | None = None):
    """Fit the model's variational parameters; returns (params, RunRecord).

    Posterior inference for ``BLRModel`` and ``BNNModel`` (energy
    approximation objective), maximum likelihood for ``VAEModel``
    (per-datapoint bound, averaged over the minibatch). Deterministic given
    the config seed. The returned params are named views of the one vector
    that Adam updates.
    """
    params, x, y = _initial_state(model, config, dataset)
    flat, params = _flat_views(params)
    flat_grads = np.empty_like(flat)
    n = x.shape[0]
    m = min(config.minibatch, n)
    vae = isinstance(model, VAEModel)
    if vae:  # each layer's block [W; b] is a view of flat, and each row ends in a one
        layers, x = model.layers(flat), model.with_ones(x)
    adam = Adam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    record = RunRecord(seed=config.seed, alpha=config.alpha)
    start = time.perf_counter()
    step = 0
    epoch = 0
    while step < config.steps:
        done = []  # (step, gradient norm, wall time, log weights)
        for batch_idx in _epoch_batches(n, m, config.seed, epoch):
            if step >= config.steps:
                break
            rows = x[batch_idx]
            noise_rng = np.random.default_rng([config.seed, _STREAM_NOISE, step])
            # (K, rows) per-datapoint log weights for the VAE, (K,) energy
            # log weights at scale N/M for BLR and BNN. The previous step's
            # pair, with the forward arrays its VJP keeps, is freed only once
            # this one exists, so that its memory is taken again rather than
            # handed back to the system and faulted in anew:
            # ``test_training_does_not_churn_page_faults`` bounds the faults,
            # and its comment gives the counts.
            if vae:
                noise = noise_rng.standard_normal((config.k, rows.shape[0], model.latent_dim))
                log_w, vjp = model._log_weight_rows(layers, rows, noise)
            else:
                noise = noise_rng.standard_normal((config.k, *params["mu"].shape))
                scale = n / batch_idx.shape[0]
                log_w, vjp = posterior_log_weights(model, params, rows, y[batch_idx], noise, scale)
            select_rng = None
            if config.single_backprop:
                select_rng = np.random.default_rng([config.seed, _STREAM_SELECT, step])
            try:
                vr_grad(log_w, vjp, params, config.alpha, select_rng, flat_grads)
            except FloatingPointError as exc:
                raise TrainingDiverged(step, str(exc), params) from exc
            # vr_grad allows zero-density (-inf) samples; a training step does not.
            if not np.isfinite(log_w).all():
                raise TrainingDiverged(step, "non-finite objective", params)
            gnorm = math.sqrt(flat_grads @ flat_grads)
            if not math.isfinite(gnorm):
                raise TrainingDiverged(step, "non-finite gradient", params)
            adam.step(flat, flat_grads)
            if not np.isfinite(flat).all():
                name = next(name for name, v in params.items() if not np.isfinite(v).all())
                raise TrainingDiverged(step, f"parameter '{name}' became non-finite", params)
            done.append((step, gnorm, time.perf_counter() - start, log_w))
            step += 1
        _record_steps(record, done, config.alpha)
        epoch += 1
    return params, record


def _record_steps(record: RunRecord, done: list, alpha: float) -> None:
    """Append steps to the record, each with the mean estimate and log R of
    its weight sets, from one ``_estimate`` and one ``_log_ratio`` call over
    the (sets, K) rows of every step's (K, ...) log weights: each set is
    reduced on its own, so a step's values have the bits of a call on its
    sets alone. The means of a run of steps with as many sets each are the
    row means of one (steps, sets) array, each with the bits of its row's
    mean alone."""
    k = done[0][3].shape[0]
    sets = np.concatenate([log_w.reshape(k, -1) for *_, log_w in done], axis=1).T.copy()
    values = np.stack([_estimate(sets, alpha), _log_ratio(sets)])
    stop = 0
    for size, steps in itertools.groupby(done, key=lambda step: step[3].size // k):
        steps = list(steps)
        start, stop = stop, stop + size * len(steps)
        means = values[:, start:stop].reshape(2, len(steps), size).mean(axis=-1)
        for (step, gnorm, wall, _), objective, log_r in zip(steps, *means.tolist()):
            record.append(step, objective, gnorm, log_r, wall)


def _flat_views(params: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One float vector holding every parameter, and a dict of named views
    of it in the same order and shapes."""
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in params.values()])
    views, start = {}, 0
    for name, v in params.items():
        views[name] = flat[start : start + np.size(v)].reshape(np.shape(v))
        start += np.size(v)
    return flat, views


def _initial_state(model, config: TrainConfig, dataset: Dataset | None):
    """Initial parameters and training rows (x, y) of a model; y is None for
    the VAE, which has no targets."""
    if isinstance(model, BLRModel):
        x, y = model.design, model.targets
    elif not isinstance(model, (BNNModel, VAEModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    elif dataset is None:
        raise ValueError(f"{type(model).__name__} training requires a dataset")
    else:
        x = dataset.train_features
        y = None if isinstance(model, VAEModel) else dataset.train_targets
    return model.init_params(config.seed), x, y


def _epoch_batches(n: int, batch: int, seed: int, epoch: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, _STREAM_SHUFFLE, epoch])
    order = rng.permutation(n)
    return [order[i : i + batch] for i in range(0, n, batch)]


# ----------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalRow:
    alpha: float
    k: int
    mean_bound: float
    se_bound: float
    mean_gap: float
    se_gap: float


def evaluate_vae(
    model: VAEModel,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    alphas: list[float],
    ks: list[int],
    repeats: int = 10,
    seed: int = 0,
    k_ref: int = 5000,
) -> list[EvalRow]:
    """Held-out bound table with gaps against the alpha = 0 reference.

    For every repeat, one block of max(K, k_ref) log weights per datapoint is
    drawn and shared by every (alpha, K) cell and the reference, the cell
    (0, k_ref), shown or not (common random numbers). Sharing makes the gap at
    (alpha=0, K=k_ref) identically zero and sharpens every comparison.
    Rows report means over datapoints and repeats, with standard errors over
    the per-datapoint averages.

    The block is drawn in segments of ``_SEGMENT`` draws, and every cell is
    estimated one way: it keeps each point's estimate of every segment's
    columns among its first K draws, and merges them at the end of the
    repeat (``bounds._estimate`` with the segments' sizes). That is the
    estimate of the first K draws up to rounding, and exactly it when they
    lie in one segment.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if not ks or min(int(k) for k in ks) < 1 or int(k_ref) < 1:
        raise ValueError("sample counts must be positive")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"standard errors need at least 2 points, got {n}")

    per_point: dict[tuple[float, int], np.ndarray] = {
        (float(a), int(k)): np.zeros((repeats, n)) for a in alphas for k in ks
    }
    refs = per_point.setdefault((0.0, int(k_ref)), np.zeros((repeats, n)))
    # Per K, largest first, each point's largest log weight in every segment
    # of its first K draws, for the checks; per cell, each point's estimate
    # of those segments. These (n, segments) arrays come first: n times the
    # size of the counts, they make a K too large for memory fail at once.
    tops = {k: np.empty((n, -(-k // _SEGMENT))) for k in sorted({k for _, k in per_point})[::-1]}
    parts = {cell: np.empty(tops[cell[1]].shape) for cell in per_point}
    k_block = max(tops)
    memory = np.empty(n * min(k_block, _SEGMENT))  # a segment's (n, size) log weights
    fill = model._sampler(params, x)

    for r in range(repeats):
        rng = np.random.default_rng([seed, _STREAM_EVAL, r])
        for s, size in enumerate(_segment_counts(k_block, _SEGMENT)):
            sets = memory[: n * size].reshape(n, size)
            fill(rng, sets)
            for k, top in tops.items():
                if k <= s * _SEGMENT:
                    break
                head = sets[:, : k - s * _SEGMENT]
                top[:, s] = np.max(head, axis=-1)
                for (a, cell_k), part in parts.items():
                    if cell_k == k:
                        part[:, s] = _estimate(head, a)
        # a NaN or +inf log weight is its segment's largest, and a point has
        # a finite log weight where a segment's largest is finite
        for top in tops.values():
            validate_log_weights(top, 1)
        for (a, k), part in parts.items():
            per_point[(a, k)][r] = _estimate(part, a, _segment_counts(k, _SEGMENT))

    rows = []
    for a in alphas:
        for k in ks:
            key = (float(a), int(k))
            point_means = per_point[key].mean(axis=0)
            gap_means = (per_point[key] - refs).mean(axis=0)
            rows.append(
                EvalRow(
                    alpha=float(a),
                    k=int(k),
                    mean_bound=float(point_means.mean()),
                    se_bound=float(point_means.std(ddof=1) / math.sqrt(n)),
                    mean_gap=float(gap_means.mean()),
                    se_gap=float(gap_means.std(ddof=1) / math.sqrt(n)),
                )
            )
    return rows
