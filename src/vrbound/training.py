"""Stochastic optimization of variational Renyi objectives.

Two training regimes share one loop:

* posterior inference (linear regression surrogate, BNN): the objective is
  the mini-batch energy approximation, the K-sample bound estimate applied to
  log w = log p0(theta) + (N/M) * sum_{x in S} log p(x|theta) - log q(theta),
  which coincides with the full-data estimate when the batch is the whole
  dataset;
* maximum likelihood for latent-variable models (VAE): the per-datapoint
  K-sample bound, averaged over the mini-batch, with each datapoint getting
  its own noise draws.

Both regimes support the single-backward-pass mode: instead of the full
weighted gradient, one sample j is selected per weight set (categorically for
finite alpha, argmax of the log weights at alpha = -inf, argmin at +inf) and
only log w_j is back-propagated.

The models differ only in their initial parameters, training rows, noise
shape and log-weight builder. Every step draws the noise for all K draws,
hands the builder to ``vr_grad`` (one graph, one backward pass, one check of
the log weights), takes an Adam step, and records the estimate and log R
averaged over weight sets, reduced from the checked weights without a second
check.

Held-out evaluation (``evaluate_vae``) needs no gradient: per repeat it
draws the noise of all max(K, k_ref) samples at once and takes the (n, K)
log weights from ``VAEModel.log_weight_matrix``, the model's value-only
path, which encodes once and decodes in cache-sized chunks, with its blocks
of draws run on every usable core; the result is the same at any worker
count.

Randomness is organized in named streams derived from (seed, stream id,
index), so shuffling, noise, and evaluation draws are reproducible
independently of each other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .alpha import classify_alpha
from .bounds import _estimate, mc_vr_estimate
from .gaussian import GaussianDist
from .gradients import GaussianReparam, _log_ratio, _vr_step
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
    "energy_approx_objective",
    "evaluate_vae",
    "train",
]

# Stream ids for seed derivation.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1
_STREAM_NOISE = 2
_STREAM_SELECT = 3
_STREAM_EVAL = 4


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
    eval_k: int = 5000
    single_backprop: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.minibatch < 1:
            raise ValueError("minibatch must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_k < self.k:
            raise ValueError("eval_k must be at least k")
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
                "weight_ratio": math.exp(r) if r < 700 else math.inf,
                "wall_time": w,
            }
            for s, o, g, r, w in zip(
                self.steps, self.objective, self.grad_norm, self.log_weight_ratio, self.wall_time
            )
        ]


class Adam:
    """Adam with bias correction; a zero gradient leaves parameters fixed."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Ascent step in place (gradients point uphill)."""
        self.t += 1
        for name in sorted(params):
            g = grads[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(params[name])
                v = np.zeros_like(params[name])
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            params[name] = params[name] + self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ----------------------------------------------------------------------
# energy approximation (posterior inference objective)


def _posterior_log_weights(
    model: BLRModel | BNNModel,
    nodes: dict[str, ad.Node],
    noise: np.ndarray,
    batch_idx: np.ndarray,
    n_total: int,
    x: np.ndarray,
    y: np.ndarray,
) -> ad.Node:
    """Scaled-likelihood log weights for the K draws in ``noise``, shape (K,)."""
    reparam = GaussianReparam(nodes["mu"], nodes["rho"])
    theta = reparam.theta(noise)
    if isinstance(model, BLRModel):
        log_lik = model.log_lik_node(theta, batch_idx)
    else:
        log_lik = model.log_lik_node(theta, nodes["log_noise"], x[batch_idx], y[batch_idx])
    scale = float(n_total) / batch_idx.shape[0]
    return model.log_prior_node(theta) + log_lik * scale - reparam.log_q(noise)


def energy_approx_objective(
    model: BLRModel | BNNModel,
    q: GaussianDist,
    batch_idx: np.ndarray,
    n_total: int,
    alpha: float,
    noise: np.ndarray,
    *,
    x: np.ndarray | None = None,
    y: np.ndarray | None = None,
    log_noise: float = 0.0,
) -> float:
    """Mini-batch bound estimate with the likelihood scaled by N/M.

    ``noise`` holds the K standard-normal draws (K, dim). With the batch
    equal to the full dataset this is exactly the full-data estimate for the
    same noise.
    """
    batch_idx = np.asarray(batch_idx, dtype=int)
    if batch_idx.size == 0:
        raise ValueError("batch must be non-empty")
    if not q.is_diagonal:
        raise ValueError("energy approximation expects a diagonal q")
    if isinstance(model, BNNModel):
        if x is None or y is None:
            raise ValueError("BNN objective needs x and y arrays")
        x, y = np.asarray(x), np.asarray(y)
    nodes = {
        "mu": ad.Node(q.mean),
        "rho": ad.Node(0.5 * np.log(q.variances)),
        "log_noise": ad.Node(np.array([log_noise])),
    }
    log_w = _posterior_log_weights(
        model, nodes, np.asarray(noise, dtype=float), batch_idx, n_total, x, y
    )
    return mc_vr_estimate(log_w.value, alpha)


# ----------------------------------------------------------------------
# training loops


def train(model, config: TrainConfig, dataset: Dataset | None = None):
    """Fit the model's variational parameters; returns (params, RunRecord).

    Posterior inference for ``BLRModel`` and ``BNNModel`` (energy
    approximation objective), maximum likelihood for ``VAEModel``
    (per-datapoint bound, averaged over the minibatch). Deterministic given
    the config seed.
    """
    params, x, y = _initial_state(model, config, dataset)
    n = x.shape[0]
    m = min(config.minibatch, n)
    adam = Adam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    record = RunRecord(seed=config.seed, alpha=config.alpha)
    start = time.perf_counter()
    held = [None]
    step = 0
    epoch = 0
    while step < config.steps:
        for batch_idx in _epoch_batches(n, m, config.seed, epoch):
            if step >= config.steps:
                break
            draw_shape, build = _batch_builder(model, x, y, batch_idx, held)
            noise_rng = np.random.default_rng([config.seed, _STREAM_NOISE, step])
            noise = noise_rng.standard_normal((config.k, *draw_shape))
            select_rng = None
            if config.single_backprop:
                select_rng = np.random.default_rng([config.seed, _STREAM_SELECT, step])
            # vr_grad allows zero-density (-inf) samples; a training step does not.
            try:
                grads, _, sets = _vr_step(
                    build, params, noise, config.alpha, select_rng, finite=True
                )
            except FloatingPointError as exc:
                raise TrainingDiverged(step, str(exc), params) from exc
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if not math.isfinite(gnorm):
                raise TrainingDiverged(step, "non-finite gradient", params)
            adam.step(params, grads)
            for name, value in params.items():
                if not np.all(np.isfinite(value)):
                    raise TrainingDiverged(step, f"parameter '{name}' became non-finite", params)

            record.append(
                step,
                float(np.mean(_estimate(sets, config.alpha))),
                gnorm,
                float(np.mean(_log_ratio(sets))),
                time.perf_counter() - start,
            )
            step += 1
        epoch += 1
    return params, record


def _initial_state(model, config: TrainConfig, dataset: Dataset | None):
    """Initial parameters and training rows (x, y) of a model; y is None for
    the VAE."""
    if isinstance(model, BLRModel):
        params = {"mu": np.zeros(model.dim), "rho": np.full(model.dim, math.log(0.1))}
        return params, model.design, model.targets
    if not isinstance(model, (BNNModel, VAEModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if dataset is None:
        raise ValueError(f"{type(model).__name__} training requires a dataset")
    if isinstance(model, BNNModel):
        return model.init_variational(config.seed), dataset.train_features, dataset.train_targets
    return model.init_params(config.seed), dataset.train_features, None


def _batch_builder(model, x, y, batch_idx, held: list):
    """Shape of one noise draw and the log-weight builder of one minibatch:
    (K, rows) log weights for the VAE, (K,) for BLR and BNN.

    The builder stores its node in ``held[0]``, so the previous step's graph
    is freed only once the new one exists. Freed first, its memory went back
    to the system and was faulted in again: BNN steps at K = 50 took 45%
    longer on a 2-vCPU host.
    """
    vae = isinstance(model, VAEModel)
    if vae:
        draw_shape = (batch_idx.shape[0], model.latent_dim)
    else:
        draw_shape = (model.dim if isinstance(model, BLRModel) else model.n_weights,)

    def build(nodes, noise):
        if vae:
            held[0] = model.log_weight_rows(nodes, x[batch_idx], noise)
        else:
            held[0] = _posterior_log_weights(model, nodes, noise, batch_idx, x.shape[0], x, y)
        return held[0]

    return draw_shape, build


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
    drawn and shared by every (alpha, K) cell and the reference estimate at
    (0, k_ref) (common random numbers). Sharing makes the gap at
    (alpha=0, K=k_ref) identically zero and sharpens every comparison.
    Rows report means over datapoints and repeats, with standard errors over
    the per-datapoint averages.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"standard errors need at least 2 points, got {n}")
    k_block = max(max(int(k) for k in ks), int(k_ref))

    per_point: dict[tuple[float, int], np.ndarray] = {
        (float(a), int(k)): np.zeros((repeats, n)) for a in alphas for k in ks
    }
    refs = np.zeros((repeats, n))

    for r in range(repeats):
        rng = np.random.default_rng([seed, _STREAM_EVAL, r])
        # the draws are freed before the estimates' temporaries are made
        lw = model.log_weight_matrix(params, x, rng.standard_normal((k_block, n, model.latent_dim)))
        refs[r] = mc_vr_estimate(lw[:, :k_ref], 0.0, axis=1)
        for (a, k), store in per_point.items():
            store[r] = mc_vr_estimate(lw[:, :k], a, axis=1)

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
