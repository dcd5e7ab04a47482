"""Stochastic optimization of variational Renyi objectives.

Two training regimes share one Adam loop:

* posterior inference (linear regression surrogate, BNN): the objective is
  the mini-batch energy approximation, the K-sample bound estimate applied to
  log w = log p0(theta) + (N/M) * sum_{x in S} log p(x|theta) - log q(theta),
  which coincides with the full-data estimate when the batch is the whole
  dataset;
* maximum likelihood for latent-variable models (VAE): the per-datapoint
  K-sample bound, averaged over the mini-batch, with each datapoint getting
  its own noise draws.

Both regimes support the single-backward-pass mode: instead of the full
weighted gradient, one sample j is selected per datapoint (categorically for
finite alpha, argmax of the log weights at alpha = -inf, argmin at +inf) and
only log w_j is back-propagated.

Every step builds one graph for all K draws: the models' log-weight builders
take the noise with a leading K axis, and the estimator and weight routines
reduce along that axis.

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
from .bounds import mc_vr_estimate, validate_log_weights
from .gaussian import GaussianDist
from .gradients import (
    GaussianReparam,
    log_weight_ratio,
    normalize_weights,
    select_backprop_sample,
)
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
    "WeightDiagnostics",
    "energy_approx_objective",
    "evaluate_vae",
    "train",
    "weight_diagnostics",
]

# Stream ids for seed derivation.
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1
_STREAM_NOISE = 2
_STREAM_SELECT = 3
_STREAM_EVAL = 4

# Evaluation draws log weights in blocks of at most this many (draw, point)
# rows, or of one draw when there are more points; this bounds the size of
# the graph's arrays.
_EVAL_BLOCK_ROWS = 10_000


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

    Dispatches on the model type: posterior inference for ``BLRModel`` and
    ``BNNModel`` (energy approximation objective), maximum likelihood for
    ``VAEModel`` (per-datapoint bound). Deterministic given the config seed.
    """
    if isinstance(model, (BLRModel, BNNModel)):
        return _train_posterior(model, config, dataset)
    if isinstance(model, VAEModel):
        if dataset is None:
            raise ValueError("VAE training requires a dataset")
        return _train_vae(model, config, dataset)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _epoch_batches(n: int, batch: int, seed: int, epoch: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, _STREAM_SHUFFLE, epoch])
    order = rng.permutation(n)
    return [order[i : i + batch] for i in range(0, n, batch)]


def _check_finite_params(step: int, params: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise TrainingDiverged(step, f"parameter '{name}' became non-finite", params)


def _train_posterior(model, config: TrainConfig, dataset: Dataset | None):
    if isinstance(model, BLRModel):
        x, y = model.design, model.targets
        params = {
            "mu": np.zeros(model.dim),
            "rho": np.full(model.dim, math.log(0.1)),
        }
        dim = model.dim
    else:
        if dataset is None:
            raise ValueError("BNN training requires a dataset")
        x, y = dataset.train_features, dataset.train_targets
        params = model.init_variational(config.seed)
        dim = model.n_weights
    n = x.shape[0]
    m = min(config.minibatch, n)

    adam = Adam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    record = RunRecord(seed=config.seed, alpha=config.alpha)
    start = time.perf_counter()
    step = 0
    epoch = 0
    while step < config.steps:
        for batch_idx in _epoch_batches(n, m, config.seed, epoch):
            if step >= config.steps:
                break
            noise_rng = np.random.default_rng([config.seed, _STREAM_NOISE, step])
            noise = noise_rng.standard_normal((config.k, dim))

            nodes = {name: ad.Node(value) for name, value in params.items()}
            lw_node = _posterior_log_weights(model, nodes, noise, batch_idx, n, x, y)
            log_w = lw_node.value
            if not np.all(np.isfinite(log_w)):
                raise TrainingDiverged(step, "non-finite objective", params)
            gnorm = _ascent_step(adam, params, nodes, lw_node, config, step, 1.0)

            log_r, _ = log_weight_ratio(log_w)
            record.append(
                step,
                mc_vr_estimate(log_w, config.alpha),
                gnorm,
                log_r,
                time.perf_counter() - start,
            )
            step += 1
        epoch += 1
    return params, record


def _train_vae(model: VAEModel, config: TrainConfig, dataset: Dataset):
    x_train = dataset.train_features
    n = x_train.shape[0]
    m = min(config.minibatch, n)
    params = model.init_params(config.seed)

    adam = Adam(config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    record = RunRecord(seed=config.seed, alpha=config.alpha)
    start = time.perf_counter()
    step = 0
    epoch = 0
    while step < config.steps:
        for batch_idx in _epoch_batches(n, m, config.seed, epoch):
            if step >= config.steps:
                break
            xb = x_train[batch_idx]
            rows = xb.shape[0]
            noise_rng = np.random.default_rng([config.seed, _STREAM_NOISE, step])
            eps = noise_rng.standard_normal((config.k, rows, model.latent_dim))

            nodes = {name: ad.Node(value) for name, value in params.items()}
            lw_node = model.log_weight_rows(nodes, xb, eps)  # (K, rows)
            lw = lw_node.value
            if not np.all(np.isfinite(lw)):
                raise TrainingDiverged(step, "non-finite objective", params)
            gnorm = _ascent_step(adam, params, nodes, lw_node, config, step, 1.0 / rows)

            record.append(
                step,
                float(np.mean(mc_vr_estimate(lw, config.alpha, axis=0))),
                gnorm,
                float(np.mean(log_weight_ratio(lw, axis=0)[0])),
                time.perf_counter() - start,
            )
            step += 1
        epoch += 1
    return params, record


def _ascent_step(
    adam: Adam,
    params: dict[str, np.ndarray],
    nodes: dict[str, ad.Node],
    lw_node: ad.Node,
    config: TrainConfig,
    step: int,
    scale: float,
) -> float:
    """Back-propagate ``scale`` times the weighted sum of the log weights and
    take one Adam step; returns the gradient norm.

    Axis 0 of ``lw_node`` holds the K draws of every weight set. The weights
    are the normalized ones, or in single-backprop mode a one-hot at the
    selected sample of each set.
    """
    log_w = lw_node.value
    if config.single_backprop:
        select_rng = np.random.default_rng([config.seed, _STREAM_SELECT, step])
        weights = np.zeros_like(log_w)
        for idx in np.ndindex(log_w.shape[1:]):
            j = select_backprop_sample(log_w[(slice(None),) + idx], config.alpha, select_rng)
            weights[(j,) + idx] = 1.0
    else:
        weights = normalize_weights(log_w, config.alpha, axis=0)
    grads = ad.gradients(ad.vsum(lw_node * weights) * scale, nodes)
    gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not math.isfinite(gnorm):
        raise TrainingDiverged(step, "non-finite gradient", params)
    adam.step(params, grads)
    _check_finite_params(step, params)
    return gnorm


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
    k_block = max(max(int(k) for k in ks), int(k_ref))

    per_point: dict[tuple[float, int], np.ndarray] = {
        (float(a), int(k)): np.zeros((repeats, n)) for a in alphas for k in ks
    }
    gaps: dict[tuple[float, int], np.ndarray] = {
        key: np.zeros((repeats, n)) for key in per_point
    }

    for r in range(repeats):
        rng = np.random.default_rng([seed, _STREAM_EVAL, r])
        lw = _log_weight_block(model, params, x, k_block, rng)
        ref = mc_vr_estimate(lw[:, :k_ref], 0.0, axis=1)
        for (a, k), store in per_point.items():
            est = mc_vr_estimate(lw[:, :k], a, axis=1)
            store[r] = est
            gaps[(a, k)][r] = est - ref

    rows = []
    for a in alphas:
        for k in ks:
            key = (float(a), int(k))
            point_means = per_point[key].mean(axis=0)
            gap_means = gaps[key].mean(axis=0)
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


def _log_weight_block(
    model: VAEModel,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Log weights (n, k), drawn in blocks of floor(_EVAL_BLOCK_ROWS / n)
    draws (at least one) to bound peak memory. The draws come from ``rng``
    in the same order whatever the block size."""
    n = x.shape[0]
    draws = max(1, _EVAL_BLOCK_ROWS // n)
    out = np.empty((n, k))
    for done in range(0, k, draws):
        take = min(draws, k - done)
        eps = rng.standard_normal((take, n, model.latent_dim))
        out[:, done : done + take] = model.log_weight_matrix(params, x, eps)
    return out


# ----------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class WeightDiagnostics:
    log_ratio: float
    ratio: float
    sorted_weights: np.ndarray


def weight_diagnostics(log_w) -> WeightDiagnostics:
    """Concentration summary of the normalized (alpha = 0) weights.

    The ratio R = w_max / (1 - w_max) crosses 1 exactly when the largest
    weight holds half the mass; the log form never overflows.
    """
    log_w = validate_log_weights(log_w)
    weights = normalize_weights(log_w, 0.0)
    order = np.argsort(weights)[::-1]
    log_r, r = log_weight_ratio(log_w)
    return WeightDiagnostics(log_ratio=log_r, ratio=r, sorted_weights=weights[order])
