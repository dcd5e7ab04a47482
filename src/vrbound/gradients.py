"""Reparameterized gradients of the Monte Carlo variational Renyi bound.

Given K noise draws eps_k and a differentiable map theta = g(eps; phi) with
matching variational density q, the K-sample bound estimate is a smooth
function of the log weights log w_k = log p(theta_k, x) - log q(theta_k).
Its gradient is the convex combination

    sum_k w_hat_k * d/d phi [ log w_k ],
    w_hat_k proportional to exp((1 - alpha) log w_k),

with the normalized weights held constant: they are exactly the partial
derivatives of the estimate with respect to the log weights. At alpha = -inf
and +inf the weights are one-hot at the largest or smallest log weight, the
subgradient of max/min. ``vr_grad`` computes this with one vector-Jacobian
product. It takes what a model's log-weight builder returns for the
parameters and all K draws: the log weights, with the draws on axis 0 and
any further axes independent weight sets (one per VAE datapoint) whose
gradients are averaged, and their VJP, written out for each model. The
part those VJPs share, through the reparameterization, the N(0, I) prior
and log q, is ``GaussianReparam.vjp``. The single-backward-pass variant
puts a one-hot weight on the index that ``select_backprop_sample`` draws
from each set with probability w_hat_j, which is unbiased for the full
weighted gradient at finite alpha.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import autodiff as ad
from .alpha import AlphaKind, classify_alpha
from .bounds import _scaled_log_weights, validate_log_weights

__all__ = [
    "GaussianReparam",
    "normalize_weights",
    "select_backprop_sample",
    "vr_grad",
]

def normalize_weights(log_w: np.ndarray, alpha: float, axis: int | None = None) -> np.ndarray:
    """Simplex weights proportional to exp((1 - alpha) log w).

    alpha = 1 gives the uniform vector, alpha = -inf a one-hot at the
    largest log weight, alpha = +inf a one-hot at the smallest; ties break
    toward the lowest index. Adding a constant to every log weight leaves
    the result unchanged. With an integer ``axis`` every weight set along
    that axis is normalized; the result has the input's shape and each set
    is bit-identical to the vector call.
    """
    probs = _normalize(validate_log_weights(log_w, axis), alpha)
    return probs if axis is None else np.moveaxis(probs, -1, axis)


def _normalize(log_w: np.ndarray, alpha: float) -> np.ndarray:
    """``normalize_weights`` of each row of a checked, C-ordered (..., K) array."""
    k = log_w.shape[-1]
    kind = classify_alpha(alpha)
    if kind is AlphaKind.ONE:
        probs = np.full(log_w.shape, 1.0 / k)
    elif kind is AlphaKind.NEG_INF:
        probs = _one_hot(np.argmax(log_w, axis=-1), k)
    elif kind is AlphaKind.POS_INF:
        probs = _one_hot(np.argmin(log_w, axis=-1), k)
    else:
        # exp(s) with s of _scaled_log_weights, 1 at the anchor and at most 1
        # at every finite log weight; summed pairwise, as bounds._estimate is
        scaled = _scaled_log_weights(log_w, 1.0 - float(alpha))[0]
        with np.errstate(invalid="ignore"):
            probs = np.exp(scaled)
            probs /= np.sum(probs, axis=-1, keepdims=True)
        # A zero-density sample raised to a negative power dominates its set.
        dominant = np.isposinf(scaled)
        hit = dominant.any(axis=-1)
        if np.any(hit):
            hits = dominant[hit]
            probs[hit] = hits / np.sum(hits, axis=-1, keepdims=True)
    return probs


def _one_hot(index: np.ndarray, k: int) -> np.ndarray:
    return (np.arange(k) == np.expand_dims(index, -1)).astype(float)


def select_backprop_sample(
    log_w: np.ndarray, alpha: float, rng: np.random.Generator, axis: int | None = None
):
    """Index of the single sample to back-propagate.

    Finite alpha: categorical draw with probabilities ``normalize_weights``;
    alpha = -inf: deterministic argmax; alpha = +inf: deterministic argmin.
    ``axis=None`` returns an int for one weight set; an integer ``axis``
    returns an index per weight set along that axis. A finite-alpha draw
    takes one uniform per set, in C order, and maps it through the
    cumulative weights as ``rng.choice`` does, so the indices and the
    generator state equal those of calling set by set.
    """
    index = _select(validate_log_weights(log_w, axis), alpha, rng)
    return int(index) if axis is None else index


def _select(log_w: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """``select_backprop_sample`` of each row of a checked, C-ordered (..., K) array."""
    kind = classify_alpha(alpha)
    if kind is AlphaKind.NEG_INF:
        index = np.argmax(log_w, axis=-1)
    elif kind is AlphaKind.POS_INF:
        index = np.argmin(log_w, axis=-1)
    else:
        cdf = np.cumsum(_normalize(log_w, alpha), axis=-1)
        cdf /= cdf[..., -1:]
        uniform = rng.random(log_w.shape[:-1])
        # searchsorted(cdf, uniform, side="right") on each non-decreasing row
        index = np.sum(cdf <= uniform[..., None], axis=-1)
    return index


class GaussianReparam:
    """Diagonal-Gaussian reparameterization theta = mu + exp(rho) * eps, on
    arrays.

    ``mu`` and ``rho`` have one shape; the noise ``eps`` has it too, or an
    extra leading axis of K draws. The variational log density evaluated at
    theta = g(eps) simplifies to log N(eps; 0, I) - sum(rho) over the last
    axis, which is exact and keeps the dependence on the variational
    parameters explicit. ``vjp`` is the gradient of log weights
    f(theta) + log N(theta; 0, I) - log q, written once for every model.
    """

    def __init__(self, mu: np.ndarray, rho: np.ndarray):
        self.mu = np.asarray(mu, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        if self.mu.shape != self.rho.shape:
            raise ValueError("mu and rho must have the same shape")
        # what theta, log_q and vjp take of rho, whatever the noise
        self.scale = np.exp(self.rho)
        self.rho_sum = np.sum(self.rho, axis=-1)

    def theta(self, eps: np.ndarray) -> np.ndarray:
        eps = np.asarray(eps, dtype=float)
        shape = self.mu.shape
        if eps.shape not in (shape, eps.shape[:1] + shape):
            raise ValueError(f"eps must have shape {shape}, or (K, *{shape})")
        # the product's buffer takes mu in place: one array of the noise's size
        theta = self.scale * eps
        theta += self.mu
        return theta

    def log_q(self, eps: np.ndarray, out=None) -> np.ndarray:
        """log q(theta(eps)) summed over the last axis: a scalar for a vector
        ``mu``, (n,) for (n, d) rows, with a leading K axis from ``eps``, in
        ``out`` when given. It reads ``eps`` once and leaves it as it was."""
        rows = ad.std_normal_logpdf_rows(eps, out)
        rows -= self.rho_sum
        return rows

    def vjp(self, theta, eps, g, g_theta) -> tuple[np.ndarray, np.ndarray]:
        """The gradients of mu and rho, given ``g`` at the log weights
        f(theta) + log N(theta; 0, I) - log q of the noise ``eps``, whose
        ``theta`` is given, and ``g_theta``, the gradient of f at theta,
        which gets the prior's added in place. The draws, if any, share mu
        and rho; -log q = sum(rho) + a term of the noise alone."""
        g_theta -= theta * g[..., None]
        draws = (-1, *self.mu.shape)
        g_mu = g_theta.reshape(draws).sum(axis=0)
        g_rho = (g_theta * eps).reshape(draws).sum(axis=0)
        g_rho *= self.scale
        g_rho += np.reshape(g, draws[:-1]).sum(axis=0)[..., None]
        return g_mu, g_rho


def vr_grad(
    log_w: np.ndarray,
    vjp: Callable[[np.ndarray], dict[str, np.ndarray]],
    params: dict[str, np.ndarray],
    alpha: float,
    select_rng: np.random.Generator | None = None,
    out: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Gradient of the K-sample bound estimate under fixed noise.

    ``log_w`` are a model's log weights, whose axis 0 holds the K draws and
    any further axes independent weight sets, and ``vjp`` their VJP, as a
    log-weight builder returns them: ``vjp(g)`` gives the gradient of
    sum(g * log_w) for every parameter, as a dict by name (a name left out
    has gradient zero). One VJP call yields the gradient of the mean over
    sets of the normalized-weighted log weights, or, with ``select_rng``, of
    the log weight that ``select_backprop_sample`` picks in each set.
    Returns the gradient of every parameter of ``params`` (arrays by name),
    as views of one float vector of their total size, in their order:
    ``out`` when given (a training step's buffer), else a new one. NaN or
    +inf log weights and non-finite gradient components raise
    ``FloatingPointError`` naming the sample; zero-density (-inf) samples
    are allowed.
    """
    sets = np.ascontiguousarray(log_w.transpose((*range(1, log_w.ndim), 0)))
    if not (sets.shape[-1] > 0 and np.all(np.isfinite(sets))):
        bad = np.isnan(log_w) | np.isposinf(log_w)
        if np.any(bad):
            k, *rest = (int(i) for i in np.argwhere(bad)[0])
            where = f" in weight set {tuple(rest)}" if rest else ""
            raise FloatingPointError(f"log weight for sample {k}{where} is {log_w[(k, *rest)]}")
        validate_log_weights(sets, -1)  # an empty or all -inf set
    if select_rng is None:
        weights = _normalize(sets, alpha)
    else:
        weights = _one_hot(_select(sets, alpha, select_rng), sets.shape[-1])
    if out is None:
        out = np.empty(sum(value.size for value in params.values()))
    n_sets = log_w.size // log_w.shape[0]
    # Seeded at the log weights: their weighted sum, the objective it stands
    # for, is NaN where a zero weight meets a -inf log weight.
    seed = weights.transpose((-1, *range(weights.ndim - 1))) * (1.0 / n_sets)
    grads = ad.gradients(vjp, seed, params, out)
    if not np.isfinite(out).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        suspects = np.unique(np.nonzero(~np.isfinite(log_w))[0]).tolist()
        raise FloatingPointError(
            f"non-finite gradient for parameter '{name}' (suspect samples: {suspects})"
        )
    return grads


def log_weight_ratio(log_w: np.ndarray, axis: int | None = None):
    """(log R, R) for R = w_max / (1 - w_max) of the normalized weights.

    Computed in the log domain: log(1 - w_max) comes from the log-sum-exp of
    the non-maximal weights, so R never overflows before the final exp (the
    returned R may still be inf when the remainder underflows entirely).
    ``axis=None`` returns floats for one weight set; an integer ``axis``
    returns two arrays, one entry per weight set along that axis.
    """
    log_r = _log_ratio(validate_log_weights(log_w, axis))
    with np.errstate(over="ignore"):
        r = np.exp(log_r)
    return (float(log_r), float(r)) if axis is None else (log_r, r)


def _log_ratio(log_w: np.ndarray) -> np.ndarray:
    """log R of each row of a checked, C-ordered (..., K) array, from one
    sort: the max minus the log-sum-exp of the rest, scaled by the rest's
    max, the second-largest value. It is +inf where the rest is all -inf,
    and at K = 1."""
    if log_w.shape[-1] == 1:
        return np.full(log_w.shape[:-1], math.inf)
    ordered = np.sort(log_w, axis=-1)
    top, second = ordered[..., -1], ordered[..., -2]
    with np.errstate(invalid="ignore"):  # -inf - -inf, where the rest is all -inf
        rest = np.exp(ordered[..., :-1] - second[..., None])
        log_r = (top - second) - np.log(np.sum(rest, axis=-1))
    return np.where(second > -math.inf, log_r, math.inf)
