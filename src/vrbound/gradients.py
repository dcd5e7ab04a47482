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
subgradient of max/min. ``vr_grad`` computes this with one graph and one
backward pass: the log-weight builder gets all K draws and returns them on
axis 0, and any further axes are independent weight sets (one per VAE
datapoint) whose gradients are averaged. The single-backward-pass variant
puts a one-hot weight on the index that ``select_backprop_sample`` draws from
each set with probability w_hat_j, which is unbiased for the full weighted
gradient at finite alpha.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import autodiff as ad
from .alpha import AlphaKind, classify_alpha
from .bounds import _logsumexp, validate_log_weights

__all__ = [
    "GaussianReparam",
    "finite_diff_check",
    "normalize_weights",
    "select_backprop_sample",
    "vr_grad",
]

_LOG_2PI = math.log(2.0 * math.pi)


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
        scaled = (1.0 - float(alpha)) * log_w
        top = np.max(scaled, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            probs = np.exp(scaled - top)
            probs /= np.sum(probs, axis=-1, keepdims=True)
        # A zero-density sample raised to a negative power dominates its set.
        hit = np.isposinf(top[..., 0])
        if np.any(hit):
            hits = np.isposinf(scaled[hit])
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
    """Diagonal-Gaussian reparameterization theta = mu + exp(rho) * eps.

    ``mu`` and ``rho`` are graph nodes (leaves, or encoder outputs). The
    noise ``eps`` has their shape, or an extra leading axis of K draws. The
    variational log density evaluated at theta = g(eps) simplifies to
    -sum(rho) - ||eps||^2 / 2 - d/2 log(2 pi) over the last axis, which is
    exact and keeps the dependence on the variational parameters explicit.
    """

    def __init__(self, mu: ad.Node, rho: ad.Node):
        if mu.value.shape != rho.value.shape:
            raise ValueError("mu and rho must have the same shape")
        self.mu = mu
        self.rho = rho

    def theta(self, eps: np.ndarray) -> ad.Node:
        eps = np.asarray(eps, dtype=float)
        shape = self.mu.value.shape
        if eps.shape not in (shape, eps.shape[:1] + shape):
            raise ValueError(f"eps must have shape {shape}, or (K, *{shape})")
        return self.mu + ad.exp(self.rho) * eps

    def log_q(self, eps: np.ndarray) -> ad.Node:
        """log q(theta(eps)) summed over the last axis: a scalar for a vector
        ``mu``, (n,) for (n, d) rows, with a leading K axis from ``eps``."""
        eps = np.asarray(eps, dtype=float)
        const = -0.5 * np.sum(eps * eps, axis=-1) - 0.5 * eps.shape[-1] * _LOG_2PI
        return ad.vsum(self.rho, axis=-1) * (-1.0) + const


LogWeightBuilder = Callable[[dict[str, ad.Node], np.ndarray], ad.Node]


def vr_grad(
    build_log_weights: LogWeightBuilder,
    params: dict[str, np.ndarray],
    noise: np.ndarray,
    alpha: float,
    select_rng: np.random.Generator | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradient of the K-sample bound estimate under fixed noise.

    ``build_log_weights(nodes, noise)`` gets one leaf node per parameter and
    the whole noise array, and returns the log-weight node: axis 0 holds the
    K draws, any further axes independent weight sets. One backward pass
    yields the gradient of the mean over sets of the normalized-weighted log
    weights, or, with ``select_rng``, of the log weight that
    ``select_backprop_sample`` picks in each set. Returns the gradient for
    every parameter and the log weights. NaN or +inf log weights and
    non-finite gradient components raise ``FloatingPointError`` naming the
    sample; zero-density (-inf) samples are allowed.
    """
    grads, log_w, _ = _vr_step(build_log_weights, params, noise, alpha, select_rng)
    return grads, log_w


def _vr_step(
    build_log_weights: LogWeightBuilder,
    params: dict[str, np.ndarray],
    noise: np.ndarray,
    alpha: float,
    select_rng: np.random.Generator | None = None,
    finite: bool = False,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """``vr_grad``, also returning the log weights checked and moved to
    C-ordered (..., K) rows, one per weight set. With ``finite`` a -inf log
    weight raises ``FloatingPointError`` too, once the gradient has passed."""
    noise = np.asarray(noise, dtype=float)
    nodes = {name: ad.Node(np.asarray(value, dtype=float)) for name, value in params.items()}
    lw_node = build_log_weights(nodes, noise)
    log_w = lw_node.value
    if log_w.shape[:1] != noise.shape[:1]:
        raise ValueError(f"log weights {log_w.shape} must hold the {len(noise)} draws on axis 0")
    sets = np.ascontiguousarray(np.moveaxis(log_w, 0, -1))
    all_finite = sets.shape[-1] > 0 and bool(np.all(np.isfinite(sets)))
    if not all_finite:
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
    n_sets = log_w.size // log_w.shape[0]
    grads = ad.gradients(ad.vsum(lw_node * np.moveaxis(weights, -1, 0)) * (1.0 / n_sets), nodes)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            suspects = np.unique(np.nonzero(~np.isfinite(log_w))[0]).tolist()
            raise FloatingPointError(
                f"non-finite gradient for parameter '{name}' (suspect samples: {suspects})"
            )
    if finite and not all_finite:
        raise FloatingPointError("non-finite objective")
    return grads, log_w, sets


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: np.ndarray,
    step: float = 1e-5,
    abs_floor: float = 1e-8,
) -> float:
    """Max relative error between ``grad`` and central differences of ``f``.

    The relative error per coordinate uses max(|numeric|, |analytic|,
    abs_floor) as denominator so exact zeros compare cleanly.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-7, 1e-3]")
    x0 = np.asarray(x0, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != x0.shape:
        raise ValueError("grad must match x0 in shape")
    worst = 0.0
    flat_x = x0.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        bump = np.zeros_like(flat_x)
        bump[i] = step
        hi = f((flat_x + bump).reshape(x0.shape))
        lo = f((flat_x - bump).reshape(x0.shape))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError(f"non-finite objective at coordinate {i}")
        numeric = (hi - lo) / (2.0 * step)
        denom = max(abs(numeric), abs(flat_g[i]), abs_floor)
        worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


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
    """log R of each row of a checked, C-ordered (..., K) array."""
    k = log_w.shape[-1]
    if k == 1:
        return np.full(log_w.shape[:-1], math.inf)
    top = np.expand_dims(np.argmax(log_w, axis=-1), -1)
    rest = log_w[np.arange(k) != top].reshape(log_w.shape[:-1] + (k - 1,))
    return np.max(log_w, axis=-1) - _logsumexp(rest)
