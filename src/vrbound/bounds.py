"""Monte Carlo estimation of the variational Renyi bound.

The K-sample estimate from log importance weights log w_k is

    (1/(1-alpha)) * ( logsumexp((1-alpha) log w) - log K )      finite alpha != 1
    m + log1p(mean(expm1((1-alpha) (log w - m)))) / (1-alpha)    the same, when
        |1-alpha| * (max(log w) - min(log w)) <= 1, with m = mean(log w)
    mean(log w)                                                  alpha = 1
    max(log w)                                                   alpha = -inf
    min(log w)                                                   alpha = +inf

All arithmetic stays in the log domain. For a fixed weight set the estimate
is non-increasing in alpha (it is the log of a power mean of the weights),
and for K = 1 every branch collapses to the single log weight, which makes
the one-sample estimate alpha-independent.

``bias_simulation`` quantifies the estimator's bias: with theta_k drawn from
q and log w = log p - log q, the population value of the bound is minus the
Renyi divergence from q to p, which the simulation reports alongside the
empirical mean and standard error for each (alpha, K) cell. Each repeat of
a cell draws from its own seed-derived generator, so results do not depend on
evaluation order, and a cell's repeats are estimated in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .alpha import AlphaKind, classify_alpha
from .divergence import renyi_gaussian
from .gaussian import GaussianDist

# Byte budget of one block of weight sets in the finite-order estimate: 32
# sets of K = 1000. logsumexp makes several temporaries of its input's size,
# which on a whole (sets, K) array would take a few times the input.
_BLOCK_BYTES = 256 * 1024

__all__ = [
    "BiasCell",
    "BiasTable",
    "bias_simulation",
    "mc_vr_estimate",
    "validate_log_weights",
]


def validate_log_weights(log_w, axis: int | None = None) -> np.ndarray:
    """Check the log-weight invariants and return a float array.

    With ``axis=None`` the input is one weight set and a vector comes back.
    With an integer ``axis`` the input holds one weight set along that axis
    per remaining index, and the result has that axis moved last (C-ordered,
    so each set is reduced exactly as a vector would be). Entries may be
    finite or -inf (a zero-density sample); NaN and +inf are rejected, as is
    an empty or all--inf set.
    """
    log_w = np.asarray(log_w, dtype=float)
    if axis is None:
        log_w = np.atleast_1d(log_w)
        if log_w.ndim != 1:
            raise ValueError("log weights must form a vector")
    else:
        log_w = np.ascontiguousarray(np.moveaxis(log_w, axis, -1))
    if log_w.shape[-1] == 0:
        raise ValueError("log weights must be non-empty")
    if np.any(np.isnan(log_w)):
        raise ValueError("log weights must not contain NaN")
    if np.any(np.isposinf(log_w)):
        raise ValueError("log weights must not contain +inf")
    if not np.all(np.any(log_w > -math.inf, axis=-1)):
        raise ValueError("at least one log weight must be finite")
    return log_w


def mc_vr_estimate(log_w, alpha: float, axis: int | None = None):
    """K-sample Monte Carlo estimate of the bound at order ``alpha``.

    ``axis=None`` estimates from one weight set and returns a float; an
    integer ``axis`` estimates every weight set along that axis and returns
    an array without it, each entry bit-identical to the vector call.

    A -inf entry contributes zero weight for alpha < 1. For alpha > 1 a
    zero-density sample dominates the power mean and the estimate is -inf;
    the same happens when the min branch (alpha = +inf) selects one.
    """
    log_w = validate_log_weights(log_w, axis)
    k = log_w.shape[-1]
    kind = classify_alpha(alpha)
    if k == 1:
        # Every branch collapses to the single log weight; returning it
        # directly keeps the one-sample estimate bit-exactly alpha-free.
        est = log_w[..., 0]
    elif kind is AlphaKind.ONE:
        est = np.mean(log_w, axis=-1)
    elif kind is AlphaKind.NEG_INF:
        est = np.max(log_w, axis=-1)
    elif kind is AlphaKind.POS_INF:
        est = np.min(log_w, axis=-1)
    else:
        # Each block of rows is reduced on its own, so the temporaries of
        # logsumexp (several times its input) stay within a few blocks.
        sets = log_w.reshape(-1, k)
        step = max(1, _BLOCK_BYTES // (8 * k))
        est = np.empty(sets.shape[0])
        for start in range(0, sets.shape[0], step):
            est[start : start + step] = _power_mean(sets[start : start + step], 1.0 - float(alpha))
        est = est.reshape(log_w.shape[:-1])
    return float(est) if axis is None else est


def _power_mean(log_w: np.ndarray, one_minus: float) -> np.ndarray:
    """The finite-order estimate of each row of a (rows, K) array, K >= 2."""
    # For alpha > 1 a -inf log weight scales to +inf, so logsumexp is +inf
    # and the estimate -inf. Dividing by 1 - alpha scales up the rounding of
    # logsumexp, so rows with |1 - alpha| ptp(log w) <= 1 (all of them next
    # to alpha = 1) take the power mean about their mean m.
    est = (logsumexp(one_minus * log_w, axis=-1) - math.log(log_w.shape[-1])) / one_minus
    near = np.ptp(log_w, axis=-1) <= 1.0 / abs(one_minus)
    if np.any(near):
        rows = log_w[near]
        m = np.mean(rows, axis=-1, keepdims=True)
        spread = np.mean(np.expm1(one_minus * (rows - m)), axis=-1)
        est[near] = m[:, 0] + np.log1p(spread) / one_minus
    return est


# ----------------------------------------------------------------------
# bias simulation


@dataclass(frozen=True)
class BiasCell:
    alpha: float
    k: int
    mean: float
    stderr: float
    exact: float


@dataclass
class BiasTable:
    rows: list[BiasCell]
    repeats: int
    seed: int

    def cell(self, alpha: float, k: int) -> BiasCell:
        for row in self.rows:
            if row.k == k and row.alpha == alpha:
                return row
        raise KeyError(f"no cell for alpha={alpha}, K={k}")

    def as_records(self) -> list[dict]:
        return [
            {
                "alpha": row.alpha,
                "K": row.k,
                "mean": row.mean,
                "stderr": row.stderr,
                "exact": row.exact,
            }
            for row in self.rows
        ]


def bias_simulation(
    p: GaussianDist,
    q: GaussianDist,
    alphas: list[float],
    ks: list[int],
    repeats: int = 200,
    seed: int = 0,
) -> BiasTable:
    """Empirical mean and spread of the K-sample estimate per (alpha, K).

    For each cell, ``repeats`` independent weight sets are drawn with
    theta ~ q and log w = log p(theta) - log q(theta); the exact column is
    minus the closed-form Renyi divergence from q to p, the population value
    the estimates converge to as K grows (-inf where the divergence is
    infinite). Every (alpha, K, repeat) cell draws its weight set from a
    generator derived from (seed, indices), so any evaluation schedule
    produces identical numbers; each cell's sets are estimated in one call.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2 to report a standard error")
    if any(not math.isfinite(float(a)) for a in alphas):
        raise ValueError("bias simulation requires finite alpha values")
    if any(int(k) < 1 for k in ks):
        raise ValueError("sample counts must be positive")

    rows: list[BiasCell] = []
    for ai, alpha in enumerate(alphas):
        alpha = float(alpha)
        exact = -renyi_gaussian(q, p, alpha)
        for ki, k in enumerate(ks):
            k = int(k)
            log_w = np.empty((repeats, k))
            for r in range(repeats):
                theta = q.sample(np.random.default_rng([seed, ai, ki, r]), k)
                log_w[r] = p.logpdf(theta) - q.logpdf(theta)
            estimates = mc_vr_estimate(log_w, alpha, axis=1)
            mean = float(np.mean(estimates))
            stderr = float(np.std(estimates, ddof=1) / math.sqrt(repeats))
            rows.append(BiasCell(alpha=alpha, k=k, mean=mean, stderr=stderr, exact=exact))
    return BiasTable(rows=rows, repeats=repeats, seed=seed)
