"""Monte Carlo estimation of the variational Renyi bound.

The K-sample estimate from log importance weights log w_k is

    a + (logsumexp(s) - log K) / (1-alpha)                      finite alpha != 1
    a + log1p(mean(expm1(s))) / (1-alpha)                       the same, when
        |1-alpha| * (max(log w) - min(log w)) <= 1
    mean(log w)                                                  alpha = 1
    max(log w)                                                   alpha = -inf
    min(log w)                                                   alpha = +inf

where s = (1-alpha) (log w - a), and the anchor a is the largest log weight
for alpha < 1 and the smallest finite one for alpha > 1, so that s <= 0 at
every finite log weight whatever the order. All arithmetic stays in the log
domain. For a fixed weight set the estimate
is non-increasing in alpha (it is the log of a power mean of the weights),
and for K = 1 every branch collapses to the single log weight, which makes
the one-sample estimate alpha-independent.

``bias_simulation`` quantifies the estimator's bias: with theta_k drawn from
q and log w = log p - log q, the population value of the bound is minus the
Renyi divergence from q to p, which the simulation reports alongside the
empirical mean and standard error for each (alpha, K) cell. Each repeat of
a cell draws from its own seed-derived generator, so results do not depend on
evaluation order, and a cell's repeats are estimated in blocks under one
byte budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaKind, classify_alpha
from .divergence import renyi_gaussian
from .gaussian import GaussianDist

# Byte budget of one block of weight sets in the finite-order estimate (32
# sets of K = 1024), and of one block of the bias simulation's stacked
# draws: large enough that numpy's work, not the dozen or so calls a block
# makes, sets its cost. Each set is reduced on its own, so the results do
# not depend on it. A block's temporaries are its scaled copy, which every
# block of an ``_estimate`` call takes from one buffer, and 0.38 of a block
# more at _logsumexp's peak; the bias simulation's cells stay under the
# bounds of ``tests/test_bounds.py``'s memory tests, and held-out evaluation
# under the 10k faults of ``tests/test_training.py``'s 10-repeat fault probe.
# The timings and fault counts at 64 and 256 KiB are in ``BENCH_30.json``
# and its CHANGES.md entry.
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
    est = _estimate(validate_log_weights(log_w, axis), alpha)
    return float(est) if axis is None else est


def _estimate(log_w: np.ndarray, alpha: float, counts: np.ndarray | None = None) -> np.ndarray:
    """``mc_vr_estimate`` of each row of a checked, C-ordered (..., K) array.

    With ``counts``, a (K,) array of positive sizes, entry j of a row is the
    estimate of a segment of counts[j] log weights, and the row's result is
    the estimate of all its segments' weights together: the power mean of
    the segments' power means weighted by their sizes, which is the power
    mean of the whole set up to rounding, and exactly it at alpha = +-inf.
    A row without a finite entry gives -inf.
    """
    # A weight set is summed pairwise (np.sum, np.mean) here, in _power_mean
    # and in _logsumexp, not by ``autodiff``'s row einsum: the error grows as
    # log K rather than K, on sets of K up to 100,000.
    k = log_w.shape[-1]
    kind = classify_alpha(alpha)
    if k == 1:
        # Every branch collapses to the single log weight; returning it
        # directly keeps the one-sample estimate bit-exactly alpha-free.
        est = log_w[..., 0]
    elif kind is AlphaKind.ONE:
        if counts is None:
            est = np.mean(log_w, axis=-1)
        else:
            est = np.sum(log_w * counts, axis=-1) / np.sum(counts)
    elif kind is AlphaKind.NEG_INF:
        est = np.max(log_w, axis=-1)
    elif kind is AlphaKind.POS_INF:
        est = np.min(log_w, axis=-1)
    else:
        # Each block of rows is reduced on its own, so the scaled copy that
        # _power_mean reduces stays within a block; every block's is made in
        # one buffer.
        sets = log_w.reshape(-1, k)
        step = max(1, _BLOCK_BYTES // (8 * k))
        work = np.empty(min(step, sets.shape[0]) * k)
        est = np.empty(sets.shape[0])
        for start in range(0, sets.shape[0], step):
            block = sets[start : start + step]
            scaled = work[: block.size].reshape(block.shape)
            est[start : start + step] = _power_mean(block, 1.0 - float(alpha), counts, scaled)
        est = est.reshape(log_w.shape[:-1])
    return est


def _power_mean(
    log_w: np.ndarray, one_minus: float, counts: np.ndarray | None, scaled: np.ndarray
) -> np.ndarray:
    """The finite-order estimate of each row of a (rows, K) array, K >= 2,
    as a + log(mean(exp(s))) / (1 - alpha) with s and the anchor a of
    ``_scaled_log_weights``, formed in ``scaled``, an array of its shape; with
    ``counts`` (``_estimate``'s), the mean weighs entry j by counts[j]."""
    # For alpha > 1 a -inf log weight scales to +inf, so logsumexp is +inf
    # and the estimate -inf. Dividing by 1 - alpha scales up the rounding of
    # logsumexp, so rows with |1 - alpha| ptp(log w) <= 1 (all of them next
    # to alpha = 1) take log1p(mean(expm1(s))) instead. A spread past the
    # float range, and the NaN spread of a row without a finite entry, are
    # not near.
    scaled, anchor = _scaled_log_weights(log_w, one_minus, scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        near = np.ptp(log_w, axis=-1) <= 1.0 / abs(one_minus)
    near_powers = np.expm1(scaled[near])  # before _logsumexp overwrites scaled
    if counts is None:
        log_mean = _logsumexp(scaled) - math.log(log_w.shape[-1])
        log_mean[near] = np.log1p(np.mean(near_powers, axis=-1))
    else:
        total = np.sum(counts)
        scaled += np.log(counts)
        log_mean = _logsumexp(scaled) - math.log(total)
        log_mean[near] = np.log1p(np.sum(near_powers * counts, axis=-1) / total)
    return anchor[:, 0] + log_mean / one_minus


def _scaled_log_weights(
    log_w: np.ndarray, one_minus: float, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """s = (1 - alpha) (log w - a) of each row of a checked (..., K) array,
    in ``out`` when given, and the anchor a of each row, shape (..., 1): its
    largest log weight for 1 - alpha > 0, its smallest finite one for
    1 - alpha < 0. So s is 0 at
    the anchor and at most 0 at every finite log weight, which no finite
    order can overflow; a product past the float range is -inf, a weight
    too small to count. A -inf log weight gives -inf, or +inf for alpha > 1,
    where a zero-density sample dominates. A row without a finite entry (a
    checked set has one, but a segment of it need not) takes the anchor 0,
    so that its s is all -inf, or all +inf, and its estimate -inf."""
    if one_minus > 0.0:
        anchor = np.max(log_w, axis=-1, keepdims=True)
    else:
        finite = log_w > -math.inf
        anchor = np.min(log_w, axis=-1, keepdims=True, where=finite, initial=math.inf)
    np.copyto(anchor, 0.0, where=np.isinf(anchor))
    with np.errstate(over="ignore"):
        scaled = np.subtract(log_w, anchor, out=out)
        scaled *= one_minus
    return scaled, anchor


def _segment_counts(k: int, width: int) -> np.ndarray:
    """The sizes of the consecutive segments of ``width`` draws, the last
    one shorter where ``width`` does not divide ``k``, that ``k`` draws
    split into."""
    counts = np.full(-(-k // width), width)
    counts[-1] = k - width * (counts.size - 1)
    return counts


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, overwriting ``a``.

    This is scipy 1.17's ``logsumexp`` step for step, so the bits are the
    same (Blanchard, Higham & Higham, "Accurately computing the log-sum-exp
    and softmax functions", IMA J. Numer. Anal. 41(4), 2021): the m entries
    equal to the max are summed apart, as log1p(s / m) + log m + max with
    s = sum(exp(a - max)) over the rest. That result is finite wherever the
    max is. Where it is not, scipy returns log(sum(exp(a))) instead, which
    there equals the max: +inf for a row with +inf, -inf for an all -inf row.
    """
    top = np.max(a, axis=-1, keepdims=True)
    ties = a == top
    count = np.sum(ties, axis=-1, keepdims=True, dtype=float)
    np.copyto(a, -math.inf, where=ties)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(a, top, out=a)
        np.exp(a, out=a)
        s = np.sum(a, axis=-1, keepdims=True)
        np.divide(s, count, out=s, where=s != 0)
        out = np.log1p(s) + np.log(count) + top
    return np.where(np.isfinite(out), out, top)[..., 0]


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
    produces identical numbers; a cell's sets are scored by p and q, and
    estimated, in blocks of repeats whose draws take at most
    ``_BLOCK_BYTES``, one call per block each, and each set keeps the bits
    of a call on it alone.
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
            # repeats are scored in blocks whose stacked draws take at most
            # _BLOCK_BYTES, or one repeat each
            step = max(1, _BLOCK_BYTES // (8 * k * q.dim))
            blocks = []
            for start in range(0, repeats, step):
                theta = np.stack(
                    [
                        q.sample(np.random.default_rng([seed, ai, ki, r]), k)
                        for r in range(start, min(start + step, repeats))
                    ]
                )
                log_w = p.logpdf(theta) - q.logpdf(theta)
                blocks.append(mc_vr_estimate(log_w, alpha, axis=1))
            estimates = np.concatenate(blocks)
            # reduced below 1 by a power of two, which is exact, so that the
            # sums of estimates near the float range do not overflow; a -inf
            # estimate stays -inf, and its spread is inf, the limit as one
            # estimate goes to -inf
            e = int(np.frexp(np.max(np.abs(estimates[np.isfinite(estimates)]), initial=0.0))[1])
            scaled = np.ldexp(estimates, -e)
            mean = float(np.ldexp(np.mean(scaled), e))
            spread = np.std(scaled, ddof=1) if mean > -math.inf else math.inf
            stderr = float(np.ldexp(spread / math.sqrt(repeats), e))
            rows.append(BiasCell(alpha=alpha, k=k, mean=mean, stderr=stderr, exact=exact))
    return BiasTable(rows=rows, repeats=repeats, seed=seed)
