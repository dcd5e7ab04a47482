"""Property tests: the row-wise (``axis=``) estimator and weight routines.

On random (n, K) log-weight matrices, with -inf entries (zero-density
samples) mixed in, every routine called with ``axis=1`` must return exactly
the per-row vector calls, bit for bit, and reject the same invalid rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrbound import mc_vr_estimate, normalize_weights
from vrbound.gradients import log_weight_ratio

# Deterministic examples, and no example database written to disk.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

FINITE = st.floats(-700.0, 700.0)
ALPHAS = st.one_of(
    st.sampled_from([-math.inf, -2.0, -0.2, 0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, math.inf]),
    st.floats(-3.0, 3.0),
)


@st.composite
def log_weight_matrices(draw):
    """(n, K) log weights, some -inf, each row with a finite entry."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    entries = st.one_of(FINITE, st.just(-math.inf))
    lw = np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)))
    for i in range(n):
        lw[i, draw(st.integers(0, k - 1))] = draw(FINITE)
    return lw


def _rows(fn, lw):
    return np.array([fn(row) for row in lw])


@PROPERTY
@given(log_weight_matrices(), ALPHAS)
def test_estimate_rows_match_vector_calls(lw, alpha):
    batched = mc_vr_estimate(lw, alpha, axis=1)
    assert batched.shape == (lw.shape[0],)
    assert np.array_equal(batched, _rows(lambda r: mc_vr_estimate(r, alpha), lw))
    assert np.array_equal(mc_vr_estimate(lw.T, alpha, axis=0), batched)


@PROPERTY
@given(log_weight_matrices(), ALPHAS)
def test_weight_rows_match_vector_calls(lw, alpha):
    batched = normalize_weights(lw, alpha, axis=1)
    assert batched.shape == lw.shape
    assert np.array_equal(batched, _rows(lambda r: normalize_weights(r, alpha), lw))
    assert np.array_equal(normalize_weights(lw.T, alpha, axis=0), batched.T)


@PROPERTY
@given(log_weight_matrices())
def test_ratio_rows_match_vector_calls(lw):
    log_r, r = log_weight_ratio(lw, axis=1)
    rows = [log_weight_ratio(row) for row in lw]
    assert np.array_equal(log_r, [row[0] for row in rows])
    assert np.array_equal(r, [row[1] for row in rows])


@PROPERTY
@given(
    log_weight_matrices(),
    st.sampled_from([math.nan, math.inf, "all -inf"]),
    st.data(),
)
def test_invalid_rows_raise(lw, bad, data):
    i = data.draw(st.integers(0, lw.shape[0] - 1))
    if bad == "all -inf":
        lw[i] = -math.inf
    else:
        lw[i, data.draw(st.integers(0, lw.shape[1] - 1))] = bad
    for call in (
        lambda: mc_vr_estimate(lw, 0.5, axis=1),
        lambda: normalize_weights(lw, 0.5, axis=1),
        lambda: log_weight_ratio(lw, axis=1),
    ):
        with pytest.raises(ValueError, match="log weight"):
            call()


def test_empty_weight_sets_raise():
    for call in (
        lambda: mc_vr_estimate(np.zeros((3, 0)), 0.5, axis=1),
        lambda: normalize_weights(np.zeros((3, 0)), 0.5, axis=1),
        lambda: log_weight_ratio(np.zeros((3, 0)), axis=1),
    ):
        with pytest.raises(ValueError, match="non-empty"):
            call()
