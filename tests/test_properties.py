"""Property tests of the estimator, the weights, the tape and the params file.

On random (n, K) log-weight matrices, with -inf entries (zero-density
samples) mixed in, every routine called with ``axis=1`` must return exactly
the per-row vector calls, bit for bit, and reject the same invalid rows.
Row-wise sample selection must also consume its generator exactly as the
per-row calls do.

The estimate is non-increasing in alpha, alpha-free for one sample and
moves with a shift of the log weights; the normalized weights lie on the
simplex and ignore such a shift. Every tape operation's vector-Jacobian
product, the fused dense layer's included, matches central differences on
drawn broadcast shapes. Parameter
files round-trip exactly, and corrupted ones load or raise ValueError.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from vrbound import (
    AlphaKind,
    classify_alpha,
    finite_diff_check,
    mc_vr_estimate,
    normalize_weights,
    select_backprop_sample,
)
from vrbound import autodiff as ad
from vrbound.bounds import _logsumexp
from vrbound.gradients import log_weight_ratio
from vrbound.io import load_params, save_params

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
@given(log_weight_matrices(), ALPHAS, st.integers(0, 2**32 - 1))
def test_selection_rows_match_vector_calls(lw, alpha, seed):
    rng, twin, reference = (np.random.default_rng(seed) for _ in range(3))
    batched = select_backprop_sample(lw, alpha, rng, axis=1)
    assert batched.shape == (lw.shape[0],)
    assert np.array_equal(batched, [select_backprop_sample(row, alpha, twin) for row in lw])
    assert rng.bit_generator.state == twin.bit_generator.state
    # The per-row rule is rng.choice on the normalized weights at finite
    # alpha, and a draw-free argmax / argmin at -inf / +inf.
    if classify_alpha(alpha) in (AlphaKind.NEG_INF, AlphaKind.POS_INF):
        expected = np.argmax(normalize_weights(lw, alpha, axis=1), axis=1)
    else:
        expected = [reference.choice(lw.shape[1], p=normalize_weights(row, alpha)) for row in lw]
    assert np.array_equal(batched, expected)
    assert rng.bit_generator.state == reference.bit_generator.state
    transposed = select_backprop_sample(lw.T, alpha, np.random.default_rng(seed), axis=0)
    assert np.array_equal(transposed, batched)


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


# ----------------------------------------------------------------------
# the log-sum-exp kernel against scipy's


@st.composite
def logsumexp_inputs(draw):
    """(sets, K) arrays at one scale in [1e-3, 1e3], with -inf and +inf
    entries, tied maxima and all -inf rows."""
    n = draw(st.integers(1, 5))
    # past 8 entries numpy's pairwise sum unrolls, past 128 it recurses
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 200)))
    scale = draw(st.one_of(st.sampled_from([1e-3, 1.0, 1e3]), st.floats(1e-3, 1e3)))
    unit = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 1.0]))
    a = draw(hnp.arrays(np.float64, (n, k), elements=unit)) * scale
    specials = st.tuples(
        st.integers(0, n - 1), st.integers(0, k - 1), st.sampled_from([-math.inf, math.inf])
    )
    for i, j, value in draw(st.lists(specials, max_size=4)):
        a[i, j] = value
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        a[i] = -math.inf
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=3)):
        a[i, j] = np.max(a[i])
    return a


@settings(PROPERTY, max_examples=300)
@given(logsumexp_inputs())
def test_logsumexp_equals_scipy_bit_for_bit(a):
    assert _logsumexp(a.copy()).tobytes() == special.logsumexp(a, axis=-1).tobytes()


@pytest.mark.parametrize(
    ("row", "expected"),
    [
        ([0.0, math.inf, -math.inf], math.inf),
        ([-math.inf, -math.inf], -math.inf),
        ([2.5, 2.5, 2.5, 2.5], 2.5 + math.log(4.0)),
        ([-7.0], -7.0),
    ],
    ids=["one +inf", "all -inf", "all tied", "one entry"],
)
def test_logsumexp_edge_rows(row, expected):
    assert _logsumexp(np.array([row, row])).tolist() == [expected, expected]


# ----------------------------------------------------------------------
# estimator and weights of one weight set

# Log weights on a grid of quarters, shifted by integers: the shift is exact,
# so the one-hot branches (alpha = +-inf) see the same ties before and after.
QUARTERS = st.integers(-2800, 2800).map(lambda i: i / 4.0)
SHIFTS = st.integers(-400, 400).map(float)


@st.composite
def log_weight_vectors(draw):
    """(K,) log weights, some -inf, at least one finite."""
    entries = draw(st.lists(st.one_of(QUARTERS, st.just(-math.inf)), min_size=1, max_size=8))
    entries[draw(st.integers(0, len(entries) - 1))] = draw(QUARTERS)
    return np.array(entries)


def _slack(lw, *estimates):
    """Rounding slack of an estimate: some ulps of the largest |log w| and of
    the finite estimates compared, at every order, those next to 1 included.
    (With a -inf log weight an estimate near 1 is about log(K / finite
    count) / (1 - alpha), far beyond any |log w|.)"""
    largest = float(np.max(np.abs(lw[np.isfinite(lw)])))
    sizes = [abs(e) for e in estimates if math.isfinite(e)]
    return 1e-14 * (1.0 + largest + max(sizes, default=0.0))


# Every branch of the estimator and the weights, orders on both sides of 1
# from far to next to it, and one or more drawn orders.
NEAR_ONE = tuple(1.0 + s * g for g in (1e-6, 2e-9, 1e-12) for s in (-1.0, 1.0))
BRANCH_ALPHAS = (-math.inf, -2.0, -0.2, 0.0, 0.5, 1.0, 1.5, 2.0, math.inf) + NEAR_ONE


@PROPERTY
@given(log_weight_vectors(), st.lists(ALPHAS, min_size=1, max_size=3))
def test_estimate_non_increasing_in_alpha(lw, drawn):
    alphas = sorted(BRANCH_ALPHAS + tuple(drawn))
    estimates = [mc_vr_estimate(lw, a) for a in alphas]
    for i in range(len(alphas) - 1):
        slack = _slack(lw, estimates[i], estimates[i + 1])
        assert estimates[i] >= estimates[i + 1] - slack, (alphas[i], alphas[i + 1])


@PROPERTY
@given(QUARTERS, ALPHAS)
def test_single_sample_estimate_is_the_weight(v, drawn):
    for alpha in (*BRANCH_ALPHAS, drawn):
        assert mc_vr_estimate(np.array([v]), alpha) == v


@PROPERTY
@given(log_weight_vectors(), ALPHAS, SHIFTS)
def test_estimate_shift_equivariant(lw, drawn, c):
    for alpha in (*BRANCH_ALPHAS, drawn):
        shifted = mc_vr_estimate(lw + c, alpha)
        expected = mc_vr_estimate(lw, alpha) + c
        if math.isinf(expected):
            assert shifted == expected
        else:
            assert abs(shifted - expected) <= _slack(np.append(lw, lw + c), expected), alpha


@PROPERTY
@given(log_weight_vectors(), ALPHAS, SHIFTS)
def test_weights_on_simplex_and_shift_invariant(lw, drawn, c):
    for alpha in (*BRANCH_ALPHAS, drawn):
        w = normalize_weights(lw, alpha)
        assert w.shape == lw.shape
        assert np.all(w >= 0.0) and abs(float(np.sum(w)) - 1.0) <= 1e-12 * lw.size, alpha
        np.testing.assert_allclose(normalize_weights(lw + c, alpha), w, rtol=0.0, atol=1e-9)


# ----------------------------------------------------------------------
# tape vector-Jacobian products on drawn broadcast shapes

TAPE = settings(derandomize=True, database=None, deadline=None, max_examples=40)
SEEDS = st.integers(0, 2**32 - 1)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)
BROADCAST_PAIRS = hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3)
# operand pairs of the row-summed densities, which need a last axis
ROW_PAIRS = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=3, max_side=3)
MATMUL_PAIRS = hnp.mutually_broadcastable_shapes(
    signature=np.matmul.signature, max_dims=2, max_side=3
)


def _check_vjps(build, inputs, seed):
    """Back-propagate sum(build(*leaves) * w) for a random w, and check each
    leaf's gradient against central differences of the same sum."""
    leaves = [ad.Node(value) for value in inputs]
    out = build(*leaves)
    w = np.random.default_rng(seed).standard_normal(out.value.shape)
    grads = ad.gradients(ad.vsum(out * w), dict(enumerate(leaves)))
    for i, value in enumerate(inputs):

        def f(v, i=i):
            args = [ad.Node(v if j == i else x) for j, x in enumerate(inputs)]
            return float(np.sum(build(*args).value * w))

        # Relative error, with components below 1e-3 held to 1e-9 absolute:
        # rounding in f leaves about that much in a central difference.
        assert finite_diff_check(f, value, grads[i], abs_floor=1e-3) < 1e-6, i


@TAPE
@given(BROADCAST_PAIRS, st.sampled_from(["add", "sub", "mul", "div"]), SEEDS)
def test_arithmetic_vjps(shapes, op, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shapes.input_shapes[0])
    b = rng.uniform(0.5, 2.0, shapes.input_shapes[1]) * rng.choice([-1.0, 1.0])
    build = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y,
        "div": lambda x, y: x / y,
    }[op]
    _check_vjps(build, [a, b], seed)


@TAPE
@given(MATMUL_PAIRS, SEEDS)
def test_matmul_vjps(shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(shape) for shape in shapes.input_shapes)
    _check_vjps(ad.matmul, [a, b], seed)


@TAPE
@given(MATMUL_PAIRS, st.data(), st.sampled_from([None, "tanh", "relu"]), SEEDS)
def test_dense_vjps(shapes, data, act, seed):
    # The bias may broadcast against the product or add leading axes to it.
    product = shapes.result_shape
    bias_shape = data.draw(hnp.broadcastable_shapes(product, max_dims=len(product) + 1, max_side=3))
    rng = np.random.default_rng(seed)
    x, w = (rng.standard_normal(shape) for shape in shapes.input_shapes)
    b = rng.standard_normal(bias_shape)
    layer = {None: lambda n: n, "tanh": np.tanh, "relu": lambda n: np.maximum(n, 0.0)}[act]
    node = ad.dense(ad.Node(x), ad.Node(w), ad.Node(b), act)
    np.testing.assert_allclose(node.value, layer(x @ w + b), rtol=1e-14, atol=1e-14)
    _check_vjps(lambda xn, wn, bn: ad.dense(xn, wn, bn, act), [x, w, b], seed)


@TAPE
@given(SHAPES, st.sampled_from(["exp", "tanh", "relu"]), SEEDS)
def test_elementwise_vjps(shape, op, seed):
    x = np.random.default_rng(seed).standard_normal(shape)
    x = np.where(np.abs(x) < 1e-3, 0.5, x)  # clear of the ReLU kink
    _check_vjps(getattr(ad, op), [x], seed)


@TAPE
@given(SHAPES, st.data(), SEEDS)
def test_shape_op_vjps(shape, data, seed):
    x = np.random.default_rng(seed).standard_normal(shape)
    axis = None
    if shape:
        axis = data.draw(st.one_of(st.none(), st.integers(-len(shape), len(shape) - 1)))
    _check_vjps(lambda a: ad.vsum(a, axis=axis), [x], seed)
    _check_vjps(lambda a: ad.reshape(a, shape[::-1]), [x], seed)
    if shape:
        start = data.draw(st.integers(0, shape[-1]))
        stop = data.draw(st.integers(start, shape[-1]))
        _check_vjps(lambda a: ad.slice1d(a, start, stop), [x], seed)


@TAPE
@given(ROW_PAIRS, st.data(), SEEDS)
def test_normal_logpdf_rows_vjps(shapes, data, seed):
    rng = np.random.default_rng(seed)
    x, mean = (rng.standard_normal(shape) for shape in shapes.input_shapes)
    full = shapes.result_shape
    # a scalar, one value per coordinate, one per element, or one per row
    shapes_of_log_std = [(), full[-1:], full, full[:-1] + (1,)]
    log_std = 0.3 * rng.standard_normal(data.draw(st.sampled_from(shapes_of_log_std)))
    node = ad.normal_logpdf_rows(x, ad.Node(mean), ad.Node(log_std))
    expected = stats.norm.logpdf(x, loc=mean, scale=np.exp(log_std)).sum(axis=-1)
    np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
    _check_vjps(ad.normal_logpdf_rows, [x, mean, log_std], seed)


@TAPE
@given(ROW_PAIRS, SEEDS)
def test_bernoulli_logpmf_rows_vjps(shapes, seed):
    rng = np.random.default_rng(seed)
    logits = 3.0 * rng.standard_normal(shapes.input_shapes[0])
    targets = (rng.random(shapes.input_shapes[1]) < 0.5).astype(float)
    node = ad.bernoulli_logpmf_rows(ad.Node(logits), targets)
    expected = (targets * logits - np.logaddexp(0.0, logits)).sum(axis=-1)
    np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
    _check_vjps(lambda z: ad.bernoulli_logpmf_rows(z, targets), [logits], seed)


# ----------------------------------------------------------------------
# parameter files

FLOAT_ARRAYS = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(width=64))
)
PARAMS = st.dictionaries(st.text(max_size=6), FLOAT_ARRAYS, max_size=4)


@PROPERTY
@given(PARAMS)
@example(params={"scalar": np.array(-0.0), "empty": np.zeros((2, 0)), "": np.array([math.nan])})
def test_params_round_trip_exactly(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("params") / "p.bin"
    save_params(path, params)
    loaded = load_params(path)
    assert sorted(loaded) == sorted(params)
    for name, value in params.items():
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.astype("<f8").tobytes()


# Each edit overwrites bytes at a position, inserts them there, or cuts the
# file there; positions wrap around the file's length.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["overwrite", "insert", "cut"]),
        st.integers(0, 2**16),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(PARAMS, EDITS, st.one_of(st.none(), st.binary(max_size=64)))
def test_corrupted_params_load_or_raise_value_error(tmp_path_factory, params, edits, tail):
    """A valid file after edits, or the magic followed by arbitrary bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "p.bin"
    if tail is None:
        save_params(path, params)
        blob = bytearray(path.read_bytes())
        for edit, at, data in edits:
            at %= len(blob) + 1
            if edit == "overwrite":
                blob[at : at + len(data)] = data
            elif edit == "insert":
                blob[at:at] = data
            else:
                del blob[at:]
        path.write_bytes(bytes(blob))
    else:
        path.write_bytes(b"VRBP" + tail)
    try:
        loaded = load_params(path)
    except ValueError:
        return
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in loaded.values())
