"""Property tests of the estimator, the weights, the tape and the params file.

On random (n, K) log-weight matrices, with -inf entries (zero-density
samples) mixed in, every routine called with ``axis=1`` must return exactly
the per-row vector calls, bit for bit, and reject the same invalid rows.
Row-wise sample selection must also consume its generator exactly as the
per-row calls do.

The estimate is non-increasing in alpha, alpha-free for one sample and
moves with a shift of the log weights; the normalized weights lie on the
simplex and ignore such a shift. A row's segment estimates, merged by the
estimator weighted by the segments' sizes, give the row's estimate: bit for
bit at alpha = +-inf and when one segment holds the row, within rounding
elsewhere, whatever chunks the segments were estimated in. The vector-Jacobian product of every
operation of the reference graph (``reference.py``), which the library's
written-out gradients are checked against, the folded layer's included,
matches central differences on drawn broadcast shapes, and the library's
hidden layer (``ad.layer``, ``ad.layer_grad``) gives the reference layer's
gradients. The Bernoulli log mass matches 40-digit mpmath on
logits anywhere in the float range, and a row's bits do not depend on the
other draws computed with it. Parameter files round-trip exactly, and
corrupted ones load or raise ValueError.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

import reference as ref
from reference import finite_diff_check
from vrbound import (
    AlphaKind,
    classify_alpha,
    mc_vr_estimate,
    normalize_weights,
    select_backprop_sample,
)
from vrbound import autodiff as ad
from vrbound import validate_log_weights
from vrbound.bounds import _estimate, _logsumexp, _segment_counts
from vrbound.gradients import GaussianReparam, log_weight_ratio
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
# log R of the normalized weights against the two-pass formula


def _two_pass_log_ratio(log_w: np.ndarray) -> np.ndarray:
    """log R as it was formed before the one-sort kernel: the max minus the
    log-sum-exp of the entries left when the first maximum is taken out."""
    k = log_w.shape[-1]
    if k == 1:
        return np.full(log_w.shape[:-1], math.inf)
    top = np.expand_dims(np.argmax(log_w, axis=-1), -1)
    rest = log_w[np.arange(k) != top].reshape(log_w.shape[:-1] + (k - 1,))
    return np.max(log_w, axis=-1) - _logsumexp(rest)


@st.composite
def ratio_inputs(draw):
    """(sets, K) log weights at one scale in [1e-3, 1e300], with -inf
    entries, tied maxima, and rows whose entries but one are -inf."""
    n = draw(st.integers(1, 5))
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 40)))
    scale = draw(st.one_of(st.sampled_from([1e-3, 1.0, 1e3, 1e8, 1e300]), st.floats(1e-3, 1e3)))
    unit = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 1.0]))
    a = draw(hnp.arrays(np.float64, (n, k), elements=unit)) * scale
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1))
    for i, j in draw(st.lists(cells, max_size=6)):
        a[i, j] = -math.inf
    for i, j in draw(st.lists(cells, max_size=3)):
        a[i, j] = np.max(a[i])
    for i in range(n):  # a finite entry in every row
        if not np.isfinite(a[i]).any():
            a[i, draw(st.integers(0, k - 1))] = draw(unit) * scale
    return a


@settings(PROPERTY, max_examples=300)
@given(ratio_inputs())
def test_log_ratio_matches_the_two_pass_formula(lw):
    # within 4 ulps of the larger of |log R| and the set's largest magnitude,
    # the scale of the two formulas' rounding; +inf at the same rows
    log_r, _ = log_weight_ratio(lw, axis=1)
    old = _two_pass_log_ratio(lw.copy())
    assert np.array_equal(np.isposinf(log_r), np.isposinf(old))
    assert not np.isnan(log_r).any() and not np.isneginf(log_r).any()
    finite = np.isfinite(old)
    largest = np.max(np.where(np.isfinite(lw), np.abs(lw), 0.0), axis=1)
    scale = np.maximum(np.abs(old), largest)[finite]
    assert np.all(np.abs(log_r[finite] - old[finite]) <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize(
    ("row", "expected"),
    [
        ([2.0, 2.0, 2.0], -math.log(2.0)),
        ([0.0, -math.inf, -math.inf], math.inf),
        ([-math.inf, 1.5, -math.inf, 0.5], 1.0),
        ([-7.0], math.inf),
        ([1000.0, 0.0, 0.0], 1000.0 - math.log(2.0)),
    ],
    ids=["all tied", "the rest -inf", "one finite rest", "one entry", "huge"],
)
def test_log_ratio_edge_rows(row, expected):
    log_r, _ = log_weight_ratio(np.array([row, row]), axis=1)
    assert log_r.tolist() == [expected, expected]


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


# Orders so far from 1 that (1 - alpha) log w leaves the float range for
# |log w| above 1.8 (at 1e308) to 1.8e8 (at 1e300).
HUGE_ALPHAS = tuple(s * m for m in (1e300, 1e306, 1e308) for s in (-1.0, 1.0))


def _mp_power_mean(lw: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """The estimate and the normalized weights at a finite order, in
    50-digit mpmath, whose exponents do not overflow. For alpha > 1 a
    zero-density sample dominates: the estimate is -inf, and such samples
    share the weight."""
    zero = np.isneginf(lw)
    if alpha > 1.0 and zero.any():
        return -math.inf, zero / np.sum(zero)
    with mpmath.workdps(50):
        c = 1 - mpmath.mpf(alpha)
        powers = [mpmath.mpf(0) if z else mpmath.exp(c * mpmath.mpf(v)) for v, z in zip(lw, zero)]
        total = mpmath.fsum(powers)
        estimate = float(mpmath.log(total / len(lw)) / c)
        return estimate, np.array([float(w / total) for w in powers])


@PROPERTY
@given(log_weight_vectors(), st.sampled_from(HUGE_ALPHAS))
@example(np.array([-40.0, -41.0, -42.0]), 1e308)
@example(np.array([-40.0, -41.0, -42.0]), -1e308)
@example(np.array([0.1, 0.1, 0.1]), -1e300)
def test_huge_orders_match_mpmath(lw, alpha):
    estimate, weights = _mp_power_mean(lw, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mc_vr_estimate(lw, alpha)
        got_weights = normalize_weights(lw, alpha)
    if math.isinf(estimate):
        assert got == estimate
    else:
        assert abs(got - estimate) <= _slack(lw, estimate)
    np.testing.assert_allclose(got_weights, weights, rtol=0.0, atol=1e-15)


# ----------------------------------------------------------------------
# held-out evaluation at large K: segment estimates and their merge


@st.composite
def segmented_rows(draw):
    """(n, K) log weights, some -inf (whole segments of them too), each row
    with a finite entry; a segment width; and cuts of the segments into
    chunks, as a list of segment counts."""
    n, k, width = draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 12))
    entries = st.one_of(QUARTERS, st.just(-math.inf))
    lw = np.array(draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)))
    for i in range(n):
        lw[i, draw(st.integers(0, k - 1))] = draw(QUARTERS)
    segments = -(-k // width)
    cuts = []
    while sum(cuts) < segments:
        cuts.append(draw(st.integers(1, segments - sum(cuts))))
    return lw, width, cuts


def _segment_estimates(lw, alpha, width, cuts):
    """The estimate of each segment of ``width`` draws of each row, each chunk
    of ``cuts`` whole segments estimated in one call, as evaluation's
    workers would; the last segment is short where ``width`` does not
    divide K."""
    n, k = lw.shape
    found, start = [], 0
    for count in cuts:
        stop = min(start + count * width, k)
        full = (stop - start) // width
        if full:
            block = np.ascontiguousarray(lw[:, start : start + full * width])
            found.append(_estimate(block.reshape(n, full, width), alpha))
        if start + full * width < stop:
            found.append(_estimate(np.ascontiguousarray(lw[:, start + full * width : stop]), alpha)[:, None])
        start = stop
    return np.concatenate(found, axis=1)


@PROPERTY
@given(segmented_rows(), st.lists(ALPHAS, min_size=1, max_size=3))
def test_segment_merge_is_the_estimate_of_the_whole_row(drawn, orders):
    # The merge is the one estimator with segment counts. It has the whole
    # row's bits at alpha = +-inf and where one segment holds the row, and is
    # within 8 times _slack elsewhere; its bits do not depend on how the
    # segments were cut into chunks; and it is non-increasing in alpha.
    lw, width, cuts = drawn
    k = lw.shape[1]
    counts = _segment_counts(k, width)
    alphas = sorted(BRANCH_ALPHAS + tuple(orders))
    merged = []
    for alpha in alphas:
        segments = _segment_estimates(lw, alpha, width, cuts)
        one_at_a_time = _segment_estimates(lw, alpha, width, [1] * counts.size)
        assert segments.tobytes() == one_at_a_time.tobytes(), alpha
        got = _estimate(segments, alpha, counts)
        whole = _estimate(validate_log_weights(lw, 1), alpha)
        if k <= width or classify_alpha(alpha) in (AlphaKind.NEG_INF, AlphaKind.POS_INF):
            assert got.tobytes() == whole.tobytes(), alpha
        for row, g, w in zip(lw, got, whole):
            if math.isinf(w):
                assert g == w, alpha
            else:
                assert abs(g - w) <= 8.0 * _slack(row, g, w), (alpha, g, w)
        merged.append(got)
    for i in range(len(alphas) - 1):
        for row, hi, lo in zip(lw, merged[i], merged[i + 1]):
            assert hi >= lo - 8.0 * _slack(row, hi, lo), (alphas[i], alphas[i + 1])


# ----------------------------------------------------------------------
# the reference graph's vector-Jacobian products on drawn broadcast shapes

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
    leaves = [ref.Node(value) for value in inputs]
    out = build(*leaves)
    w = np.random.default_rng(seed).standard_normal(out.value.shape)
    grads = ref.gradients(ref.vsum(out * w), dict(enumerate(leaves)))
    for i, value in enumerate(inputs):

        def f(v, i=i):
            args = [ref.Node(v if j == i else x) for j, x in enumerate(inputs)]
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
    _check_vjps(ref.matmul, [a, b], seed)


@TAPE
@given(
    st.sampled_from(["shared", "stacked"]),
    st.tuples(*[st.integers(1, 3)] * 4),
    st.sampled_from(["tanh", "relu"]),
    SEEDS,
)
def test_layer_vjps(layout, sizes, act, seed):
    # A VAE layer's (K, n, m) inputs share one block; a BNN layer's (n, m)
    # inputs meet a stack of K. The reference graph's layer matches central
    # differences, and ad.layer_grad, carried back through the product, gives
    # its gradients of the inputs, the weights and the bias, bit for bit.
    k, n, m, p = sizes
    shapes = [(k, n, m), (m, p), (p,)] if layout == "shared" else [(n, m), (k, m, p), (k, p)]
    rng = np.random.default_rng(seed)
    x, w, b = (rng.standard_normal(shape) for shape in shapes)

    def build(xn, wn, bn):
        return ref._folded_layer(xn, wn, bn, getattr(ref, act))

    _check_vjps(build, [x, w, b], seed)
    leaves = [ref.Node(value) for value in (x, w, b)]
    g = rng.standard_normal((*np.broadcast_shapes(shapes[0][:-2], shapes[1][:-2]), n, p + 1))
    want = ref.gradients(ref.vsum(build(*leaves) * g[..., :-1]), dict(enumerate(leaves)))
    x1, block = ref.with_ones(x), ref.bias_row(w, b)
    g_pre = ad.layer_grad(g, ad.layer(x1, block, act), act)
    g_x1 = ref._unbroadcast(g_pre @ np.swapaxes(block, -1, -2), x1.shape)
    g_block = ref._unbroadcast(np.swapaxes(x1, -1, -2) @ g_pre, block.shape)
    got = [g_x1[..., :-1], g_block[..., :-1, :], g_block[..., -1, :]]
    for i in range(3):
        assert got[i].tobytes() == want[i].tobytes(), i


@TAPE
@given(SHAPES, st.sampled_from(["exp", "tanh", "relu"]), SEEDS)
def test_elementwise_vjps(shape, op, seed):
    x = np.random.default_rng(seed).standard_normal(shape)
    x = np.where(np.abs(x) < 1e-3, 0.5, x)  # clear of the ReLU kink
    _check_vjps(getattr(ref, op), [x], seed)


@TAPE
@given(SHAPES, st.data(), SEEDS)
def test_shape_op_vjps(shape, data, seed):
    x = np.random.default_rng(seed).standard_normal(shape)
    axis = None
    if shape:
        axis = data.draw(st.one_of(st.none(), st.integers(-len(shape), len(shape) - 1)))
    _check_vjps(lambda a: ref.vsum(a, axis=axis), [x], seed)
    _check_vjps(lambda a: ref.reshape(a, shape[::-1]), [x], seed)
    if shape:
        start = data.draw(st.integers(0, shape[-1]))
        stop = data.draw(st.integers(start, shape[-1]))
        _check_vjps(lambda a: ref.slice1d(a, start, stop), [x], seed)


@TAPE
@given(ROW_PAIRS, st.data(), SEEDS)
def test_normal_logpdf_rows_vjps(shapes, data, seed):
    rng = np.random.default_rng(seed)
    x, mean = (rng.standard_normal(shape) for shape in shapes.input_shapes)
    full = shapes.result_shape
    # a scalar, or one value per coordinate
    shapes_of_log_std = [(), full[-1:]]
    log_std = 0.3 * rng.standard_normal(data.draw(st.sampled_from(shapes_of_log_std)))
    node = ref.normal_logpdf_rows(x, ref.Node(mean), ref.Node(log_std))
    expected = stats.norm.logpdf(x, loc=mean, scale=np.exp(log_std)).sum(axis=-1)
    np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
    _check_vjps(ref.normal_logpdf_rows, [x, mean, log_std], seed)


@TAPE
@given(MATMUL_PAIRS, st.data(), st.booleans(), SEEDS)
def test_bernoulli_logpmf_rows_vjps(shapes, data, clip, seed):
    # Logits [x, 1] @ [w; b] of any matmul shapes, with rows in x and a
    # matrix w (vectors are promoted), and the bias the last row of each
    # matrix; the targets are the logits' last two or more axes. With
    # ``clip`` one column of logits sits at 40, beyond the cap, and gets zero
    # gradient.
    rng = np.random.default_rng(seed)
    x_shape, w_shape = shapes.input_shapes
    x_shape = x_shape if len(x_shape) >= 2 else (2, *x_shape)
    w_shape = w_shape if len(w_shape) >= 2 else (*w_shape, 2)
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[-1])
    if clip:
        w = np.concatenate([np.zeros(w_shape[:-1] + (1,)), w], axis=-1)
        b = np.concatenate([[40.0], b])
    logits_shape = (x @ w).shape
    target_shape = logits_shape[data.draw(st.integers(0, len(logits_shape) - 2)) :]
    targets = (rng.random(target_shape) < 0.5).astype(float)

    def rows(xn, wn, bn):
        return ref.bernoulli_rows(ref.with_ones(xn), ref.bias_row(wn, bn), targets)

    node = rows(ref.Node(x), ref.Node(w), ref.Node(b))
    z = np.clip(x @ w + b, -CAP, CAP)
    expected = (targets * z - np.logaddexp(0.0, z)).sum(axis=-1)
    np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
    _check_vjps(rows, [x, w, b], seed)


# ----------------------------------------------------------------------
# the Bernoulli node against 40-digit arithmetic

CAP = ad._LOGIT_CAP
# the cap and one ulp either side of it, of either sign
EDGES = [
    sign * edge
    for sign in (1.0, -1.0)
    for edge in (CAP, math.nextafter(CAP, 0.0), math.nextafter(CAP, math.inf))
]
# Weights of every size, those that take a logit past the cap or overflow
# it to +-inf (1e300 against an input of up to 1e10) included; inputs up to
# 1e10, or exactly 1 so that an edge weight is a logit bit for bit.
WEIGHTS = st.one_of(st.floats(-30.0, 30.0), st.floats(-1e300, 1e300), st.sampled_from(EDGES))
INPUTS = st.one_of(st.floats(-1e10, 1e10), st.just(1.0), st.just(0.0))
TARGETS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def bernoulli_layers(draw):
    """A layer input x (n, h), weights w (h, d), a bias b (d,) that may hold
    NaN, and targets (n, d), binary or in [0, 1]."""
    n, h, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 6))

    def array(shape, elements):
        size = math.prod(shape)
        return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    bias = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(EDGES + [math.nan, 0.0]))
    return array((n, h), INPUTS), array((h, d), WEIGHTS), array((d,), bias), array((n, d), TARGETS)


@PROPERTY
@given(bernoulli_layers())
@example(
    layer=(
        np.array([[1.0], [1e10]]),
        np.array(
            [[CAP, -CAP, math.nextafter(CAP, 0.0), -math.nextafter(CAP, math.inf), 1e300, -1e300]]
        ),
        np.zeros(6),
        np.array([[0.0, 1.0, 0.5, 0.25, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]]),
    )
)
@example(
    # logits of exactly 0 (2^1023 - 2^1023), whose sum of t z taken as
    # x . (t w^T) overflows to inf - inf
    layer=(
        np.full((1, 2), 2.0**33),
        np.array([[2.0**990, 2.0**990], [-(2.0**990), -(2.0**990)]]),
        np.zeros(2),
        np.ones((1, 2)),
    )
)
def test_bernoulli_logpmf_rows_match_40_digits(layer):
    # Each row sums t z - log1p(exp(z)) over the logits z = clip([x, 1] @
    # [w; b]) formed in floats, one product as the VAE's output layer forms
    # them; the clip is exact. Rounding may cost a few ulps of each term and
    # of each product x_i w_ij in the row, the bias's 1 * b_j among them.
    x, w, b, targets = layer
    x, w = ref.with_ones(x), ref.bias_row(w, b)
    got = ref.bernoulli_rows(x, w, targets)
    with np.errstate(all="ignore"):
        logits = x @ w
    z = np.clip(logits, -CAP, CAP)
    with mpmath.workdps(40):
        for i in range(logits.shape[0]):
            if np.isnan(logits[i]).any():
                assert np.isnan(got[i])
                continue
            terms = [
                (mpmath.mpf(t) * mpmath.mpf(v), mpmath.log1p(mpmath.exp(mpmath.mpf(v))))
                for t, v in zip(targets[i], z[i])
            ]
            exact = mpmath.fsum(tz - sp for tz, sp in terms)
            products = [
                mpmath.fsum(abs(mpmath.mpf(xk) * mpmath.mpf(wk)) for xk, wk in zip(x[i], w[:, j]))
                for j in range(w.shape[1])
            ]
            scale = mpmath.fsum(abs(tz) + sp for tz, sp in terms)
            scale += mpmath.fsum(mpmath.mpf(t) * p for t, p in zip(targets[i], products))
            assert math.isfinite(got[i])
            assert abs(mpmath.mpf(float(got[i])) - exact) <= mpmath.mpf(1e-14) * scale, i


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 6), SEEDS, st.floats(0.0, 60.0), st.integers(1, 20))
def test_bernoulli_rows_of_a_draw_alone_equal_them_among_others(k, n, seed, spread, width):
    # K draws of a (n, 16) layer input with its column of ones against
    # (n, 64) targets, as the VAE evaluates them in chunks of any size.
    # Weights drawn at up to ``spread`` clip the logits of some rows and not
    # of others; each draw computed alone must give its rows' bits. So must
    # the standard-normal rows and log q of K draws of (n, width) noise: into
    # the rows of a longer buffer, from noise at the head of one, as a
    # sampler's workspace gives them to a chunk of fewer draws, and from
    # strided rows, the latents' before their column of ones. Each reads its
    # noise and leaves it as it was.
    rng = np.random.default_rng(seed)
    x = ref.with_ones(np.tanh(rng.standard_normal((k, n, 16)) * 2.0))
    w = rng.standard_normal((16, 64)) * 0.25
    w[0, :3] = spread * rng.standard_normal(3)
    w = ref.bias_row(w, rng.standard_normal(64))
    targets = (rng.random((n, 64)) < 0.5).astype(float)
    rows = ref.bernoulli_rows(x, w, targets)
    for i in range(k):
        assert ref.bernoulli_rows(x[i], w, targets).tobytes() == rows[i].tobytes()
        alone = ref.bernoulli_rows(x[i : i + 1], w, targets)
        assert alone.tobytes() == rows[i : i + 1].tobytes()
    eps = rng.standard_normal((k, n, width)) * 10.0 ** rng.integers(-3, 4, size=(k, n, width))
    reparam = GaussianReparam(rng.standard_normal((n, width)), rng.standard_normal((n, width)))
    head = np.empty((k + 1) * n * width)[: k * n * width].reshape(k, n, width)
    head[...] = eps
    before_ones = np.ones((k, n, width + 1))
    before_ones[..., :-1] = eps
    out = np.empty((k + 1, n))[:k]
    for rows_of in (ad.std_normal_logpdf_rows, reparam.log_q):
        among = rows_of(eps)
        for noise in (head, before_ones[..., :-1]):
            assert rows_of(noise, out) is out and out.tobytes() == among.tobytes()
        for i in range(k):
            assert rows_of(eps[i]).tobytes() == among[i].tobytes()
            alone = rows_of(head[i : i + 1], out[i : i + 1])
            assert alone.tobytes() == among[i : i + 1].tobytes()
    assert head.tobytes() == eps.tobytes() == before_ones[..., :-1].copy().tobytes()


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
