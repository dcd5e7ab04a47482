"""The library's array kernels and gradient layout, and the reference tape
and its operations (``reference.py``) that every written-out VJP is checked
against, each against central finite differences or the reference."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import reference as ref
from reference import finite_diff_check
from vrbound import autodiff as ad


def numeric_grad(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        hi = f((flat + bump).reshape(x.shape))
        lo = f((flat - bump).reshape(x.shape))
        out.ravel()[i] = (hi - lo) / (2.0 * step)
    return out


def check_unary(op, x, tol=1e-6):
    def f(v):
        return float(ref.vsum(op(ref.Node(v)) * weights).value)

    rng = np.random.default_rng(0)
    weights = rng.standard_normal(np.shape(op(ref.Node(x)).value))
    leaf = ref.Node(x)
    root = ref.vsum(op(leaf) * weights)
    grads = ref.gradients(root, {"x": leaf})
    np.testing.assert_allclose(grads["x"], numeric_grad(f, x), atol=tol)


class TestPrimitives:
    def test_add_sub_mul_div_broadcast(self):
        rng = np.random.default_rng(1)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal(4) + 2.0
        w = rng.standard_normal((3, 4))

        def build(a, b):
            return ((a + b) * b - a / b) * w

        a, b = ref.Node(a_val), ref.Node(b_val)
        root = ref.vsum(build(a, b))
        grads = ref.gradients(root, {"a": a, "b": b})
        fa = lambda v: float(ref.vsum(build(ref.Node(v), ref.Node(b_val))).value)
        fb = lambda v: float(ref.vsum(build(ref.Node(a_val), ref.Node(v))).value)
        np.testing.assert_allclose(grads["a"], numeric_grad(fa, a_val), atol=1e-6)
        np.testing.assert_allclose(grads["b"], numeric_grad(fb, b_val), atol=1e-6)

    def test_scalar_broadcast(self):
        a = ref.Node(np.array([1.0, 2.0, 3.0]))
        root = ref.vsum(a * 2.0 + 1.0)
        grads = ref.gradients(root, {"a": a})
        np.testing.assert_allclose(grads["a"], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [
            ((3,), (3,)),
            ((2, 3), (3,)),
            ((3,), (3, 4)),
            ((2, 3), (3, 4)),
            # batched: stacks of matrices broadcast over leading axes
            ((5, 2, 3), (3, 4)),
            ((2, 3), (5, 3, 4)),
            ((5, 2, 3), (5, 3, 4)),
            ((1, 2, 3), (5, 3, 4)),
            ((5, 2, 3), (3,)),
            ((3,), (5, 3, 4)),
        ],
    )
    def test_matmul_variants(self, shape_a, shape_b):
        rng = np.random.default_rng(2)
        a_val = rng.standard_normal(shape_a)
        b_val = rng.standard_normal(shape_b)
        w = rng.standard_normal(np.shape(a_val @ b_val))

        def build(a, b):
            return ref.matmul(a, b) * w

        a, b = ref.Node(a_val), ref.Node(b_val)
        grads = ref.gradients(ref.vsum(build(a, b)), {"a": a, "b": b})
        fa = lambda v: float(ref.vsum(build(ref.Node(v), ref.Node(b_val))).value)
        fb = lambda v: float(ref.vsum(build(ref.Node(a_val), ref.Node(v))).value)
        np.testing.assert_allclose(grads["a"], numeric_grad(fa, a_val), atol=1e-6)
        np.testing.assert_allclose(grads["b"], numeric_grad(fb, b_val), atol=1e-6)

    def test_elementwise_nonlinearities(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5)) * 2.0
        check_unary(ref.exp, x * 0.3)
        check_unary(ref.tanh, x)
        check_unary(ref.relu, x + 0.05)  # keep clear of the kink

    def test_sum_axis(self):
        rng = np.random.default_rng(4)
        x_val = rng.standard_normal((3, 4))
        w = rng.standard_normal(3)
        x = ref.Node(x_val)
        root = ref.vsum(ref.vsum(x, axis=1) * w)
        grads = ref.gradients(root, {"x": x})
        np.testing.assert_allclose(grads["x"], np.tile(w[:, None], (1, 4)))

    def test_reshape_and_slice(self):
        rng = np.random.default_rng(7)
        x_val = rng.standard_normal(12)
        w = rng.standard_normal((2, 3))
        x = ref.Node(x_val)
        part = ref.reshape(ref.slice1d(x, 4, 10), (2, 3))
        grads = ref.gradients(ref.vsum(part * w), {"x": x})
        expected = np.zeros(12)
        expected[4:10] = w.ravel()
        np.testing.assert_allclose(grads["x"], expected)

    def test_slice_last_axis_of_stacked_rows(self):
        rng = np.random.default_rng(14)
        x_val = rng.standard_normal((3, 7))
        w = rng.standard_normal((3, 2, 2))
        x = ref.Node(x_val)
        part = ref.reshape(ref.slice1d(x, 2, 6), (3, 2, 2))
        np.testing.assert_array_equal(part.value, x_val[:, 2:6].reshape(3, 2, 2))
        grads = ref.gradients(ref.vsum(part * w), {"x": x})
        f = lambda v: float(np.sum(v[:, 2:6].reshape(3, 2, 2) * w))
        assert finite_diff_check(f, x_val, grads["x"]) < 1e-6
        expected = np.zeros((3, 7))
        expected[:, 2:6] = w.reshape(3, 4)
        np.testing.assert_array_equal(grads["x"], expected)

    def test_gradient_accumulation_diamond(self):
        x = ref.Node(np.array(2.0))
        y = x * x  # both parents are the same node
        grads = ref.gradients(y, {"x": x})
        np.testing.assert_allclose(grads["x"], 4.0)

    def test_backward_requires_scalar(self):
        x = ref.Node(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            ref.backward(x + 1.0)

    def test_seed_is_the_gradient_at_the_root(self):
        x = ref.Node(np.array([1.0, 2.0, 3.0]))
        grads = ref.gradients(x * 2.0, {"x": x}, np.array([1.0, -1.0, 0.5]))
        assert np.array_equal(grads["x"], [2.0, -2.0, 1.0])
        for seed in (np.ones(2), np.ones((3, 1)), 1.0):
            with pytest.raises(ValueError, match="seed shape"):
                ref.gradients(x * 2.0, {"x": x}, seed)

    def test_unreached_leaf_gets_zero(self):
        x = ref.Node(np.array(1.0))
        z = ref.Node(np.array(5.0))
        grads = ref.gradients(x * 2.0, {"x": x, "z": z})
        np.testing.assert_allclose(grads["z"], 0.0)

    def test_gradients_land_in_a_flat_vector(self):
        # in the order of the leaves; an unreached leaf's slice is zeroed
        x = ref.Node(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = ref.Node(np.array([5.0]))
        z = ref.Node(np.array(6.0))
        out = np.full(6, np.nan)
        grads = ref.gradients(ref.vsum(x * y), {"x": x, "z": z, "y": y}, out=out)
        assert np.array_equal(out, [5.0, 5.0, 5.0, 5.0, 0.0, 10.0])
        for name, node in (("x", x), ("z", z), ("y", y)):
            assert grads[name].shape == node.value.shape
            assert np.shares_memory(grads[name], out)
        # without ``out``, into a new vector
        again = ref.gradients(ref.vsum(x * y), {"x": x, "z": z, "y": y})
        assert again["x"].base is again["y"].base is again["z"].base
        assert np.array_equal(again["y"], grads["y"]) and not np.shares_memory(again["y"], out)

    def test_library_gradients_run_the_vjp_once_into_a_flat_vector(self):
        # in the order of the parameters; one the VJP leaves out is zeroed
        params = {"x": np.ones((2, 2)), "z": np.array(6.0), "y": np.array([5.0])}
        seeds = []

        def vjp(g):
            seeds.append(g)
            return {"y": np.sum(g), "x": g * params["y"]}

        seed = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = np.full(6, np.nan)
        grads = ad.gradients(vjp, seed, params, out)
        assert len(seeds) == 1 and seeds[0] is seed
        assert list(grads) == list(params)
        assert np.array_equal(out, [5.0, 10.0, 15.0, 20.0, 0.0, 10.0])
        for name, value in params.items():
            assert grads[name].shape == value.shape
            assert np.shares_memory(grads[name], out)

    def test_unbroadcast_passes_a_matching_gradient_on(self):
        g = np.arange(6.0).reshape(2, 3)
        assert ref._unbroadcast(g, (2, 3)) is g
        assert np.array_equal(ref._unbroadcast(g, (1, 3)), [[3.0, 5.0, 7.0]])
        assert np.array_equal(ref._unbroadcast(g, (3,)), [3.0, 5.0, 7.0])

    def test_a_fused_node_runs_its_vjp_once_per_backward_pass(self):
        a, b = ref.Node(np.array([1.0, 2.0])), ref.Node(np.array(3.0))
        calls = []

        def vjp(g):
            calls.append(g)
            return {"a": g * b.value, "b": np.sum(g * a.value)}

        node = ref.fused(a.value * b.value, {"a": a, "c": np.ones(2), "b": b}, vjp)
        assert node.parents == (a, b)
        grads = ref.gradients(ref.vsum(node), {"a": a, "b": b})
        assert len(calls) == 1
        assert np.array_equal(grads["a"], [3.0, 3.0]) and grads["b"] == 3.0
        ref.gradients(ref.vsum(node), {"a": a, "b": b})
        assert len(calls) == 2
        assert isinstance(ref.fused(np.ones(2), {"c": np.ones(2)}, vjp), np.ndarray)


class TestComposites:
    # One row of observations: normal_logpdf_rows sums the whole vector.
    def test_normal_logpdf_sum_value(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(7)
        mean = rng.standard_normal(7)
        log_std = rng.standard_normal(7) * 0.3
        node = ref.normal_logpdf_rows(x, ref.Node(mean), ref.Node(log_std))
        expected = float(
            np.sum(stats.norm.logpdf(x, loc=mean, scale=np.exp(log_std)))
        )
        assert float(node.value) == pytest.approx(expected, abs=1e-10)
        assert ad.normal_logpdf_rows(x, mean, log_std).tobytes() == node.value.tobytes()

    def test_normal_logpdf_sum_scalar_scale(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        node = ref.normal_logpdf_rows(x, ref.Node(mean), ref.Node(np.array(0.2)))
        expected = float(np.sum(stats.norm.logpdf(x, loc=mean, scale=math.exp(0.2))))
        assert float(node.value) == pytest.approx(expected, abs=1e-10)
        assert ad.normal_logpdf_rows(x, mean, 0.2).tobytes() == node.value.tobytes()

    def test_normal_logpdf_sum_gradients(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6)
        mean_val = rng.standard_normal(6)
        ls_val = np.array(0.1)
        mean, ls = ref.Node(mean_val), ref.Node(ls_val)
        grads = ref.gradients(ref.normal_logpdf_rows(x, mean, ls), {"mean": mean, "ls": ls})
        fm = lambda v: float(np.sum(stats.norm.logpdf(x, loc=v, scale=math.exp(0.1))))
        fs = lambda v: float(
            np.sum(stats.norm.logpdf(x, loc=mean_val, scale=np.exp(float(v))))
        )
        # the library's written-out VJP at a single log scale too
        g_mean, g_ls = ad.normal_rows_vjp(x, mean_val, ls_val, np.ones(()))
        for got in (grads, {"mean": g_mean, "ls": g_ls}):
            np.testing.assert_allclose(got["mean"], numeric_grad(fm, mean_val), atol=1e-6)
            np.testing.assert_allclose(got["ls"], numeric_grad(fs, ls_val), atol=1e-6)

    def test_normal_logpdf_rows(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 3))
        mean_val = rng.standard_normal((4, 3))
        per_coordinate = rng.standard_normal(3) * 0.2
        w = rng.standard_normal(4)

        def f(m, s):
            return float(np.sum(stats.norm.logpdf(x, loc=m, scale=np.exp(s)).sum(axis=1) * w))

        # a scalar log std is counted once per coordinate
        for ls_val in (per_coordinate, np.array(0.2)):
            mean, ls = ref.Node(mean_val), ref.Node(ls_val)
            node = ref.normal_logpdf_rows(x, mean, ls)
            expected = stats.norm.logpdf(x, loc=mean_val, scale=np.exp(ls_val)).sum(axis=1)
            np.testing.assert_allclose(node.value, expected, atol=1e-10)
            assert ad.normal_logpdf_rows(x, mean_val, ls_val).tobytes() == node.value.tobytes()
            grads = ref.gradients(ref.vsum(node * w), {"mean": mean, "ls": ls})
            fm = lambda v: f(v, ls_val)
            fs = lambda v: f(mean_val, v)
            np.testing.assert_allclose(grads["mean"], numeric_grad(fm, mean_val), atol=1e-6)
            np.testing.assert_allclose(grads["ls"], numeric_grad(fs, ls_val), atol=1e-6)
        # and nothing else: a log std of two or more axes is refused
        with pytest.raises(ValueError, match="log_std"):
            ad.normal_logpdf_rows(x, mean_val, np.zeros((4, 3)))

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (5, 4, 2)])
    def test_std_normal_logpdf_rows_keeps_the_bits_of_the_written_out_priors(self, shape):
        # the prior written out as one einsum of each row with itself, whose
        # bits the library's array kernel and the reference graph keep,
        # against scipy; the graph's gradient is -x
        x = np.random.default_rng(12).standard_normal(shape) * 3.0
        written = np.einsum("...i,...i->...", x, x) * (-0.5)
        written += -0.5 * shape[-1] * math.log(2.0 * math.pi)
        on_arrays = ad.std_normal_logpdf_rows(x)
        leaf = ref.Node(x)
        on_nodes = ref.std_normal_logpdf_rows(leaf)
        assert not isinstance(on_arrays, ref.Node) and isinstance(on_nodes, ref.Node)
        for value in (on_arrays, on_nodes.value):
            assert value.shape == shape[:-1]
            assert value.tobytes() == written.tobytes()
        np.testing.assert_allclose(on_arrays, stats.norm.logpdf(x).sum(axis=-1), rtol=1e-13)
        grads = ref.gradients(on_nodes, {"x": leaf}, np.ones(shape[:-1]))
        assert grads["x"].tobytes() == (-x).tobytes()

    @pytest.mark.parametrize("width", range(1, 13))
    def test_std_normal_logpdf_rows_sums_rows_with_numpy_bits(self, width):
        # Each row's |x|^2 has the bits of numpy's einsum of the row with
        # itself, which reads x once, at every width: into new arrays and
        # into buffers, and for each draw alone. x is left as it was.
        rng = np.random.default_rng(width)
        for shape in [(30, 100, width), (7, width), (width,)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            kept = x.copy()
            expected = np.einsum("...i,...i->...", x, x) * (-0.5)
            expected += -0.5 * width * math.log(2.0 * math.pi)
            assert ad.std_normal_logpdf_rows(x).tobytes() == expected.tobytes()
            np.testing.assert_allclose(expected, stats.norm.logpdf(x).sum(axis=-1), rtol=1e-13)
            if len(shape) > 1:
                rows = np.empty(shape[:-1])
                assert ad.std_normal_logpdf_rows(x, rows) is rows
                assert rows.tobytes() == expected.tobytes()
                for i in range(shape[0]):
                    assert ad.std_normal_logpdf_rows(x[i]).tobytes() == expected[i].tobytes()
            assert x.tobytes() == kept.tobytes()

    def test_bernoulli_rows_value_and_grad(self):
        # logits [x, 1] @ [w; b] of a (3, 4) layer input, a (4, 6) weight and
        # a bias
        rng = np.random.default_rng(12)
        x_val, w_val = rng.standard_normal((3, 4)), rng.standard_normal((4, 6))
        b_val = rng.standard_normal(6)
        targets = (rng.random((3, 6)) > 0.5).astype(float)
        leaves = {"x": ref.Node(x_val), "w": ref.Node(w_val), "b": ref.Node(b_val)}
        node = ref.bernoulli_rows(
            ref.with_ones(leaves["x"]), ref.bias_row(leaves["w"], leaves["b"]), targets
        )
        probs = 1.0 / (1.0 + np.exp(-(x_val @ w_val + b_val)))
        expected = (targets * np.log(probs) + (1 - targets) * np.log1p(-probs)).sum(axis=1)
        np.testing.assert_allclose(node.value, expected, atol=1e-9)
        weight = rng.standard_normal(3)
        grads = ref.gradients(ref.vsum(node * weight), leaves)
        at_logits = (targets - probs) * weight[:, None]
        np.testing.assert_allclose(grads["x"], at_logits @ w_val.T, atol=1e-9)
        np.testing.assert_allclose(grads["w"], x_val.T @ at_logits, atol=1e-9)
        np.testing.assert_allclose(grads["b"], at_logits.sum(axis=0), atol=1e-9)

    def test_bernoulli_rows_exact_for_extreme_logits(self):
        # logits of +-60 and +-500 score their exact masses; weights that
        # overflow a logit to +-inf give 0 on the target's side and -inf on
        # the other, where the mass, -1e310, lies below the float range
        targets = np.array([[0.0, 1.0, 0.0, 1.0]])
        x, w = np.ones((1, 1)), np.array([[60.0, -60.0, 500.0, -500.0]])
        node = ref.bernoulli_rows(ref.with_ones(x), ref.bias_row(w, np.zeros(4)), targets)
        expected = -2.0 * (np.logaddexp(0.0, 60.0) + np.logaddexp(0.0, 500.0))
        assert math.isfinite(float(node[0]))
        np.testing.assert_allclose(node, [expected], rtol=1e-15)
        x, w = np.full((1, 1), 1e10), np.array([[1e300, -1e300, 1e300, 0.5]])
        block = ref.bias_row(w, np.zeros(4))
        for t, expected in [(targets, -math.inf), (np.array([[1.0, 0.0, 1.0, 1.0]]), 0.0)]:
            node = ref.bernoulli_rows(ref.with_ones(x), block, t)
            assert float(node[0]) == expected, t

    def test_bernoulli_extreme_logits_score_their_exact_mass(self):
        # A wrong-side target at +-500 scores -softplus(500) = -500 to the
        # last bit, a right-side one -exp(-500); at a logit that overflows
        # (1e10 * +-1e300) the mass lies beyond the float range: -inf on
        # the wrong side, 0 on the right one.
        wrong, right = -np.logaddexp(0.0, 500.0), -math.exp(-500.0)
        signs = [(1, 0.0, wrong), (-1, 1.0, wrong), (1, 1.0, right), (-1, 0.0, right)]
        for x, logit in [(1.0, 500.0), (1e10, 1e300)]:
            for sign, target, expected in signs:
                if x > 1.0:
                    expected = -math.inf if expected == wrong else 0.0
                w, t = np.array([[sign * logit]]), np.array([[target]])
                x1, block = ref.with_ones(np.array([[x]])), ref.bias_row(w, np.zeros(1))
                got = float(ref.bernoulli_rows(x1, block, t)[0])
                if math.isinf(expected):
                    assert got == expected, (x, w, target)
                else:
                    assert abs(got - expected) <= 1e-12, (x, w, target)

    def test_bernoulli_batched_gradient_matches_finite_diff_check(self):
        # (K, n, h) inputs against (n, d) targets, as in the K-batched VAE;
        # a bias of 40 puts logit 0 of every row far out, where its weights
        # and bias still get the gradient t - sigmoid(z).
        rng = np.random.default_rng(15)
        x_val, w_val = rng.standard_normal((3, 2, 4)), rng.standard_normal((4, 5))
        b_val = rng.standard_normal(5)
        b_val[0] = 40.0
        targets = (rng.random((2, 5)) > 0.5).astype(float)
        weight = rng.standard_normal((3, 2))
        leaves = {"x": ref.Node(x_val), "w": ref.Node(w_val), "b": ref.Node(b_val)}

        def rows(x, w, b):
            return ref.bernoulli_rows(ref.with_ones(x), ref.bias_row(w, b), targets)

        node = rows(**leaves)
        assert node.value.shape == (3, 2)
        # log p and log(1 - p) of the logits as they are
        z = x_val @ w_val + b_val
        expected = (-targets * np.logaddexp(0.0, -z) - (1 - targets) * np.logaddexp(0.0, z)).sum(-1)
        np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
        grads = ref.gradients(ref.vsum(node * weight), leaves)
        inputs = {"x": x_val, "w": w_val, "b": b_val}
        for name in inputs:

            def f(v, name=name):
                args = {**inputs, name: v}
                return float(np.sum(rows(**args) * weight))

            assert finite_diff_check(f, inputs[name], grads[name]) < 1e-6, name
        at_logit_0 = weight * (targets[:, 0] - np.exp(-np.logaddexp(0.0, -z[..., 0])))
        np.testing.assert_allclose(grads["b"][0], at_logit_0.sum(), rtol=1e-12)
        assert grads["b"][0] != 0.0 and np.all(grads["w"][:, 0] != 0.0)

    def test_bernoulli_gradient_is_t_minus_sigmoid_at_any_logit(self):
        # With x = 1 and a zero bias the logits [1, 1] @ [w; 0] are the
        # weights, bit for bit: at +-logit(1 - 1e-7), where a floor of 1e-7
        # on p would bind, beyond it and at +-1e3, the gradient is targets - p,
        # and at logits overflowed to +-inf it is targets - 1 and targets.
        cap = math.log1p(-1e-7) - math.log(1e-7)
        logits = np.array([[cap, -cap, cap + 1.0, -cap - 1.0, 1e3, -1e3, 0.3, cap - 0.5]])
        targets = np.array([[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]])
        b = ref.Node(np.zeros(8))
        ones = ref.with_ones(np.ones((1, 1)))
        node = ref.bernoulli_rows(ones, ref.bias_row(logits, b), targets)
        grads = ref.gradients(ref.vsum(node), {"b": b})
        probs = np.exp(-np.logaddexp(0.0, -logits[0]))
        np.testing.assert_allclose(grads["b"], targets[0] - probs, rtol=1e-12)
        assert np.all(grads["b"] != 0.0)
        # 1e10 * +-1e300 overflows; the third logit is about 0.3
        b, x = ref.Node(np.zeros(3)), np.full((1, 1), 1e10)
        w = np.array([[1e300, -1e300, 0.3e-10]])
        node = ref.bernoulli_rows(ref.with_ones(x), ref.bias_row(w, b), targets[:, :3])
        grads = ref.gradients(ref.vsum(node), {"b": b})
        assert np.array_equal(grads["b"][:2], [-1.0, 1.0])
        p = 1.0 / (1.0 + math.exp(-float(x[0, 0] * w[0, 2])))
        np.testing.assert_allclose(grads["b"][2], targets[0, 2] - p, rtol=1e-12)

    def test_only_rows_that_are_not_finite_are_taken_again(self):
        # Inputs in [-1, 1] and a column of ones against blocks [w; b] whose
        # logits lie on either side of logit(1 - 1e-7), or hold a NaN or a
        # -inf: a row of finite logits keeps the bits of t z - log1p(exp(z))
        # summed as the kernel sums it, whatever its size; a NaN gives NaN;
        # and a logit of -inf scores 0 against a target of 0, -inf against
        # 1. A t w^T given is the one made in the call, bit for bit.
        cap = math.log1p(-1e-7) - math.log(1e-7)
        below = cap * (1.0 - 2e-6)
        x = ref.with_ones(np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.25]]))
        blocks = [
            ([[4.0, -1.0], [-3.0, 2.0]], [1.0, 0.5]),
            ([[below / 2, 0.0], [-below / 2, 1.0]], [0.0, 0.0]),
            ([[cap / 2, 0.0], [-cap / 2, 1.0]], [0.0, 0.0]),
            ([[cap * (1.0 - 5e-7), 0.0], [0.0, 1.0]], [0.0, 0.0]),
            ([[4.0, 0.0], [0.0, 1.0]], [cap, 0.0]),
            ([[4.0, math.nan], [0.0, 1.0]], [0.0, 0.0]),
            ([[4.0, 0.0], [0.0, 1.0]], [0.0, -math.inf]),
        ]
        for w, b in blocks:
            block = np.vstack([w, b])
            for targets in (np.ones((3, 2)), np.array([[1.0, 0.0]] * 3)):
                rows, _ = ad.bernoulli_rows_forward(x, block, targets)
                with np.errstate(invalid="ignore"):
                    t_w, z = targets @ block.T, x @ block
                given = ad.bernoulli_rows_forward(x, block, targets, t_w)[0]
                assert given.tobytes() == rows.tobytes()
                for i in range(3):
                    if np.isnan(z[i]).any():
                        assert np.isnan(rows[i]), (w, b, i)
                    elif np.isinf(z[i]).any():
                        if targets[i, 1]:
                            assert rows[i] == -math.inf, (w, b, i)
                        else:  # the mass of target 1 at logit 4
                            assert math.isclose(rows[i], -np.logaddexp(0.0, -z[i, 0]), rel_tol=1e-15)
                    else:
                        fast = np.einsum("i,i->", x[i], targets[i] @ block.T)
                        fast -= np.einsum("i->", np.log1p(np.exp(z[i])))
                        assert rows[i].tobytes() == fast.tobytes(), (w, b, i)

    def test_rows_taken_again_keep_their_bits_in_stacks_and_blocks(self):
        # A stack of three blocks [w; b] against three sets of 300 rows, more
        # than one block of rows taken again: the first member's logits are
        # small, the second's logit 0 sits at 800 (past exp's edge) in every
        # row, the third's at -inf. Each member's rows have the bits of that
        # member computed alone, and the value of the stable form.
        rng = np.random.default_rng(29)
        x = ref.with_ones(np.tanh(rng.standard_normal((3, 300, 4))))
        w = rng.standard_normal((3, 5, 64)) / 4.0
        w[:, -1, 0] = [0.0, 800.0, -math.inf]
        targets = (rng.random((300, 64)) < 0.5).astype(float)
        rows, _ = ad.bernoulli_rows_forward(x, w, targets)
        assert np.all(np.isfinite(rows[0]))
        for k in (1, 2):
            member = ad.bernoulli_rows_forward(x[k], w[k], targets)[0]
            assert member.tobytes() == rows[k].tobytes()
            with np.errstate(invalid="ignore"):
                z = x[k] @ w[k]
            on_side = np.where(targets == 1.0, z == math.inf, z == -math.inf)
            with np.errstate(invalid="ignore"):
                terms = targets * z - np.logaddexp(0.0, z)
            expected = np.where(on_side, 0.0, terms).sum(axis=-1)
            np.testing.assert_allclose(rows[k], expected, rtol=1e-13)

    def test_a_t_w_made_once_gives_the_bits_of_one_made_per_call(self):
        # rows of inputs in [-1, 1], with t w^T made once and written into
        # given buffers, against the same call making its own t w^T
        rng = np.random.default_rng(23)
        x = ref.with_ones(np.tanh(rng.standard_normal((5, 7, 4))))
        w = ref.bias_row(rng.standard_normal((4, 6)), rng.standard_normal(6))
        targets = (rng.random((7, 6)) < 0.5).astype(float)
        bufs = (np.empty((5, 7, 6)), np.empty((5, 7)), np.empty((5, 7)))
        rows, softplus = ad.bernoulli_rows_forward(x, w, targets, targets @ w.T, bufs)
        assert rows is bufs[2] and softplus is bufs[0]
        fresh = ad.bernoulli_rows_forward(x, w, targets)
        assert rows.tobytes() == fresh[0].tobytes() and softplus.tobytes() == fresh[1].tobytes()

    def test_bernoulli_rows_peak_under_one_and_a_half_logit_arrays(self):
        # The forward pass allocates the logits and works in place on them;
        # the row sums of t z, taken over the 17-wide layer input (16 and its
        # column of ones), add at most a quarter of an array. A logit far out
        # (a bias of 100) costs nothing more, as no mask of the logits is
        # made. Rows taken again (a bias of 800, whose exp overflows, or a
        # logit of -inf, in every row) are formed anew a block at a time,
        # within half an array. The layer input, the weights with their bias
        # row and the targets are the caller's.
        rng = np.random.default_rng(16)
        x = ref.with_ones(np.tanh(rng.standard_normal((6, 100, 16))))
        w = rng.standard_normal((16, 64)) / 4.0
        targets = (rng.random((100, 64)) < 0.5).astype(float)
        logit_bytes = 6 * 100 * 64 * 8
        for bias, arrays in [(0.0, 1.3), (100.0, 1.3), (800.0, 1.5), (-math.inf, 1.5)]:
            b = np.zeros(64)
            b[0] = bias
            block = ref.bias_row(w, b)
            tracemalloc.start()
            try:
                ref.bernoulli_rows(x, block, targets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= arrays * logit_bytes, (bias, peak / logit_bytes)


class TestLayer:
    """``ad.layer`` and ``ad.layer_grad``, the hidden layer that the VAE
    (tanh, one block shared by K draws' inputs) and the BNN (ReLU, K blocks
    on one set of inputs) share, against the reference graph's layer
    (``reference._folded_layer``)."""

    SHAPES = {"shared": [(3, 4, 5), (5, 6), (6,)], "stacked": [(4, 5), (3, 5, 6), (3, 6)]}

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    @pytest.mark.parametrize("layout", ["shared", "stacked"])
    def test_value_and_gradients_equal_the_reference_layer(self, layout, act):
        # the layer's bits, a last column of exact ones, and the gradient at
        # the pre-activations with the bits of the reference graph's
        rng = np.random.default_rng(21)
        x, w, b = (rng.standard_normal(shape) for shape in self.SHAPES[layout])
        hid = ad.layer(ref.with_ones(x), ref.bias_row(w, b), act)
        pre = ref.Node(ref.matmul(ref.with_ones(x), ref.bias_row(w, b)))
        out = getattr(ref, act)(pre)
        assert hid[..., :-1].tobytes() == ref._folded_layer(x, w, b, getattr(ref, act)).tobytes()
        assert np.all(hid[..., -1] == 1.0)
        g = rng.standard_normal(hid.shape)
        want = ref.gradients(ref.vsum(out * g[..., :-1]), {"pre": pre})["pre"]
        assert ad.layer_grad(g, hid, act).tobytes() == want.tobytes()

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    def test_a_given_buffer_takes_the_layer(self, act):
        # a buffer whose last column holds any finite values gets the bits
        # of a new array; a row of inputs gives one row
        rng = np.random.default_rng(23)
        x1, block = ref.with_ones(rng.standard_normal((3, 4, 5))), rng.standard_normal((6, 2))
        out = np.full((3, 4, 3), 7.0)
        assert ad.layer(x1, block, act, out) is out
        assert out.tobytes() == ad.layer(x1, block, act).tobytes()
        assert ad.layer(x1[0, 0], block, act).tobytes() == out[0, 0].tobytes()

    def test_a_nan_pre_activation_gives_zero_under_relu(self):
        x1 = np.array([[np.nan, 1.0], [2.0, 1.0]])
        block = np.array([[1.0, -1.0], [0.5, 0.5]])
        hid = ad.layer(x1, block, "relu")
        np.testing.assert_array_equal(hid, [[0.0, 0.0, 1.0], [2.5, 0.0, 1.0]])
        assert np.isnan(ad.layer(x1, block, "tanh")[0, :-1]).all()

    def test_constant_operands_get_no_parent(self):
        w, b = ref.Node(np.ones((2, 3))), ref.Node(np.zeros(3))
        node = ref._folded_layer(np.ones((4, 2)), w, b, ref.tanh)
        (product,) = node.parents  # the inputs and their ones are constants
        (block,) = product.parents
        assert block.parents == (w, b)
        np.testing.assert_allclose(node.value, np.tanh(2.0))
        for combined in (w * 2.0, 2.0 - w, w / np.ones(3), ref.matmul(np.ones((4, 2)), w)):
            assert combined.parents == (w,)
        # with no node operand an op folds: a plain array with the node's bits
        rng = np.random.default_rng(22)
        x, y = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))
        bias, scale = rng.standard_normal(5), rng.standard_normal(4)
        targets = (rng.random((2, 3, 4)) > 0.5).astype(float)
        folds = [
            (ref.add, x, scale),
            (ref.sub, x, scale),
            (ref.mul, x, scale),
            (ref.div, x, scale),
            (ref.matmul, x, y),
            (lambda u, v, c: ref._folded_layer(u, v, c, ref.tanh), x, y, bias),
            (lambda u, v, c: ref._folded_layer(u, v, c, ref.relu), x, y, bias),
            (ref.exp, x),
            (ref.tanh, x),
            (ref.relu, x),
            (ref.vsum, x),
            (lambda u: ref.vsum(u, axis=-1), x),
            (lambda u: ref.reshape(u, (6, 4)), x),
            (lambda u: ref.slice1d(u, 1, 3), x),
            (ref.normal_logpdf_rows, x, scale, scale),
            (ref.std_normal_logpdf_rows, x),
            (ref.with_ones, x),
            (ref.bias_row, y, bias),
            (lambda u, v: ref.bernoulli_rows(u, v, targets), x, y[..., :4]),
        ]
        for op, *args in folds:
            folded, node = op(*args), op(*map(ref.Node, args))
            assert type(folded) is np.ndarray
            assert folded.shape == node.value.shape
            assert folded.tobytes() == node.value.tobytes()
        # the library's array kernels have the bits of the reference graph
        kernels = [
            (
                lambda u, v, c: ad.layer(ref.with_ones(u), ref.bias_row(v, c), "tanh"),
                lambda u, v, c: ref.with_ones(ref._folded_layer(u, v, c, ref.tanh)),
                x, y, bias,
            ),
            (
                lambda u, v, c: ad.layer(ref.with_ones(u), ref.bias_row(v, c), "relu"),
                lambda u, v, c: ref.with_ones(ref._folded_layer(u, v, c, ref.relu)),
                x, y, bias,
            ),
            (ad.normal_logpdf_rows, ref.normal_logpdf_rows, x, scale, scale),
            (ad.std_normal_logpdf_rows, ref.std_normal_logpdf_rows, x),
        ]
        for kernel, graph, *args in kernels:
            nodes = [ref.Node(a) if isinstance(a, np.ndarray) else a for a in args]
            assert kernel(*args).tobytes() == graph(*nodes).value.tobytes()

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="act"):
            ad.layer(np.ones((1, 2)), np.ones((2, 2)), "sigmoid")
