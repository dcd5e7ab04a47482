"""Normalized weights, sample selection, and reparameterized bound gradients."""

import math

import numpy as np
import pytest
from scipy import stats

import reference as ref
from reference import finite_diff_check
from vrbound import (
    GaussianReparam,
    VAEModel,
    mc_vr_estimate,
    normalize_weights,
    posterior_log_weights,
    select_backprop_sample,
    synthetic_blr_instance,
    vr_grad,
)
from vrbound.gradients import log_weight_ratio

ALL_BRANCH_ALPHAS = (-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf)


class TestNormalizeWeights:
    def test_alpha_one_uniform(self):
        rng = np.random.default_rng(0)
        for k in (1, 3, 8):
            probs = normalize_weights(rng.standard_normal(k), 1.0)
            np.testing.assert_allclose(probs, np.full(k, 1.0 / k))

    def test_neg_inf_one_hot_argmax(self):
        np.testing.assert_allclose(
            normalize_weights([math.log(1.0), math.log(3.0)], -math.inf), [0.0, 1.0]
        )

    def test_pos_inf_one_hot_argmin(self):
        np.testing.assert_allclose(
            normalize_weights([0.5, -0.5, 2.0], math.inf), [0.0, 1.0, 0.0]
        )

    def test_equal_weights_any_alpha(self):
        for alpha in (-2.0, 0.0, 0.5, 2.0):
            np.testing.assert_allclose(
                normalize_weights([1.3, 1.3, 1.3], alpha), np.full(3, 1.0 / 3.0)
            )

    def test_simplex_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        for alpha in ALL_BRANCH_ALPHAS:
            log_w = rng.standard_normal(7) * 3.0
            probs = normalize_weights(log_w, alpha)
            assert np.all(probs >= 0.0)
            assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
            shifted = normalize_weights(log_w + 11.5, alpha)
            np.testing.assert_allclose(shifted, probs, atol=1e-12)

    def test_ties_break_lowest_index(self):
        probs = normalize_weights([2.0, 2.0, 0.0], -math.inf)
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0])
        probs = normalize_weights([0.0, -1.0, -1.0], math.inf)
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0])

    def test_zero_density_sample_dominates_above_one(self):
        probs = normalize_weights([0.0, -math.inf, 1.0], 2.0)
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0])

    def test_explicit_weight_formula(self):
        log_w = np.array([0.2, -0.7, 1.1])
        alpha = 0.3
        raw = np.exp((1.0 - alpha) * log_w)
        np.testing.assert_allclose(
            normalize_weights(log_w, alpha), raw / raw.sum(), atol=1e-12
        )


class TestSelectBackpropSample:
    def test_argmax_branch(self):
        rng = np.random.default_rng(0)
        assert select_backprop_sample([1.0, 2.5, 0.3], -math.inf, rng) == 1

    def test_argmin_branch(self):
        rng = np.random.default_rng(0)
        assert select_backprop_sample([1.0, 2.5, 0.3], math.inf, rng) == 2

    def test_uniform_at_alpha_one(self):
        rng = np.random.default_rng(123)
        draws = 10_000
        k = 4
        counts = np.zeros(k)
        log_w = np.array([5.0, -1.0, 0.0, 2.0])
        for _ in range(draws):
            counts[select_backprop_sample(log_w, 1.0, rng)] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-3, f"counts {counts} not uniform (p={result.pvalue})"

    def test_argmax_invariant_to_monotone_transforms(self):
        rng = np.random.default_rng(7)
        log_w = rng.standard_normal(6)
        base = select_backprop_sample(log_w, -math.inf, rng)
        for transform in (lambda v: 2.0 * v + 1.0, np.exp, np.tanh, lambda v: v**3):
            assert select_backprop_sample(transform(log_w), -math.inf, rng) == base

    def test_categorical_frequencies_match_weights(self):
        rng = np.random.default_rng(11)
        log_w = np.array([0.0, 1.0, -0.5])
        alpha = 0.0
        probs = normalize_weights(log_w, alpha)
        draws = 20_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[select_backprop_sample(log_w, alpha, rng)] += 1
        freq = counts / draws
        se = np.sqrt(probs * (1 - probs) / draws)
        assert np.all(np.abs(freq - probs) < 4.0 * se)


def _toy_builder():
    """1-D Gaussian variational fit of a fixed 1-D Gaussian joint density."""

    def graph(nodes, eps):
        theta, log_q = ref.gaussian_reparam(nodes["mu"], nodes["rho"], eps)
        log_joint = ref.normal_logpdf_rows(theta, np.array([0.7]), np.array([0.3]))
        return log_joint - log_q

    params = {"mu": np.array([-0.4]), "rho": np.array([0.2])}
    return ref.as_builder(graph), params


def _estimate(build, params, noises, alpha):
    """The bound estimate over the builder's log weights, one per noise draw."""
    return mc_vr_estimate([float(build(params, eps)[0]) for eps in noises], alpha)


def _flatten(params, names):
    return np.concatenate([np.asarray(params[n]).ravel() for n in names])


def _unflatten(x, template, names):
    out, ofs = {}, 0
    for name in names:
        size = np.asarray(template[name]).size
        out[name] = x[ofs : ofs + size].reshape(np.shape(template[name]))
        ofs += size
    return out


class TestVrGrad:
    def test_matches_finite_differences_toy(self):
        build, params = _toy_builder()
        rng = np.random.default_rng(17)
        noises = rng.standard_normal((4, 1))
        names = sorted(params)
        grads = vr_grad(*build(params, noises), params, 0.0)
        flat = _flatten(params, names)
        gflat = _flatten(grads, names)

        def f(x):
            return _estimate(build, _unflatten(x, params, names), noises, 0.0)

        assert finite_diff_check(f, flat, gflat, step=1e-5) < 1e-4

    def test_all_alpha_branches_match_fd(self):
        model = synthetic_blr_instance(seed=5, n_data=10)

        def build(params, eps):
            return posterior_log_weights(model, params, model.design, model.targets, eps, 1.0)

        rng = np.random.default_rng(3)
        params = {"mu": rng.standard_normal(2) * 0.5, "rho": rng.standard_normal(2) * 0.3}
        noises = rng.standard_normal((4, 2))
        names = sorted(params)
        flat = _flatten(params, names)
        for alpha in ALL_BRANCH_ALPHAS:
            grads = vr_grad(*build(params, noises), params, alpha)

            def f(x, a=alpha):
                return _estimate(build, _unflatten(x, params, names), noises, a)

            err = finite_diff_check(f, flat, _flatten(grads, names), step=1e-5)
            assert err < 1e-4, f"alpha={alpha}: rel err {err}"

    def test_k1_gradient_is_alpha_free(self):
        build, params = _toy_builder()
        noise = np.random.default_rng(2).standard_normal((1, 1))
        reference = vr_grad(*build(params, noise), params, 1.0)
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            grads = vr_grad(*build(params, noise), params, alpha)
            for name in reference:
                np.testing.assert_array_equal(grads[name], reference[name])

    def test_alpha_one_equals_plain_elbo_gradient(self):
        build, params = _toy_builder()
        rng = np.random.default_rng(4)
        noises = rng.standard_normal((6, 1))
        grads = vr_grad(*build(params, noises), params, 1.0)
        # average of per-sample gradients
        accum = {name: np.zeros_like(value) for name, value in params.items()}
        for j in range(noises.shape[0]):
            gj = vr_grad(*build(params, noises[j : j + 1]), params, 1.0)
            for name in accum:
                accum[name] += gj[name] / noises.shape[0]
        for name in grads:
            np.testing.assert_allclose(grads[name], accum[name], atol=1e-12)

    def test_single_sample_expectation_equals_weighted_sum(self):
        # Exhaustive enumeration over j on a K = 3 problem.
        build, params = _toy_builder()
        rng = np.random.default_rng(5)
        noises = rng.standard_normal((3, 1))
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            log_w, vjp = build(params, noises)
            full = vr_grad(log_w, vjp, params, alpha)
            probs = normalize_weights(log_w, alpha)
            accum = {name: np.zeros_like(value) for name, value in params.items()}
            for j in range(3):
                gj = vr_grad(*build(params, noises[j : j + 1]), params, alpha)
                for name in accum:
                    accum[name] += probs[j] * gj[name]
            for name in full:
                np.testing.assert_allclose(accum[name], full[name], atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_log_weight_reports_sample(self):
        def graph(nodes, eps):
            return ref.div(ref.mul(nodes["mu"], eps[:, 0]), 0.0)  # manufactures inf

        with pytest.raises(FloatingPointError, match="sample 0"):
            params = {"mu": np.array(1.0)}
            vr_grad(*ref.as_builder(graph)(params, np.ones((1, 1))), params, 0.5)

    def test_a_plain_builder_needs_no_graph(self):
        # log w = mu * eps with its VJP written out, and a parameter the VJP
        # leaves out: the closed-form gradient sum_k w_hat_k eps_k, and zeros
        noise = np.array([0.3, -1.2, 2.0])
        calls = []

        def build(params, eps):
            def vjp(g):
                calls.append(g)
                return {"mu": np.sum(g * eps)}

            return params["mu"] * eps, vjp

        params = {"mu": np.array(0.7), "unused": np.ones(2)}
        for alpha in (0.5, -math.inf):
            log_w, vjp = build(params, noise)
            grads = vr_grad(log_w, vjp, params, alpha)
            assert np.array_equal(log_w, 0.7 * noise)
            expected = np.sum(normalize_weights(0.7 * noise, alpha) * noise)
            assert grads["mu"] == pytest.approx(expected, rel=1e-15)
            assert np.array_equal(grads["unused"], np.zeros(2))
        assert len(calls) == 2


def _vae_problem():
    """A small VAE, three binary rows and (K, n, latent_dim) noise."""
    model = VAEModel(data_dim=3, latent_dim=2, hidden=2)
    rng = np.random.default_rng(21)
    params = model.init_params(seed=3)
    x = (rng.random((3, 3)) < 0.5).astype(float)
    eps = rng.standard_normal((4, 3, 2))

    def build(params, noise):
        return model.log_weight_rows(params, x, noise)

    return model, params, x, eps, build


class TestVrGradWeightSets:
    """Log weights (K, n): one weight set per VAE row, averaged over rows."""

    def test_vae_rows_match_fd_of_row_mean_estimate(self):
        model, params, x, eps, build = _vae_problem()
        names = sorted(params)
        flat = _flatten(params, names)
        for alpha in ALL_BRANCH_ALPHAS:
            log_w, vjp = build(params, eps)
            grads = vr_grad(log_w, vjp, params, alpha)
            assert log_w.shape == (4, 3)

            def f(v, a=alpha):
                log_w = build(_unflatten(v, params, names), eps)[0]
                return float(np.mean(mc_vr_estimate(log_w, a, axis=0)))

            err = finite_diff_check(f, flat, _flatten(grads, names), step=1e-5)
            assert err < 1e-4, f"alpha={alpha}: rel err {err}"

    def test_selection_equals_mean_of_selected_draws(self):
        model, params, x, eps, build = _vae_problem()
        for alpha in (-math.inf, 0.0, 0.5, 2.0, math.inf):
            log_w, vjp = build(params, eps)
            grads = vr_grad(log_w, vjp, params, alpha, np.random.default_rng(8))
            picks = select_backprop_sample(log_w, alpha, np.random.default_rng(8), axis=0)
            accum = {name: np.zeros_like(value) for name, value in params.items()}
            for i, j in enumerate(picks):
                pair = model.log_weight_rows(params, x[i : i + 1], eps[j : j + 1, i : i + 1])
                gi = vr_grad(*pair, params, alpha)
                for name in accum:
                    accum[name] += gi[name] / len(picks)
            for name in grads:
                np.testing.assert_allclose(grads[name], accum[name], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("select", [False, True])
    def test_gradients_land_in_out_with_the_bits_of_a_call_without(self, select):
        model, params, x, eps, build = _vae_problem()
        size = sum(value.size for value in params.values())
        for alpha in (0.5, math.inf):
            rng = (lambda: np.random.default_rng(8)) if select else (lambda: None)
            fresh_log_w, vjp = build(params, eps)
            fresh = vr_grad(fresh_log_w, vjp, params, alpha, rng())
            buf = np.full(size, math.nan)
            log_w, vjp = build(params, eps)
            grads = vr_grad(log_w, vjp, params, alpha, rng(), out=buf)
            assert log_w.tobytes() == fresh_log_w.tobytes()
            assert list(grads) == list(params)
            start = 0
            for name, value in params.items():
                assert grads[name].shape == value.shape
                assert np.shares_memory(grads[name], buf[start : start + value.size])
                assert grads[name].tobytes() == fresh[name].tobytes()
                start += value.size
            assert buf.tobytes() == np.concatenate([g.ravel() for g in fresh.values()]).tobytes()

    def test_nonfinite_log_weight_reports_sample_and_set(self):
        model, params, x, eps, build = _vae_problem()
        noise = eps.copy()
        noise[2, 1, 0] = math.nan
        message = r"sample 2 in weight set \(1,\) is nan"
        with pytest.raises(FloatingPointError, match=message):
            vr_grad(*build(params, noise), params, 0.5)


def test_a_non_finite_vae_gradient_names_the_parameter_and_the_suspects():
    # A Gaussian decoder of scale exp(-400), h = eps, and means tanh(h) at
    # x = 0: the first draw's mean is exact, and the second misses by
    # tanh(1), so its log weight is -inf. Its weight is 0, and 0 times its
    # infinite gradient at the means is NaN, which reaches every parameter.
    vae = VAEModel(data_dim=1, latent_dim=1, hidden=1, likelihood="gaussian", encoder_hidden=1)
    params = {name: np.zeros_like(v) for name, v in vae.init_params(0).items()}
    params["dec_w1"][:] = params["dec_w2"][:] = 1.0
    params["dec_log_noise"][:] = -400.0
    x = np.zeros((1, 1))
    noise = np.array([0.0, 1.0]).reshape(2, 1, 1)
    message = r"^non-finite gradient for parameter 'enc_w1' \(suspect samples: \[1\]\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=message):
            vr_grad(*vae.log_weight_rows(params, x, noise), params, 0.5)


class TestVrGradChecks:
    """What ``vr_grad`` accepts of the (K, sets) log weights: -inf entries;
    NaN and +inf raise ``FloatingPointError``, checked before an all -inf set,
    which raises ``ValueError``; a selecting step checks the same."""

    NOISE = np.arange(1.0, 7.0).reshape(3, 2)

    @staticmethod
    def _grad(offsets, alpha=0.5, select=False):
        def graph(nodes, noise):
            return ref.add(ref.mul(nodes["mu"], noise), offsets)

        rng = np.random.default_rng(0) if select else None
        params = {"mu": np.array(0.5)}
        log_w, vjp = ref.as_builder(graph)(params, TestVrGradChecks.NOISE)
        return vr_grad(log_w, vjp, params, alpha, rng), log_w

    @pytest.mark.parametrize("select", [False, True], ids=["weighted", "selected"])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_zero_density_samples_are_allowed(self, alpha, select):
        offsets = np.array([[0.0, -math.inf], [-math.inf, 0.0], [1.0, 2.0]])
        grads, log_w = self._grad(offsets, alpha, select)
        assert np.array_equal(log_w, 0.5 * self.NOISE + offsets)
        if select:
            index = select_backprop_sample(log_w, alpha, np.random.default_rng(0), axis=0)
            expected = np.mean(self.NOISE[index, [0, 1]])
        else:
            expected = np.sum(normalize_weights(log_w, alpha, axis=0) * self.NOISE) / 2
        assert grads["mu"] == expected

    @pytest.mark.parametrize("select", [False, True], ids=["weighted", "selected"])
    @pytest.mark.parametrize(
        ("bad", "shown"), [(math.nan, "nan"), (math.inf, "inf")], ids=["nan", "+inf"]
    )
    def test_nan_and_pos_inf_raise_floating_point_error(self, bad, shown, select):
        offsets = np.zeros((3, 2))
        offsets[1, 0] = bad
        offsets[:, 1] = -math.inf  # an all -inf set as well: NaN and +inf come first
        with pytest.raises(FloatingPointError, match=rf"sample 1 in weight set \(0,\) is {shown}$"):
            self._grad(offsets, select=select)

    @pytest.mark.parametrize("select", [False, True], ids=["weighted", "selected"])
    def test_an_all_neg_inf_set_is_rejected(self, select):
        offsets = np.zeros((3, 2))
        offsets[:, 1] = -math.inf
        with pytest.raises(ValueError, match="at least one log weight must be finite"):
            self._grad(offsets, select=select)


class TestGaussianReparam:
    def test_log_q_matches_gaussian_density(self):
        # and theta and log q have the bits of the reference graph's
        rng = np.random.default_rng(6)
        mu_val = rng.standard_normal(3)
        rho_val = rng.standard_normal(3) * 0.4
        reparam = GaussianReparam(mu_val, rho_val)
        eps = rng.standard_normal(3)
        theta = reparam.theta(eps)
        expected = float(
            np.sum(stats.norm.logpdf(theta, loc=mu_val, scale=np.exp(rho_val)))
        )
        assert float(reparam.log_q(eps)) == pytest.approx(expected, abs=1e-10)
        graph_theta, graph_log_q = ref.gaussian_reparam(ref.Node(mu_val), ref.Node(rho_val), eps)
        assert theta.tobytes() == graph_theta.value.tobytes()
        assert reparam.log_q(eps).tobytes() == graph_log_q.value.tobytes()

    def test_pushforward_moments(self):
        rng = np.random.default_rng(8)
        mu_val = np.array([0.5, -1.0])
        rho_val = np.array([-0.3, 0.2])
        reparam = GaussianReparam(mu_val, rho_val)
        n = 100_000
        draws = np.empty((n, 2))
        eps = rng.standard_normal((n, 2))
        sd = np.exp(rho_val)
        for i in range(2):
            draws[:, i] = mu_val[i] + sd[i] * eps[:, i]
        assert draws.tobytes() == reparam.theta(eps).tobytes()
        mean_se = sd / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mu_val) < 3.0 * mean_se)
        var_se = sd**2 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0) - sd**2) < 3.0 * var_se)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            GaussianReparam(np.zeros(2), np.zeros(3))

    def test_leading_draw_axis_matches_single_draws(self):
        rng = np.random.default_rng(9)
        reparam = GaussianReparam(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
        eps = rng.standard_normal((5, 4, 3))
        theta, log_q = reparam.theta(eps), reparam.log_q(eps)
        assert theta.shape == (5, 4, 3) and log_q.shape == (5, 4)
        for k in range(5):
            np.testing.assert_array_equal(theta[k], reparam.theta(eps[k]))
            np.testing.assert_allclose(log_q[k], reparam.log_q(eps[k]), rtol=1e-15)
        with pytest.raises(ValueError, match="eps must have shape"):
            reparam.theta(rng.standard_normal((5, 3, 4)))


class TestFiniteDiffCheck:
    def test_correct_gradient_passes(self):
        x0 = np.array([0.3, -1.2, 2.0])
        err = finite_diff_check(lambda x: 0.5 * float(x @ x), x0, x0)
        assert err < 1e-8

    def test_zeroed_gradient_detected(self):
        x0 = np.array([0.3, -1.2, 2.0])
        err = finite_diff_check(lambda x: 0.5 * float(x @ x), x0, np.zeros(3))
        assert err == pytest.approx(1.0, abs=1e-6)

    def test_step_bounds_enforced(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_check(lambda x: 0.0, np.zeros(1), np.zeros(1), step=1e-2)

    def test_nonfinite_objective_raises(self):
        with pytest.raises(FloatingPointError):
            finite_diff_check(
                lambda x: math.inf, np.zeros(1), np.zeros(1), step=1e-5
            )


class TestLogWeightRatio:
    def test_matches_direct_computation(self):
        log_w = np.log(np.array([9.0, 1.0]))
        log_r, r = log_weight_ratio(log_w)
        assert r == pytest.approx(9.0, abs=1e-12)
        assert log_r == pytest.approx(math.log(9.0), abs=1e-12)

    def test_huge_weights_stay_finite_in_log(self):
        log_r, r = log_weight_ratio(np.array([1000.0, 0.0, 0.0]))
        assert log_r == pytest.approx(1000.0 - math.log(2.0), abs=1e-9)
        assert r == math.inf
