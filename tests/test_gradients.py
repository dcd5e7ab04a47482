"""Normalized weights, sample selection, and reparameterized bound gradients."""

import math

import numpy as np
import pytest
from scipy import stats

from vrbound import (
    GaussianReparam,
    VAEModel,
    finite_diff_check,
    mc_vr_estimate,
    normalize_weights,
    select_backprop_sample,
    synthetic_blr_instance,
    vr_grad,
)
from vrbound import autodiff as ad
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

    def build(nodes, eps):
        reparam = GaussianReparam(nodes["mu"], nodes["rho"])
        theta = reparam.theta(eps)
        log_joint = ad.normal_logpdf_rows(theta, np.array([0.7]), np.array([0.3]))
        return log_joint - reparam.log_q(eps)

    params = {"mu": np.array([-0.4]), "rho": np.array([0.2])}
    return build, params


def _estimate(build, params, noises, alpha):
    """The bound estimate over the builder's log weights, one per noise draw."""
    nodes = {name: ad.Node(value) for name, value in params.items()}
    return mc_vr_estimate([float(build(nodes, eps).value) for eps in noises], alpha)


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
        grads, log_w = vr_grad(build, params, noises, 0.0)
        flat = _flatten(params, names)
        gflat = _flatten(grads, names)

        def f(x):
            return _estimate(build, _unflatten(x, params, names), noises, 0.0)

        assert finite_diff_check(f, flat, gflat, step=1e-5) < 1e-4

    def test_all_alpha_branches_match_fd(self):
        model = synthetic_blr_instance(seed=5, n_data=10)

        def build(nodes, eps):
            reparam = GaussianReparam(nodes["mu"], nodes["rho"])
            return model.log_joint_node(reparam.theta(eps)) - reparam.log_q(eps)

        rng = np.random.default_rng(3)
        params = {"mu": rng.standard_normal(2) * 0.5, "rho": rng.standard_normal(2) * 0.3}
        noises = rng.standard_normal((4, 2))
        names = sorted(params)
        flat = _flatten(params, names)
        for alpha in ALL_BRANCH_ALPHAS:
            grads, _ = vr_grad(build, params, noises, alpha)

            def f(x, a=alpha):
                return _estimate(build, _unflatten(x, params, names), noises, a)

            err = finite_diff_check(f, flat, _flatten(grads, names), step=1e-5)
            assert err < 1e-4, f"alpha={alpha}: rel err {err}"

    def test_k1_gradient_is_alpha_free(self):
        build, params = _toy_builder()
        noise = np.random.default_rng(2).standard_normal((1, 1))
        reference, _ = vr_grad(build, params, noise, 1.0)
        for alpha in (-1.0, 0.0, 0.5, 2.0):
            grads, _ = vr_grad(build, params, noise, alpha)
            for name in reference:
                np.testing.assert_array_equal(grads[name], reference[name])

    def test_alpha_one_equals_plain_elbo_gradient(self):
        build, params = _toy_builder()
        rng = np.random.default_rng(4)
        noises = rng.standard_normal((6, 1))
        grads, _ = vr_grad(build, params, noises, 1.0)
        # average of per-sample gradients
        accum = {name: np.zeros_like(value) for name, value in params.items()}
        for j in range(noises.shape[0]):
            gj, _ = vr_grad(build, params, noises[j : j + 1], 1.0)
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
            full, log_w = vr_grad(build, params, noises, alpha)
            probs = normalize_weights(log_w, alpha)
            accum = {name: np.zeros_like(value) for name, value in params.items()}
            for j in range(3):
                gj, _ = vr_grad(build, params, noises[j : j + 1], alpha)
                for name in accum:
                    accum[name] += probs[j] * gj[name]
            for name in full:
                np.testing.assert_allclose(accum[name], full[name], atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_log_weight_reports_sample(self):
        def build(nodes, eps):
            return nodes["mu"] * eps[:, 0] / 0.0  # manufactures inf

        with pytest.raises(FloatingPointError, match="sample 0"):
            vr_grad(build, {"mu": np.array(1.0)}, np.ones((1, 1)), 0.5)


def _vae_problem():
    """A small VAE, three binary rows and (K, n, latent_dim) noise."""
    model = VAEModel(data_dim=3, latent_dim=2, hidden=2)
    rng = np.random.default_rng(21)
    params = model.init_params(seed=3)
    x = (rng.random((3, 3)) < 0.5).astype(float)
    eps = rng.standard_normal((4, 3, 2))

    def build(nodes, noise):
        return model.log_weight_rows(nodes, x, noise)

    return model, params, x, eps, build


class TestVrGradWeightSets:
    """Log weights (K, n): one weight set per VAE row, averaged over rows."""

    def test_vae_rows_match_fd_of_row_mean_estimate(self):
        model, params, x, eps, build = _vae_problem()
        names = sorted(params)
        flat = _flatten(params, names)
        for alpha in ALL_BRANCH_ALPHAS:
            grads, log_w = vr_grad(build, params, eps, alpha)
            assert log_w.shape == (4, 3)

            def f(v, a=alpha):
                nodes = {n: ad.Node(w) for n, w in _unflatten(v, params, names).items()}
                return float(np.mean(mc_vr_estimate(build(nodes, eps).value, a, axis=0)))

            err = finite_diff_check(f, flat, _flatten(grads, names), step=1e-5)
            assert err < 1e-4, f"alpha={alpha}: rel err {err}"

    def test_selection_equals_mean_of_selected_draws(self):
        model, params, x, eps, build = _vae_problem()
        for alpha in (-math.inf, 0.0, 0.5, 2.0, math.inf):
            grads, log_w = vr_grad(build, params, eps, alpha, np.random.default_rng(8))
            picks = select_backprop_sample(log_w, alpha, np.random.default_rng(8), axis=0)
            accum = {name: np.zeros_like(value) for name, value in params.items()}
            for i, j in enumerate(picks):
                gi, _ = vr_grad(
                    lambda nodes, noise, i=i: model.log_weight_rows(nodes, x[i : i + 1], noise),
                    params,
                    eps[j : j + 1, i : i + 1],
                    alpha,
                )
                for name in accum:
                    accum[name] += gi[name] / len(picks)
            for name in grads:
                np.testing.assert_allclose(grads[name], accum[name], rtol=1e-12, atol=1e-12)

    def test_builder_must_return_the_draws_on_axis_0(self):
        model, params, x, eps, build = _vae_problem()
        with pytest.raises(ValueError, match="4 draws on axis 0"):
            vr_grad(lambda nodes, noise: ad.vsum(build(nodes, noise)), params, eps, 0.5)
        with pytest.raises(ValueError, match="4 draws on axis 0"):
            vr_grad(lambda nodes, noise: build(nodes, noise[0]), params, eps, 0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_log_weight_reports_sample_and_set(self):
        model, params, x, eps, build = _vae_problem()
        noise = eps.copy()
        noise[2, 1, 0] = math.nan
        message = r"sample 2 in weight set \(1,\) is nan"
        with pytest.raises(FloatingPointError, match=message):
            vr_grad(build, params, noise, 0.5)


class TestVrGradChecks:
    """What ``vr_grad`` accepts of the (K, sets) log weights: -inf entries;
    NaN and +inf raise ``FloatingPointError``, checked before an all -inf set,
    which raises ``ValueError``; a selecting step checks the same."""

    NOISE = np.arange(1.0, 7.0).reshape(3, 2)

    @staticmethod
    def _grad(offsets, alpha=0.5, select=False):
        def build(nodes, noise):
            return nodes["mu"] * noise + offsets

        rng = np.random.default_rng(0) if select else None
        return vr_grad(build, {"mu": np.array(0.5)}, TestVrGradChecks.NOISE, alpha, rng)

    # the weighted sum forms -inf * 0 for a zero-density sample below alpha = 1
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        rng = np.random.default_rng(6)
        mu_val = rng.standard_normal(3)
        rho_val = rng.standard_normal(3) * 0.4
        mu, rho = ad.Node(mu_val), ad.Node(rho_val)
        reparam = GaussianReparam(mu, rho)
        eps = rng.standard_normal(3)
        theta = reparam.theta(eps)
        expected = float(
            np.sum(stats.norm.logpdf(theta.value, loc=mu_val, scale=np.exp(rho_val)))
        )
        assert float(reparam.log_q(eps).value) == pytest.approx(expected, abs=1e-10)

    def test_pushforward_moments(self):
        rng = np.random.default_rng(8)
        mu_val = np.array([0.5, -1.0])
        rho_val = np.array([-0.3, 0.2])
        reparam = GaussianReparam(ad.Node(mu_val), ad.Node(rho_val))
        n = 100_000
        draws = np.empty((n, 2))
        eps = rng.standard_normal((n, 2))
        sd = np.exp(rho_val)
        for i in range(2):
            draws[:, i] = mu_val[i] + sd[i] * eps[:, i]
        mean_se = sd / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mu_val) < 3.0 * mean_se)
        var_se = sd**2 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0) - sd**2) < 3.0 * var_se)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            GaussianReparam(ad.Node(np.zeros(2)), ad.Node(np.zeros(3)))

    def test_leading_draw_axis_matches_single_draws(self):
        rng = np.random.default_rng(9)
        reparam = GaussianReparam(ad.Node(rng.standard_normal((4, 3))), ad.Node(rng.standard_normal((4, 3))))
        eps = rng.standard_normal((5, 4, 3))
        theta, log_q = reparam.theta(eps), reparam.log_q(eps)
        assert theta.value.shape == (5, 4, 3) and log_q.value.shape == (5, 4)
        for k in range(5):
            np.testing.assert_array_equal(theta.value[k], reparam.theta(eps[k]).value)
            np.testing.assert_allclose(log_q.value[k], reparam.log_q(eps[k]).value, rtol=1e-15)
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
