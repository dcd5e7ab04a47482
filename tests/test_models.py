"""Model families: conjugate regression, BNN, VAE, and dataset handling."""

import math

import numpy as np
import pytest
from scipy import stats

from vrbound import (
    BLRModel,
    BNNModel,
    Dataset,
    GaussianDist,
    VAEModel,
    blr_exact_posterior,
    blr_mean_field_fit,
    exact_vr_bound_blr,
    finite_diff_check,
    renyi_gaussian,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
)
from vrbound import autodiff as ad
from vrbound.models.data import dataset_content_hash, load_csv, save_csv

_LOG_2PI = math.log(2.0 * math.pi)


class TestBlrPosterior:
    def test_hand_computed_instance(self):
        # X = [1], y = [1], sigma = 1: precision 2, mean 1/2.
        model = BLRModel(np.array([[1.0]]), np.array([1.0]), 1.0)
        posterior, log_evidence = blr_exact_posterior(model)
        assert posterior.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert posterior.cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        # evidence equals the density of y under N(0, X X' + sigma^2 I)
        assert log_evidence == pytest.approx(
            float(stats.norm.logpdf(1.0, loc=0.0, scale=math.sqrt(2.0))), abs=1e-12
        )

    def test_zero_design_returns_prior(self):
        y = np.array([0.4, -1.1, 0.7])
        sigma = 1.3
        model = BLRModel(np.zeros((3, 2)), y, sigma)
        posterior, log_evidence = blr_exact_posterior(model)
        np.testing.assert_allclose(posterior.mean, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(posterior.cov, np.eye(2), atol=1e-14)
        expected = float(np.sum(stats.norm.logpdf(y, scale=sigma)))
        assert log_evidence == pytest.approx(expected, abs=1e-12)

    def test_evidence_matches_quadrature(self):
        # Independent route: integrate prior times likelihood on a grid.
        model = synthetic_blr_instance(seed=6, n_data=8)
        posterior, log_evidence = blr_exact_posterior(model)
        span = 6.0 * np.sqrt(np.max(posterior.variances))
        axis0 = np.arange(posterior.mean[0] - span, posterior.mean[0] + span, 0.01)
        axis1 = np.arange(posterior.mean[1] - span, posterior.mean[1] + span, 0.01)
        xx, yy = np.meshgrid(axis0, axis1, indexing="ij")
        theta_grid = np.column_stack([xx.ravel(), yy.ravel()])
        log_joint = np.array([model.log_joint(t) for t in theta_grid])
        peak = log_joint.max()
        integral = np.sum(np.exp(log_joint - peak)) * 0.01 * 0.01
        quad_evidence = peak + math.log(integral)
        assert log_evidence == pytest.approx(quad_evidence, abs=1e-6)

    def test_log_joint_at_zero_weights(self):
        model = synthetic_blr_instance(seed=1, n_data=6)
        zero = np.zeros(2)
        expected = (
            -model.dim / 2 * _LOG_2PI
            + float(np.sum(stats.norm.logpdf(model.targets, scale=model.noise_std)))
        )
        assert model.log_joint(zero) == pytest.approx(expected, abs=1e-12)

    def test_grad_log_joint_matches_fd(self):
        model = synthetic_blr_instance(seed=2, n_data=9)
        theta0 = np.array([0.3, -0.8])
        err = finite_diff_check(model.log_joint, theta0, model.grad_log_joint(theta0))
        assert err < 1e-6

    def test_tape_log_joint_matches_numpy(self):
        model = synthetic_blr_instance(seed=3, n_data=7)
        theta0 = np.array([0.5, 0.2])
        node = model.log_joint_node(ad.Node(theta0))
        assert float(node.value) == pytest.approx(model.log_joint(theta0), abs=1e-12)

    def test_batched_log_weights_match_draws(self):
        model = synthetic_blr_instance(seed=3, n_data=9)
        thetas = np.random.default_rng(9).standard_normal((4, model.dim))
        idx = np.array([0, 2, 5])
        prior = model.log_prior_node(ad.Node(thetas))
        lik = model.log_lik_node(ad.Node(thetas), idx)
        assert prior.value.shape == lik.value.shape == (4,)
        for k in range(4):
            theta = ad.Node(thetas[k])
            np.testing.assert_allclose(
                prior.value[k], model.log_prior_node(theta).value, rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                lik.value[k], model.log_lik_node(theta, idx).value, rtol=1e-12, atol=1e-12
            )
            assert float(lik.value[k]) == pytest.approx(model.log_lik(thetas[k], idx), abs=1e-10)

    def test_singular_precision_rejected(self):
        # A design with enormous colinear columns cannot break Cholesky for
        # Lam = X'X/s^2 + I, but non-finite inputs are rejected up front.
        with pytest.raises(ValueError, match="finite"):
            BLRModel(np.array([[math.inf]]), np.array([1.0]), 1.0)


class TestMeanFieldFit:
    def test_diagonal_posterior_recovered_for_every_alpha(self):
        # Orthogonal design columns: the posterior is exactly diagonal,
        # so the mean-field family contains it and every order recovers it.
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        targets = np.array([0.7, -0.2, 0.9, 0.1])
        model = BLRModel(design, targets, 1.0)
        posterior, log_evidence = blr_exact_posterior(model)
        assert abs(posterior.cov[0, 1]) < 1e-12
        for alpha in (0.0, 0.5, 1.0, 2.0):
            fit = blr_mean_field_fit(model, alpha)
            np.testing.assert_allclose(fit.q.mean, posterior.mean, atol=1e-6)
            np.testing.assert_allclose(fit.q.variances, posterior.variances, atol=1e-6)
            assert fit.bound == pytest.approx(log_evidence, abs=1e-8)

    def test_kl_fit_matches_closed_form(self):
        # The exclusive-KL optimum over diagonal q has a closed form: means
        # match and precisions match the posterior precision diagonal.
        model = synthetic_blr_instance(seed=0)
        posterior, _ = blr_exact_posterior(model)
        fit = blr_mean_field_fit(model, 1.0)
        np.testing.assert_allclose(fit.q.mean, posterior.mean, atol=1e-8)
        np.testing.assert_allclose(
            fit.q.variances, 1.0 / np.diag(posterior.precision()), atol=1e-8
        )

    def test_overconfidence_at_one_marginal_match_at_zero(self):
        model = synthetic_blr_instance(seed=0)
        posterior, log_evidence = blr_exact_posterior(model)
        fit1 = blr_mean_field_fit(model, 1.0)
        assert np.all(fit1.q.variances < posterior.variances)
        fit0 = blr_mean_field_fit(model, 0.0)
        np.testing.assert_allclose(fit0.q.variances, posterior.variances, atol=1e-4)
        assert fit0.bound == pytest.approx(log_evidence, abs=1e-6)

    def test_mode_seeking_orders_shrink_variances(self):
        model = synthetic_blr_instance(seed=0)
        v05 = blr_mean_field_fit(model, 0.5).q.variances
        v1 = blr_mean_field_fit(model, 1.0).q.variances
        v2 = blr_mean_field_fit(model, 2.0).q.variances
        vinf = blr_mean_field_fit(model, math.inf).q.variances
        assert np.all(v05 > v1) and np.all(v1 > v2) and np.all(v2 > vinf)

    def test_gradients_match_fd(self):
        # The analytic ascent gradients against the bound via central diffs,
        # on a near-isotropic posterior so FD probes stay inside the
        # feasibility region at every order tested.
        rng = np.random.default_rng(0)
        design = rng.standard_normal((30, 2))
        targets = design @ np.array([1.0, -0.3]) + 1.5 * rng.standard_normal(30)
        model = BLRModel(design, targets, 1.5)
        posterior, _ = blr_exact_posterior(model)
        from vrbound.models.blr import _divergence_grads, _kl_post_q_grads, _kl_q_post_grads

        mu = posterior.mean + rng.normal(scale=0.1, size=2)
        s2 = posterior.variances * rng.uniform(0.8, 1.2, size=2)

        for fn, args in (
            (_divergence_grads, (posterior, 0.5)),
            (_divergence_grads, (posterior, 2.0)),
            (_kl_q_post_grads, (posterior,)),
            (_kl_post_q_grads, (posterior,)),
        ):
            value, g_mu, g_s2 = fn(mu, s2, *args)
            grad = np.concatenate([g_mu, g_s2])

            def f(x):
                return fn(x[:2], x[2:], *args)[0]

            err = finite_diff_check(f, np.concatenate([mu, s2]), grad, step=1e-6)
            assert err < 1e-4, f"{fn.__name__}: {err}"

    def test_default_sweep_fits_converge(self):
        model = synthetic_blr_instance(seed=0)
        for sigma in np.linspace(0.5, 3.0, 50):
            at_sigma = model.with_noise(float(sigma))
            for alpha in (1.0, 0.5, 0.0):
                fit = blr_mean_field_fit(at_sigma, alpha)
                assert fit.converged, (sigma, alpha, fit.iterations)

    @pytest.mark.parametrize("sigma", [0.5, 0.551, 1.0, 3.0])
    def test_inf_fit_is_exact_and_strictly_feasible(self, sigma):
        model = synthetic_blr_instance(seed=0).with_noise(sigma)
        posterior, log_evidence = blr_exact_posterior(model)
        lam = posterior.precision()
        fit = blr_mean_field_fit(model, math.inf)
        assert fit.converged and math.isfinite(fit.bound)
        assert np.linalg.eigvalsh(np.diag(1.0 / fit.q.variances) - lam)[0] > 0.0
        assert fit.bound == log_evidence - renyi_gaussian(fit.q, posterior, math.inf)
        np.testing.assert_array_equal(fit.q.mean, posterior.mean)
        ratio = math.sqrt(lam[0, 0] / lam[1, 1])
        closed = np.diag(lam) + abs(lam[0, 1]) * np.array([ratio, 1.0 / ratio])
        np.testing.assert_allclose(1.0 / fit.q.variances, closed, rtol=1e-9)
        assert fit.bound <= blr_mean_field_fit(model, 512.0).bound

    def test_mode_seeking_fits_are_optimal_in_3d(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 3))
        targets = design @ np.array([1.0, -0.5, 0.3]) + 0.7 * rng.standard_normal(20)
        model = BLRModel(design, targets, 0.7)
        posterior, log_evidence = blr_exact_posterior(model)
        bounds = []
        for alpha in (2.0, 512.0, math.inf):
            fit = blr_mean_field_fit(model, alpha)
            assert fit.converged and math.isfinite(fit.bound)
            bounds.append(fit.bound)
            # no nearby variances give a larger bound (outside the feasible
            # set of an order above 1 the bound is -inf)
            for _ in range(20):
                scale = np.exp(rng.normal(scale=1e-3, size=3))
                q = GaussianDist.diagonal(fit.q.mean, fit.q.variances * scale)
                assert log_evidence - renyi_gaussian(q, posterior, alpha) < fit.bound
        assert bounds[0] > bounds[1] > bounds[2]

    def test_feasible_variances_cover_exactly_the_finite_region(self):
        from vrbound.models.blr import _feasible_variances

        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        lam = a @ a.T + 0.1 * np.eye(3)
        z = rng.normal(size=3)
        s2, jac = _feasible_variances(z, lam, 0.6)
        excess = np.diag(1.0 / s2) - 0.6 * lam
        np.testing.assert_allclose(np.linalg.cholesky(excess).diagonal(), np.exp(z), rtol=1e-12)
        for k in range(3):

            def f(x):
                return _feasible_variances(x, lam, 0.6)[0][k]

            err = finite_diff_check(f, z, jac[k], step=1e-6)
            assert err < 1e-6, (k, err)

    def test_negative_alpha_rejected(self):
        model = synthetic_blr_instance(seed=0)
        with pytest.raises(ValueError, match="alpha >= 0"):
            blr_mean_field_fit(model, -1.0)


class TestSigmaSweep:
    def test_vi_biased_toward_larger_noise(self):
        model = synthetic_blr_instance(seed=0)
        sigmas = np.linspace(0.5, 3.0, 50)
        evidence, vi_bound = [], []
        for sigma in sigmas:
            at_sigma = model.with_noise(float(sigma))
            _, ev = blr_exact_posterior(at_sigma)
            evidence.append(ev)
            vi_bound.append(blr_mean_field_fit(at_sigma, 1.0).bound)
        i_ev = int(np.argmax(evidence))
        i_vi = int(np.argmax(vi_bound))
        assert sigmas[i_vi] >= sigmas[i_ev]
        # the order-zero bound IS the evidence, so its argmax coincides
        zero_bound = [
            exact_vr_bound_blr(model.with_noise(float(s)), GaussianDist.standard(2), 0.0)
            for s in sigmas
        ]
        assert int(np.argmax(zero_bound)) == i_ev


class TestBnn:
    def test_log_joint_matches_straight_line_recomputation(self):
        # Independent duplicate of prior + likelihood arithmetic, seed 7.
        rng = np.random.default_rng(7)
        bnn = BNNModel(in_dim=1, hidden=3)
        x = rng.uniform(-1, 1, size=(2, 1))
        y = rng.standard_normal(2)
        theta = rng.standard_normal(bnn.n_weights)
        log_noise = 0.3

        node = bnn.log_joint_node(
            ad.Node(theta), ad.Node(np.array(log_noise)), x, y
        )

        w1 = theta[:3].reshape(1, 3)
        b1 = theta[3:6]
        w2 = theta[6:9]
        b2 = theta[9]
        hidden = np.maximum(x @ w1 + b1, 0.0)
        preds = hidden @ w2 + b2
        sigma = math.exp(log_noise)
        expected = sum(
            -0.5 * ((y[i] - preds[i]) / sigma) ** 2 - math.log(sigma) - 0.5 * _LOG_2PI
            for i in range(2)
        )
        expected += sum(-0.5 * t * t - 0.5 * _LOG_2PI for t in theta)
        assert float(node.value) == pytest.approx(float(expected), abs=1e-10)

    def test_log_joint_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        bnn = BNNModel(in_dim=2, hidden=4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        theta0 = 0.5 * rng.standard_normal(bnn.n_weights)

        def f(t):
            node = bnn.log_joint_node(ad.Node(t), ad.Node(np.array(0.1)), x, y)
            return float(node.value)

        leaf = ad.Node(theta0)
        node = bnn.log_joint_node(leaf, ad.Node(np.array(0.1)), x, y)
        grads = ad.gradients(node, {"theta": leaf})
        assert finite_diff_check(f, theta0, grads["theta"]) < 1e-4

    def test_batched_log_weights_match_draws(self):
        # (K, W) stacked draws give the K per-draw values in one graph.
        rng = np.random.default_rng(8)
        bnn = BNNModel(in_dim=2, hidden=4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        thetas = rng.standard_normal((5, bnn.n_weights))
        log_noise = ad.Node(np.array([0.2]))
        prior = bnn.log_prior_node(ad.Node(thetas))
        lik = bnn.log_lik_node(ad.Node(thetas), log_noise, x, y)
        assert prior.value.shape == lik.value.shape == (5,)
        for k in range(5):
            theta = ad.Node(thetas[k])
            np.testing.assert_allclose(
                prior.value[k], bnn.log_prior_node(theta).value, rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                lik.value[k], bnn.log_lik_node(theta, log_noise, x, y).value, rtol=1e-12, atol=1e-12
            )

    def test_predict_matches_node_forward(self):
        rng = np.random.default_rng(5)
        bnn = BNNModel(in_dim=2, hidden=3)
        theta = rng.standard_normal(bnn.n_weights)
        x = rng.standard_normal((4, 2))
        node = bnn.predict_node(ad.Node(theta), x)
        np.testing.assert_allclose(node.value, bnn.predict(theta, x), atol=1e-12)


class TestVae:
    def test_half_probabilities_give_d_log_two(self):
        # Zeroed decoder output layer: every pixel probability is 1/2, so
        # log p(x|h) = -D log 2 for any binary x.
        vae = VAEModel(data_dim=10, latent_dim=2, hidden=3)
        params = vae.init_params(seed=0)
        params["dec_w2"] = np.zeros_like(params["dec_w2"])
        params["dec_b2"] = np.zeros_like(params["dec_b2"])
        nodes = {k: ad.Node(v) for k, v in params.items()}
        rng = np.random.default_rng(1)
        x = (rng.random((3, 10)) > 0.5).astype(float)
        h = ad.Node(rng.standard_normal((3, 2)))
        node = vae.log_lik_rows(nodes, h, x)
        np.testing.assert_allclose(node.value, -10.0 * math.log(2.0), atol=1e-12)

    def test_log_weight_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        vae = VAEModel(data_dim=6, latent_dim=2, hidden=3)
        params = vae.init_params(seed=3)
        x = (rng.random((1, 6)) > 0.5).astype(float)
        eps = rng.standard_normal((1, 2))
        names = sorted(params)

        def flatten(p):
            return np.concatenate([p[n].ravel() for n in names])

        def unflatten(v):
            out, ofs = {}, 0
            for n in names:
                size = params[n].size
                out[n] = v[ofs : ofs + size].reshape(params[n].shape)
                ofs += size
            return out

        def f(v):
            nodes = {k: ad.Node(val) for k, val in unflatten(v).items()}
            return float(ad.vsum(vae.log_weight_rows(nodes, x, eps)).value)

        nodes = {k: ad.Node(v) for k, v in params.items()}
        root = ad.vsum(vae.log_weight_rows(nodes, x, eps))
        grads = ad.gradients(root, nodes)
        err = finite_diff_check(f, flatten(params), flatten(grads))
        assert err < 1e-4

    def test_gaussian_likelihood_variant(self):
        rng = np.random.default_rng(4)
        vae = VAEModel(data_dim=5, latent_dim=2, hidden=3, likelihood="gaussian")
        params = vae.init_params(seed=1)
        assert "dec_log_noise" in params
        x = rng.standard_normal((2, 5))
        eps = rng.standard_normal((1, 2, 2))
        lw = vae.log_weight_matrix(params, x, eps)
        assert lw.shape == (2, 1)
        assert np.all(np.isfinite(lw))

    def test_log_weight_matrix_matches_rows(self):
        rng = np.random.default_rng(6)
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=4)
        params = vae.init_params(seed=2)
        x = (rng.random((5, 8)) > 0.5).astype(float)
        eps = rng.standard_normal((3, 5, 2))
        lw = vae.log_weight_matrix(params, x, eps)
        nodes = {k: ad.Node(v) for k, v in params.items()}
        for k in range(3):
            np.testing.assert_allclose(
                lw[:, k], vae.log_weight_rows(nodes, x, eps[k]).value, atol=1e-12
            )

    def test_bad_likelihood_rejected(self):
        with pytest.raises(ValueError, match="likelihood"):
            VAEModel(data_dim=4, likelihood="poisson")


class TestDatasets:
    def test_split_is_seeded_and_disjoint(self):
        data = synthetic_regression(seed=3, n=50)
        again = synthetic_regression(seed=3, n=50)
        np.testing.assert_array_equal(data.train_idx, again.train_idx)
        assert set(data.train_idx).isdisjoint(set(data.test_idx))
        assert data.n_train + data.n_test == 50

    def test_standardization_uses_train_statistics_only(self):
        data = synthetic_regression(seed=1, n=40)
        std_data, stats_out = data.standardized()
        train_feats = std_data.train_features
        assert abs(float(train_feats.mean())) < 1e-10
        assert float(train_feats.std()) == pytest.approx(1.0, abs=1e-10)
        # test features are scaled by train statistics, not their own
        recovered = std_data.test_features * stats_out["x_std"] + stats_out["x_mean"]
        np.testing.assert_allclose(recovered, data.test_features, atol=1e-12)

    def test_binary_images_are_binary(self):
        data = synthetic_binary_images(seed=0, n=300)
        assert data.features.shape == (300, 64)
        assert set(np.unique(data.features)) <= {0.0, 1.0}
        assert data.n_test == 200

    def test_csv_round_trip(self, tmp_path):
        data = synthetic_regression(seed=2, n=30)
        path = tmp_path / "toy.csv"
        save_csv(path, data.features, data.targets)
        loaded = load_csv(path, ["x0"], "y", split_seed=9)
        np.testing.assert_allclose(loaded.features, data.features, atol=1e-15)
        np.testing.assert_allclose(loaded.targets, data.targets, atol=1e-15)

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        save_csv(path, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(path, ["x0", "nope"], None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset.from_arrays(np.array([[math.nan]]), None)

    def test_content_hash_changes_with_data(self):
        a = dataset_content_hash(np.zeros((2, 2)))
        b = dataset_content_hash(np.ones((2, 2)))
        assert a != b and len(a) == 64
