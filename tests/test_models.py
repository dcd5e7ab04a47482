"""Model families: conjugate regression, BNN, VAE, and dataset handling."""

import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

import reference as ref
from reference import finite_diff_check, save_csv
from vrbound import (
    BLRModel,
    BNNModel,
    Dataset,
    GaussianDist,
    VAEModel,
    blr_exact_posterior,
    blr_mean_field_fit,
    exact_vr_bound_blr,
    normalize_weights,
    renyi_gaussian,
    select_backprop_sample,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
    vr_grad,
)
from vrbound import autodiff as ad
from vrbound.models import blr as blr_module
from vrbound.models import vae as vae_module
from vrbound.models.data import dataset_content_hash, load_csv
from vrbound.training import posterior_log_weights

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
        log_joint = ad.std_normal_logpdf_rows(theta_grid) + model.log_lik_node(
            theta_grid, {}, model.design, model.targets
        )[0]
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
        log_joint = ad.std_normal_logpdf_rows(zero) + model.log_lik_node(
            zero, {}, model.design, model.targets
        )[0]
        assert float(log_joint) == pytest.approx(expected, abs=1e-12)

    def test_tape_log_joint_matches_conjugate_identity(self):
        # log p(theta, D) = log Z + log N(theta; m, V), both from the closed form
        model = synthetic_blr_instance(seed=3, n_data=7)
        posterior, log_evidence = blr_exact_posterior(model)
        thetas = np.array([[0.5, 0.2], [-1.0, 0.3], [0.0, 0.0]])
        log_joint = ad.std_normal_logpdf_rows(thetas) + model.log_lik_node(
            thetas, {}, model.design, model.targets
        )[0]
        np.testing.assert_allclose(
            log_joint, log_evidence + posterior.logpdf(thetas), rtol=0, atol=1e-12
        )

    def test_batched_log_weights_match_draws(self):
        model = synthetic_blr_instance(seed=3, n_data=9)
        thetas = np.random.default_rng(9).standard_normal((4, model.dim))
        idx = np.array([0, 2, 5])
        x, y = model.design[idx], model.targets[idx]
        prior = ad.std_normal_logpdf_rows(thetas)
        lik = model.log_lik_node(thetas, {}, x, y)[0]
        assert prior.shape == lik.shape == (4,)
        for k in range(4):
            theta = thetas[k]
            np.testing.assert_allclose(
                prior[k], ad.std_normal_logpdf_rows(theta), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                lik[k], model.log_lik_node(theta, {}, x, y)[0], rtol=1e-12, atol=1e-12
            )
            expected = np.sum(stats.norm.logpdf(y, loc=x @ thetas[k], scale=model.noise_std))
            assert float(lik[k]) == pytest.approx(float(expected), abs=1e-10)

    def test_singular_precision_rejected(self):
        # A design with enormous colinear columns cannot break Cholesky for
        # Lam = X'X/s^2 + I, but non-finite inputs are rejected up front.
        with pytest.raises(ValueError, match="finite"):
            BLRModel(np.array([[math.inf]]), np.array([1.0]), 1.0)

    @pytest.mark.parametrize("noise_std", [0.0, -1.0, math.nan, math.inf, 1e-200, 1e200, 1e-160])
    def test_noise_variance_must_be_representable(self, noise_std):
        # 1e-200 squares to 0 and 1e200 to inf; 1e-160 squares to a
        # subnormal, and X'X over it overflows.
        with pytest.raises(ValueError, match="noise_std"):
            BLRModel(np.eye(2), np.ones(2), noise_std)

    @pytest.mark.parametrize("correlation", [1.5, -1.0000001, math.nan])
    def test_correlation_outside_the_unit_interval_rejected(self, correlation):
        with pytest.raises(ValueError, match="correlation"):
            synthetic_blr_instance(correlation=correlation)
        synthetic_blr_instance(correlation=math.copysign(1.0, correlation))


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
        posterior, log_evidence = blr_exact_posterior(model)
        fit = blr_mean_field_fit(model, 1.0)
        np.testing.assert_array_equal(fit.q.mean, posterior.mean)
        np.testing.assert_array_equal(fit.q.variances, 1.0 / np.diag(posterior.precision()))
        assert (fit.iterations, fit.converged) == (0, True)
        assert fit.bound == log_evidence - renyi_gaussian(fit.q, posterior, 1.0)

    def test_overconfidence_at_one_marginal_match_at_zero(self):
        model = synthetic_blr_instance(seed=0)
        posterior, log_evidence = blr_exact_posterior(model)
        fit1 = blr_mean_field_fit(model, 1.0)
        assert np.all(fit1.q.variances < posterior.variances)
        fit0 = blr_mean_field_fit(model, 0.0)
        np.testing.assert_array_equal(fit0.q.variances, posterior.variances)
        assert (fit0.iterations, fit0.converged) == (0, True)
        assert fit0.bound == log_evidence

    @pytest.mark.parametrize("alpha", [0.0, 1e-13, 0.5, 1.0, 1.0 + 1e-10, 2.0, 30.0, math.inf])
    def test_mean_is_the_posterior_mean_at_every_order(self, alpha):
        model = synthetic_blr_instance(seed=0)
        posterior, _ = blr_exact_posterior(model)
        np.testing.assert_array_equal(blr_mean_field_fit(model, alpha).q.mean, posterior.mean)

    def test_mode_seeking_orders_shrink_variances(self):
        model = synthetic_blr_instance(seed=0)
        v05 = blr_mean_field_fit(model, 0.5).q.variances
        v1 = blr_mean_field_fit(model, 1.0).q.variances
        v2 = blr_mean_field_fit(model, 2.0).q.variances
        vinf = blr_mean_field_fit(model, math.inf).q.variances
        assert np.all(v05 > v1) and np.all(v1 > v2) and np.all(v2 > vinf)

    def test_gradients_match_fd(self):
        # The fit's s2-gradient (diag(M^-1) - 1/s2) / 2 against central
        # differences of the shared closed form, on a near-isotropic posterior
        # so FD probes stay inside the feasibility region at every order
        # tested, and on both sides of alpha = 1.
        rng = np.random.default_rng(0)
        design = rng.standard_normal((30, 2))
        targets = design @ np.array([1.0, -0.3]) + 1.5 * rng.standard_normal(30)
        model = BLRModel(design, targets, 1.5)
        posterior, _ = blr_exact_posterior(model)
        from vrbound.divergence import renyi_gaussian_terms

        s2 = posterior.variances * rng.uniform(0.8, 1.2, size=2)
        offset = np.zeros(2)
        for alpha in (0.5, 2.0, 1.0 - 1e-6, 1.0 + 1e-6):
            value, diag_inv_mix = renyi_gaussian_terms(offset, np.diag(s2), posterior.cov, alpha)
            q = GaussianDist.diagonal(posterior.mean, s2)
            assert value == pytest.approx(renyi_gaussian(q, posterior, alpha), rel=1e-12)

            def f(x):
                return renyi_gaussian_terms(offset, np.diag(x), posterior.cov, alpha)[0]

            g_s2 = 0.5 * (diag_inv_mix - 1.0 / s2)
            err = finite_diff_check(f, s2, g_s2, step=1e-6)
            assert err < 1e-4, f"alpha {alpha}: {err}"

    def test_default_sweep_fits_converge(self):
        model = synthetic_blr_instance(seed=0)
        for sigma in np.linspace(0.5, 3.0, 50):
            at_sigma = model.with_noise(float(sigma))
            for alpha in (1.0, 0.5, 0.0):
                fit = blr_mean_field_fit(at_sigma, alpha)
                assert fit.converged, (sigma, alpha, fit.iterations)

    def test_closed_form_fits_are_warning_free_over_the_noise_range(self):
        # noise_std from the smallest the data admits to near the largest:
        # orders 0 and 1 are closed-form, so every fit converges to finite
        # variances and a finite bound without a floating-point warning
        model = synthetic_blr_instance(seed=0)
        fitted = 0
        for sigma in np.geomspace(1e-160, 1e154, 60):
            try:
                at_sigma = model.with_noise(float(sigma))
            except ValueError:
                continue
            for alpha in (0.0, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    fit = blr_mean_field_fit(at_sigma, alpha)
                assert fit.converged, (sigma, alpha)
                assert math.isfinite(fit.bound), (sigma, alpha)
                assert np.all(np.isfinite(fit.q.variances)), (sigma, alpha)
            fitted += 1
        assert fitted == 58

    def test_fit_at_a_huge_finite_order_converges(self):
        # alpha (1 - alpha) overflows at order 1e200; the fit never forms it,
        # and at the largest finite order 1 - alpha is still finite
        model = synthetic_blr_instance(seed=0)
        posterior, log_evidence = blr_exact_posterior(model)
        inf_bound = blr_mean_field_fit(model, math.inf).bound
        for alpha in (1e200, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = blr_mean_field_fit(model, alpha)
            assert fit.converged and math.isfinite(fit.bound), alpha
            assert fit.bound == log_evidence - renyi_gaussian(fit.q, posterior, alpha)
            assert fit.bound >= inf_bound, alpha

    def test_fits_near_one_converge_to_the_kl_fit(self):
        # orders near 1 run the same closed form as every other finite
        # order: the fit converges and its bound is within C |alpha - 1| of
        # the alpha = 1 bound (whose slope in alpha is about 0.4 here)
        model = synthetic_blr_instance(seed=0)
        at_one = blr_mean_field_fit(model, 1.0).bound
        for gap in (1e-6, 2e-9):
            for alpha in (1.0 - gap, 1.0 + gap):
                fit = blr_mean_field_fit(model, alpha)
                assert fit.converged, alpha
                assert abs(fit.bound - at_one) <= gap, alpha

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

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_inf_fit_bound_holds_at_a_mean_one_rounding_away(self, sigma):
        # the fit's q sits its margin of 1e-10 inside lam = 1, which the
        # divergence at +inf must not count as lam = 1: a mean one rounding
        # off the posterior's moves the bound by rounding, not to -inf
        model = synthetic_blr_instance(seed=0).with_noise(sigma)
        fit = blr_mean_field_fit(model, math.inf)
        q = GaussianDist.diagonal(np.nextafter(fit.q.mean, math.inf), fit.q.variances)
        assert exact_vr_bound_blr(model, q, math.inf) == pytest.approx(fit.bound, rel=1e-12)

    def test_mode_seeking_fits_converge_where_the_posterior_is_the_prior(self):
        # At noise 1e9 and above, Lam = I to within rounding: the +inf fit
        # starts at its minimum, where the top eigenvalue of its objective
        # is repeated, and stops there with variances 1 and zero iterations.
        model = synthetic_blr_instance(seed=0)
        for sigma in (1e9, 1e10, 1e11, 1e12, 1e13):
            at_sigma = model.with_noise(sigma)
            for alpha in (2.0, 30.0, math.inf):
                fit = blr_mean_field_fit(at_sigma, alpha)
                assert fit.converged, (sigma, alpha, fit.iterations)
                np.testing.assert_allclose(fit.q.variances, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
    def test_fit_bound_is_the_exact_bound_of_its_q(self, alpha):
        # one bound formula, at +inf too
        model = synthetic_blr_instance(seed=0)
        fit = blr_mean_field_fit(model, alpha)
        assert fit.bound == exact_vr_bound_blr(model, fit.q, alpha)

    def test_exact_bound_at_infinite_orders(self):
        model = synthetic_blr_instance(seed=0)
        posterior, log_evidence = blr_exact_posterior(model)
        q = GaussianDist.diagonal(posterior.mean, posterior.variances)
        for alpha in (math.inf, -math.inf):
            div = renyi_gaussian(q, posterior, alpha)
            assert exact_vr_bound_blr(model, q, alpha) == log_evidence - div
        # a q wider than the posterior has an unbounded ratio q / posterior
        wide = GaussianDist.diagonal(posterior.mean, posterior.variances * 4.0)
        assert exact_vr_bound_blr(model, wide, math.inf) == -math.inf

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


class TestMinimize:
    """The fit's solver on objectives whose minimizers are known."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_convex_quadratic_reaches_its_minimizer(self, dim):
        # the stopping tests bound the gradient and the decrease, not the
        # distance to the minimizer; a curvature of at least 1e8 turns them
        # into a distance of at most about 1e-10
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        hess = 1e8 * (a @ a.T / dim + np.eye(dim))
        center = rng.normal(size=dim)

        def objective(x):
            return 0.5 * float((x - center) @ hess @ (x - center)), hess @ (x - center)

        x, f, iterations, success = blr_module._minimize(objective, rng.normal(size=dim))
        assert success and iterations > 0
        np.testing.assert_allclose(x, center, rtol=0.0, atol=1e-10)
        assert 0.0 <= f < 1e-12

    def test_rosenbrock_converges(self):
        x, f, _, success = blr_module._minimize(_rosenbrock, np.array([-1.2, 1.0]))
        assert success
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert f < 1e-12

    def test_backs_off_where_the_objective_is_infinite(self):
        # +inf outside the box |x_i| < 1, minimizer log 2.5 = 0.916 next to
        # its edge: steps that leave the box are halved, never returned
        calls = []

        def objective(x):
            calls.append(x.copy())
            if np.max(np.abs(x)) >= 1.0:
                return math.inf, np.zeros_like(x)
            return float(np.sum(np.exp(x) - 2.5 * x)), np.exp(x) - 2.5

        x, f, _, success = blr_module._minimize(objective, np.array([-0.9, 0.0, 0.5]))
        assert success and math.isfinite(f) and np.max(np.abs(x)) < 1.0
        np.testing.assert_allclose(x, math.log(2.5), atol=1e-7)
        assert any(np.max(np.abs(c)) >= 1.0 for c in calls)

    @pytest.mark.parametrize("outside", ["zeros", "nan", "finite"])
    def test_reports_no_success_against_the_edge_of_the_finite_region(self, outside):
        # f = sum((x - 0.95)^4) / 4 inside |x_i| < 1, +inf outside, whatever
        # gradient comes with it: the iterates press against x_0 = 1 while
        # the minimizer, 0.95, lies inside, and the line search runs out of
        # trial points before the relative-decrease test can claim success
        def objective(x):
            inside = (x - 0.95) ** 3
            if np.max(np.abs(x)) < 1.0:
                return float(np.sum((x - 0.95) ** 4) / 4.0), inside
            grads = {"zeros": np.zeros_like(x), "nan": np.full_like(x, math.nan)}
            return math.inf, grads.get(outside, inside)

        x, f, iterations, success = blr_module._minimize(objective, np.array([-0.9, 0.0, 0.5]))
        assert not success
        assert 0.0 < 1.0 - x[0] < 1e-6 and f > 1e-4
        assert iterations == 19

    def test_stops_unsuccessful_after_the_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(blr_module, "_MAXITER", 5)
        x, f, iterations, success = blr_module._minimize(_rosenbrock, np.array([-1.2, 1.0]))
        assert (iterations, success) == (5, False)
        assert f == _rosenbrock(x)[0] < _rosenbrock(np.array([-1.2, 1.0]))[0]

    def test_stops_unsuccessful_when_no_trial_point_decreases(self):
        # a gradient of the wrong sign points uphill: the line search gives
        # up after its trial points and the start is returned
        calls = []

        def objective(x):
            calls.append(x)
            return float(x @ x), -2.0 * x

        x0 = np.array([0.5, -1.0])
        x, f, iterations, success = blr_module._minimize(objective, x0)
        np.testing.assert_array_equal(x, x0)
        assert (f, iterations, success) == (1.25, 0, False)
        assert len(calls) == 1 + blr_module._MAXLS

    def test_returns_at_once_from_an_infinite_start(self):
        calls = []

        def objective(x):
            calls.append(x)
            return math.inf, np.zeros_like(x)

        x0 = np.array([0.3, -0.2])
        x, f, iterations, success = blr_module._minimize(objective, x0)
        np.testing.assert_array_equal(x, x0)
        assert (f, iterations, success, len(calls)) == (math.inf, 0, False, 1)


def _rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])
    return float(value), grad


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

        params = {"log_noise": np.array(log_noise)}
        log_joint = ad.std_normal_logpdf_rows(theta) + bnn.log_lik_node(theta, params, x, y)[0]

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
        assert float(log_joint) == pytest.approx(float(expected), abs=1e-10)

    def test_log_joint_gradient_matches_fd(self):
        # the written-out likelihood VJP of one weight vector, with the
        # prior's gradient -theta added, against central differences
        rng = np.random.default_rng(3)
        bnn = BNNModel(in_dim=2, hidden=4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        theta0 = 0.5 * rng.standard_normal(bnn.n_weights)

        params = {"log_noise": np.array(0.1)}

        def f(t):
            prior = ad.std_normal_logpdf_rows(t)
            return float(prior + bnn.log_lik_node(t, params, x, y)[0])

        g_theta, _ = bnn.log_lik_node(theta0, params, x, y)[1](np.ones(()))
        assert finite_diff_check(f, theta0, g_theta - theta0) < 1e-4

    def test_batched_log_weights_match_draws(self):
        # (K, W) stacked draws give the K per-draw values in one call.
        rng = np.random.default_rng(8)
        bnn = BNNModel(in_dim=2, hidden=4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        thetas = rng.standard_normal((5, bnn.n_weights))
        params = {"log_noise": np.array([0.2])}
        prior = ad.std_normal_logpdf_rows(thetas)
        lik = bnn.log_lik_node(thetas, params, x, y)[0]
        assert prior.shape == lik.shape == (5,)
        for k in range(5):
            theta = thetas[k]
            np.testing.assert_allclose(
                prior[k], ad.std_normal_logpdf_rows(theta), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                lik[k], bnn.log_lik_node(theta, params, x, y)[0], rtol=1e-12, atol=1e-12
            )

    def test_predict_matches_node_forward(self):
        rng = np.random.default_rng(5)
        bnn = BNNModel(in_dim=2, hidden=3)
        theta = rng.standard_normal(bnn.n_weights)
        x = rng.standard_normal((4, 2))
        preds = bnn.predict(theta, x)
        # the documented layout (W1, b1, W2, b2), unpacked by hand, and the
        # reference graph's slices of it
        w1, b1 = theta[:6].reshape(2, 3), theta[6:9]
        w2, b2 = theta[9:12], theta[12]
        expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(preds, expected, atol=1e-12)
        assert preds.tobytes() == ref.bnn_predict(bnn, ref.Node(theta), x).value.tobytes()


class TestVae:
    def test_half_probabilities_give_d_log_two(self):
        # Zeroed decoder output layer: every pixel probability is 1/2, so
        # log p(x|h) = -D log 2 for any binary x.
        vae = VAEModel(data_dim=10, latent_dim=2, hidden=3)
        params = vae.init_params(seed=0)
        params["dec_w2"] = np.zeros_like(params["dec_w2"])
        params["dec_b2"] = np.zeros_like(params["dec_b2"])
        rng = np.random.default_rng(1)
        x = (rng.random((3, 10)) > 0.5).astype(float)
        h = np.concatenate([rng.standard_normal((3, 2)), np.ones((3, 1))], axis=1)
        rows = vae._decode(vae._layers_of(params), h, x)[0]
        np.testing.assert_allclose(rows, -10.0 * math.log(2.0), atol=1e-12)

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
            return float(np.sum(vae.log_weight_rows(unflatten(v), x, eps)[0]))

        log_w, vjp = vae.log_weight_rows(params, x, eps)
        grads = vjp(np.ones(log_w.shape))
        err = finite_diff_check(f, flatten(params), flatten(grads))
        assert err < 1e-4

    def test_gaussian_likelihood_variant(self):
        rng = np.random.default_rng(4)
        vae = VAEModel(data_dim=5, latent_dim=2, hidden=3, likelihood="gaussian")
        params = vae.init_params(seed=1)
        assert "dec_log_noise" in params
        x = rng.standard_normal((2, 5))
        lw = vae.log_weight_matrix(params, x, rng, 1)
        assert lw.shape == (2, 1)
        assert np.all(np.isfinite(lw))

    def test_log_weight_matrix_matches_rows(self):
        rng = np.random.default_rng(6)
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=4)
        params = vae.init_params(seed=2)
        x = (rng.random((5, 8)) > 0.5).astype(float)
        eps = np.random.default_rng(60).standard_normal((3, 5, 2))
        lw = vae.log_weight_matrix(params, x, np.random.default_rng(60), 3)
        for k in range(3):
            np.testing.assert_allclose(
                lw[:, k], vae.log_weight_rows(params, x, eps[k])[0], atol=1e-12
            )

    # (K, n, chunks): one draw's (n, data_dim = 8) array takes 64 n bytes,
    # so a 450 KiB budget holds chunks of 1440 draws of 5 points. K = 27214
    # is 18 full chunks and a partial one of 1294 draws. At n = 5000 a chunk
    # is one draw.
    @pytest.mark.parametrize("k, n, chunks", [(27214, 5, 19), (3, 5000, 3), (1, 5, 1)])
    def test_log_weight_matrix_equals_rows_bit_for_bit(self, monkeypatch, k, n, chunks):
        self._check_chunks_equal_rows(monkeypatch, k, n, chunks, clip=False)

    @pytest.mark.parametrize("k, n, chunks", [(27214, 5, 19), (3, 5000, 3)])
    def test_log_weight_matrix_with_clipped_rows_equals_rows_bit_for_bit(
        self, monkeypatch, k, n, chunks
    ):
        self._check_chunks_equal_rows(monkeypatch, k, n, chunks, clip=True)

    def _check_chunks_equal_rows(self, monkeypatch, k, n, chunks, clip):
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 450 * 1024)
        rng = np.random.default_rng(7)
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=4)
        params = vae.init_params(seed=5)
        x = (rng.random((n, 8)) > 0.5).astype(float)
        eps = np.random.default_rng(70).standard_normal((k, n, 2))
        if clip:
            params["dec_w2"][0, 0] = 40.0
            assert 0.0 < _clipped_share(vae, params, x, eps) < 1.0
        decoded = _count_kernel_calls(monkeypatch)
        lw = vae.log_weight_matrix(params, x, np.random.default_rng(70), k)
        assert len(decoded) == chunks and sum(decoded) == k
        assert np.array_equal(lw, vae.log_weight_rows(params, x, eps)[0].T)

    def test_bad_likelihood_rejected(self):
        with pytest.raises(ValueError, match="likelihood"):
            VAEModel(data_dim=4, likelihood="poisson")


def _count_kernel_calls(monkeypatch, on_call=None) -> list:
    """Patch the array forward of the fused decoder-output layer to record
    the draws of each chunk it is called on (and to run ``on_call`` first)."""
    kernel = ad.bernoulli_rows_forward
    draws = []

    def counted(hid, *args):
        if on_call is not None:
            on_call()
        draws.append(hid.shape[0])
        return kernel(hid, *args)

    monkeypatch.setattr(ad, "bernoulli_rows_forward", counted)
    return draws


def _clipped_share(vae, params, x, eps) -> float:
    """Share of (draw, point) rows holding a logit at or beyond the cap."""
    encoded = vae._encode(vae._layers_of(params), vae.with_ones(x))
    h = vae_module.GaussianReparam(*encoded[1:]).theta(eps)
    hid = np.tanh(h @ params["dec_w1"] + params["dec_b1"])
    logits = hid @ params["dec_w2"] + params["dec_b2"]
    return float(np.mean(np.any(np.abs(logits) >= ad._LOGIT_CAP, axis=-1)))


class TestVaeNode:
    """``log_weight_rows`` returns the log weights and their written-out
    VJP; its values and gradients are checked against the reference graph
    of generic operations (``reference.vae_log_weights``), and its
    gradients against central differences."""

    @staticmethod
    def _inputs(likelihood, draws, clip=False):
        rng = np.random.default_rng(21)
        vae = VAEModel(data_dim=6, latent_dim=2, hidden=3, likelihood=likelihood, encoder_hidden=4)
        params = vae.init_params(seed=4)
        for name in params:  # nonzero biases and a noise scale other than 1
            params[name] = params[name] + 0.3 * rng.standard_normal(params[name].shape)
        if likelihood == "bernoulli":
            x = (rng.random((3, 6)) > 0.5).astype(float)
        else:
            x = rng.standard_normal((3, 6))
        eps = rng.standard_normal((3, 2) if draws is None else (draws, 3, 2))
        if clip:
            # pixel 0 of every row lies beyond +cap, pixel 1 beyond -cap
            params["dec_b2"][:2] = [40.0, -40.0]
        return vae, params, x, eps

    CASES = [
        ("bernoulli", None, False),
        ("bernoulli", 4, False),
        ("bernoulli", 4, True),
        ("gaussian", None, False),
        ("gaussian", 4, False),
    ]

    @pytest.mark.parametrize("likelihood, draws, clip", CASES)
    def test_gradients_match_central_differences(self, likelihood, draws, clip):
        vae, params, x, eps = self._inputs(likelihood, draws, clip)
        seed = np.random.default_rng(5).standard_normal(eps.shape[:-1])
        names = list(params)
        sizes = [params[name].size for name in names]

        def unflatten(v):
            parts = np.split(v, np.cumsum(sizes)[:-1])
            return {name: part.reshape(params[name].shape) for name, part in zip(names, parts)}

        def f(v):
            return float(np.sum(vae.log_weight_rows(unflatten(v), x, eps)[0] * seed))

        grads = vae.log_weight_rows(params, x, eps)[1](seed)
        flat = np.concatenate([params[name].ravel() for name in names])
        analytic = np.concatenate([grads[name].ravel() for name in names])
        # Central differences at 1e-5 leave about 3e-10 of f's rounding in a
        # component, 5e-6 of the smallest here (5.6e-5); the five-point
        # stencil at 1e-3 leaves about 1e-7 at most, of any component.
        assert finite_diff_check(f, flat, analytic, step=1e-3, five_point=True) < 1e-6
        if clip:  # the clipped logits' weights and biases get no gradient
            assert not grads["dec_b2"][:2].any() and not grads["dec_w2"][:, :2].any()
            assert grads["dec_b2"][2:].all()

    @pytest.mark.parametrize("likelihood, draws, clip", CASES)
    def test_equal_to_a_graph_of_tape_operations(self, likelihood, draws, clip):
        vae, params, x, eps = self._inputs(likelihood, draws, clip)
        seed = np.random.default_rng(6).standard_normal(eps.shape[:-1])

        def run(build):
            log_w, vjp = build(params, eps)
            return log_w, vjp(seed)

        got_value, got = run(lambda values, noise: vae.log_weight_rows(values, x, noise))
        want_value, want = run(
            ref.as_builder(lambda nodes, noise: ref.vae_log_weights(vae, nodes, x, noise))
        )
        assert np.array_equal(got_value, want_value)
        for name, g in want.items():
            assert got[name].shape == g.shape
            assert np.max(np.abs(got[name] - g)) <= 1e-13 * np.max(np.abs(g)), name

    @pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
    def test_an_array_and_a_vjp_of_every_parameter(self, likelihood):
        vae, params, x, eps = self._inputs(likelihood, 4)
        log_w, vjp = vae.log_weight_rows(params, x, eps)
        assert type(log_w) is np.ndarray and log_w.shape == (4, 3)
        grads = vjp(np.ones(log_w.shape))
        assert set(grads) == set(params)
        for name, value in params.items():
            assert grads[name].shape == value.shape, name

    def test_the_vjp_runs_once_per_backward_pass(self, monkeypatch):
        vae, params, x, eps = self._inputs("gaussian", 4)
        calls = []
        written = VAEModel._log_weight_vjp

        def counted(self, *args):
            calls.append(None)
            return written(self, *args)

        monkeypatch.setattr(VAEModel, "_log_weight_vjp", counted)
        log_w, vjp = vae.log_weight_rows(params, x, eps)
        assert calls == []
        first = vjp(np.ones(log_w.shape))
        assert len(calls) == 1
        again = vjp(np.full(log_w.shape, 2.0))
        assert len(calls) == 2
        for name in params:
            np.testing.assert_allclose(again[name], 2.0 * first[name], rtol=1e-15)

    def test_input_checks_are_kept(self):
        vae, params, x, eps = self._inputs("bernoulli", 4)
        with pytest.raises(ValueError, match="eps must have shape"):
            vae.log_weight_rows(params, x, eps[:, :2])
        with pytest.raises(ValueError, match="targets"):
            vae.log_weight_rows(params, x[0], eps[:, 0])

    def test_rows_and_parameters_of_another_shape_are_rejected(self):
        # Rows one column wider than the data would make their last feature
        # the input of the encoder's bias, and a transposed weight of the
        # same size would be read as other parameters: each raises.
        vae, params, x, eps = self._inputs("bernoulli", 4)
        wide = np.concatenate([x, np.ones((3, 1))], axis=1)
        with pytest.raises(ValueError, match="must have 6 columns"):
            vae.log_weight_rows(params, wide, eps)
        with pytest.raises(ValueError, match="must have 6 columns"):
            vae.log_weight_matrix(params, wide, np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match="tensor 'enc_w1' has shape"):
            vae.log_weight_rows({**params, "enc_w1": params["enc_w1"].T}, x, eps)
        # a missing or an extra tensor is named
        without = {name: value for name, value in params.items() if name != "enc_w1"}
        with pytest.raises(ValueError, match=r"missing \['enc_w1'\], unexpected \[\]"):
            vae.log_weight_rows(without, x, eps)
        with pytest.raises(ValueError, match=r"missing \[\], unexpected \['extra'\]"):
            vae.log_weight_matrix({**params, "extra": np.zeros(2)}, x, np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match="do not fit"):
            vae.layers(np.zeros(3))


class TestPosteriorNode:
    """``posterior_log_weights`` returns the log weights and a VJP that
    chains the model's written-out likelihood VJP into
    ``GaussianReparam.vjp``. For
    BLR and BNN, at one draw and at five, with normalized weights and with
    single-backprop selection, its log weights and gradients are checked
    against the reference graph (``reference.posterior_log_weights``), and
    its gradients against central differences."""

    SCALE = {"blr": 12 / 7, "bnn": 3.0}
    CASES = [(kind, k, select) for kind in ("blr", "bnn") for k in (1, 5) for select in (0, 1)]

    @staticmethod
    def _inputs(kind, k):
        rng = np.random.default_rng(41)
        if kind == "blr":
            model = synthetic_blr_instance(seed=5, n_data=12)
            params = {"mu": 0.5 * rng.standard_normal(2), "rho": 0.3 * rng.standard_normal(2) - 1.0}
            x, y = model.design[:7], model.targets[:7]
        else:
            model = BNNModel(in_dim=2, hidden=4)
            params = model.init_params(seed=3)
            params["mu"] = 0.5 * rng.standard_normal(model.n_weights)
            params["log_noise"] = np.array([-0.4])
            x, y = rng.standard_normal((6, 2)), rng.standard_normal(6)
        return model, params, x, y, rng.standard_normal((k, params["mu"].size))

    def _vr_grad(self, kind, k, select, reference=False):
        model, params, x, y, noise = self._inputs(kind, k)
        scale = self.SCALE[kind]
        if reference:
            build = ref.as_builder(
                lambda nodes, eps: ref.posterior_log_weights(model, nodes, x, y, eps, scale)
            )
        else:
            build = lambda values, eps: posterior_log_weights(model, values, x, y, eps, scale)
        rng = np.random.default_rng(8) if select else None
        log_w, vjp = build(params, noise)
        return vr_grad(log_w, vjp, params, 0.5, rng), log_w

    @pytest.mark.parametrize("kind, k, select", CASES)
    def test_equal_to_the_reference_graph(self, kind, k, select):
        got, got_log_w = self._vr_grad(kind, k, select)
        want, want_log_w = self._vr_grad(kind, k, select, reference=True)
        assert got_log_w.tobytes() == want_log_w.tobytes()
        assert list(got) == list(want)
        for name, g in want.items():
            assert got[name].shape == g.shape
            assert np.max(np.abs(got[name] - g)) <= 1e-13 * np.max(np.abs(g)), name

    @pytest.mark.parametrize("kind, k, select", CASES)
    def test_gradients_match_central_differences(self, kind, k, select):
        # the step's gradient is that of the log weights summed with the
        # step's weights held fixed: the normalized ones, or one-hot at the
        # selected draw
        model, params, x, y, noise = self._inputs(kind, k)
        grads, log_w = self._vr_grad(kind, k, select)
        if select:
            pick = select_backprop_sample(log_w, 0.5, np.random.default_rng(8))
            weights = np.arange(k) == pick
        else:
            weights = normalize_weights(log_w, 0.5)
        names = list(params)
        sizes = [params[name].size for name in names]

        def f(v):
            parts = np.split(v, np.cumsum(sizes)[:-1])
            values = {name: part.reshape(params[name].shape) for name, part in zip(names, parts)}
            log_w = posterior_log_weights(model, values, x, y, noise, self.SCALE[kind])[0]
            return float(np.sum(weights * log_w))

        flat = np.concatenate([params[name].ravel() for name in names])
        analytic = np.concatenate([grads[name].ravel() for name in names])
        assert finite_diff_check(f, flat, analytic) < 1e-6


class TestLogWeightMatrixWorkers:
    """``log_weight_matrix``'s chunks are pulled by min(cores, chunks)
    workers; ``_usable_cores`` is patched to force a worker count. Its noise
    comes from a generator seeded like the twin that draws the one-shot
    ``eps`` the results are checked against."""

    VAE = VAEModel(data_dim=8, latent_dim=2, hidden=4)
    NOISE_SEED = 12

    def _inputs(self, k, n):
        rng = np.random.default_rng(11)
        x = (rng.random((n, 8)) > 0.5).astype(float)
        eps = np.random.default_rng(self.NOISE_SEED).standard_normal((k, n, 2))
        return self.VAE.init_params(seed=6), x, eps

    def _matrix(self, params, x, k):
        return self.VAE.log_weight_matrix(params, x, np.random.default_rng(self.NOISE_SEED), k)

    # A 4 MiB budget holds chunks of 13107 draws of 5 points and of 21 draws
    # of 3000. The cases: one chunk; two chunks, fewer than three workers;
    # chunks of 21, 21 and 1 draws; of 13107, 13107 and 1000; and at
    # n = 60000 three one-draw chunks.
    @pytest.mark.parametrize(
        "k, n, chunks",
        [(1, 5, 1), (20000, 5, 2), (43, 3000, 3), (27214, 5, 3), (3, 60000, 3)],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_to_rows_at_any_worker_count(self, monkeypatch, workers, k, n, chunks):
        self._check_workers(monkeypatch, workers, k, n, chunks, clip=False)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_clipped_rows_equal_to_rows_at_any_worker_count(self, monkeypatch, workers):
        self._check_workers(monkeypatch, workers, 43, 3000, 3, clip=True)

    def _check_workers(self, monkeypatch, workers, k, n, chunks, clip):
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 4 * 1024 * 1024)
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        threads = set()
        # every worker waits for the others at its first chunk, so the pool
        # cannot hand two shares to one thread
        barrier = threading.Barrier(min(workers, chunks), timeout=30)

        def first_chunk_waits():
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                barrier.wait()

        params, x, eps = self._inputs(k, n)
        if clip:
            params["dec_w2"][0, 0] = 40.0
            assert 0.0 < _clipped_share(self.VAE, params, x, eps) < 1.0
        decoded = _count_kernel_calls(monkeypatch, first_chunk_waits)
        lw = self._matrix(params, x, k)
        assert len(threads) == min(workers, chunks)
        assert len(decoded) == chunks and sum(decoded) == k
        assert np.array_equal(lw, self.VAE.log_weight_rows(params, x, eps)[0].T)

    def _check_chunks(self, monkeypatch, vae, x, k, budget, want):
        """``log_weight_matrix`` runs in chunks of ``want`` draws at
        ``budget`` (``theta`` records each chunk's draws) and equals the rows
        of the one-shot noise bit for bit."""
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", budget)
        theta = vae_module.GaussianReparam.theta
        draws = []

        def recording(self, chunk_eps):
            draws.append(chunk_eps.shape[0])
            return theta(self, chunk_eps)

        monkeypatch.setattr(vae_module.GaussianReparam, "theta", recording)
        params = vae.init_params(seed=3)
        shape = (k, x.shape[0], vae.latent_dim)
        eps = np.random.default_rng(self.NOISE_SEED).standard_normal(shape)
        lw = vae.log_weight_matrix(params, x, np.random.default_rng(self.NOISE_SEED), k)
        assert sorted(draws) == sorted(want)
        assert np.array_equal(lw, vae.log_weight_rows(params, x, eps)[0].T)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_gaussian_likelihood_equal_to_rows_at_any_worker_count(self, monkeypatch, workers):
        # one draw's (4, data_dim = 5) array takes 160 bytes, so 35 draws
        # are three full chunks of 10 and a partial one of 5
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        vae = VAEModel(data_dim=5, latent_dim=2, hidden=3, likelihood="gaussian")
        x = np.random.default_rng(13).standard_normal((4, 5))
        self._check_chunks(monkeypatch, vae, x, 35, 10 * 160, [10, 10, 10, 5])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_noise_sets_the_chunk_size_when_widest(self, monkeypatch, workers):
        # latent width 12 exceeds data_dim 3 and hidden 4, so a chunk's
        # widest array is its (draws, 5, 12) noise: 30 draws are four full
        # chunks of 7 and a partial one of 2
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        vae = VAEModel(data_dim=3, latent_dim=12, hidden=4)
        x = (np.random.default_rng(14).random((5, 3)) > 0.5).astype(float)
        self._check_chunks(monkeypatch, vae, x, 30, 7 * 5 * 12 * 8, [7, 7, 7, 7, 2])

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # eight workers share the output array; 175 chunks of 4 draws of 300
        # points
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 8)
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 80 * 1024)
        params, x, eps = self._inputs(700, 300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lw = self._matrix(params, x, 700)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(lw, self.VAE.log_weight_rows(params, x, eps)[0].T)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_exception_in_a_later_block_propagates(self, monkeypatch, workers):
        # 120 one-draw chunks of 300 points; the second one taken fails, and
        # after it no worker takes a chunk but the one it may be drawing
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 1)
        params, x, _ = self._inputs(120, 300)
        theta = vae_module.GaussianReparam.theta
        calls = []

        def failing(self, chunk_eps):
            calls.append(None)
            if len(calls) == 2:
                raise KeyError("second chunk")
            return theta(self, chunk_eps)

        monkeypatch.setattr(vae_module.GaussianReparam, "theta", failing)
        before = threading.active_count()
        with pytest.raises(KeyError, match="second chunk"):
            self._matrix(params, x, 120)
        assert threading.active_count() == before
        assert len(calls) <= 2 * workers + 1

    def test_an_exception_in_a_pool_thread_propagates(self, monkeypatch):
        # each of two workers takes a chunk before either goes on; the one
        # that is not the calling thread fails
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 2)
        params, x, _ = self._inputs(43, 3000)
        theta = vae_module.GaussianReparam.theta
        barrier = threading.Barrier(2, timeout=30)
        caller = threading.get_ident()
        seen = set()

        def failing(self, chunk_eps):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                barrier.wait()
            if threading.get_ident() != caller:
                raise KeyError("pool thread")
            return theta(self, chunk_eps)

        monkeypatch.setattr(vae_module.GaussianReparam, "theta", failing)
        before = threading.active_count()
        with pytest.raises(KeyError, match="pool thread"):
            self._matrix(params, x, 43)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_keep_the_callers_errstate(self, monkeypatch, workers):
        # exp(709) is finite, but h = mu + exp(rho) eps overflows at |eps| >
        # 2.2, which every chunk of 8 x 3000 x 2 draws holds. Each worker
        # takes a chunk before either goes on, and records its errstate.
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        params, x, _ = self._inputs(43, 3000)
        params["enc_w_rho"][:] = 0.0
        params["enc_b_rho"][:] = 709.0
        theta = vae_module.GaussianReparam.theta
        barrier = threading.Barrier(workers, timeout=30)
        seen = {}

        def recording(self, chunk_eps):
            if threading.get_ident() not in seen:
                seen[threading.get_ident()] = np.geterr()["over"]
                barrier.wait()
            return theta(self, chunk_eps)

        monkeypatch.setattr(vae_module.GaussianReparam, "theta", recording)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            self._matrix(params, x, 43)
        assert list(seen.values()) == ["raise"] * workers

    # Chunks of 10 draws of 50 points: one draw's (50, data_dim = 8) array
    # takes 3200 bytes.
    EDGE_BUDGET = 10 * 3200

    def _check_edge(self, monkeypatch, workers, params, k):
        """``log_weight_matrix`` at ``workers`` workers in chunks of 10
        draws of 50 points equals the rows of the one-shot noise bit for
        bit, NaN included, and leaves the generator where that draw does;
        returns the rows."""
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", self.EDGE_BUDGET)
        _, x, _ = self._inputs(k, 50)
        twin = np.random.default_rng(self.NOISE_SEED)
        eps = twin.standard_normal((k, 50, 2))
        decoded = _count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(self.NOISE_SEED)
        lw = self.VAE.log_weight_matrix(params, x, rng, k)
        assert sorted(decoded) == sorted([10] * (k // 10) + [k % 10] * (k % 10 > 0))
        assert rng.bit_generator.state == twin.bit_generator.state
        rows = self.VAE.log_weight_rows(params, x, eps)[0].T
        assert lw.shape == rows.shape == (50, k) and lw.tobytes() == rows.tobytes()
        return rows

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_logits_inside_a_bound_above_the_cap(self, monkeypatch, workers):
        # sum_i |w_i0| + |b_0| is at least 18, above the cap, so the logits
        # are checked chunk by chunk; the two weights pull against each
        # other, and no logit reaches the cap
        params, x, eps = self._inputs(23, 50)
        params["dec_w2"][:2, 0] = [9.0, -9.0]
        params["dec_b2"][0] = 0.0
        output = np.vstack([params["dec_w2"], params["dec_b2"]])
        assert not ad.bernoulli_layer(output, x, unit_inputs=True)[1]
        assert _clipped_share(self.VAE, params, x, eps) == 0.0
        assert np.isfinite(self._check_edge(monkeypatch, workers, params, 23)).all()

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_nan_latents_give_nan_rows(self, monkeypatch, workers):
        # an infinite encoder weight on the first pixel: 0 * inf makes the
        # encoding, and every draw's latents, NaN at the points whose first
        # pixel is 0; the decoder's weights leave its logits inside the cap
        params, x, _ = self._inputs(23, 50)
        params["enc_w1"][0, 0] = math.inf
        output = np.vstack([params["dec_w2"], params["dec_b2"]])
        assert ad.bernoulli_layer(output, x, unit_inputs=True)[1]
        with np.errstate(invalid="ignore"):
            rows = self._check_edge(monkeypatch, workers, params, 23)
        blank = x[:, 0] == 0.0
        assert 0 < blank.sum() < 50
        assert np.isnan(rows[blank]).all() and np.isfinite(rows[~blank]).all()

    # fewer draws than a chunk, two full chunks and a short one, and none
    # (an empty (50, 0) matrix)
    @pytest.mark.parametrize("k", [7, 23, 0])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_short_calls_and_chunks(self, monkeypatch, workers, k):
        self._check_edge(monkeypatch, workers, self._inputs(k, 50)[0], k)

    # Budgets of one draw per chunk, of 4 draws of 50 points, and of the
    # whole call in one chunk.
    @pytest.mark.parametrize("budget", [1, 4 * 50 * 8 * 8, 1024 * 1024])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_blocks_draw_the_one_shot_noise(self, monkeypatch, workers, budget):
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", budget)
        params, x, _ = self._inputs(300, 50)
        twin = np.random.default_rng(self.NOISE_SEED)
        eps = twin.standard_normal((300, 50, 2))
        rng = np.random.default_rng(self.NOISE_SEED)
        lw = self.VAE.log_weight_matrix(params, x, rng, 300)
        assert np.array_equal(lw, self.VAE.log_weight_rows(params, x, eps)[0].T)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestDatasets:
    @pytest.mark.parametrize("name", ["train_targets", "test_targets"])
    def test_targets_of_a_dataset_without_targets_raise(self, name):
        data = Dataset.from_arrays(np.zeros((10, 2)), None, 0, 0.2)
        with pytest.raises(ValueError, match="no targets"):
            getattr(data, name)

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
