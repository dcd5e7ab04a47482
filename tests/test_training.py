"""Adam, energy approximation, training loops, evaluation, diagnostics."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vrbound import (
    Adam,
    BLRModel,
    Dataset,
    GaussianDist,
    TrainConfig,
    TrainingDiverged,
    VAEModel,
    blr_exact_posterior,
    blr_mean_field_fit,
    evaluate_vae,
    exact_vr_bound_blr,
    mc_vr_estimate,
    normalize_weights,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
    train,
)
from vrbound import autodiff as ad
from vrbound import training
from vrbound.gradients import log_weight_ratio
from vrbound.models import vae as vae_module
from vrbound.models.bnn import BNNModel

_LOG_2PI = math.log(2.0 * math.pi)


class TestAdam:
    def test_zero_gradient_leaves_parameters_fixed(self):
        adam = Adam(lr=0.1)
        params = np.array([1.0, -2.0])
        before = params.copy()
        for _ in range(5):
            adam.step(params, np.zeros(2))
        np.testing.assert_array_equal(params, before)

    def test_single_step_matches_hand_update(self):
        adam = Adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        params = np.array([0.0])
        g = np.array([2.0])
        adam.step(params, g)
        # bias-corrected first step moves by lr * g / (|g| + eps)
        expected = 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params, expected, atol=1e-12)

    def test_momentum_moves_on_after_a_zero_gradient(self):
        adam = Adam(lr=0.1)
        params = np.array([0.0])
        adam.step(params, np.array([1.0]))
        after_one = params[0]
        adam.step(params, np.array([0.0]))
        assert after_one == pytest.approx(0.1, abs=1e-9)
        assert params[0] == pytest.approx(0.167, abs=1e-3)

    def test_ascent_on_quadratic(self):
        adam = Adam(lr=0.05)
        params = np.array([3.0])
        for _ in range(2000):
            adam.step(params, -2.0 * params)
        assert abs(params[0]) < 1e-3

    def test_flat_step_equals_the_per_tensor_update_bit_for_bit(self):
        # the textbook update, tensor by tensor, on the same gradients; a
        # step as large as the parameters keeps the last bits of each
        # operation in the result
        rng = np.random.default_rng(8)
        shapes = {"w": (30, 40), "b": (40,), "s": ()}
        tensors = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        flat, views = training._flat_views(tensors)
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        adam = Adam(lr=1.0)
        for t in range(1, 11):
            scale = 10.0 ** (t % 5)
            grads = {name: rng.standard_normal(shape) * scale for name, shape in shapes.items()}
            adam.step(flat, np.concatenate([np.ravel(grads[name]) for name in views]))
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                m_hat = m[name] / (1.0 - 0.9**t)
                v_hat = v[name] / (1.0 - 0.999**t)
                tensors[name] = tensors[name] + 1.0 * m_hat / (np.sqrt(v_hat) + 1e-8)
                assert views[name].shape == shapes[name]
                assert views[name].tobytes() == tensors[name].tobytes(), (t, name)


def _energy_estimate(model, q, idx, alpha, noise):
    """Bound estimate from the energy log weights of BLR rows ``idx``."""
    params = {"mu": q.mean, "rho": 0.5 * np.log(q.variances)}
    x, y = model.design[idx], model.targets[idx]
    log_w = training.posterior_log_weights(model, params, x, y, noise, model.n_data / len(idx))[0]
    return mc_vr_estimate(log_w, alpha)


class TestEnergyApproximation:
    def test_full_batch_equals_full_data_estimate(self):
        model = synthetic_blr_instance(seed=0, n_data=12)
        q = GaussianDist.diagonal([0.1, -0.2], [0.3, 0.4])
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((6, 2))
        full_idx = np.arange(12)
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
            via_energy = _energy_estimate(model, q, full_idx, alpha, noise)
            theta = q.mean + np.sqrt(q.variances) * noise
            log_joint = ad.std_normal_logpdf_rows(theta) + model.log_lik_node(
                theta, {}, model.design, model.targets
            )[0]
            log_w = log_joint - q.logpdf(theta)
            assert via_energy == pytest.approx(mc_vr_estimate(log_w, alpha), abs=1e-10)

    def test_subset_average_identity_by_enumeration(self):
        # Averaging the rescaled subset log likelihood over all size-M
        # subsets reproduces the full-data log likelihood exactly.
        model = synthetic_blr_instance(seed=2, n_data=4)
        theta = np.array([0.3, -0.7])
        n, m = 4, 2
        total = model.log_lik_node(theta, {}, model.design, model.targets)[0]
        subset_values = [
            (n / m) * model.log_lik_node(theta, {}, model.design[rows], model.targets[rows])[0]
            for rows in map(list, itertools.combinations(range(n), m))
        ]
        assert float(np.mean(subset_values)) == pytest.approx(float(total), abs=1e-12)

    def test_hand_expanded_two_point_instance(self):
        # N = 2, M = 1: log w_k = log p0 + 2 log p(x_1 | theta_k) - log q.
        design = np.array([[1.0], [2.0]])
        targets = np.array([0.5, -1.0])
        model = BLRModel(design, targets, 1.0)
        q = GaussianDist.diagonal([0.2], [0.5])
        noise = np.array([[0.3], [-1.1], [0.8]])
        alpha = 0.5
        got = _energy_estimate(model, q, np.array([0]), alpha, noise)

        theta = 0.2 + math.sqrt(0.5) * noise[:, 0]
        log_w = []
        for t in theta:
            log_prior = -0.5 * t * t - 0.5 * _LOG_2PI
            log_lik = -0.5 * (0.5 - t) ** 2 - 0.5 * _LOG_2PI
            log_q = -0.5 * (t - 0.2) ** 2 / 0.5 - 0.5 * math.log(0.5) - 0.5 * _LOG_2PI
            log_w.append(log_prior + 2.0 * log_lik - log_q)
        expected = (1.0 / (1.0 - alpha)) * (
            math.log(np.mean(np.exp((1.0 - alpha) * np.array(log_w))))
        )
        assert got == pytest.approx(expected, abs=1e-10)


class TestTrainDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        model = synthetic_blr_instance(seed=1, n_data=10)
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=5, steps=40, learning_rate=0.01, seed=7)
        _, rec1 = train(model, cfg)
        _, rec2 = train(model, cfg)
        assert rec1.objective == rec2.objective
        assert rec1.grad_norm == rec2.grad_norm

    def test_k1_trajectories_alpha_free(self):
        model = synthetic_blr_instance(seed=1, n_data=10)
        records = {}
        for alpha in (-math.inf, 0.0, 1.0):
            cfg = TrainConfig(alpha=alpha, k=1, minibatch=5, steps=30, learning_rate=0.01, seed=3)
            _, rec = train(model, cfg)
            records[alpha] = rec.objective
        assert records[-math.inf] == records[0.0] == records[1.0]

    def test_vae_determinism(self):
        data = synthetic_binary_images(seed=1, n=420)
        vae = VAEModel(data_dim=64, latent_dim=2, hidden=8)
        cfg = TrainConfig(alpha=0.0, k=2, minibatch=16, steps=12, learning_rate=1e-3, seed=5)
        p1, rec1 = train(vae, cfg, data)
        p2, rec2 = train(vae, cfg, data)
        assert rec1.objective == rec2.objective
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])


class TestTrainBehavior:
    def test_blr_surrogate_reaches_posterior_mean(self):
        model = synthetic_blr_instance(seed=0)
        posterior, _ = blr_exact_posterior(model)
        cfg = TrainConfig(
            alpha=1.0, k=10, minibatch=25, steps=2000, learning_rate=0.02, seed=1
        )
        params, record = train(model, cfg)
        assert np.max(np.abs(params["mu"] - posterior.mean)) < 0.05
        assert len(record.objective) == 2000

    def test_single_backprop_mode_runs_and_is_seeded(self):
        model = synthetic_blr_instance(seed=1, n_data=10)
        cfg = TrainConfig(
            alpha=-math.inf, k=4, minibatch=5, steps=25, learning_rate=0.01,
            seed=2, single_backprop=True,
        )
        _, rec1 = train(model, cfg)
        _, rec2 = train(model, cfg)
        assert rec1.objective == rec2.objective

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step_and_state(self):
        data = synthetic_regression(seed=0, n=30)
        bnn = BNNModel(in_dim=1, hidden=4)
        cfg = TrainConfig(alpha=1.0, k=2, minibatch=8, steps=400, learning_rate=1e6, seed=0)
        with pytest.raises(TrainingDiverged) as exc_info:
            train(bnn, cfg, data)
        assert exc_info.value.step >= 0
        assert "mu" in exc_info.value.last_params
        assert str(exc_info.value) == "step 1: log weight for sample 0 is nan"

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            (-math.inf, "step 2: non-finite objective"),
            (math.nan, "step 2: log weight for sample 1 is nan"),
            (math.inf, "step 2: log weight for sample 1 is inf"),
        ],
        ids=["-inf", "nan", "+inf"],
    )
    def test_a_non_finite_log_weight_stops_the_run(self, monkeypatch, bad, message):
        # vr_grad allows a -inf log weight; a training step does not
        build = training.posterior_log_weights
        calls = []

        def spoiled(*args):
            log_w, vjp = build(*args)
            calls.append(None)
            offsets = np.zeros(3)
            offsets[1] = bad if len(calls) == 3 else 0.0
            return log_w + offsets, vjp

        monkeypatch.setattr(training, "posterior_log_weights", spoiled)
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=5, steps=4, learning_rate=0.01, seed=2)
        with pytest.raises(TrainingDiverged, match=rf"^{message}$") as exc_info:
            train(synthetic_blr_instance(seed=1, n_data=10), cfg)
        assert exc_info.value.step == 2

    def test_a_non_finite_parameter_stops_the_run_naming_it(self, monkeypatch):
        # the update of step 2 leaves a NaN in the last tensor
        step = training.Adam.step

        def spoiled(self, params, grads):
            step(self, params, grads)
            if self.t == 3:
                params[-1] = math.nan

        monkeypatch.setattr(training.Adam, "step", spoiled)
        model = synthetic_blr_instance(seed=1, n_data=10)
        last = list(model.init_params(0))[-1]
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=5, steps=4, learning_rate=0.01, seed=2)
        message = rf"^step 2: parameter '{last}' became non-finite$"
        with pytest.raises(TrainingDiverged, match=message) as exc_info:
            train(model, cfg)
        assert exc_info.value.step == 2
        assert np.isnan(exc_info.value.last_params[last]).any()

    def test_a_non_finite_vae_gradient_stops_the_run_naming_it(self, monkeypatch):
        # the gradients of step 2 hold a NaN in 'dec_b1'; every log weight
        # is finite, so no sample is suspect
        vjp = VAEModel._log_weight_vjp
        calls = []

        def spoiled(self, *args):
            grads = vjp(self, *args)
            calls.append(None)
            if len(calls) == 3:
                grads["dec_b1"][1] = math.nan
            return grads

        monkeypatch.setattr(VAEModel, "_log_weight_vjp", spoiled)
        data = synthetic_binary_images(seed=0, n=240)
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=8, steps=4, seed=2)
        message = r"^step 2: non-finite gradient for parameter 'dec_b1' \(suspect samples: \[\]\)$"
        with pytest.raises(TrainingDiverged, match=message) as exc_info:
            train(VAEModel(data_dim=64, hidden=4), cfg, data)
        assert exc_info.value.step == 2

    def test_bnn_training_improves_objective(self):
        data = synthetic_regression(seed=3, n=60)
        std_data, _ = data.standardized()
        bnn = BNNModel(in_dim=1, hidden=5)
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=20, steps=300, learning_rate=5e-3, seed=4)
        params, record = train(bnn, cfg, std_data)
        early = float(np.mean(record.objective[:20]))
        late = float(np.mean(record.objective[-20:]))
        assert late > early

    def test_unsupported_model_rejected(self):
        with pytest.raises(TypeError, match="unsupported"):
            train(object(), TrainConfig(), None)

    def test_bnn_on_a_dataset_without_targets_raises_before_a_step(self, monkeypatch):
        x = synthetic_regression(seed=0, n=30).features
        data = Dataset.from_arrays(x, None, 0, 0.2)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training, "posterior_log_weights", no_step)
        cfg = TrainConfig(alpha=0.5, k=2, minibatch=8, steps=3, seed=0)
        with pytest.raises(ValueError, match="no targets"):
            train(BNNModel(in_dim=1, hidden=4), cfg, data)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k must"):
            TrainConfig(k=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)


# SGD on BLR against the deterministic mean-field fit at each order: the
# default instance (25 points, 2-D), full batch, learning rate 0.01, 1500
# steps, seed 0, and K by order. The gap fit.bound - exact_vr_bound_blr(model,
# trained q, alpha) comes from the final iterate of noisy SGD and, at alpha
# != 1, from the bias of the K-sample objective, which shrinks as K grows
# (Li & Turner, arXiv 1602.02311, section 4). Over seeds 0-19 it lay in
# 0.0004-0.0199 nats at alpha 1, 0.0004-0.0253 at 0.5 and 0.0001-0.0209 at 2;
# the bound, 0.05, is about twice the worst. The trained variances kept the
# fit's order in alpha, per coordinate, on every seed. Order 0 is left out:
# its exact bound is log Z for every q.
_BLR_SGD_K = {1.0: 10, 0.5: 50, 2.0: 50}
_BLR_SGD_GAP = 0.05


@pytest.fixture(scope="module")
def blr_sgd():
    model = synthetic_blr_instance(seed=0)
    fits, trained_qs = {}, {}
    for alpha, k in _BLR_SGD_K.items():
        cfg = TrainConfig(alpha=alpha, k=k, minibatch=25, steps=1500, learning_rate=0.01, seed=0)
        params, _ = train(model, cfg)
        fits[alpha] = blr_mean_field_fit(model, alpha)
        trained_qs[alpha] = GaussianDist(params["mu"], variances=np.exp(2.0 * params["rho"]))
    return model, fits, trained_qs


@pytest.mark.parametrize("alpha", list(_BLR_SGD_K))
def test_blr_sgd_meets_the_mean_field_fit(blr_sgd, alpha):
    model, fits, trained_qs = blr_sgd
    # the fit is the optimum: the trained q scores no better, up to rounding
    gap = fits[alpha].bound - exact_vr_bound_blr(model, trained_qs[alpha], alpha)
    assert -1e-9 <= gap < _BLR_SGD_GAP
    # smaller orders cover more mass: each coordinate's trained variance sits
    # above or below every other order's as the fit's does
    for other in _BLR_SGD_K:
        fit_side = np.sign(fits[alpha].q.variances - fits[other].q.variances)
        sgd_side = np.sign(trained_qs[alpha].variances - trained_qs[other].variances)
        np.testing.assert_array_equal(sgd_side, fit_side, err_msg=f"{alpha} against {other}")


@pytest.fixture(scope="module")
def trained():
    data = synthetic_binary_images(seed=2, n=420)
    vae = VAEModel(data_dim=64, latent_dim=2, hidden=8)
    cfg = TrainConfig(alpha=0.0, k=3, minibatch=20, steps=250, learning_rate=3e-3, seed=6)
    params, _ = train(vae, cfg, data)
    return vae, params, data


class TestEvaluateVae:

    def test_reference_gap_is_exactly_zero(self, trained):
        vae, params, data = trained
        rows = evaluate_vae(
            vae, params, data.test_features[:40], alphas=[0.0], ks=[64],
            repeats=2, seed=1, k_ref=64,
        )
        assert rows[0].mean_gap == 0.0
        assert rows[0].se_gap == 0.0

    def test_gap_direction_in_k(self, trained):
        vae, params, data = trained
        rows = evaluate_vae(
            vae, params, data.test_features[:60], alphas=[0.0], ks=[2, 16],
            repeats=4, seed=2, k_ref=256,
        )
        by_k = {r.k: r for r in rows}
        tol = 3.0 * math.sqrt(by_k[2].se_gap**2 + by_k[16].se_gap**2)
        assert by_k[16].mean_gap >= by_k[2].mean_gap - tol

    def test_k1_rows_are_alpha_free(self, trained):
        # One draw per point: every order's estimate is that draw's log
        # weight, so the K = 1 rows must agree bit for bit across alpha.
        vae, params, data = trained
        rows = evaluate_vae(
            vae, params, data.test_features[:50], alphas=[0.3, 0.7, -0.2], ks=[1],
            repeats=2, seed=3, k_ref=8,
        )
        for field in ("mean_bound", "se_bound", "mean_gap", "se_gap"):
            values = {getattr(row, field) for row in rows}
            assert len(values) == 1, f"{field} differs across alpha: {values}"

    def test_repeats_validated(self, trained):
        vae, params, data = trained
        with pytest.raises(ValueError, match="repeats"):
            evaluate_vae(vae, params, data.test_features[:5], [0.0], [2], repeats=1)

    def test_points_validated(self, trained):
        # one point has no standard error
        vae, params, data = trained
        with pytest.raises(ValueError, match="2 points"):
            evaluate_vae(vae, params, data.test_features[:1], [0.0], [2], repeats=2)

    @pytest.mark.parametrize("ks, k_ref", [([], 8), ([0, 2], 8), ([2, -1], 8), ([2], 0)])
    def test_sample_counts_validated(self, trained, ks, k_ref):
        vae, params, data = trained
        with pytest.raises(ValueError, match="sample counts must be positive"):
            evaluate_vae(vae, params, data.test_features[:5], [0.0], ks, repeats=2, k_ref=k_ref)

    def test_nan_log_weights_are_rejected(self, trained):
        # an infinite encoder weight makes the latents of the points whose
        # first pixel is 0 NaN (0 * inf), and so their log weights
        vae, params, data = trained
        params = {name: value.copy() for name, value in params.items()}
        params["enc_w1"][0, 0] = math.inf
        x = data.test_features[:20]
        assert 0 < (x[:, 0] == 0.0).sum() < 20
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            evaluate_vae(vae, params, x, [0.0], [2], repeats=2, seed=0, k_ref=1500)

    # Segments of 16 draws and k_ref 70: the first point's first 20 draws of
    # every repeat are -inf, its later ones finite. A cell of at most 20
    # draws, inside the first segment or across two, has no finite log
    # weight for that point; at 21 it has one.
    @pytest.mark.parametrize("k, rejected", [(1, True), (16, True), (20, True), (21, False)])
    def test_a_cell_without_a_finite_log_weight_is_rejected(
        self, trained, monkeypatch, k, rejected
    ):
        vae, params, data = trained
        monkeypatch.setattr(training, "_SEGMENT", 16)
        sampler = VAEModel._sampler

        def minus_inf_sampler(self, params, x):
            fill, drawn = sampler(self, params, x), [0]

            def minus_inf_fill(rng, out):
                fill(rng, out)
                out[0, : max(0, 20 - drawn[0] % 70)] = -math.inf
                drawn[0] += out.shape[1]

            return minus_inf_fill

        monkeypatch.setattr(VAEModel, "_sampler", minus_inf_sampler)
        x = data.test_features[:12]
        if rejected:
            with pytest.raises(ValueError, match="at least one log weight must be finite"):
                evaluate_vae(vae, params, x, [0.0, 0.5], [k], repeats=2, k_ref=70)
        else:
            rows = evaluate_vae(vae, params, x, [0.0, 0.5], [k], repeats=2, k_ref=70)
            assert all(math.isfinite(row.mean_bound) for row in rows)

    def test_rows_do_not_depend_on_the_chunk_budget(self, trained, monkeypatch):
        vae, params, data = trained

        def table():
            rows = evaluate_vae(
                vae, params, data.test_features[:30], alphas=[-math.inf, 0.0, 0.5, 2.0],
                ks=[1, 7, 100], repeats=2, seed=4, k_ref=300,
            )
            return np.array([dataclasses.astuple(row) for row in rows]).tobytes()

        default = table()
        # Chunks of one draw, of 4 draws of 30 points and of 70.
        for budget in (1, 4 * 30 * 64 * 8, 70 * 30 * 64 * 8):
            monkeypatch.setattr(vae_module, "_CHUNK_BYTES", budget)
            assert table() == default, budget

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_rows_do_not_depend_on_the_worker_count(self, trained, monkeypatch, workers):
        vae, params, data = trained

        def table():
            rows = evaluate_vae(
                vae, params, data.test_features[:30], alphas=[-math.inf, 0.0, 0.5, 2.0],
                ks=[1, 7, 100], repeats=2, seed=4, k_ref=300,
            )
            return np.array([dataclasses.astuple(row) for row in rows]).tobytes()

        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 1)
        serial = table()
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        # chunks of 4 draws of 30 points, so that every worker takes some
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 4 * 30 * 64 * 8)
        assert table() == serial

    # Segments of 16 draws: k_block = 70 is four full segments and a short
    # one of 6; K = 20 spans a full segment and 4 draws of the next, and the
    # reference at 50 three full segments and 2 draws; K = 1 and 7 lie in the
    # first segment.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_are_the_estimates_of_the_log_weight_matrix(
        self, trained, monkeypatch, workers
    ):
        # every cell is the weighted power mean of its segments' estimates,
        # of the segments of each repeat's log_weight_matrix that lie in its
        # first K columns; a cell inside one segment is that segment's
        # estimate, the estimate of its first K columns
        vae, params, data = trained
        monkeypatch.setattr(training, "_SEGMENT", 16)
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        x = data.test_features[:12]
        alphas, ks, k_ref = [-math.inf, -1.0, 0.0, 0.5, 1.0, 3.0, math.inf], [1, 7, 20, 70], 50
        rows = evaluate_vae(vae, params, x, alphas, ks, repeats=3, seed=9, k_ref=k_ref)
        cells = {(a, k): [] for a in alphas for k in ks}
        cells[(0.0, k_ref)] = []
        for r in range(3):
            rng = np.random.default_rng([9, training._STREAM_EVAL, r])
            lw = vae.log_weight_matrix(params, x, rng, 70)
            for a, k in cells:
                if k <= 16:
                    cells[(a, k)].append(mc_vr_estimate(lw[:, :k], a, axis=1))
                    continue
                segments = np.stack(
                    [
                        mc_vr_estimate(lw[:, s : min(s + 16, k)], a, axis=1)
                        for s in range(0, k, 16)
                    ],
                    axis=1,
                )
                counts = training._segment_counts(k, 16)
                cells[(a, k)].append(training._estimate(segments, a, counts))
        refs = np.array(cells[(0.0, k_ref)])
        for row in rows:
            cell = np.array(cells[(row.alpha, row.k)])
            assert row.mean_bound == float(cell.mean(axis=0).mean())
            assert row.mean_gap == float((cell - refs).mean(axis=0).mean())

    # Segments of 16 draws: k_ref 70 is five segments a repeat, over three
    # repeats; chunks of 4 draws of 12 points, four a segment, so that more
    # than one worker can take some.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_set_up_is_made_once_per_call(self, trained, monkeypatch, workers):
        # the encoding once, and a worker's workspace kept across segments
        # and repeats
        vae, params, data = trained
        monkeypatch.setattr(training, "_SEGMENT", 16)
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: workers)
        monkeypatch.setattr(vae_module, "_CHUNK_BYTES", 4 * 12 * 64 * 8)
        calls = {"_encode": 0, "_workspace": 0}

        def counted(name):
            method = getattr(VAEModel, name)

            def counting(self, *args):
                calls[name] += 1
                return method(self, *args)

            return counting

        for name in calls:
            monkeypatch.setattr(VAEModel, name, counted(name))
        x = data.test_features[:12]
        evaluate_vae(vae, params, x, [0.0, 0.5], [1, 20], repeats=3, seed=9, k_ref=70)
        assert calls["_encode"] == 1
        assert 1 <= calls["_workspace"] <= workers

    def test_memory_does_not_grow_with_k(self, monkeypatch):
        # The peak of two workers evaluating 20 points grows by 19 KB from
        # k_ref 5000 to 40000; an (n, k) matrix of log weights would grow it
        # by n * dk * 8 = 5.6 MB. What grows is two per-segment arrays of
        # n * dk / _SEGMENT * 8 bytes: each point's estimate at the one order
        # at k_block, and its largest log weight. The margin, 256 KiB, covers
        # the peak's spread from the workers' timing: repeated calls at one
        # k_ref read up to 80 KB apart.
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 2)
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=16)
        x = (np.random.default_rng(0).random((20, 8)) > 0.5).astype(float)
        params = vae.init_params(seed=0)
        # a first call makes what lives on after it outside the peaks
        evaluate_vae(vae, params, x, [0.0, 0.5], [1, 10], repeats=2, seed=0, k_ref=5000)
        peaks = []
        for k_ref in (5000, 40000):
            tracemalloc.start()
            try:
                evaluate_vae(vae, params, x, [0.0, 0.5], [1, 10], repeats=2, seed=0, k_ref=k_ref)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 * 20 * 35000 / training._SEGMENT * 8 + 256 * 1024

    def test_memory_does_not_grow_with_the_shown_k(self, monkeypatch):
        # At k_ref 5000, showing K = 4999 rather than 10 adds two cells'
        # (n, ceil(K / _SEGMENT)) segment estimates and the largest log
        # weight of each segment of K's draws: 2.4 KB for 20 points (1.6-2.0
        # KB measured). A prefix buffer of the shorter cells' draws would add
        # n * K * 8 = 800 KB (797-800 KB measured). The margin, 256 KiB, is
        # test_memory_does_not_grow_with_k's.
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 2)
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=16)
        x = (np.random.default_rng(0).random((20, 8)) > 0.5).astype(float)
        params = vae.init_params(seed=0)
        evaluate_vae(vae, params, x, [0.0, 0.5], [1, 10], repeats=2, seed=0, k_ref=5000)
        peaks = []
        for ks in ([1, 10], [1, 4999]):
            tracemalloc.start()
            try:
                evaluate_vae(vae, params, x, [0.0, 0.5], ks, repeats=2, seed=0, k_ref=5000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * 20 * math.ceil(4999 / training._SEGMENT) * 8 + 256 * 1024

    def test_memory_does_not_grow_with_the_latent_width(self, monkeypatch):
        # 2000 draws of 20 points at latent width 50 are 16 MB of noise, and
        # the (20, 2000) log weights 0.3 MB. Each of two workers holds one
        # chunk's arrays: two of the noise's width (the noise and the
        # latents, which the prior and log q square in place, at most
        # _CHUNK_BYTES each) and narrower ones. The call peaked at 6.8 MiB,
        # and at 6.9 MiB with the (n, k) log weights of a repeat in memory
        # (8.1 MiB on a slower host; 7.3-9.4 MiB with a third array for the
        # squares).
        monkeypatch.setattr(vae_module, "_usable_cores", lambda: 2)
        vae = VAEModel(data_dim=8, latent_dim=50, hidden=16)
        x = (np.random.default_rng(0).random((20, 8)) > 0.5).astype(float)
        params = vae.init_params(seed=0)
        tracemalloc.start()
        try:
            evaluate_vae(vae, params, x, [0.0, 0.5], [1, 10], repeats=2, seed=0, k_ref=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 5 * 1024 * 1024 + 20 * 2000 * 8


# A fresh interpreter evaluates 100 points at k_ref 5000 with 2 repeats, as
# `vr eval` does per pair of repeats, or with `vr eval`'s 10, and prints the
# minor page faults the call took. Evaluated in (draw, point) blocks of 5 MB
# arrays, it took about 400k: every block handed its memory back to the
# system and faulted it in again. Chunks of draws whose arrays take at most 1, 1.5, 2 and 4 MiB took
# 3.0-3.2k, 3.8k, 4.6k and 7.3k.
_FAULT_PROBE = """
import math, resource
from vrbound.models.data import synthetic_binary_images
from vrbound.models.vae import VAEModel
from vrbound.training import evaluate_vae

model = VAEModel(data_dim=64)
params = model.init_params(0)
x = synthetic_binary_images(seed=0).test_features[:100]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate_vae(
    model, params, x, [-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf], [1, 5, 50, 500],
    repeats={repeats}, seed=0, k_ref=5000,
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# glibc settings under which the probe runs, the repeats and the most faults
# allowed. Each setting but the defaults makes freed memory go back to the
# system sooner, so that an evaluation which frees and remakes its arrays
# faults them in again. At 2 repeats, with one workspace per worker and call,
# the probe took 4.0k, 8.2k, 8.2-10.9k and 3.9k faults, where chunks that made
# their own arrays took 3.5k, 169k, 168-176k and 37-40k; with the workspaces
# kept across repeats and no (n, k) matrix of log weights, 1.4-1.5k under
# each. At 10 repeats under MALLOC_TRIM_THRESHOLD_=0 it took 38.8-40.7k with
# a matrix per repeat, and 2.0k without.
_ALLOCATOR_CASES = [
    ({}, 2, 50_000),
    ({"MALLOC_TRIM_THRESHOLD_": "0"}, 2, 50_000),
    ({"MALLOC_MMAP_THRESHOLD_": "65536"}, 2, 50_000),
    ({"MALLOC_ARENA_MAX": "1"}, 2, 50_000),
    ({"MALLOC_TRIM_THRESHOLD_": "0"}, 10, 10_000),
]


def _faults(probe: str, setting: dict) -> int:
    """The minor faults that ``probe`` prints, run in a fresh interpreter on
    this checkout's source, with ``setting`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env | setting, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, (setting, done.stderr)
    return int(done.stdout.strip())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_evaluation_does_not_churn_page_faults():
    for setting, repeats, most in _ALLOCATOR_CASES:
        assert _faults(_FAULT_PROBE.format(repeats=repeats), setting) < most, (setting, repeats)


# A fresh interpreter runs 200 BNN steps (K = 50, hidden 50, minibatch 32)
# under glibc's defaults and prints the minor page faults they took. `train`
# frees a step's log weights and VJP only once the next step's exist, and the
# probe took 1,965-1,966 faults in 6 runs; the count moves with the heap the
# interpreter starts with, and read 1.0k-3.0k when the same steps were run
# from a script file. Freed before the next step built, the pair's memory
# went back to the system and was faulted in again: 61,729-61,731 in 6 runs.
# The bound is 5 times the first count, and a sixth of the churning one.
_TRAIN_FAULT_PROBE = """
import resource
from vrbound.models.bnn import BNNModel
from vrbound.models.data import synthetic_regression
from vrbound.training import TrainConfig, train

data, _ = synthetic_regression(seed=0, n=900).standardized()
cfg = TrainConfig(alpha=0.5, k=50, minibatch=32, steps=200, learning_rate=1e-3, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(BNNModel(in_dim=1, hidden=50), cfg, data)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_training_does_not_churn_page_faults():
    assert _faults(_TRAIN_FAULT_PROBE, {}) < 10_000


def test_value_paths_build_no_tape_node(monkeypatch):
    # held-out log weights, the energy log weights and the BNN test metrics
    # run the forward passes alone: no VJP runs (every model's VJP runs
    # ``GaussianReparam.vjp``)
    from vrbound.cli import _bnn_test_metrics
    from vrbound.gradients import GaussianReparam

    ran = []
    reparam_vjp = GaussianReparam.vjp

    def counted(self, *args):
        ran.append(None)
        return reparam_vjp(self, *args)

    monkeypatch.setattr(GaussianReparam, "vjp", counted)
    rng = np.random.default_rng(17)
    x = (rng.random((5, 8)) > 0.5).astype(float)
    for likelihood in ("bernoulli", "gaussian"):
        vae = VAEModel(data_dim=8, latent_dim=2, hidden=4, likelihood=likelihood)
        vae.log_weight_matrix(vae.init_params(seed=0), x, rng, 7)
    blr = synthetic_blr_instance(seed=0, n_data=10)
    log_w, vjp = training.posterior_log_weights(
        blr, blr.init_params(0), blr.design[:4], blr.targets[:4], rng.standard_normal((3, 2)), 2.5
    )
    data = synthetic_regression(seed=0, n=40)
    std_data, stats = data.standardized()
    bnn = BNNModel(in_dim=1, hidden=4)
    params = bnn.init_params(seed=0)
    training.posterior_log_weights(
        bnn, params, std_data.train_features[:8], std_data.train_targets[:8],
        rng.standard_normal((3, bnn.n_weights)), 5.0,
    )
    _bnn_test_metrics(bnn, params, data, stats, seed=0, samples=5)
    assert ran == []
    vjp(np.ones(log_w.shape))  # the counter does see a VJP
    assert len(ran) == 1


@pytest.mark.parametrize("kind", ["blr", "bnn", "vae"])
def test_a_training_step_runs_the_builder_and_its_vjp_once(monkeypatch, kind):
    # each step: one forward pass, one call of its VJP, and within it one of
    # the VJP that every model chains into
    from vrbound.gradients import GaussianReparam

    calls = []
    reparam_vjp = GaussianReparam.vjp

    def counted_reparam(self, *args):
        calls.append("reparam")
        return reparam_vjp(self, *args)

    def counted(build):
        def counted_build(*args):
            calls.append("build")
            log_w, vjp = build(*args)

            def counted_vjp(g):
                calls.append("vjp")
                return vjp(g)

            return log_w, counted_vjp

        return counted_build

    monkeypatch.setattr(GaussianReparam, "vjp", counted_reparam)
    cfg = TrainConfig(alpha=0.5, k=3, minibatch=8, steps=4, learning_rate=0.01, seed=1)
    if kind == "vae":
        # train builds the blocks and rows once per run and calls the
        # builder that takes them
        monkeypatch.setattr(VAEModel, "_log_weight_rows", counted(VAEModel._log_weight_rows))
        data = synthetic_binary_images(seed=0, n=220, side=4)
        train(VAEModel(data_dim=16, latent_dim=2, hidden=4), cfg, data)
    else:
        monkeypatch.setattr(
            training, "posterior_log_weights", counted(training.posterior_log_weights)
        )
        if kind == "blr":
            train(synthetic_blr_instance(seed=1, n_data=10), cfg)
        else:
            data, _ = synthetic_regression(seed=2, n=30).standardized()
            train(BNNModel(in_dim=1, hidden=4), cfg, data)
    assert calls == ["build", "vjp", "reparam"] * 4


def test_a_vae_step_makes_nothing_for_one_use(monkeypatch):
    # Each layer's block [W; b] is a view of the trainer's flat vector, made
    # once per run, as the training rows' column of ones is: a step tiles no
    # bias, makes no bernoulli_layer of the output layer and moves no axis.
    calls = {"tile": 0, "moveaxis": 0, "bernoulli_layer": 0}

    def count(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np, "tile")
    count(np, "moveaxis")
    count(ad, "bernoulli_layer")
    seen = []
    forward = VAEModel._forward

    def keeping(self, layers, *args):
        seen.append(layers)
        return forward(self, layers, *args)

    monkeypatch.setattr(VAEModel, "_forward", keeping)
    data = synthetic_binary_images(seed=0, n=220, side=4)
    cfg = TrainConfig(k=3, minibatch=8, steps=4, learning_rate=0.01, seed=1)
    params, _ = train(VAEModel(data_dim=16, latent_dim=2, hidden=4), cfg, data)
    assert calls == {"tile": 0, "moveaxis": 0, "bernoulli_layer": 0}
    assert len(seen) == 4 and all(layers is seen[0] for layers in seen)
    flat = params["enc_w1"].base
    assert flat.size == sum(value.size for value in params.values())
    for name, block in seen[0].items():
        assert np.shares_memory(block, flat), name


def test_vae_training_rejects_rows_of_another_width():
    # rows one column wider than the model's data, whose last feature would
    # otherwise be taken as the column of ones of the encoder's bias
    data = synthetic_binary_images(seed=0, n=220, side=4)
    cfg = TrainConfig(k=3, minibatch=8, steps=2, learning_rate=0.01, seed=1)
    with pytest.raises(ValueError, match="must have 15 columns"):
        train(VAEModel(data_dim=15, latent_dim=2, hidden=4), cfg, data)


class TestWeightDiagnostics:
    """R = w_max / (1 - w_max) of the normalized weights, which `train`
    records per step as log R, one weight set per column of the K draws."""

    def test_record_overflows_r_only_past_the_float_range(self):
        # R = e^705 is about 1.5e306, a finite float; e^710 is not
        record = training.RunRecord(seed=0, alpha=0.5)
        for step, log_r in enumerate((705.0, 710.0, math.inf)):
            record.append(step, 0.0, 0.0, log_r, 0.0)
        ratios = [row["weight_ratio"] for row in record.as_records()]
        assert ratios == [math.exp(705.0), math.inf, math.inf]

    def test_equal_weights(self):
        _, r = log_weight_ratio(np.zeros((4, 3)), axis=0)
        np.testing.assert_allclose(r, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_nine_to_one(self):
        _, r = log_weight_ratio(np.log(np.array([[9.0, 1.0], [1.0, 9.0]])), axis=0)
        np.testing.assert_allclose(r, [9.0, 9.0], atol=1e-10)

    def test_dominant_weight_reported_in_log_domain(self):
        log_r, _ = log_weight_ratio(np.array([[100.0], [0.0], [0.0]]), axis=0)
        assert np.all(np.isfinite(log_r))
        assert log_r[0] == pytest.approx(100.0 - math.log(2.0), abs=1e-9)

    def test_ratio_crosses_one_at_half(self):
        rng = np.random.default_rng(3)
        log_w = rng.standard_normal((50, 6)) * 2.0
        _, r = log_weight_ratio(log_w, axis=1)
        w_max = np.max(normalize_weights(log_w, 0.0, axis=1), axis=1)
        np.testing.assert_array_equal(r >= 1.0, w_max >= 0.5)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0, -math.inf, math.inf])
    @pytest.mark.parametrize("family", ["vae", "bnn"])
    def test_record_equals_per_step_reductions(self, monkeypatch, family, alpha):
        # The record's estimate and log R are reduced once per epoch, over
        # every step's weight sets; each step's values must have the bits of
        # calls on its own sets. 100 VAE rows are 4 batches of up to 32, and
        # 68 BNN rows 3, so each epoch ends with a short batch and 22 steps
        # end mid-epoch.
        from vrbound.bounds import _estimate
        from vrbound.gradients import _log_ratio

        step_sets = []
        vr_grad = training.vr_grad

        def keeping(log_w, *args, **kwargs):
            step_sets.append(np.moveaxis(log_w, 0, -1).copy())
            return vr_grad(log_w, *args, **kwargs)

        monkeypatch.setattr(training, "vr_grad", keeping)
        cfg = TrainConfig(alpha=alpha, k=5, minibatch=32, steps=22, learning_rate=0.01, seed=2)
        if family == "vae":
            data = synthetic_binary_images(seed=0, n=300, side=4)
            _, record = train(VAEModel(data_dim=16, latent_dim=2, hidden=4), cfg, data)
        else:
            data, _ = synthetic_regression(seed=2, n=90).standardized()
            _, record = train(BNNModel(in_dim=1, hidden=4), cfg, data)
        assert len(step_sets) == 22
        assert record.objective == [float(np.mean(_estimate(s, alpha))) for s in step_sets]
        assert record.log_weight_ratio == [float(np.mean(_log_ratio(s))) for s in step_sets]
