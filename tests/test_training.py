"""Adam, energy approximation, training loops, evaluation, diagnostics."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vrbound import (
    Adam,
    BLRModel,
    GaussianDist,
    TrainConfig,
    TrainingDiverged,
    VAEModel,
    blr_exact_posterior,
    energy_approx_objective,
    evaluate_vae,
    mc_vr_estimate,
    normalize_weights,
    synthetic_binary_images,
    synthetic_blr_instance,
    synthetic_regression,
    train,
)
from vrbound import training
from vrbound.gradients import log_weight_ratio
from vrbound.models import vae as vae_module
from vrbound.models.bnn import BNNModel

_LOG_2PI = math.log(2.0 * math.pi)


class TestAdam:
    def test_zero_gradient_leaves_parameters_fixed(self):
        adam = Adam(lr=0.1)
        params = {"w": np.array([1.0, -2.0])}
        before = params["w"].copy()
        for _ in range(5):
            adam.step(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], before)

    def test_single_step_matches_hand_update(self):
        adam = Adam(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        params = {"w": np.array([0.0])}
        g = np.array([2.0])
        adam.step(params, {"w": g})
        # bias-corrected first step moves by lr * g / (|g| + eps)
        expected = 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-12)

    def test_ascent_on_quadratic(self):
        adam = Adam(lr=0.05)
        params = {"w": np.array([3.0])}
        for _ in range(2000):
            adam.step(params, {"w": -2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-3


class TestEnergyApproximation:
    def test_full_batch_equals_full_data_estimate(self):
        model = synthetic_blr_instance(seed=0, n_data=12)
        q = GaussianDist.diagonal([0.1, -0.2], [0.3, 0.4])
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((6, 2))
        full_idx = np.arange(12)
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
            via_energy = energy_approx_objective(model, q, full_idx, 12, alpha, noise)
            theta = q.mean + np.sqrt(q.variances) * noise
            log_w = np.array(
                [model.log_joint(t) for t in theta]
            ) - q.logpdf(theta)
            assert via_energy == pytest.approx(mc_vr_estimate(log_w, alpha), abs=1e-10)

    def test_subset_average_identity_by_enumeration(self):
        # Averaging the rescaled subset log likelihood over all size-M
        # subsets reproduces the full-data log likelihood exactly.
        model = synthetic_blr_instance(seed=2, n_data=4)
        theta = np.array([0.3, -0.7])
        n, m = 4, 2
        total = model.log_lik(theta)
        subset_values = [
            (n / m) * model.log_lik(theta, np.array(subset))
            for subset in itertools.combinations(range(n), m)
        ]
        assert float(np.mean(subset_values)) == pytest.approx(total, abs=1e-12)

    def test_hand_expanded_two_point_instance(self):
        # N = 2, M = 1: log w_k = log p0 + 2 log p(x_1 | theta_k) - log q.
        design = np.array([[1.0], [2.0]])
        targets = np.array([0.5, -1.0])
        model = BLRModel(design, targets, 1.0)
        q = GaussianDist.diagonal([0.2], [0.5])
        noise = np.array([[0.3], [-1.1], [0.8]])
        alpha = 0.5
        got = energy_approx_objective(model, q, np.array([0]), 2, alpha, noise)

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

    def test_empty_batch_rejected(self):
        model = synthetic_blr_instance(seed=0)
        q = GaussianDist.standard(2)
        with pytest.raises(ValueError, match="non-empty"):
            energy_approx_objective(model, q, np.array([], dtype=int), 5, 0.5, np.zeros((2, 2)))


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
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_log_weight_stops_the_run(self, monkeypatch, bad, message):
        # vr_grad allows a -inf log weight; a training step does not
        batch_builder = training._batch_builder
        calls = []

        def spoiled(*args):
            draw_shape, build = batch_builder(*args)
            calls.append(None)
            offsets = np.zeros(3)
            offsets[1] = bad if len(calls) == 3 else 0.0
            return draw_shape, lambda nodes, noise: build(nodes, noise) + offsets

        monkeypatch.setattr(training, "_batch_builder", spoiled)
        cfg = TrainConfig(alpha=0.5, k=3, minibatch=5, steps=4, learning_rate=0.01, seed=2)
        with pytest.raises(TrainingDiverged, match=rf"^{message}$") as exc_info:
            train(synthetic_blr_instance(seed=1, n_data=10), cfg)
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

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k must"):
            TrainConfig(k=0)
        with pytest.raises(ValueError, match="eval_k"):
            TrainConfig(k=10, eval_k=5)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)


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

    def test_rows_do_not_depend_on_the_chunk_budget(self, trained, monkeypatch):
        vae, params, data = trained

        def table():
            rows = evaluate_vae(
                vae, params, data.test_features[:30], alphas=[-math.inf, 0.0, 0.5, 2.0],
                ks=[1, 7, 100], repeats=2, seed=4, k_ref=300,
            )
            return np.array([dataclasses.astuple(row) for row in rows]).tobytes()

        default = table()
        # One draw per block and chunk; blocks of 128 draws of 30 points in
        # chunks of 4; one block in chunks of 70.
        for budget in (1, 4 * 30 * 64 * 8, 70 * 30 * 64 * 8):
            monkeypatch.setattr(vae_module, "_BLOCK_BYTES", budget)
            monkeypatch.setattr(vae_module, "_CHUNK_BYTES", budget)
            assert table() == default, budget


# A fresh interpreter evaluates 100 points at k_ref 5000 with 2 repeats, as
# `vr eval` does per pair of repeats, and prints the minor page faults the
# call took. Evaluated in (draw, point) blocks of 5 MB arrays, it took about
# 400k: every block handed its memory back to the system and faulted it in
# again. Chunks of cache size take about 14k.
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
    repeats=2, seed=0, k_ref=5000,
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_evaluation_does_not_churn_page_faults():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.strip()) < 50_000


class TestWeightDiagnostics:
    """R = w_max / (1 - w_max) of the normalized weights, which `train`
    records per step as log R, one weight set per column of the K draws."""

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
