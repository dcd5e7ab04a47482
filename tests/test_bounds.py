"""Monte Carlo bound estimator, exact linear-regression bound, bias table."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from vrbound import (
    GaussianDist,
    VAEModel,
    bias_simulation,
    blr_exact_posterior,
    evaluate_vae,
    exact_vr_bound_blr,
    mc_vr_estimate,
    renyi_gaussian,
    synthetic_binary_images,
    synthetic_blr_instance,
    validate_log_weights,
)
from vrbound import autodiff as ad
from vrbound import bounds

ALL_BRANCH_ALPHAS = (-math.inf, -2.0, 0.0, 0.5, 1.0, 2.0, math.inf)


class TestMcEstimate:
    def test_single_sample_is_alpha_independent(self):
        for c in (-3.2, 0.0, 1.7):
            for alpha in ALL_BRANCH_ALPHAS:
                assert mc_vr_estimate([c], alpha) == pytest.approx(c, abs=0.0)

    def test_equal_weights_collapse(self):
        for alpha in ALL_BRANCH_ALPHAS:
            assert mc_vr_estimate([0.0, 0.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-14)

    def test_two_weights_alpha_zero(self):
        # (1 + 3) / 2 inside the log.
        value = mc_vr_estimate([math.log(1.0), math.log(3.0)], 0.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_weights_max_branch(self):
        assert mc_vr_estimate([math.log(1.0), math.log(3.0)], -math.inf) == pytest.approx(
            math.log(3.0), abs=0.0
        )

    def test_min_branch(self):
        assert mc_vr_estimate([0.5, -1.5, 2.0], math.inf) == -1.5

    def test_alpha_one_is_mean(self):
        rng = np.random.default_rng(3)
        log_w = rng.standard_normal(17)
        assert mc_vr_estimate(log_w, 1.0) == pytest.approx(float(np.mean(log_w)), abs=1e-14)

    def test_row_blocks_bound_the_memory(self):
        # A finite order is reduced over blocks of rows; on the whole array at
        # once it peaked at about 6 times the input. Every row is still the
        # vector call's value, bit for bit.
        log_w = np.random.default_rng(8).standard_normal((200, 5000))
        mc_vr_estimate(log_w[:2], 0.5, axis=1)
        tracemalloc.start()
        try:
            est = mc_vr_estimate(log_w, 0.5, axis=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < log_w.nbytes / 2
        assert all(est[r] == mc_vr_estimate(log_w[r], 0.5) for r in range(0, 200, 7))

    def test_continuous_through_one(self):
        # the estimate's slope in alpha at 1 is -var(log w) / 2: next to 1 it
        # stays within var(log w) |alpha - 1| of the mean, on both sides, for
        # sets in either branch (spread times |1 - alpha| above and below 1)
        rng = np.random.default_rng(4)
        gaps = np.geomspace(1e-12, 1e-3, 19)
        for scale in (0.1, 3.0, 300.0):
            log_w = scale * rng.standard_normal(50)
            mean, var = float(np.mean(log_w)), float(np.var(log_w))
            for alpha in np.concatenate([1.0 - gaps, 1.0 + gaps]):
                gap = abs(mc_vr_estimate(log_w, alpha) - mean)
                assert gap <= var * abs(alpha - 1.0), (scale, alpha, gap)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            log_w = rng.standard_normal(rng.integers(2, 12))
            values = [mc_vr_estimate(log_w, a) for a in ALL_BRANCH_ALPHAS]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-10), f"not non-increasing: {values}"

    def test_shift_equivariance(self):
        rng = np.random.default_rng(8)
        log_w = rng.standard_normal(6)
        for alpha in ALL_BRANCH_ALPHAS:
            base = mc_vr_estimate(log_w, alpha)
            for c in (-10.0, 0.3, 25.0):
                shifted = mc_vr_estimate(log_w + c, alpha)
                assert shifted == pytest.approx(base + c, abs=1e-9)

    def test_neg_inf_entries_excluded_below_one(self):
        log_w = np.array([0.0, -math.inf, 1.0])
        finite = np.array([0.0, 1.0])
        # The zero-density sample contributes zero weight but still counts in K.
        for alpha in (-1.0, 0.0, 0.5):
            one_minus = 1.0 - alpha
            expected = (
                math.log(np.sum(np.exp(one_minus * finite)) / 3.0) / one_minus
            )
            assert mc_vr_estimate(log_w, alpha) == pytest.approx(expected, abs=1e-12)
        assert mc_vr_estimate(log_w, -math.inf) == 1.0

    def test_neg_inf_entries_dominate_above_one(self):
        log_w = np.array([0.0, -math.inf, 1.0])
        assert mc_vr_estimate(log_w, 2.0) == -math.inf
        assert mc_vr_estimate(log_w, math.inf) == -math.inf

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            mc_vr_estimate([], 0.5)
        with pytest.raises(ValueError, match="finite"):
            mc_vr_estimate([-math.inf, -math.inf], 0.5)
        with pytest.raises(ValueError, match="NaN"):
            mc_vr_estimate([0.0, math.nan], 0.5)
        with pytest.raises(ValueError, match=r"\+inf"):
            validate_log_weights([0.0, math.inf])


class TestExactBlrBound:
    def test_posterior_as_q_gives_evidence(self):
        model = synthetic_blr_instance(seed=1)
        posterior, log_evidence = blr_exact_posterior(model)
        for alpha in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
            assert exact_vr_bound_blr(model, posterior, alpha) == pytest.approx(
                log_evidence, abs=1e-9
            )

    def test_alpha_zero_gives_evidence_for_any_q(self):
        model = synthetic_blr_instance(seed=2)
        _, log_evidence = blr_exact_posterior(model)
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = GaussianDist.diagonal(rng.normal(size=2), rng.uniform(0.05, 3.0, size=2))
            assert exact_vr_bound_blr(model, q, 0.0) == pytest.approx(log_evidence, abs=1e-10)

    def test_monotone_non_increasing_in_alpha(self):
        # A near-isotropic posterior admits diagonal q's that keep the bound
        # finite across the whole alpha range being swept.
        rng = np.random.default_rng(1)
        design = rng.standard_normal((30, 2))
        targets = design @ np.array([0.8, -0.4]) + 1.5 * rng.standard_normal(30)
        from vrbound import BLRModel

        model = BLRModel(design, targets, 1.5)
        posterior, _ = blr_exact_posterior(model)
        eigs = np.linalg.eigvalsh(posterior.cov)
        # Variances inside the window keeping the bound finite on [-2, 2].
        lo, hi = 0.75 * eigs.max(), 1.9 * eigs.min()
        assert lo < hi, "instance must admit a finite window"
        for _ in range(10):
            q = GaussianDist.diagonal(
                posterior.mean + rng.normal(scale=0.2, size=2),
                rng.uniform(lo, hi, size=2),
            )
            values = [exact_vr_bound_blr(model, q, a) for a in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)]
            assert all(math.isfinite(v) for v in values)
            assert np.all(np.diff(values) < 0.0), "expected strict decrease for q != posterior"

    def test_divergent_tail_keeps_upper_bound_sign(self):
        # A too-narrow q makes the mixture fail at alpha = -2: the bound's
        # defining expectation is +inf there, which preserves monotonicity.
        model = synthetic_blr_instance(seed=0)
        posterior, _ = blr_exact_posterior(model)
        q = GaussianDist.diagonal(posterior.mean, posterior.variances * 0.01)
        assert exact_vr_bound_blr(model, q, -2.0) == math.inf

    def test_elbo_matches_high_k_mc_estimate(self):
        model = synthetic_blr_instance(seed=4)
        posterior, log_evidence = blr_exact_posterior(model)
        q = GaussianDist.diagonal(posterior.mean + 0.1, posterior.variances * 1.2)
        exact = exact_vr_bound_blr(model, q, 1.0)
        rng = np.random.default_rng(99)
        theta = q.sample(rng, 40000)
        log_joint = ad.std_normal_logpdf_rows(theta) + model.log_lik_node(
            theta, {}, model.design, model.targets
        )[0]
        log_w = log_joint - q.logpdf(theta)
        se = float(np.std(log_w, ddof=1) / math.sqrt(log_w.shape[0]))
        assert abs(float(np.mean(log_w)) - exact) < 3.0 * se


@pytest.fixture(scope="module")
def table():
    p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
    q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
    return bias_simulation(
        p, q, alphas=[-1.0, 0.0, 0.5, 1.0, 2.0], ks=[1, 2, 4, 8, 16], repeats=200, seed=0
    )


class TestBiasSimulation:

    def test_exact_column_matches_closed_form(self, table):
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
        for row in table.rows:
            assert row.exact == pytest.approx(-renyi_gaussian(q, p, row.alpha), abs=1e-6)

    def test_k1_mean_is_alpha_independent(self, table):
        cells = [table.cell(a, 1) for a in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        base = table.cell(1.0, 1)
        for cell in cells:
            tol = 3.0 * math.sqrt(cell.stderr**2 + base.stderr**2)
            assert abs(cell.mean - base.mean) <= tol

    def test_k_monotonicity(self, table):
        for alpha in (-1.0, 0.0, 0.5, 1.0):
            means = [table.cell(alpha, k) for k in (1, 2, 4, 8, 16)]
            for lo, hi in zip(means, means[1:]):
                tol = 3.0 * math.sqrt(lo.stderr**2 + hi.stderr**2)
                assert hi.mean >= lo.mean - tol, f"alpha={alpha}"
        means = [table.cell(2.0, k) for k in (1, 2, 4, 8, 16)]
        for lo, hi in zip(means, means[1:]):
            tol = 3.0 * math.sqrt(lo.stderr**2 + hi.stderr**2)
            assert hi.mean <= lo.mean + tol

    def test_bias_shrinks_as_k_doubles(self, table):
        for alpha in (0.0, 0.5):
            gaps = [abs(table.cell(alpha, k).mean - table.cell(alpha, k).exact)
                    for k in (1, 2, 4, 8, 16)]
            ses = [table.cell(alpha, k).stderr for k in (1, 2, 4, 8, 16)]
            for (g_lo, g_hi), (s_lo, s_hi) in zip(
                zip(gaps, gaps[1:]), zip(ses, ses[1:])
            ):
                assert g_hi <= g_lo + 3.0 * math.sqrt(s_lo**2 + s_hi**2)

    def test_cells_are_the_per_repeat_estimates(self):
        # a cell scores its stacked (repeats, K, d) draws in one call per
        # density, with the bits of scoring each repeat's draws alone: at a
        # full-covariance q and at the README's diagonal pair
        pairs = [
            (
                GaussianDist.diagonal([0.0, 0.0], [1.0, 2.0]),
                GaussianDist.full([0.5, 0.0], [[1.0, 0.3], [0.3, 1.0]]),
            ),
            (
                GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0]),
                GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0]),
            ),
        ]
        for p, q in pairs:
            table = bias_simulation(p, q, [-1.0, 0.5], [1, 3, 50], repeats=4, seed=2)
            for ai, alpha in enumerate((-1.0, 0.5)):
                for ki, k in enumerate((1, 3, 50)):
                    estimates = []
                    for r in range(4):
                        theta = q.sample(np.random.default_rng([2, ai, ki, r]), k)
                        estimates.append(mc_vr_estimate(p.logpdf(theta) - q.logpdf(theta), alpha))
                    cell = table.cell(alpha, k)
                    assert cell.mean == float(np.mean(estimates))
                    assert cell.stderr == float(np.std(estimates, ddof=1) / 2.0)

    def test_estimates_near_the_float_range_keep_a_finite_mean(self):
        # every estimate is finite, about -1e307 at K = 5: their mean and
        # standard error at 50 digits, where a plain sum or square of them
        # overflows (pytest makes its RuntimeWarning an error)
        p, q = GaussianDist.diagonal([0.0], [1.0]), GaussianDist.diagonal([0.0], [1.7e308])
        table = bias_simulation(p, q, [0.5], [5, 50], repeats=20)
        for ki, k in enumerate((5, 50)):
            estimates = [
                mc_vr_estimate(p.logpdf(theta) - q.logpdf(theta), 0.5)
                for theta in (q.sample(np.random.default_rng([0, 0, ki, r]), k) for r in range(20))
            ]
            with mpmath.workdps(50):
                values = [mpmath.mpf(x) for x in estimates]
                mean = mpmath.fsum(values) / 20
                stderr = mpmath.sqrt(mpmath.fsum((x - mean) ** 2 for x in values) / 19 / 20)
            cell = table.cell(0.5, k)
            assert abs(cell.mean - mean) <= 1e-14 * abs(mean)
            assert abs(cell.stderr - stderr) <= 1e-12 * stderr

    # Budgets of one repeat per block, of 3 repeats of K = 50 in 2-D, of 2 in
    # 3-D, and the default.
    @pytest.mark.parametrize("budget", [1, 3 * 50 * 2 * 8, 2 * 50 * 3 * 8, None])
    def test_cells_keep_their_bits_at_any_block_budget(self, monkeypatch, budget):
        # repeats are scored in blocks under bounds._BLOCK_BYTES, each with
        # the bits of scoring it alone: the README's diagonal pair and a 3-D
        # full-covariance q
        if budget is not None:
            monkeypatch.setattr(bounds, "_BLOCK_BYTES", budget)
        pairs = [
            (
                GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0]),
                GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0]),
            ),
            (
                GaussianDist.diagonal([0.0, 0.0, 0.0], [1.0, 2.0, 0.5]),
                GaussianDist.full(
                    [0.3, -0.2, 0.1], [[1.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]]
                ),
            ),
        ]
        alphas, ks = [-1.0, 0.0, 0.5, 1.0, 2.0], [1, 5, 50]
        for p, q in pairs:
            table = bias_simulation(p, q, alphas, ks, repeats=7, seed=3)
            for ai, alpha in enumerate(alphas):
                for ki, k in enumerate(ks):
                    estimates = []
                    for r in range(7):
                        theta = q.sample(np.random.default_rng([3, ai, ki, r]), k)
                        estimates.append(mc_vr_estimate(p.logpdf(theta) - q.logpdf(theta), alpha))
                    cell = table.cell(alpha, k)
                    assert cell.mean == float(np.mean(estimates))
                    assert cell.stderr == float(np.std(estimates, ddof=1) / math.sqrt(7))

    def test_tables_do_not_depend_on_the_block_budget(self, monkeypatch):
        # Held-out evaluation and the bias simulation estimate their weight
        # sets in blocks under _BLOCK_BYTES, each set reduced on its own: at
        # 8 KiB a (40, 1024) segment is 40 blocks of one set, at 4 MiB one
        # block, and the bias table's 40 repeats of K = 500 in 2-D are 40
        # blocks or one.
        vae = VAEModel(data_dim=16, latent_dim=2, hidden=4)
        x = synthetic_binary_images(seed=1, n=260, side=4).train_features[:40]
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.full([0.3, -0.2], [[1.5, 0.3], [0.3, 0.8]])

        def tables():
            rows = evaluate_vae(
                vae, vae.init_params(seed=2), x, [-1.0, 0.0, 0.5, 2.0], [1, 5, 1100],
                repeats=2, seed=3, k_ref=1500,
            )
            table = bias_simulation(p, q, [-1.0, 0.0, 0.5, 1.0, 2.0], [1, 5, 50, 500], 40, 4)
            return (
                np.array([dataclasses.astuple(row) for row in rows]).tobytes(),
                np.array([(cell.mean, cell.stderr) for cell in table.rows]).tobytes(),
            )

        found = {}
        for budget in (8 * 1024, 64 * 1024, 256 * 1024, 4 * 1024 * 1024):
            monkeypatch.setattr(bounds, "_BLOCK_BYTES", budget)
            found[budget] = tables()
        assert len(set(found.values())) == 1

    def test_memory_holds_a_block_of_repeats(self):
        # 200 repeats of K = 2000 draws in 10-D are 32 MB of draws. Scored a
        # repeat at a time the cell peaked at 5.1 MiB, and stacked at once at
        # 125.9 MiB; in blocks under _BLOCK_BYTES, here one repeat each, it
        # peaks at 0.77 MiB (1.5 MiB as a process's first bias simulation).
        p = GaussianDist.diagonal(np.zeros(10), np.ones(10))
        q = GaussianDist.diagonal(np.full(10, 0.3), np.full(10, 1.5))
        tracemalloc.start()
        try:
            bias_simulation(p, q, [0.5], [2000], repeats=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 5.1 * 1024 * 1024

    def test_memory_holds_a_block_of_several_repeats(self):
        # One repeat of K = 200 draws in 10-D is 16 KB, so a block holds 16
        # at the default budget. Stacked at once the 200 repeats peaked at
        # 12.6 MiB; in blocks the cell peaks at 4.4 blocks (1.1 MiB): the
        # draws, and the log densities' temporaries of their size.
        assert bounds._BLOCK_BYTES // (8 * 200 * 10) >= 2
        p = GaussianDist.diagonal(np.zeros(10), np.ones(10))
        q = GaussianDist.diagonal(np.full(10, 0.3), np.full(10, 1.5))
        tracemalloc.start()
        try:
            bias_simulation(p, q, [0.5], [200], repeats=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * bounds._BLOCK_BYTES

    def test_seeded_determinism(self):
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([0.5], [1.0])
        t1 = bias_simulation(p, q, [0.0, 1.0], [1, 3], repeats=50, seed=11)
        t2 = bias_simulation(p, q, [0.0, 1.0], [1, 3], repeats=50, seed=11)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r1 == r2

    def test_input_validation(self):
        p = GaussianDist.standard(1)
        with pytest.raises(ValueError, match="finite"):
            bias_simulation(p, p, [math.inf], [1], repeats=10)
        with pytest.raises(ValueError, match="repeats"):
            bias_simulation(p, p, [0.0], [1], repeats=1)
        with pytest.raises(ValueError, match="positive"):
            bias_simulation(p, p, [0.0], [0], repeats=10)
