"""Closed-form Gaussian Renyi divergence against the quadrature ground truth,
and the Gaussian log density against 50-digit mpmath over the float range."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import gaussian_kl
from vrbound import GaussianDist, GridSpec, quadrature_oracle, renyi_gaussian
from vrbound.divergence import _generalized_eigh, quadrature_oracle_batch

SPEC_GRID_2D = GridSpec((-8.0, -8.0), (8.0, 8.0), 0.01)
SPEC_GRID_1D = GridSpec((-8.0,), (9.0,), 0.01)


def _seeded_pair(rng, dim):
    """Gaussian pair kept inside the finite-divergence window for |alpha| <= 5.

    Variance ratios near one and close means keep the mixture covariance SPD
    and the quadrature integrand inside an 8-sigma box across the whole
    alpha range the tests sweep.
    """
    mean_p = rng.uniform(-1.0, 1.0, size=dim)
    mean_q = mean_p + rng.uniform(-0.5, 0.5, size=dim)
    var_p = rng.uniform(0.5, 2.0, size=dim)
    var_q = var_p * rng.uniform(0.95, 1.05, size=dim)
    return (
        GaussianDist.diagonal(mean_p, var_p),
        GaussianDist.diagonal(mean_q, var_q),
    )


def _full_pair(rng, dim):
    """Gaussian pair with random means and full covariances A A'/dim + I."""
    a, b = rng.standard_normal((2, dim, dim))
    return (
        GaussianDist.full(rng.standard_normal(dim), a @ a.T / dim + np.eye(dim)),
        GaussianDist.full(rng.standard_normal(dim), b @ b.T / dim + np.eye(dim)),
    )


class TestClosedFormValues:
    def test_identical_distributions_are_zero(self):
        g = GaussianDist.diagonal([0.3, -0.2], [1.5, 0.7])
        assert renyi_gaussian(g, g, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_2d_shifted_unit_gaussians_half(self):
        # Frozen from the trapezoidal oracle on [-8, 8]^2, step 0.01.
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
        assert renyi_gaussian(p, q, 0.5) == pytest.approx(0.5, abs=1e-6)
        assert renyi_gaussian(p, q, 0.5) == pytest.approx(
            quadrature_oracle(p, q, 0.5, SPEC_GRID_2D), abs=1e-6
        )

    def test_2d_shifted_unit_gaussians_kl(self):
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
        assert renyi_gaussian(p, q, 1.0) == pytest.approx(1.0, abs=1e-6)
        assert renyi_gaussian(p, q, 1.0) == pytest.approx(
            quadrature_oracle(p, q, 1.0, SPEC_GRID_2D), abs=1e-6
        )

    def test_2d_shifted_unit_gaussians_order_two(self):
        p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.0])
        q = GaussianDist.diagonal([1.0, 1.0], [1.0, 1.0])
        assert renyi_gaussian(p, q, 2.0) == pytest.approx(2.0, abs=1e-6)
        assert renyi_gaussian(p, q, 2.0) == pytest.approx(
            quadrature_oracle(p, q, 2.0, SPEC_GRID_2D), abs=1e-6
        )

    def test_1d_unit_variance_closed_check(self):
        # For equal unit variances the value must equal alpha * |dmu|^2 / 2.
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([1.0], [1.0])
        assert renyi_gaussian(p, q, 0.5) == pytest.approx(0.25, abs=1e-12)
        assert quadrature_oracle(p, q, 0.5, SPEC_GRID_1D) == pytest.approx(0.25, abs=1e-8)

    def test_pos_inf_unbounded_ratio(self):
        # Equal variances, shifted means: the density ratio is unbounded.
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([1.0], [1.0])
        assert renyi_gaussian(p, q, math.inf) == math.inf

    def test_pos_inf_bounded_ratio(self):
        # q twice as wide: sup p/q is attained at the shared mean.
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([0.0], [4.0])
        assert renyi_gaussian(p, q, math.inf) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_neg_inf_is_reversed_pos_inf(self):
        p = GaussianDist.diagonal([0.2], [1.0])
        q = GaussianDist.diagonal([0.0], [4.0])
        assert renyi_gaussian(q, p, -math.inf) == pytest.approx(
            -renyi_gaussian(p, q, math.inf), abs=1e-12
        )

    def test_alpha_zero_full_support(self):
        # q has full support, so the order-0 divergence is exactly 0 (never
        # the rounding noise of the closed form, which can be negative)
        rng = np.random.default_rng(0)
        for i in range(2000):
            dim = 1 + i % 3
            a = rng.standard_normal((dim, dim))
            p = GaussianDist.diagonal(rng.normal(size=dim), rng.uniform(0.1, 10.0, size=dim))
            q = GaussianDist.full(rng.normal(size=dim), a @ a.T + 0.1 * np.eye(dim))
            assert renyi_gaussian(p, q, 0.0) == 0.0

    @pytest.mark.parametrize(
        "p, q",
        [
            # the general closed form rounds to -8.3e-17 on the first pair and gives
            # NaN on the second
            (
                GaussianDist.diagonal([0.0, 0.0], [1.0, 1.5]),
                GaussianDist.full([0.5, -0.3], [[1.0, 0.3], [0.3, 1.2]]),
            ),
            (GaussianDist.diagonal([1e300], [5e-324]), GaussianDist.diagonal([-1.7e308], [5e-324])),
        ],
        ids=["rounds-negative", "extreme-magnitudes"],
    )
    def test_alpha_zero_is_exactly_zero(self, p, q):
        assert renyi_gaussian(p, q, 0.0) == 0.0

    def test_extreme_magnitudes_are_warning_free(self):
        # z = V'(mu_p - mu_q) overflows: the divergence is infinite, with the
        # sign of alpha, and no overflow warning reaches the caller
        p = GaussianDist.diagonal([1e300], [5e-324])
        q = GaussianDist.diagonal([-1.7e308], [5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                renyi_gaussian(p, q, alpha) for alpha in (-1.0, 0.5, 1.0, 2.0, math.inf, -math.inf)
            ]
        assert values == [-math.inf, math.inf, math.inf, math.inf, math.inf, -math.inf]

    @pytest.mark.parametrize(
        "var_p, var_q, expected, messages",
        [
            (
                1.0,
                5e-324,
                [math.nan, math.nan, math.nan, math.inf],
                ["invalid value encountered in matmul", "invalid value encountered in subtract"]
                * 2
                + ["invalid value encountered in multiply", "invalid value encountered in subtract"],
            ),
            (1e-300, 1e300, [math.inf] * 4, ["divide by zero encountered in log"] * 3),
        ],
        ids=["ratio-overflows", "ratio-underflows"],
    )
    def test_ratios_beyond_the_float_range_keep_their_values(self, var_p, var_q, expected, messages):
        # The float-range defect that ROADMAP.md records: the variance ratio
        # lam (2e323 or 1e-600) is inf or 0, and the closed form gives these
        # values and warnings (at orders -1, 0.5, 1 and 2). The reduction of
        # the generalized eigenproblem adds no warning of its own; a fix of
        # the defect replaces the values with the finite true ones.
        p = GaussianDist.diagonal([0.0], [var_p])
        q = GaussianDist.diagonal([0.0], [var_q])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = [renyi_gaussian(p, q, alpha) for alpha in (-1.0, 0.5, 1.0, 2.0)]
        np.testing.assert_array_equal(values, expected)
        assert [str(w.message) for w in caught] == messages

    @pytest.mark.parametrize(
        "var_p, var_q, at_pos_inf, at_neg_inf",
        [
            (1.0, 5e-324, math.inf, -372.2200359606906),
            (1e-300, 1e300, 690.7755278982137, -math.inf),
        ],
        ids=["ratio-overflows", "ratio-underflows"],
    )
    def test_infinite_orders_beyond_the_float_range_are_true(
        self, var_p, var_q, at_pos_inf, at_neg_inf
    ):
        # the pairs above, whose lam leaves the float range: +inf where the
        # density ratio is unbounded, else half the log-determinant ratio
        p = GaussianDist.diagonal([0.0], [var_p])
        q = GaussianDist.diagonal([0.0], [var_q])
        assert renyi_gaussian(p, q, math.inf) == pytest.approx(at_pos_inf, rel=1e-15)
        assert renyi_gaussian(p, q, -math.inf) == pytest.approx(at_neg_inf, rel=1e-15)

    def test_divergent_mixture_reports_inf(self):
        # alpha = -2 with a wider q: the mixture covariance loses positivity.
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([0.0], [2.0])
        assert renyi_gaussian(p, q, -2.0) == math.inf

    def test_continuous_through_one(self):
        # |D_alpha - KL| <= C |alpha - 1| on both sides of 1, down to 1e-12,
        # with C twice the chord slope at |alpha - 1| = 1e-3: no band around
        # 1 and no rounding noise divided by |alpha - 1|.
        rng = np.random.default_rng(0)
        gaps = np.geomspace(1e-12, 1e-3, 19)
        for dim in (1, 2, 3):
            for _ in range(10):
                p, q = _full_pair(rng, dim)
                kl = gaussian_kl(p, q)
                slope = max(abs(renyi_gaussian(p, q, 1.0 + s) - kl) / 1e-3 for s in (-1e-3, 1e-3))
                for alpha in np.concatenate([1.0 - gaps, 1.0 + gaps]):
                    gap = abs(renyi_gaussian(p, q, alpha) - kl)
                    assert gap <= 2.0 * slope * abs(alpha - 1.0), (dim, alpha, gap, slope)

    def test_full_covariance_matches_diagonal(self):
        p_diag = GaussianDist.diagonal([0.1, -0.3], [1.2, 0.8])
        q_diag = GaussianDist.diagonal([0.0, 0.2], [1.0, 1.1])
        p_full = GaussianDist.full(p_diag.mean, np.diag(p_diag.variances))
        q_full = GaussianDist.full(q_diag.mean, np.diag(q_diag.variances))
        for alpha in (-1.0, 0.3, 0.5, 1.0, 2.0):
            assert renyi_gaussian(p_full, q_full, alpha) == pytest.approx(
                renyi_gaussian(p_diag, q_diag, alpha), abs=1e-12
            )


# Deterministic examples, and no example database written to disk.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def spd_pairs(draw):
    """Two symmetric positive definite matrices of one dimension in 1-3,
    each with a condition number up to 1e8 and a scale within 1e+-4."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        log_cond, log_scale = draw(st.floats(0.0, 8.0)), draw(st.floats(-4.0, 4.0))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        spread = rng.uniform(size=dim)
        spread[0], spread[-1] = 0.0, 1.0
        m = (basis * 10.0 ** (log_scale + log_cond * spread)) @ basis.T
        pair.append(0.5 * (m + m.T))
    return tuple(pair)


class TestGeneralizedEigh:
    @PROPERTY
    @given(spd_pairs())
    def test_eigenvalues_match_scipy(self, pair):
        a, b = pair
        lam = _generalized_eigh(a, b)[0]
        expected = scipy.linalg.eigh(a, b, eigvals_only=True)
        # to 1e-10 of the largest: an eigenvalue far below it is known only to
        # about eps cond(b) of itself, by this reduction and by scipy's alike
        np.testing.assert_allclose(lam, expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected)))

    @PROPERTY
    @given(spd_pairs())
    def test_eigenvectors_solve_the_problem(self, pair):
        a, b = pair
        lam, vec = _generalized_eigh(a, b)
        eps = np.finfo(float).eps
        # V' b V = I holds to about eps cond(b), as it does for scipy's eigh
        np.testing.assert_allclose(
            vec.T @ b @ vec, np.eye(len(lam)), rtol=0.0, atol=16.0 * eps * np.linalg.cond(b)
        )
        # a small backward error: a V = b V diag(lam) relative to the terms' size
        size = (np.max(np.abs(a)) + np.max(np.abs(b)) * np.max(np.abs(lam))) * np.max(np.abs(vec))
        np.testing.assert_allclose(a @ vec, b @ vec * lam, rtol=0.0, atol=64.0 * eps * size)


class TestProperties:
    def test_skew_symmetry(self):
        rng = np.random.default_rng(42)
        alphas = [-2.0, -0.5, 0.3, 0.5, 0.7, 2.0, 3.0]
        for dim in (1, 2):
            for _ in range(10):
                p, q = _seeded_pair(rng, dim)
                for alpha in alphas:
                    left = renyi_gaussian(p, q, alpha)
                    right = renyi_gaussian(q, p, 1.0 - alpha)
                    if math.isinf(left) or math.isinf(right):
                        continue
                    assert left == pytest.approx(
                        (alpha / (1.0 - alpha)) * right, abs=1e-6
                    ), f"skew symmetry failed at alpha={alpha}"

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-5.0, 5.0, 41)
        for dim in (1, 2):
            for _ in range(10):
                p, q = _seeded_pair(rng, dim)
                values = [renyi_gaussian(p, q, a) for a in grid]
                finite = [v for v in values if math.isfinite(v)]
                assert len(finite) == len(values), "pair recipe should stay finite"
                diffs = np.diff(finite)
                assert np.all(diffs >= -1e-9), f"monotonicity violated: {min(diffs)}"

    def test_sign_by_alpha(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2):
            for _ in range(10):
                p, q = _seeded_pair(rng, dim)
                for alpha in (0.3, 0.5, 2.0, 5.0):
                    assert renyi_gaussian(p, q, alpha) >= -1e-12
                for alpha in (-0.5, -2.0, -5.0):
                    value = renyi_gaussian(p, q, alpha)
                    if math.isfinite(value):
                        assert value <= 1e-12

    def test_oracle_agreement_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        alphas = [-2.0, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0]
        for dim in (1, 2):
            for _ in range(5):
                p, q = _seeded_pair(rng, dim)
                step = 0.01 if dim == 1 else 0.02
                grid = GridSpec.covering(p, q, sigmas=10.0, step=step)
                numeric = quadrature_oracle_batch(p, q, alphas, grid)
                for alpha, num in zip(alphas, numeric):
                    closed = renyi_gaussian(p, q, alpha)
                    assert math.isfinite(closed)
                    assert closed == pytest.approx(num, abs=1e-6), (
                        f"dim={dim}, alpha={alpha}"
                    )


class TestOracleValidation:
    def test_identical_distributions(self):
        g = GaussianDist.diagonal([0.0], [1.0])
        assert quadrature_oracle(g, g, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_three_dimensions(self):
        g = GaussianDist.standard(3)
        with pytest.raises(ValueError, match="dimension"):
            quadrature_oracle(g, g, 0.5, GridSpec((-8.0,) * 3, (8.0,) * 3, 0.05))

    def test_rejects_coarse_step(self):
        g = GaussianDist.standard(1)
        with pytest.raises(ValueError, match="too coarse"):
            quadrature_oracle(g, g, 0.5, GridSpec((-8.0,), (8.0,), 0.1))

    def test_rejects_poor_coverage(self):
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([3.0], [1.0])
        with pytest.raises(ValueError, match="cover"):
            quadrature_oracle(p, q, 0.5, GridSpec((-4.0,), (4.0,), 0.01))

    def test_default_grid_is_generated(self):
        p = GaussianDist.diagonal([0.0], [1.0])
        q = GaussianDist.diagonal([0.5], [1.2])
        assert quadrature_oracle(p, q, 0.5) == pytest.approx(
            renyi_gaussian(p, q, 0.5), abs=1e-8
        )


class TestInputValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            renyi_gaussian(GaussianDist.standard(1), GaussianDist.standard(2), 0.5)

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianDist.full([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_covariance_near_the_float_range_is_rejected_without_a_warning(self):
        # |c - c'| overflows here; the check must fail, and warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cov must be symmetric"):
                GaussianDist.full([0.0, 0.0], [[1.0, 1e308], [-1e308, 1.0]])
            g = GaussianDist.full([0.0, 0.0], [[1.7e308, 1e308], [1e308, 1.7e308]])
        assert g.cov[0, 1] == g.cov[1, 0] == 1e308

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianDist.diagonal([0.0], [-1.0])

    def test_nan_alpha_rejected(self):
        g = GaussianDist.standard(1)
        with pytest.raises(ValueError, match="NaN"):
            renyi_gaussian(g, g, math.nan)


@pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
def test_logpdf_of_stacked_points_keeps_the_bits_of_each_matrix(full):
    # (repeats, K, d) points give (repeats, K), each matrix of points as a
    # call of its own gives it; a single point gives a float
    rng = np.random.default_rng(21)
    g = _full_pair(rng, 3)[0] if full else _seeded_pair(rng, 3)[0]
    points = rng.standard_normal((4, 7, 3))
    stacked = g.logpdf(points)
    assert stacked.shape == (4, 7)
    for r in range(4):
        assert stacked[r].tobytes() == g.logpdf(points[r]).tobytes()
    assert g.logpdf(points[0, 0]) == stacked[0, 0]
    with pytest.raises(ValueError, match="3 columns"):
        g.logpdf(points[..., :2])


# Variances from the smallest subnormal to 1e308, and offsets from the mean
# up to 1e160, some whose |z|^2 alone overflows (1.5e154 at variance 1).
_VARIANCES = [5e-324, 1e-300, 2.5e-100, 0.3, 1.0, 7e10, 1e300, 1e308]
_OFFSETS = [0.0, 1e-300, -3.7e-50, 1.0, -2.5, 1e20, 1.5e154, -1e160, 1e160]
# values below this round to -inf (the float literal 1.8e308 is inf itself)
_BELOW_THE_FLOATS = mpmath.mpf("-1.8e308")


def _logpdf_50_digits(mean, variances, point):
    """log N(point; mean, diag(variances)) at 50 digits, of the floats given."""
    with mpmath.workdps(50):
        quad = sum(
            (mpmath.mpf(x) - mpmath.mpf(m)) ** 2 / mpmath.mpf(v)
            for x, m, v in zip(point, mean, variances)
        )
        logdet = sum(mpmath.log(mpmath.mpf(v)) for v in variances)
        return -(quad + len(point) * mpmath.log(2 * mpmath.pi) + logdet) / 2


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("form", ["variances", "cov"])
def test_logpdf_matches_mpmath_over_the_float_range(dim, form):
    # every variance against every offset in 1-D, drawn pairs of them in 2-
    # and 3-D; where the true value is finite, to rtol 1e-12, and below
    # -1.8e308, -inf; never NaN, and no RuntimeWarning (pytest makes each an
    # error)
    rng = np.random.default_rng([31, dim])
    if dim == 1:
        variance_sets = [np.array([v]) for v in _VARIANCES]
        offsets = np.array(_OFFSETS)[:, None]
    else:
        variance_sets = [rng.choice(_VARIANCES, dim) for _ in range(12)]
        offsets = rng.choice(_OFFSETS, (40, dim))
    for mean in (np.zeros(dim), np.full(dim, -4.25), np.full(dim, 3e155)):
        points = mean + offsets
        for variances in variance_sets:
            cov = {"variances": variances} if form == "variances" else {"cov": np.diag(variances)}
            got = GaussianDist(mean, **cov).logpdf(points)
            assert not np.isnan(got).any()
            for point, value in zip(points, got):
                want = _logpdf_50_digits(mean, variances, point)
                if want < _BELOW_THE_FLOATS:
                    assert value == -math.inf, (variances, point)
                else:
                    assert abs(mpmath.mpf(value) - want) <= 1e-12 * abs(want), (variances, point)


def _sup_log_ratio_50_digits(p, q):
    """max_x log p(x)/q(x) at 50 digits, of the floats given: the quadratic
    -x'Ax/2 + b'x + c with A = P_p - P_q from the precisions, and +inf where
    A is not positive definite (the quadratic is unbounded above)."""
    with mpmath.workdps(50):
        cov_p, cov_q = mpmath.matrix(p.cov.tolist()), mpmath.matrix(q.cov.tolist())
        prec_p, prec_q = cov_p**-1, cov_q**-1
        mean_p, mean_q = mpmath.matrix(p.mean.tolist()), mpmath.matrix(q.mean.tolist())
        a = prec_p - prec_q
        if min(mpmath.eigsy(a)[0]) <= 0:
            return mpmath.inf
        b = prec_p * mean_p - prec_q * mean_q
        quad = (
            (b.T * mpmath.lu_solve(a, b))[0]
            - (mean_p.T * prec_p * mean_p)[0]
            + (mean_q.T * prec_q * mean_q)[0]
        )
        return (quad + mpmath.log(mpmath.det(cov_q)) - mpmath.log(mpmath.det(cov_p))) / 2


def _pair_with_eigenvalues(rng, dim, full, offset):
    """p, q with generalized eigenvalues lam all in [0.01, 0.5] (D_inf
    finite), all in [2, 100] (D_-inf finite) or of both kinds, means a unit
    apart around ``offset`` and covariances M M' and M diag(lam) M'."""
    low, high = rng.uniform(0.01, 0.5, dim), rng.uniform(2.0, 100.0, dim)
    lam = [low, high, np.where(rng.uniform(size=dim) < 0.5, low, high)][rng.integers(3)]
    if full:
        m = (rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)) * 10.0 ** rng.uniform(-2.0, 2.0)
    else:
        m = np.diag(10.0 ** rng.uniform(-2.0, 2.0, dim))
    cov_p, cov_q = (m * lam) @ m.T, m @ m.T
    if not full:
        return (
            GaussianDist.diagonal(offset + rng.standard_normal(dim), np.diag(cov_p)),
            GaussianDist.diagonal(offset + rng.standard_normal(dim), np.diag(cov_q)),
        )
    return (
        GaussianDist.full(offset + rng.standard_normal(dim), 0.5 * (cov_p + cov_p.T)),
        GaussianDist.full(offset + rng.standard_normal(dim), 0.5 * (cov_q + cov_q.T)),
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
def test_infinite_orders_match_mpmath(dim, full):
    # D_inf = sup log p/q and D_-inf = -sup log q/p against 50-digit mpmath,
    # with means far from the origin too: to rtol 1e-10 where finite, +-inf
    # where the ratio is unbounded; never NaN, and no RuntimeWarning (pytest
    # makes each an error). At alpha = +-1e8 the finite closed form lies
    # within rtol 1e-6 of its limit.
    rng = np.random.default_rng([91, dim, full])
    for offset in (0.0, 1e4, 1e8):
        for _ in range(12):
            p, q = _pair_with_eigenvalues(rng, dim, full, offset)
            limits = [(math.inf, _sup_log_ratio_50_digits(p, q))]
            limits.append((-math.inf, -_sup_log_ratio_50_digits(q, p)))
            for alpha, want in limits:
                got = renyi_gaussian(p, q, alpha)
                assert not math.isnan(got)
                if mpmath.isinf(want):
                    assert got == want, (offset, alpha, p.cov, q.cov)
                    continue
                assert abs(mpmath.mpf(got) - want) <= 1e-10 * abs(want), (offset, alpha, got, want)
                near = renyi_gaussian(p, q, math.copysign(1e8, alpha))
                if math.isfinite(near):
                    assert near == pytest.approx(got, rel=1e-6), (offset, alpha)


def test_every_nonzero_order_solves_one_generalized_eigenproblem(monkeypatch):
    from vrbound import divergence

    calls = []
    solve = divergence._generalized_eigh
    monkeypatch.setattr(
        divergence, "_generalized_eigh", lambda a, b: calls.append(1) or solve(a, b)
    )
    p = GaussianDist.diagonal([0.0, 0.0], [1.0, 1.5])
    q = GaussianDist.full([0.5, -0.3], [[1.0, 0.3], [0.3, 1.2]])
    orders = (-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf)
    for alpha in orders:
        renyi_gaussian(p, q, alpha)
    assert len(calls) == len(orders) - 1


_MEANS = [0.0, 1.0, -2.5, 1e20, 1.5e154, -1e160, 1e300, -1.7e308]


def _sup_log_ratio_diagonal_50_digits(mean_p, var_p, mean_q, var_q):
    """max_x log p(x)/q(x) at 50 digits for diagonal Gaussians, of the floats
    given: per coordinate (m_p - m_q)^2 / (v_q - v_p) + log(v_q / v_p), over
    2; +inf where some v_p > v_q, or v_p = v_q with m_p != m_q."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        floats = (mean_p, var_p, mean_q, var_q)
        for m_p, v_p, m_q, v_q in zip(*([mpmath.mpf(v) for v in x] for x in floats)):
            if v_p > v_q or (v_p == v_q and m_p != m_q):
                return mpmath.inf
            if v_p < v_q:
                total += (m_p - m_q) ** 2 / (v_q - v_p)
            total += mpmath.log(v_q) - mpmath.log(v_p)
        return total / 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_infinite_orders_match_mpmath_over_the_float_range(dim):
    # variances from the smallest subnormal to 1e308 and means up to 1.7e308,
    # where lam, z and the difference of the means leave the float range: to
    # rtol 1e-10 where the true value is finite, +-inf where it is not (or
    # lies beyond the floats); never NaN, and no RuntimeWarning
    rng = np.random.default_rng([92, dim])
    if dim == 1:
        cases = [
            ([m_p], [v_p], [m_q], [v_q])
            for m_p in _MEANS for v_p in _VARIANCES for m_q in _MEANS[::2] for v_q in _VARIANCES
        ]
    else:
        cases = [tuple(rng.choice(x, dim) for x in (_MEANS, _VARIANCES) * 2) for _ in range(300)]
    top = mpmath.mpf(np.finfo(float).max)
    for mean_p, var_p, mean_q, var_q in cases:
        p, q = GaussianDist.diagonal(mean_p, var_p), GaussianDist.diagonal(mean_q, var_q)
        for sign in (1, -1):
            a, b = (p, q) if sign > 0 else (q, p)
            want = _sup_log_ratio_diagonal_50_digits(a.mean, a.variances, b.mean, b.variances)
            want *= sign
            got = renyi_gaussian(p, q, sign * math.inf)
            if abs(want) > top:
                assert got == sign * math.inf, (mean_p, var_p, mean_q, var_q, sign)
            else:
                assert abs(mpmath.mpf(got) - want) <= 1e-10 * abs(want), (mean_p, var_p, sign)
