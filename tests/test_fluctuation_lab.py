"""Tests for the per-sample fluctuation statistics and second-order residuals.

The frozen numbers in the handcrafted-sample test were computed with plain
python loops over the definitions (math.fsum over explicit summands) and are
asserted against the vectorized implementation.  Monte Carlo bounds were
calibrated on the fixed seed sets used below; a spike with a well-separated
dual point (h=2, so the gap to the support edge is about 0.22) keeps the
finite-size bias of the near-edge atoms small.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

from sklab.fluctuation_lab import (
    FluctuationSample,
    aggregate,
    compute_statistics,
    residual_ball,
    residual_sphere,
)
from sklab.reduction_solver import solve_ball, solve_sphere
from sklab.rmt_core import (
    GoeSample,
    PoleError,
    classical_locations,
    sample_spectral_model,
    semicircle_transform,
)
from sklab.theory_engine import (
    FluctuationParams,
    LeadingOrder,
    SpikeSpec,
    fluct_params_ball,
    fluct_params_sphere,
    maximize_ball_theory,
    maximize_sphere_theory,
)

SPIKE = SpikeSpec.monomial(2.0, 1)
LEAD = maximize_sphere_theory(SPIKE, 1.0)
PAR = fluct_params_sphere(SPIKE, 1.0, LEAD)


def alt_residual_sphere(
    value: float,
    stats: FluctuationSample,
    leading: LeadingOrder,
    params: FluctuationParams,
) -> float:
    """Sphere residual in the independent-summand statistics.

    Uses the raw-gaussian statistics (X, X', Y) in place of (U, U'): the
    change of weights introduces the extra order-one cross term
    ``kappa X Y``.
    """
    swapped = replace(stats, U=stats.X, Uprime=stats.Xprime)
    return residual_sphere(value, swapped, leading, params) + params.kappa * stats.X * stats.Y


def exact_w_covariance(n: int, l: float) -> np.ndarray:
    """Exact covariance of (W, W') at ``l`` for ``u`` uniform on the sphere.

    ``Var(n u_i^2) = (2n - 2)/(n + 2)`` and ``Cov(n u_i^2, n u_j^2) =
    -2/(n + 2)`` for ``i != j``, so with ``f = (1/(l - theta),
    -1/(l - theta)^2)`` the covariance is
    ``(2n/(n + 2)) [mean(f f^T) - mean(f) mean(f)^T]``.
    """
    theta = classical_locations(n)
    f = np.array([1.0 / (l - theta), -1.0 / (l - theta) ** 2])
    mean = f.mean(axis=1)
    return 2 * n / (n + 2) * (f @ f.T / n - np.outer(mean, mean))


def handcrafted_sample() -> GoeSample:
    lam = np.array([-1.2, -0.3, 0.4, 1.1])
    g = np.array([0.5, -1.3, 0.8, 2.0])
    return GoeSample(n=4, eigenvalues=lam, raw_gaussians=g)


class TestComputeStatistics:
    def test_handcrafted_sample_frozen_values(self):
        st_ = compute_statistics(handcrafted_sample(), 2.1)
        assert st_.U == pytest.approx(0.41332712969133495, abs=1e-14)
        assert st_.Uprime == pytest.approx(-0.573544821092516, abs=1e-14)
        assert st_.Lambda == pytest.approx(0.11760214231862598, abs=1e-14)
        assert st_.W == pytest.approx(0.6917332447407457, abs=1e-14)
        assert st_.Wprime == pytest.approx(-1.3349749938725362, abs=1e-13)
        assert st_.X == pytest.approx(1.387045817269983, abs=1e-14)
        assert st_.Xprime == pytest.approx(-2.683067761263297, abs=1e-13)
        assert st_.Y == pytest.approx(1.29, abs=1e-14)

    def test_pole_proximity_rejected(self):
        sample = handcrafted_sample()
        with pytest.raises(PoleError):
            compute_statistics(sample, 1.1)  # exactly at lambda_max
        with pytest.raises(PoleError):
            compute_statistics(sample, 1.1 + 1e-12)  # inside the margin
        compute_statistics(sample, 1.5)  # clear of the spectrum: fine

    @given(n=st.integers(3, 40), seed=st.integers(0, 10_000))
    @example(n=6, seed=6452)  # top eigenvalue 2.31, above l = 2.3
    @settings(max_examples=30, deadline=None)
    def test_normalization_identity_links_w_and_raw_statistics(self, n, seed):
        # With u = g/|g| the weighted sums satisfy, exactly,
        #   W  = (X  - Y (T  - s )) / (1 + Y/sqrt n)
        # where T is the location average of the weight function; same for
        # the derivative statistics.  This ties the three statistic families
        # together without any asymptotics.
        sample = sample_spectral_model(n, seed=seed)
        l = max(2.3, sample.lambda_max + 1.0)
        st_ = compute_statistics(sample, l)
        theta = classical_locations(n)
        t0 = float(np.mean(1.0 / (l - theta)))
        t1 = float(np.mean(-1.0 / (l - theta) ** 2))
        s0 = semicircle_transform(l)
        s1 = semicircle_transform(l, order=1)
        denom = 1.0 + st_.Y / math.sqrt(n)
        assert st_.W == pytest.approx((st_.X - st_.Y * (t0 - s0)) / denom, abs=1e-10)
        assert st_.Wprime == pytest.approx(
            (st_.Xprime - st_.Y * (t1 - s1)) / denom, abs=1e-9
        )

    def test_two_point_sample_exact_values(self):
        # equal weights kill the centered statistics; Lambda is exact arithmetic
        sample = GoeSample(n=2, eigenvalues=np.array([-1.0, 1.0]), raw_gaussians=np.ones(2))
        st_ = compute_statistics(sample, 2.0)
        # the squared weights carry one rounding step from 1/sqrt(2)
        assert st_.U == pytest.approx(0.0, abs=1e-15)
        assert st_.Uprime == pytest.approx(0.0, abs=1e-15)
        assert st_.W == pytest.approx(0.0, abs=1e-15)
        assert st_.Lambda == pytest.approx(2.0 * math.sqrt(2.0) - 8.0 / 3.0, abs=1e-15)

    def test_top_aligned_weight_unrolls_to_single_term(self):
        # all spike weight on the top eigenvalue: the weighted sum telescopes
        # to sqrt(n) * (1/(l - lam_max) - empirical stieltjes)
        n, l = 5, 2.4
        lam = np.array([-1.1, -0.4, 0.2, 0.9, 1.3])
        u = np.zeros(n)
        u[-1] = 1.0
        st_ = compute_statistics(GoeSample(n=n, eigenvalues=lam, raw_gaussians=u), l)
        s_emp = float(np.mean(1.0 / (l - lam)))
        assert st_.U == pytest.approx(
            math.sqrt(n) * (1.0 / (l - lam[-1]) - s_emp), abs=1e-12
        )

    def test_derivative_statistic_is_l_derivative(self):
        sample = sample_spectral_model(80, seed=21)
        l, h = 2.0, 1e-6
        up = compute_statistics(sample, l).Uprime
        fd = (
            compute_statistics(sample, l + h).U - compute_statistics(sample, l - h).U
        ) / (2.0 * h)
        assert up == pytest.approx(fd, rel=1e-6)

    def test_statistics_match_direct_loops_on_random_sample(self):
        sample = sample_spectral_model(25, seed=11)
        l = 1.9
        st_ = compute_statistics(sample, l)
        n, lam, u = sample.n, sample.eigenvalues, sample.u
        theta = classical_locations(n)
        s0 = semicircle_transform(l)
        u_loop = math.fsum(
            (n * u[i] ** 2 - 1) / (l - lam[i]) for i in range(n)
        ) / math.sqrt(n)
        w_loop = math.fsum(
            (n * u[i] ** 2 - 1) / (l - theta[i]) for i in range(n)
        ) / math.sqrt(n)
        lam_loop = math.fsum(1 / (l - lam[i]) for i in range(n)) - n * s0
        assert st_.U == pytest.approx(u_loop, abs=1e-12)
        assert st_.W == pytest.approx(w_loop, abs=1e-12)
        assert st_.Lambda == pytest.approx(lam_loop, abs=1e-12)


@pytest.fixture(scope="module")
def mc_batch():
    """200 samples at n=300, statistics at the dual point."""
    stats = []
    for seed in range(200):
        sample = sample_spectral_model(300, seed=seed)
        try:
            stats.append(compute_statistics(sample, LEAD.l_hat))
        except PoleError:
            continue
    return stats


class TestLimitLaws:
    def test_aggregate_moments_near_theory(self, mc_batch):
        agg = aggregate(mc_batch, PAR)
        assert agg["count"] >= 190
        # variances within the calibrated finite-size band of the limits
        assert 0.75 * PAR.var_U < agg["var_U"] < 1.40 * PAR.var_U
        assert 0.75 * PAR.var_Uprime < agg["var_Uprime"] < 1.45 * PAR.var_Uprime
        assert 0.75 < agg["cov_UUprime"] / PAR.cov_UUprime < 1.45
        assert 0.75 * PAR.Sigma[0, 0] < agg["var_W"] < 1.45 * PAR.Sigma[0, 0]
        assert 0.70 * PAR.Sigma[1, 1] < agg["var_Wprime"] < 1.55 * PAR.Sigma[1, 1]
        assert 1.6 < agg["var_Y"] < 2.4
        # centered statistics have mean zero at the sqrt(M) scale
        assert abs(agg["mean_U"]) < 4.0 * math.sqrt(agg["var_U"] / agg["count"])
        assert abs(agg["mean_Y"]) < 4.0 * math.sqrt(2.0 / agg["count"])

    def test_lambda_statistic_law(self, mc_batch):
        agg = aggregate(mc_batch, PAR)
        se = math.sqrt(agg["var_Lambda"] / agg["count"])
        assert abs(agg["mean_Lambda"] - PAR.lambda_mean) < 4.0 * se
        assert 0.6 * PAR.lambda_var < agg["var_Lambda"] < 1.5 * PAR.lambda_var

    def test_independence_structure(self, mc_batch):
        # (X, Y), (Lambda, Y) and (Lambda, (U, U')) are asymptotically
        # uncorrelated; 4/sqrt(M) is the scale of a null correlation at M=200
        agg = aggregate(mc_batch, PAR)
        bound = 4.0 / math.sqrt(agg["count"])
        corr_xy = agg["cov_XY"] / math.sqrt(agg["var_X"] * agg["var_Y"])
        corr_ly = agg["cov_LambdaY"] / math.sqrt(agg["var_Lambda"] * agg["var_Y"])
        corr_lu = agg["cov_LambdaU"] / math.sqrt(agg["var_Lambda"] * agg["var_U"])
        corr_lup = agg["cov_LambdaUprime"] / math.sqrt(
            agg["var_Lambda"] * agg["var_Uprime"]
        )
        assert abs(corr_xy) < bound
        assert abs(corr_ly) < bound
        assert abs(corr_lu) < bound
        assert abs(corr_lup) < bound

    def test_uuprime_covariance_is_negative(self, mc_batch):
        agg = aggregate(mc_batch, PAR)
        assert agg["cov_UUprime"] < 0.0
        assert PAR.cov_UUprime < 0.0

    def test_kolmogorov_smirnov_distances_small(self, mc_batch):
        agg = aggregate(mc_batch, PAR)
        for key in ("ks_U", "ks_Uprime", "ks_Lambda", "ks_W", "ks_Wprime", "ks_Y"):
            assert agg[key] < 0.22, key

    def test_classical_location_sums_match_covariance_limit(self):
        # The W-covariance depends on u and the deterministic locations only,
        # so a synthetic spectrum suffices and allows a large n: at n=2000 the
        # location sums are within a few percent of the limit integrals.
        n, trials = 2000, 400
        rng = np.random.default_rng(123)
        theta = classical_locations(n)
        stats = []
        for _ in range(trials):
            g = rng.standard_normal(n)
            sample = GoeSample(n=n, eigenvalues=theta, raw_gaussians=g)
            stats.append(compute_statistics(sample, LEAD.l_hat))
        agg = aggregate(stats)
        assert agg["var_W"] == pytest.approx(PAR.Sigma[0, 0], rel=0.25)
        assert agg["var_Wprime"] == pytest.approx(PAR.Sigma[1, 1], rel=0.25)
        assert agg["cov_WWprime"] == pytest.approx(PAR.Sigma[0, 1], rel=0.25)

    def test_eigenvalue_and_location_statistics_agree(self, mc_batch):
        # U - W = R / sqrt(n) with R = o_P(1): small already at n=300
        diffs = [abs(s.U - s.W) for s in mc_batch]
        assert float(np.median(diffs)) < 0.10

    def test_eigenvalue_location_gap_shrinks_with_n(self):
        # calibrated medians: ~0.076 at n=100 vs ~0.020 at n=400
        medians = []
        for n in (100, 400):
            diffs = []
            for seed in range(40):
                sample = sample_spectral_model(n, seed=seed)
                st_ = compute_statistics(sample, LEAD.l_hat)
                diffs.append(abs(st_.U - st_.W))
            medians.append(float(np.median(diffs)))
        assert medians[1] < 0.6 * medians[0]

    def test_w_covariance_matches_exact_finite_n_law(self):
        # checked at the covariance gate's point, next to the spectral edge
        n, draws = 300, 10_000
        l = maximize_sphere_theory(SpikeSpec.monomial(1.0, 1), 1.0).l_hat
        lam = classical_locations(n) - 1.0  # any spectrum below l: W, W' do not read it
        rng = np.random.default_rng(5)
        ws = np.empty((draws, 2))
        for i in range(draws):
            g = rng.standard_normal(n)
            sample = GoeSample(n=n, eigenvalues=lam, raw_gaussians=g)
            st_ = compute_statistics(sample, l)
            ws[i] = st_.W, st_.Wprime
        exact = exact_w_covariance(n, l)
        centered = ws - ws.mean(axis=0)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            prod = centered[:, i] * centered[:, j]
            stderr = prod.std(ddof=1) / math.sqrt(draws)
            assert prod.mean() == pytest.approx(exact[i, j], abs=4 * stderr)

    def test_w_covariance_enters_gate_band_near_n_4900(self):
        # every entry of the exact law is inside the covariance gate's +-25 %
        # band around the limit from n ~ 4900 on
        spike = SpikeSpec.monomial(1.0, 1)
        lead = maximize_sphere_theory(spike, 1.0)
        sigma = fluct_params_sphere(spike, 1.0, lead).Sigma

        def worst_rel(n: int) -> float:
            cov = exact_w_covariance(n, lead.l_hat)
            return float(np.max(np.abs(cov - sigma) / np.abs(sigma)))

        assert worst_rel(1000) > 1.0
        assert worst_rel(4800) > 0.25 >= worst_rel(4900)


class TestResiduals:
    def test_sphere_residuals_small_at_moderate_n(self):
        res, alt = [], []
        for seed in range(12):
            sample = sample_spectral_model(400, seed=2000 + seed)
            sol = solve_sphere(sample, 1.0, SPIKE)
            st_ = compute_statistics(sample, LEAD.l_hat)
            res.append(residual_sphere(sol.value, st_, LEAD, PAR))
            alt.append(alt_residual_sphere(sol.value, st_, LEAD, PAR))
        assert float(np.median(np.abs(res))) < 0.5
        assert float(np.median(np.abs(alt))) < 1.5
        # the ground state itself is extensive: the subtraction cancels n*B
        assert all(abs(r) < 20.0 for r in res)

    def test_ball_residuals_small_at_moderate_n(self):
        f = SpikeSpec.monomial(1.0, 1)
        lead = maximize_ball_theory(f, 1.0)
        par = fluct_params_ball(f, 1.0, lead)
        res = []
        for seed in range(10):
            sample = sample_spectral_model(500, seed=3000 + seed)
            sol = solve_ball(sample, 1.0, f)
            try:
                st_ = compute_statistics(sample, lead.l_hat)
            except PoleError:
                continue
            res.append(residual_ball(sol.value, st_, lead, par))
        assert len(res) >= 8
        assert float(np.median(np.abs(res))) < 0.6

    def test_ball_residual_requires_radial_leading_order(self):
        sample = sample_spectral_model(100, seed=1)
        st_ = compute_statistics(sample, LEAD.l_hat)
        with pytest.raises(ValueError, match="radial"):
            residual_ball(1.0, st_, LEAD, PAR)

    def test_inapplicable_leading_order_rejected(self):
        lead = LeadingOrder(
            alpha_hat=0.0,
            l_hat=math.sqrt(2),
            z_hat=math.sqrt(2),
            value=2.0,
            multiplicity="single",
            applicable=False,
            reason="zero overlap",
        )
        sample = sample_spectral_model(60, seed=2)
        st_ = compute_statistics(sample, 2.0)
        with pytest.raises(ValueError, match="does not apply"):
            residual_sphere(1.0, st_, lead, PAR)


class TestAggregate:
    def test_requires_two_valid_samples(self):
        good = FluctuationSample(10, 0.1, -0.2, 0.3, 0.1, -0.2, 0.5, -0.1, 0.9)
        with pytest.raises(ValueError, match="at least 2"):
            aggregate([good])
        out = aggregate([good, good])
        assert out["count"] == 2

    def test_moment_keys_without_theory(self):
        samples = [
            FluctuationSample(10, 0.1 * i, -0.2, 0.3, 0.1, -0.2, 0.5, -0.1, 0.9)
            for i in range(5)
        ]
        out = aggregate(samples)
        assert "mean_U" in out and "var_W" in out and "mean_X" in out
        assert not any(k.startswith("ks_") for k in out)

    @pytest.mark.parametrize("m", [2, 3, 40, 400])
    def test_ks_distances_match_scipy(self, m):
        rng = np.random.default_rng(m)
        raw = rng.standard_normal((m, 8)) * 1.3 + 0.2
        samples = [FluctuationSample(10, *row) for row in raw]
        out = aggregate(samples, PAR)
        scaled = {
            "ks_U": raw[:, 0] / math.sqrt(PAR.var_U),
            "ks_Uprime": raw[:, 1] / math.sqrt(PAR.var_Uprime),
            "ks_Lambda": (raw[:, 2] - PAR.lambda_mean) / math.sqrt(PAR.lambda_var),
            "ks_W": raw[:, 3] / math.sqrt(PAR.Sigma[0, 0]),
            "ks_Wprime": raw[:, 4] / math.sqrt(PAR.Sigma[1, 1]),
            "ks_Y": raw[:, 7] / math.sqrt(2.0),
        }
        for key, z in scaled.items():
            expected = scipy_stats.kstest(z, "norm").statistic
            assert out[key] == pytest.approx(expected, abs=1e-15), key
