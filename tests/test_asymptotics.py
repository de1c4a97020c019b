"""Asymptotic approximations: scaled-error ladders into each limit.

A finite grid cannot certify a limit, so each closed form is tested by
showing its scaled error shrinks monotonically along a ladder of
parameters heading into the stated direction, with an absolute cap at
the far end.
"""

import math

import numpy as np
import pytest

from censor_lab.asymptotics import (
    Regime,
    classify_regime,
    g_asymptotic_sigma,
    g_asymptotic_theta,
    g_theta_gap,
    w_bar,
    w_bar_asymptotic,
    w_bar_origin_limits,
    w_large_sigma,
    w_small_sigma,
)
from censor_lab.censor import mu_hat, solve_normal_censor
from censor_lab.errors import DomainError
from censor_lab.model import ModelParams
from censor_lab.profit import expected_profit, g_bar

MU_BAR = 0.05
REGIME_VARIANCES = {
    Regime.LOW_VAR: 0.03,
    Regime.MID_VAR: 0.07,
    Regime.HIGH_VAR: 0.15,
    Regime.CRITICAL: 0.10,
}


def params_for(regime: Regime) -> ModelParams:
    return ModelParams.from_variance(MU_BAR, REGIME_VARIANCES[regime])


class TestRegimeMap:
    def test_all_four(self):
        for regime, s2 in REGIME_VARIANCES.items():
            assert classify_regime(ModelParams.from_variance(MU_BAR, s2)) is regime

    def test_boundaries(self):
        # sigma2 == mu is already mid; sigma2 == 2*mu is critical
        # (exactly representable values: sigma_bar = 0.5, sigma2 = 0.25)
        assert classify_regime(ModelParams(0.25, 0.5)) is Regime.MID_VAR
        assert classify_regime(ModelParams(0.125, 0.5)) is Regime.CRITICAL

    def test_eps_band(self):
        near = ModelParams.from_variance(0.05, 0.1001)
        assert classify_regime(near) is Regime.HIGH_VAR
        assert classify_regime(near, eps=1e-3) is Regime.CRITICAL
        for eps in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                classify_regime(near, eps=eps)


class TestCensorInSigma:
    def test_small_sigma_ladder(self):
        # error is o(sigma): |W - approx| / sigma shrinks along the ladder
        scaled = []
        for sigma in (0.1, 0.05, 0.02, 0.01):
            w = solve_normal_censor(MU_BAR, sigma).w
            scaled.append(abs(w - w_small_sigma(MU_BAR, sigma).value) / sigma)
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
        assert scaled[-1] < 1e-4

    def test_large_sigma_ladder(self):
        # error is o(1/(sigma - mu_hat)): the product shrinks
        m = mu_hat(MU_BAR)
        scaled = []
        for sigma in (10.0, 20.0, 40.0):
            w = solve_normal_censor(MU_BAR, sigma).w
            scaled.append(abs(w - w_large_sigma(MU_BAR, sigma).value) * (sigma - m))
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
        assert scaled[-1] < 0.1

    def test_large_sigma_validity_guard(self):
        with pytest.raises(DomainError):
            w_large_sigma(5.0, 1.0)  # sigma below mu_hat + 1

    @pytest.mark.parametrize("mu,sigma", [(math.nan, 40.0), (0.05, math.nan),
                                          (math.inf, 40.0), (0.05, math.inf)])
    def test_nan_and_inf_rejected(self, mu, sigma):
        for form in (w_small_sigma, w_large_sigma):
            with pytest.raises(DomainError):
                form(mu, sigma)

    def test_metadata(self):
        est = w_small_sigma(0.05, 0.01)
        assert est.valid_direction == "sigma->0+"
        est = w_large_sigma(0.05, 40.0)
        assert est.valid_direction == "sigma->inf"


class TestProfitInSigma:
    def test_small_direction_ladder(self):
        errs = []
        for sigma in (0.2, 0.1, 0.05):
            approx = g_asymptotic_sigma(MU_BAR, sigma, "small").value
            errs.append(abs(expected_profit(MU_BAR, sigma) - approx) / sigma)
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_large_direction_matches_leading_exponent(self):
        approx = g_asymptotic_sigma(MU_BAR, 3.0, "large").value
        assert expected_profit(MU_BAR, 3.0) == pytest.approx(approx, rel=1e-10)

    def test_direction_validation(self):
        with pytest.raises(DomainError):
            g_asymptotic_sigma(0.05, 0.3, "sideways")
        for mu, sigma in ((math.nan, 0.3), (0.05, math.nan), (math.inf, 0.3), (0.05, math.inf)):
            for direction in ("large", "small"):
                with pytest.raises(DomainError):
                    g_asymptotic_sigma(mu, sigma, direction)


class TestProfitInTheta:
    def test_leading_values(self):
        theta = 50.0
        alpha = 0.07 - MU_BAR
        assert g_asymptotic_theta(theta, params_for(Regime.LOW_VAR)).value == 1.0
        assert g_asymptotic_theta(theta, params_for(Regime.MID_VAR)).value \
            == pytest.approx(1.0 + math.exp(alpha * theta), rel=1e-14)
        assert g_asymptotic_theta(theta, params_for(Regime.HIGH_VAR)).value \
            == pytest.approx(math.exp(0.10 * theta), rel=1e-14)
        crit = g_asymptotic_theta(theta, params_for(Regime.CRITICAL)).value
        assert 0.25 + 0.5 * math.exp(MU_BAR * theta) < crit \
            < 0.25 + math.exp(MU_BAR * theta)

    def test_leading_values_overflow_to_infinity(self):
        # alpha*theta = 1000 in the mid-variance regime
        params = ModelParams.from_variance(1.0, 1.5)
        assert classify_regime(params) is Regime.MID_VAR
        assert g_asymptotic_theta(2000.0, params).value == math.inf

    def test_gap_matches_direct_subtraction_at_moderate_theta(self):
        # where the leading term is O(1) the naive difference is still
        # accurate enough to cross-check the stable decomposition
        theta = 5.0
        for regime in Regime:
            p = params_for(regime)
            direct = g_bar(theta, p) - g_asymptotic_theta(theta, p).value
            assert g_theta_gap(theta, p) == pytest.approx(direct, abs=1e-9)

    def test_gap_shrinks_in_all_regimes(self):
        for regime in Regime:
            p = params_for(regime)
            gaps = [abs(g_theta_gap(t, p)) for t in (100.0, 200.0, 400.0, 800.0)]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), regime

    def test_gap_rate_low_and_high(self):
        # in the strictly separated regimes the gap vanishes faster
        # than 1/sqrt(theta)
        for regime in (Regime.LOW_VAR, Regime.HIGH_VAR):
            p = params_for(regime)
            scaled = [abs(g_theta_gap(t, p)) * math.sqrt(t)
                      for t in (100.0, 200.0, 400.0, 800.0)]
            assert all(b < a for a, b in zip(scaled, scaled[1:])), regime

    def test_gap_rate_critical_bounded(self):
        # at the boundary the gap decays like 1/sqrt(theta) and no
        # faster: sqrt(theta)-scaled values approach a positive constant
        p = params_for(Regime.CRITICAL)
        scaled = [abs(g_theta_gap(t, p)) * math.sqrt(t)
                  for t in (100.0, 400.0, 1600.0)]
        assert all(0.3 < s < 0.5 for s in scaled)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_theta_validation(self, theta):
        p = params_for(Regime.MID_VAR)
        for f in (g_asymptotic_theta, g_theta_gap, w_bar_asymptotic):
            with pytest.raises(DomainError):
                f(theta, p)

    def test_gap_requires_exact_critical_variance(self):
        p = ModelParams.from_variance(0.05, 0.1000001)
        with pytest.raises(DomainError):
            g_theta_gap(10.0, p, eps=1e-3)


class TestCensorInTheta:
    def test_consistency_with_solver(self):
        p = params_for(Regime.MID_VAR)
        w = w_bar(3.0, p)
        direct = solve_normal_censor(p.mu_bar * 3.0,
                                     p.sigma_bar * math.sqrt(3.0)).w
        assert w == direct

    def test_sqrt_growth_when_drift_dominates(self):
        # kappa > 1/2: W_bar / sqrt(theta) -> -(mu_bar - sigma2/2)/sigma_bar
        p = params_for(Regime.MID_VAR)
        theta = 1e4
        est = w_bar_asymptotic(theta, p)
        assert w_bar(theta, p) == pytest.approx(est.value, rel=1e-3)
        assert w_bar(theta, p) < -5.0

    def test_sqrt_growth_when_variance_dominates(self):
        # kappa < 1/2: W_bar / sqrt(theta) -> sigma_bar - sqrt(2*mu_bar)
        p = params_for(Regime.HIGH_VAR)
        theta = 1e4
        est = w_bar_asymptotic(theta, p)
        assert w_bar(theta, p) == pytest.approx(est.value, rel=2e-2)
        assert w_bar(theta, p) > 6.0

    def test_high_var_censor_falls_behind_sigma(self):
        # W_bar - sigma_bar*sqrt(theta) -> -inf in the variance regime
        p = params_for(Regime.HIGH_VAR)
        assert w_bar(1e4, p) - p.sigma_bar * 100.0 < -10.0

    def test_critical_product_tends_to_log_two(self):
        p = params_for(Regime.CRITICAL)
        prods = [w_bar(t, p) * p.sigma_bar * math.sqrt(t) for t in (1e3, 1e4)]
        assert abs(prods[1] - math.log(2.0)) < 0.05
        assert abs(prods[1] - math.log(2.0)) < abs(prods[0] - math.log(2.0))
        est = w_bar_asymptotic(1e4, p)
        assert w_bar(1e4, p) == pytest.approx(est.value, rel=0.05)

    def test_origin_limits(self):
        # theta -> 0+: W_bar diverges to +inf but sqrt(theta)*W_bar -> 0
        p = params_for(Regime.MID_VAR)
        diag = w_bar_origin_limits(p)
        assert diag.w_increasing
        assert diag.scaled_decreasing
        assert diag.w_values[-1] > 2.0
        assert diag.scaled_values[-1] < 0.05


class TestPeakLocationDrift:
    def test_low_var_peak_moves_out_with_variance(self):
        # within the drift-dominated band the censor-path maximum moves
        # to larger horizons as variance approaches the boundary
        thetas = np.geomspace(0.1, 2000.0, 300)
        peaks = []
        for frac in (0.6, 0.8, 0.9):
            p = ModelParams.from_variance(MU_BAR, MU_BAR * frac)
            logs = [solve_normal_censor(p.mu_bar * t,
                                        p.sigma_bar * math.sqrt(t)).log_b_tilde
                    for t in thetas]
            peaks.append(thetas[int(np.argmax(logs))])
        assert peaks[0] < peaks[1] < peaks[2]
