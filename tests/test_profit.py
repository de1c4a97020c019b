"""Expected-profit closed form checked against direct quadrature.

The oracle integrates h(min(price, censor)) against the normal density
with adaptive quadrature, which never touches the closed-form identity
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from censor_lab.censor import solve_normal_censor
from censor_lab.errors import DomainError
from censor_lab.model import ModelParams
from censor_lab.profit import (
    expected_profit,
    g_bar,
    indirect_profit,
    log_expected_profit,
    myopic_profit,
    value_of_waiting,
)
from censor_lab.special import norm_pdf

PAIRS = [(0.05, 0.3), (0.02, 0.1), (0.2, 1.0), (0.5, 2.0), (1.0, 0.5)]


def quad_expected_profit(mu: float, sigma: float) -> float:
    """E[1/min(exp(nu + sigma*Z), b_tilde)] by adaptive quadrature."""
    sol = solve_normal_censor(mu, sigma)
    nu = mu - 0.5 * sigma * sigma
    inv_b = math.exp(-sol.log_b_tilde)

    def integrand(z):
        return max(math.exp(-nu - sigma * z), inv_b) * norm_pdf(z)

    # split at the censor coordinate where the integrand kinks
    left, el = quad(integrand, -40.0, sol.w, limit=400,
                    epsabs=1e-13, epsrel=1e-13)
    right, er = quad(integrand, sol.w, 40.0, limit=400,
                     epsabs=1e-13, epsrel=1e-13)
    assert el + er < 1e-10
    return left + right


class TestIndirectProfit:
    def test_values(self):
        assert indirect_profit(1.0) == 1.0
        assert indirect_profit(4.0) == 0.25

    def test_domain(self):
        for b in [0.0, -1.0]:
            with pytest.raises(DomainError):
                indirect_profit(b)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.0, 1.0))
    def test_convex(self, a, b, lam):
        mix = lam * a + (1.0 - lam) * b
        assert indirect_profit(mix) <= (lam * indirect_profit(a)
                                        + (1.0 - lam) * indirect_profit(b)
                                        + 1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("mu,sigma", PAIRS)
    def test_quadrature_oracle(self, mu, sigma):
        assert expected_profit(mu, sigma) == pytest.approx(
            quad_expected_profit(mu, sigma), rel=1e-9)

    @pytest.mark.parametrize("mu", np.geomspace(0.01, 2.0, 6))
    @pytest.mark.parametrize("sigma", np.geomspace(0.01, 10.0, 6))
    def test_never_below_one(self, mu, sigma):
        # g > 1 holds mathematically; for sigma tiny relative to mu the
        # margin falls below double resolution, so only nonnegativity
        # up to rounding can be asserted on the full grid
        assert log_expected_profit(mu, sigma) >= -1e-12
        assert value_of_waiting(mu, sigma) >= -1e-12

    @pytest.mark.parametrize("mu,sigma", PAIRS)
    def test_strictly_exceeds_one_moderate(self, mu, sigma):
        assert log_expected_profit(mu, sigma) > 1e-6
        assert value_of_waiting(mu, sigma) > 1e-6

    def test_log_form_consistency(self):
        for mu, sigma in PAIRS:
            assert expected_profit(mu, sigma) == pytest.approx(
                math.exp(log_expected_profit(mu, sigma)), rel=1e-13)

    def test_no_overflow_extreme_sigma(self):
        # sigma^2 - mu ~ 2500: the value overflows but the log must not
        assert expected_profit(0.05, 50.0) == math.inf
        lg = log_expected_profit(0.05, 50.0)
        assert math.isfinite(lg) and lg > 2000.0

    def test_large_sigma_leading_term(self):
        # g ~ exp(sigma^2 - mu), relative error shrinking in sigma
        mu = 0.05
        errs = []
        for sigma in (1.2, 1.6, 2.0, 2.5):
            rel = abs(log_expected_profit(mu, sigma)
                      - (sigma * sigma - mu))
            errs.append(rel)
        assert errs[-1] < 1e-9
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_small_sigma_limit_is_one(self):
        mu = 0.05
        vals = [expected_profit(mu, s) for s in (0.1, 0.05, 0.02, 0.01)]
        gaps = [v - 1.0 for v in vals]
        assert all(g > 0.0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestHorizonProfit:
    def test_zero_extension(self):
        params = ModelParams.from_variance(0.05, 0.07)
        assert g_bar(0.0, params) == 1.0

    def test_negative_theta_rejected(self):
        params = ModelParams.from_variance(0.05, 0.07)
        for theta in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                g_bar(theta, params)
            with pytest.raises(DomainError):
                myopic_profit(theta, params)

    def test_matches_pointwise_form(self):
        params = ModelParams.from_variance(0.05, 0.07)
        theta = 0.7
        direct = expected_profit(params.mu_bar * theta,
                                 params.sigma_bar * math.sqrt(theta))
        assert g_bar(theta, params) == pytest.approx(direct, rel=1e-14)

    def test_small_theta_slope_is_variance(self):
        # (g_bar(theta) - 1)/theta -> sigma_bar^2; convergence is only
        # ~sqrt(theta), so the residual at 1e-6 is still a few parts in
        # a thousand of the slope
        params = ModelParams.from_variance(0.05, 0.07)
        thetas = (1e-2, 1e-3, 1e-4, 1e-6)
        rels = [abs((g_bar(t, params) - 1.0) / t - params.sigma2_bar)
                / params.sigma2_bar for t in thetas]
        assert all(b < a for a, b in zip(rels, rels[1:]))
        assert rels[-1] < 2.5e-3

    def test_myopic_quadrature(self):
        params = ModelParams.from_variance(0.05, 0.07)
        theta = 1.3
        nu = (params.mu_bar - 0.5 * params.sigma2_bar) * theta
        s = params.sigma_bar * math.sqrt(theta)
        ref, err = quad(lambda z: math.exp(-nu - s * z) * norm_pdf(z),
                        -40.0, 40.0)
        assert myopic_profit(theta, params) == pytest.approx(
            ref, rel=max(1e-11, 10 * err))

    def test_myopic_overflow_reads_infinity(self):
        params = ModelParams.from_variance(0.01, 10.0)
        assert myopic_profit(1000.0, params) == math.inf

    def test_exceeds_myopic(self):
        # the forward contract adds value over never contracting
        params = ModelParams.from_variance(0.05, 0.07)
        for theta in (0.1, 1.0, 10.0):
            assert g_bar(theta, params) > myopic_profit(theta, params)
