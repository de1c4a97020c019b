"""Censor equation solver: residuals, identities, and limit behaviour.

The load-bearing oracle is the closed-form identity
exp(mu)*Phi(W - sigma) + b_tilde*Phi(-W) = 1, which restates the
martingale normalization E[b ^ b_tilde] = 1 without using F at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from censor_lab import censor as censor_module
from censor_lab.censor import (
    SIGMA_MAX,
    censor_F,
    censor_price,
    censor_time_path,
    log_censor_F,
    martingale_identity_residual,
    mu_hat,
    optimal_forward_quantity,
    solve_normal_censor,
    solve_normal_censor_array,
)
from censor_lab.errors import ConvergenceError, DomainError
from censor_lab.model import ModelParams, ScaledParams
from censor_lab.profit import expected_profit, g_bar
from censor_lab.special import inv_norm_cdf, norm_cdf, norm_cdf_complement

EPS = np.finfo(float).eps
MU_GRID = np.geomspace(1e-3, 5.0, 9)
SIGMA_GRID = np.geomspace(1e-3, 50.0, 11)


class TestCensorF:
    def test_sigma_zero_is_one(self):
        for w in [-5.0, 0.0, 3.0, 40.0]:
            assert censor_F(w, 0.0) == 1.0
            assert log_censor_F(w, 0.0) == 0.0

    @pytest.mark.parametrize("w,sigma", [(1.0, -0.5), (1.0, math.nan), (1.0, math.inf),
                                         (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5)])
    def test_domain_errors(self, w, sigma):
        # min(0.0, nan) is 0.0: log_censor_F(1, nan) read 0.0 and censor_F(1, inf)
        # read 1.0, where F -> 0 as sigma -> inf
        for f in (censor_F, log_censor_F):
            with pytest.raises(DomainError):
                f(w, sigma)

    def test_limits_in_w(self):
        # left tail decays like exp(sigma*w); right limit is 1
        assert censor_F(-40.0, 0.5) == pytest.approx(math.exp(-20.125), rel=1e-6)
        assert censor_F(-200.0, 0.5) < censor_F(-40.0, 0.5) < 1e-8
        assert censor_F(40.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_large_sigma_diagonal_limit(self):
        # F(sigma - c, sigma) -> Phi_bar(c); the finite-sigma gap is
        # ~ pdf(c)/(sigma - c), which at sigma = 50, c = 1 is ~4.9e-3,
        # so the tolerance reflects the true first-order correction.
        c = 1.0
        gap_50 = abs(censor_F(50.0 - c, 50.0) - norm_cdf_complement(c))
        assert gap_50 <= 6e-3
        # convergence rate ~ 1/sigma: doubling sigma roughly halves the gap
        gap_100 = abs(censor_F(100.0 - c, 100.0) - norm_cdf_complement(c))
        assert gap_100 < 0.6 * gap_50

    def test_value_in_unit_interval(self):
        for w in [-3.0, 0.0, 2.0, 10.0, 39.0]:
            for sigma in [0.01, 1.0, 10.0, 50.0]:
                val = censor_F(w, sigma)
                assert 0.0 <= val <= 1.0 + 1e-15
                if val == 0.0:
                    # true value below the double floor; the log form
                    # must still resolve it
                    assert log_censor_F(w, sigma) < -700.0

    def test_log_form_consistency(self):
        for w in [-3.0, 0.5, 5.0]:
            for sigma in [0.1, 2.0]:
                assert log_censor_F(w, sigma) == pytest.approx(
                    math.log(censor_F(w, sigma)), rel=1e-12)

    def test_no_overflow_in_large_exponent_regime(self):
        # sigma*w - sigma^2/2 = 450: naive exponential would overflow
        val = censor_F(39.0, 30.0)
        assert math.isfinite(val) and 0.0 < val <= 1.0

    @given(st.floats(-38.0, 38.0), st.floats(1e-4, 2.0),
           st.floats(0.01, 50.0))
    @settings(max_examples=200)
    def test_strictly_increasing_in_w(self, w, step, sigma):
        assert log_censor_F(w + step, sigma) >= log_censor_F(w, sigma) - 1e-12


class TestSolver:
    @pytest.mark.parametrize("mu", MU_GRID)
    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    def test_grid_contract(self, mu, sigma):
        sol = solve_normal_censor(mu, sigma)
        assert sol.residual <= 1e-12
        assert sol.log_b_tilde >= 0.0  # b_tilde > 1, up to double saturation
        assert 0.0 <= sol.u <= 1.0
        # u = b_tilde^-2 saturates only where doubles cannot express it:
        # u == 0 requires an astronomically large censor price, u == 1
        # a censor price within one ulp of 1
        if sol.u == 0.0:
            assert sol.log_b_tilde > 350.0
        if sol.u == 1.0:
            assert sol.log_b_tilde <= 1e-15
        assert abs(martingale_identity_residual(mu, sigma, sol.w)) <= 1e-10

    def test_reference_point(self):
        sol = solve_normal_censor(0.05, 0.3)
        assert sol.b_tilde > 1.0
        assert sol.residual <= 1e-12
        assert sol.u == pytest.approx(sol.b_tilde ** -2, rel=1e-14)

    def test_small_sigma_matches_leading_form(self):
        mu, sigma = 0.05, 0.01
        sol = solve_normal_censor(mu, sigma)
        approx = -mu / sigma + 0.5 * sigma
        assert abs(sol.w - approx) <= 0.01 * sigma

    def test_large_sigma_matches_leading_form(self):
        mu, sigma = 0.05, 40.0
        sol = solve_normal_censor(mu, sigma)
        m = mu_hat(mu)
        approx = sigma - m - 1.0 / (sigma - m)
        assert abs(sol.w - approx) * (sigma - m) <= 0.1

    def test_sigma_w_tends_to_minus_mu(self):
        for mu in [0.05, 0.5, 2.0]:
            sol = solve_normal_censor(mu, 1e-3)
            assert abs(1e-3 * sol.w + mu) <= 0.01

    def test_censor_price_to_one_as_sigma_vanishes(self):
        prices = [censor_price(0.05, s) for s in (0.3, 0.1, 0.03, 0.01)]
        assert all(p > 1.0 for p in prices)
        assert all(b < a for a, b in zip(prices, prices[1:]))
        assert prices[-1] == pytest.approx(1.0, abs=5e-3)

    def test_b_phi_bound(self):
        # b_tilde * Phi(-W) < 1 is forced by the martingale identity
        for mu, sigma in [(0.05, 0.3), (0.5, 2.0), (2.0, 10.0)]:
            sol = solve_normal_censor(mu, sigma)
            assert sol.b_tilde * norm_cdf_complement(sol.w) < 1.0

    def test_domain_errors(self):
        for mu, sigma in [(0.0, 0.3), (-1.0, 0.3), (0.05, 0.0),
                          (0.05, -1.0), (800.0, 0.3)]:
            with pytest.raises(DomainError):
                solve_normal_censor(mu, sigma)

    def test_extreme_corner_overflowing_b(self):
        # sigma = 50, small mu: b_tilde overflows the double range but
        # the log field and the identity remain finite and accurate
        sol = solve_normal_censor(0.01, 50.0)
        assert sol.b_tilde == math.inf
        assert sol.log_b_tilde > 709.0
        assert abs(martingale_identity_residual(0.01, 50.0, sol.w)) <= 1e-10


class TestMuHat:
    def test_inverse_property(self):
        for mu in [0.01, 0.05, math.log(2.0), 1.0, 5.0]:
            m = mu_hat(mu)
            assert norm_cdf(-m) == pytest.approx(math.exp(-mu), rel=1e-11)

    def test_sign_boundary_at_log_two(self):
        assert mu_hat(math.log(2.0)) == pytest.approx(0.0, abs=1e-12)
        assert mu_hat(0.05) < 0.0
        assert mu_hat(1.0) > 0.0


class TestQuantityAndTimePath:
    def test_quantity_closed_form(self):
        assert optimal_forward_quantity(1.0) == 1.0
        assert optimal_forward_quantity(2.0) == 0.25

    def test_quantity_domain(self):
        with pytest.raises(DomainError):
            optimal_forward_quantity(0.0)
        with pytest.raises(DomainError):
            optimal_forward_quantity(-2.0)

    def test_time_path_small_theta(self):
        params = ModelParams.from_variance(0.05, 0.07)
        sol = censor_time_path(params, 1e-6)
        assert 0.0 < sol.log_b_tilde < 1e-2

    def test_time_path_increasing_low_dispersion(self):
        params = ModelParams.from_variance(0.05, 0.2)  # kappa = 0.25
        thetas = np.geomspace(0.01, 100.0, 25)
        logs = [censor_time_path(params, t).log_b_tilde for t in thetas]
        assert all(b > a for a, b in zip(logs, logs[1:]))

    def test_time_path_unimodal_high_dispersion(self):
        params = ModelParams.from_variance(0.05, 0.05)  # kappa = 1
        thetas = np.geomspace(0.01, 100.0, 49)
        logs = [censor_time_path(params, t).log_b_tilde for t in thetas]
        peak = int(np.argmax(logs))
        assert 0 < peak < len(logs) - 1
        assert all(b > a for a, b in zip(logs[:peak], logs[1:peak + 1]))
        assert all(b < a for a, b in zip(logs[peak:], logs[peak + 1:]))


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _w_tolerance(mu, sigma, w):
    """How far two solves' W may lie apart: 128 ulps of |W| + 1/F_w.

    F is flat where dF/dw is tiny, and there a root to within an ulp of F
    lies far from the true W.
    """
    log_fw = math.log(sigma) + sigma * w - 0.5 * sigma ** 2 + float(log_ndtr(-w))
    return 2.0 * 64.0 * EPS * (abs(w) + math.exp(min(-log_fw, 700.0)))


class TestHorizonMap:
    """censor_time_path is the one map from (params, theta) to a censor."""

    PARAMS = ModelParams.from_variance(0.05, 0.07)
    THETAS = np.geomspace(1e-3, 1e3, 100).reshape(2, 50)

    def test_array_matches_float_path(self):
        sol = censor_time_path(self.PARAMS, self.THETAS)
        for field in ("mu", "sigma", "w", "b_tilde", "log_b_tilde", "u", "residual",
                      "iterations"):
            assert getattr(sol, field).shape == self.THETAS.shape
        for i in np.ndindex(self.THETAS.shape):
            one = censor_time_path(self.PARAMS, float(self.THETAS[i]))
            assert abs(sol.w[i] - one.w) <= _w_tolerance(one.mu, one.sigma, one.w), i

    def test_solution_holds_the_scaled_point(self):
        sol = censor_time_path(self.PARAMS, self.THETAS)
        mu, sigma = self.PARAMS.scaled(self.THETAS)
        assert np.array_equal(sol.mu, mu) and np.array_equal(sol.sigma, sigma)
        for theta in (1e-3, 0.37, 1.0, 42.0, 1e3):
            one = censor_time_path(self.PARAMS, theta)
            scaled = ScaledParams.from_horizon(self.PARAMS, theta)
            assert (one.mu, one.sigma) == (scaled.mu, scaled.sigma)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
    def test_nonpositive_theta_raises_on_both_paths(self, theta):
        with pytest.raises(DomainError):
            censor_time_path(self.PARAMS, theta)
        with pytest.raises(DomainError):
            censor_time_path(self.PARAMS, np.array([1.0, theta]))

    def test_g_bar_is_profit_at_the_scaled_point(self):
        p = self.PARAMS
        for theta in np.geomspace(1e-3, 1e3, 50).tolist():
            assert g_bar(theta, p) == expected_profit(p.mu_bar * theta,
                                                      p.sigma_bar * math.sqrt(theta))


def _domain_sample():
    """Log-uniform (mu, sigma) over the whole valid domain, plus its corners."""
    rng = np.random.default_rng(7)
    mu = np.exp(rng.uniform(math.log(1e-12), math.log(700.0), 3000))
    sigma = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), 3000))
    edge_mu, edge_sigma = np.meshgrid([1e-12, 1e-3, 1.0, 50.0, 700.0],
                                      [1e-8, 1e-4, 1.0, 30.0, 1e3])
    return (np.concatenate([mu, edge_mu.ravel()]),
            np.concatenate([sigma, edge_sigma.ravel()]))


class TestArrayKernel:
    def test_matches_scalar_solver_over_domain(self):
        mu, sigma = _domain_sample()
        sol = solve_normal_censor_array(mu, sigma)
        assert np.isfinite(sol.w).all() and np.isfinite(sol.log_b_tilde).all()
        assert np.isfinite(sol.u).all()
        assert (sol.residual <= 1e-12).all()
        assert (sol.log_b_tilde >= 0.0).all()
        # a plain Newton from the seed took up to 60 steps in the far tails
        assert sol.iterations.max() <= 30
        for i in range(mu.size):
            ref = solve_normal_censor(mu[i], sigma[i])
            tol = _w_tolerance(mu[i], sigma[i], ref.w)
            assert abs(sol.w[i] - ref.w) <= tol, (mu[i], sigma[i])
            assert (sol.b_tilde[i] == math.inf) == (ref.b_tilde == math.inf)

    def test_broadcasting_and_shapes(self):
        sigmas = np.array([0.01, 0.3, 1.0, 5.0])
        row = solve_normal_censor_array(0.05, sigmas)
        for field in ("w", "b_tilde", "log_b_tilde", "u", "residual", "iterations"):
            assert getattr(row, field).shape == (4,)
        for s, w in zip(sigmas, row.w):
            assert w == pytest.approx(solve_normal_censor(0.05, s).w, rel=1e-12)
        mus = np.array([[0.05], [0.5], [2.0]])
        grid = solve_normal_censor_array(mus, sigmas[None, :])
        assert grid.w.shape == grid.iterations.shape == (3, 4)
        np.testing.assert_array_equal(grid.w[0], row.w)
        point = solve_normal_censor_array(0.05, 0.3)
        for field in ("w", "b_tilde", "log_b_tilde", "u", "residual", "iterations"):
            assert getattr(point, field).shape == ()

    @pytest.mark.parametrize("mu,sigma", [(-1.0, 0.3), (0.05, 0.0),
                                          (800.0, 0.3), (0.05, math.nan),
                                          (0.05, math.inf)])
    def test_invalid_element_is_named(self, mu, sigma):
        mus = np.array([0.05, 0.5, mu, 1.0])
        sigmas = np.array([0.3, 0.3, sigma, 0.3])
        with pytest.raises(DomainError, match=r"element 2 \(mu=%r, sigma=%r\)"
                           % (mu, sigma)):
            solve_normal_censor_array(mus, sigmas)


class TestScalarSolve:
    def test_kernel_iteration_on_floats(self, monkeypatch):
        # the scalar solve runs the kernel's Newton on log F + mu, not on F
        def refuse(w, sigma):
            raise AssertionError("the scalar solve evaluated censor_F")

        monkeypatch.setattr(censor_module, "censor_F", refuse)
        mu, sigma = _domain_sample()
        kernel = solve_normal_censor_array(mu, sigma)
        for i, (m, s) in enumerate(zip(mu.tolist(), sigma.tolist())):
            sol = solve_normal_censor(m, s)
            w = float(kernel.w[i])
            tol = _w_tolerance(m, s, w)
            assert abs(sol.w - w) <= tol, (m, s)
            # log b_tilde = sigma*W + mu - sigma^2/2, rounded at its largest term
            scale = abs(s * w) + m + 0.5 * s * s
            assert abs(sol.log_b_tilde - kernel.log_b_tilde[i]) <= s * tol + 64.0 * EPS * scale
            assert abs(sol.iterations - int(kernel.iterations[i])) <= 1, (m, s)

    @given(log_uniform(2.2e-308, 700.0), log_uniform(1e-8, SIGMA_MAX))
    @settings(max_examples=200, deadline=None)
    def test_finite_or_typed_error(self, mu, sigma):
        # under the suite's warning filters; on floats an overflow or a log of
        # 0 would raise OverflowError or ValueError where numpy only warned
        try:
            sol = solve_normal_censor(mu, sigma)
        except (DomainError, ConvergenceError):
            return
        assert math.isfinite(sol.w) and sol.log_b_tilde >= 0.0
        assert sol.residual <= 1e-12
        w = float(solve_normal_censor_array(mu, sigma).w)
        assert abs(sol.w - w) <= _w_tolerance(mu, sigma, w)

    @given(st.lists(st.tuples(log_uniform(2.2e-308, 700.0), log_uniform(1e-8, SIGMA_MAX)),
                    min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_kernel_finite_or_typed_error(self, points):
        mu, sigma = np.array(points).T
        try:
            sol = solve_normal_censor_array(mu, sigma)
        except (DomainError, ConvergenceError):
            return
        assert np.isfinite(sol.w).all() and (sol.log_b_tilde >= 0.0).all()
        assert (sol.residual <= 1e-12).all()


class TestSigmaMax:
    def test_both_solvers_hold_the_contract_up_to_sigma_max(self):
        # the residual floor ulp(W)/2 * F_w grows with sigma; SIGMA_MAX keeps
        # it below 4.4e-13 for every mu
        rng = np.random.default_rng(3)
        lo_mu = float(np.finfo(float).tiny)
        mu = np.exp(rng.uniform(math.log(lo_mu), math.log(700.0), 20000))
        sigma = np.exp(rng.uniform(math.log(1e2), math.log(SIGMA_MAX), 20000))
        edge_mu, edge_sigma = np.meshgrid([lo_mu, 700.0], [1e2, SIGMA_MAX])
        mu = np.concatenate([mu, edge_mu.ravel()])
        sigma = np.concatenate([sigma, edge_sigma.ravel()])
        kernel = solve_normal_censor_array(mu, sigma)
        assert np.isfinite(kernel.w).all() and (kernel.log_b_tilde >= 0.0).all()
        assert (kernel.residual <= 1e-12).all()
        for i, (m, s) in enumerate(zip(mu.tolist(), sigma.tolist())):
            sol = solve_normal_censor(m, s)
            assert sol.residual <= 1e-12, (m, s)
            w = float(kernel.w[i])
            assert abs(sol.w - w) <= _w_tolerance(m, s, w), (m, s)

    @pytest.mark.parametrize("mu,sigma", [(0.81, 2.5e4), (0.05, math.nextafter(SIGMA_MAX, 1e5)),
                                          (1e-6, 1e10)])
    def test_refused_above_sigma_max(self, mu, sigma):
        # (0.81, 2.5e4) raised ConvergenceError on its residual before the bound
        with pytest.raises(DomainError, match=r"\(mu=%r, sigma=%r\) outside" % (mu, sigma)):
            solve_normal_censor(mu, sigma)
        with pytest.raises(DomainError, match=r"element 1 \(mu=%r, sigma=%r\)" % (mu, sigma)):
            solve_normal_censor_array([0.05, mu], [0.3, sigma])


def _solve_float(solve, mu, sigma):
    sol = solve(mu, sigma)
    return float(sol.w), float(sol.log_b_tilde)


BOTH_SOLVERS = pytest.mark.parametrize("solve", [solve_normal_censor, solve_normal_censor_array],
                                       ids=["scalar", "kernel"])


class TestTinyDrift:
    # W at (1e-17, 0.3) from 50-digit mpmath, as the root of log F + mu
    W_TINY = 8.39446650573081
    # from 60-digit mpmath: W at (1.1180598087987526e-12, 5.476645853463777),
    # and log b_tilde at (3.0907819701e-05, 4.49026293e-06)
    W_NEAR_ONE = 12.37823009163968
    LOG_B_TINY = 1.8344176607100555e-18

    def test_mu_hat_finite_where_exp_rounds_to_one(self):
        assert math.exp(-1e-17) == 1.0
        # Phi^{-1}(1e-17) from 50-digit mpmath
        assert mu_hat(1e-17) == pytest.approx(-8.493793224109598, rel=1e-13)
        # the complement form would round to 1 at the top of the domain
        assert mu_hat(700.0) == -inv_norm_cdf(math.exp(-700.0))

    def test_kernel_solves_tiny_drift(self):
        sol = solve_normal_censor_array(np.array([1e-17, 0.05]), 0.3)
        assert sol.w[0] == pytest.approx(self.W_TINY, rel=1e-14)
        assert sol.w[1] == pytest.approx(solve_normal_censor(0.05, 0.3).w, rel=1e-14)

    def test_scalar_solver_solves_tiny_drift(self):
        assert math.exp(-1e-17) == 1.0
        sol = solve_normal_censor(1e-17, 0.3)
        assert sol.w == pytest.approx(self.W_TINY, rel=1e-14)
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("mu", [5e-324, 1e-315, 1e-310])
    def test_scalar_solver_rejects_subnormal_drift(self, mu):
        with pytest.raises(DomainError, match=r"\(mu=%r, sigma=0.3\) outside" % mu):
            solve_normal_censor(mu, 0.3)

    @BOTH_SOLVERS
    def test_w_where_one_minus_F_is_tiny(self, solve):
        # 1 - F ~ 1.1e-12: a root of F - exp(-mu) was off by 1.4e-5 here
        w, _ = _solve_float(solve, 1.1180598087987526e-12, 5.476645853463777)
        assert w == pytest.approx(self.W_NEAR_ONE, rel=1e-14)

    @BOTH_SOLVERS
    def test_log_b_tilde_not_clamped_where_it_is_tiny(self, solve):
        # sigma*W ~ -mu cancels to 1.8e-18, which a clamp at 0 used to hide
        _, log_b = _solve_float(solve, 3.0907819701e-05, 4.49026293e-06)
        assert log_b > 0.0
        assert log_b == pytest.approx(self.LOG_B_TINY, rel=1e-2)

    @pytest.mark.parametrize("mu", [5e-324, 1e-315, 1e-310])
    def test_kernel_rejects_subnormal_drift(self, mu):
        # there h = log F + mu is subnormal and Newton cannot resolve W:
        # the element is refused up front, not after MAX_ITER passes
        mus = np.array([0.05, 0.5, mu, 1.0])
        with pytest.raises(DomainError, match=r"element 2 \(mu=%r, sigma=0.3\)" % mu):
            solve_normal_censor_array(mus, 0.3)

    def test_kernel_solves_smallest_normal_drift(self):
        sigmas = np.array([1e-6, 1e-3, 1.0, 1e3])
        sol = solve_normal_censor_array(float(np.finfo(float).tiny), sigmas)
        assert (sol.iterations <= 6).all()
        assert (sol.residual <= 1e-12).all()
