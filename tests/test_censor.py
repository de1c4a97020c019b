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
from scipy.optimize import brentq
from scipy.special import log_ndtr

from censor_lab import censor as censor_module
from censor_lab.censor import (
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
from censor_lab.errors import DomainError
from censor_lab.model import ModelParams
from censor_lab.special import inv_norm_cdf, norm_cdf, norm_cdf_complement

MU_GRID = np.geomspace(1e-3, 5.0, 9)
SIGMA_GRID = np.geomspace(1e-3, 50.0, 11)


class TestCensorF:
    def test_sigma_zero_is_one(self):
        for w in [-5.0, 0.0, 3.0, 40.0]:
            assert censor_F(w, 0.0) == 1.0

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

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            solve_normal_censor(0.05, 0.3, tol=1e-6)
        with pytest.raises(DomainError):
            solve_normal_censor(0.05, 0.3, tol=0.0)

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
        eps = np.finfo(float).eps
        for i in range(mu.size):
            ref = solve_normal_censor(mu[i], sigma[i])
            # F is flat where dF/dw is tiny, and there a root to within
            # an ulp of F lies far from the true W
            log_fw = (math.log(sigma[i]) + sigma[i] * ref.w
                      - 0.5 * sigma[i] ** 2 + float(log_ndtr(-ref.w)))
            tol = 2.0 * 64.0 * eps * (abs(ref.w) + math.exp(min(-log_fw, 700.0)))
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
        assert solve_normal_censor_array(0.05, 0.3).w.shape == ()

    @pytest.mark.parametrize("mu,sigma", [(-1.0, 0.3), (0.05, 0.0),
                                          (800.0, 0.3), (0.05, math.nan),
                                          (0.05, math.inf)])
    def test_invalid_element_is_named(self, mu, sigma):
        mus = np.array([0.05, 0.5, mu, 1.0])
        sigmas = np.array([0.3, 0.3, sigma, 0.3])
        with pytest.raises(DomainError, match=r"element 2 \(mu=%r, sigma=%r\)"
                           % (mu, sigma)):
            solve_normal_censor_array(mus, sigmas)


def _old_polish_solve(mu, sigma):
    """The scalar solve with its former polish, which re-evaluated F at each iterate.

    The oracle for the scalar solver: bracket, brentq and the polish as
    they stood, through the module's ``censor_F`` so its calls are counted.
    """
    target = math.exp(-mu)

    def g(w):
        return censor_module.censor_F(w, sigma) - target

    w0 = censor_module._seed(mu, sigma)
    step = max(0.5, 0.05 * abs(w0))
    lo, hi = w0 - step, w0 + step
    glo, ghi = g(lo), g(hi)
    while glo > 0.0:
        step *= 2.0
        lo -= step
        glo = g(lo)
    while ghi < 0.0:
        step *= 2.0
        hi += step
        ghi = g(hi)
    w = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=censor_module.MAX_ITER)
    residual = abs(g(w))
    for _ in range(6):
        if residual == 0.0:
            break
        deriv = censor_module._dF_dw(w, sigma)
        if deriv <= 0.0 or not math.isfinite(deriv):
            break
        w_next = w - g(w) / deriv
        r_next = abs(g(w_next))
        if r_next >= residual:
            break
        w, residual = w_next, r_next
    return w, max(sigma * w + mu - 0.5 * sigma * sigma, 0.0), residual


class TestScalarEvaluations:
    def test_bit_identical_to_old_polish_with_fewer_F_calls(self, monkeypatch):
        calls = []
        f = censor_module.censor_F

        def counting(w, sigma):
            calls.append(w)
            return f(w, sigma)

        monkeypatch.setattr(censor_module, "censor_F", counting)
        mu, sigma = _domain_sample()
        old_calls = new_calls = 0
        for m, s in zip(mu.tolist(), sigma.tolist()):
            calls.clear()
            want = _old_polish_solve(m, s)
            old_calls += len(calls)
            calls.clear()
            sol = solve_normal_censor(m, s)
            new_calls += len(calls)
            assert (sol.w, sol.log_b_tilde, sol.residual) == want, (m, s)
        # brentq's two bracket ends, its root and one F per polish step
        assert new_calls <= old_calls - 3 * mu.size


class TestTinyDrift:
    # W at (1e-17, 0.3) from 50-digit mpmath, as the root of log F + mu
    W_TINY = 8.39446650573081

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

    def test_scalar_solver_names_tiny_drift(self):
        with pytest.raises(DomainError, match=r"mu = 1e-17 .*rounds to 1"):
            solve_normal_censor(1e-17, 0.3)

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
