"""Comparative statics: sign constraints on a parameter grid, the
hazard identity as a closed-form cross-check, and the stationarity
system for the censor-path maximum."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censor_lab import censor as censor_module
from censor_lab import statics as statics_module
from censor_lab import timing as timing_module
from censor_lab.censor import solve_normal_censor, solve_normal_censor_array
from censor_lab.errors import ConvergenceError, DomainError
from censor_lab.model import ModelParams, ScaledParams
from censor_lab.special import hazard
from censor_lab.statics import (
    censor_shape_check,
    db_dmu_sign,
    db_dsigma_sign,
    dw_dmu,
    dw_dsigma,
    hazard_identity_residual,
    omega_curve,
    omega_sweep,
    stationarity_solve,
)

MU_NODES = np.geomspace(0.02, 0.5, 10)
SIGMA_NODES = np.geomspace(0.05, 5.0, 10)
GRID = [(m, s) for m in MU_NODES for s in SIGMA_NODES]


class TestSignsOnGrid:
    @pytest.mark.parametrize("mu,sigma", GRID)
    def test_derivative_signs(self, mu, sigma):
        # for mu/sigma beyond ~6, log b_tilde itself sits at the double
        # noise floor and differencing it is meaningless
        if mu / sigma < 5.0:
            assert db_dmu_sign(mu, sigma) < 0.0
            assert db_dsigma_sign(mu, sigma) > 0.0
        assert dw_dsigma(mu, sigma) > 1.0
        dmu = dw_dmu(mu, sigma)
        assert dmu < 0.0
        # the censor coordinate responds to drift more than 1/sigma;
        # the margin over 1 shrinks below finite-difference resolution
        # at the most extreme mu/sigma nodes
        assert -sigma * dmu > 1.0 - 1e-6

    @pytest.mark.parametrize("mu,sigma", GRID)
    def test_hazard_identity(self, mu, sigma):
        assert hazard_identity_residual(mu, sigma) <= 1e-4

    def test_step_validation(self):
        with pytest.raises(DomainError):
            db_dmu_sign(0.05, 0.3, h=0.1)
        with pytest.raises(DomainError):
            db_dsigma_sign(0.05, 0.3, h=1.0)


def mp_derivatives(mu, sigma):
    """(dW/dmu, dW/dsigma, db/dmu, db/dsigma) at 50 digits, independent of the library.

    W is the root of log F(w, sigma) + mu, unique since F increases in w,
    so the double-precision seed does not bias it.  Each derivative is a
    central difference at step 1e-20: truncation ~1e-40, rounding ~1e-30.
    """
    seed = solve_normal_censor(mu, sigma).w
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")

        def w(m, s):
            return mpmath.findroot(
                lambda x: mpmath.log(mpmath.ncdf(x - s) + mpmath.exp(s * x - s * s / 2)
                                     * mpmath.ncdf(-x)) + m, seed)

        def log_b(m, s):
            return s * w(m, s) + m - s * s / 2

        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        b = mpmath.exp(log_b(mu, sigma))
        return [float(v) for v in (
            (w(mu + h, sigma) - w(mu - h, sigma)) / (2 * h),
            (w(mu, sigma + h) - w(mu, sigma - h)) / (2 * h),
            b * (log_b(mu + h, sigma) - log_b(mu - h, sigma)) / (2 * h),
            b * (log_b(mu, sigma + h) - log_b(mu, sigma - h)) / (2 * h))]


CLOSED_FORMS = (dw_dmu, dw_dsigma, db_dmu_sign, db_dsigma_sign)


class TestClosedForms:
    @pytest.mark.parametrize("mu,sigma", [(0.05, 0.3), (0.5, 2.0), (2.0, 0.5)])
    def test_match_high_precision_reference(self, mu, sigma):
        got = [f(mu, sigma) for f in CLOSED_FORMS]
        np.testing.assert_allclose(got, mp_derivatives(mu, sigma), rtol=1e-13, atol=0.0)

    def test_match_finite_difference_oracle_on_grid(self):
        # at a 1e-4 relative step the central differences are within ~5e-6
        # of the closed forms on this grid; at a 1e-6 step rounding in
        # log b_tilde alone moves them by up to ~5e-4
        def w(mu, sigma):
            return solve_normal_censor(mu, sigma).w

        worst = 0.0
        for mu, sigma in GRID:
            hm, hs = 1e-4 * mu, 1e-4 * sigma
            dw_dmu_fd = (w(mu + hm, sigma) - w(mu - hm, sigma)) / (2 * hm)
            dw_dsigma_fd = (w(mu, sigma + hs) - w(mu, sigma - hs)) / (2 * hs)
            pairs = [(dw_dmu(mu, sigma), dw_dmu_fd), (dw_dsigma(mu, sigma), dw_dsigma_fd)]
            # beyond mu/sigma ~ 5 log b_tilde sits at the double noise floor
            # and the difference quotient of it is meaningless
            if mu / sigma < 5.0:
                pairs += [(db_dmu_sign(mu, sigma), db_dmu_sign(mu, sigma, h=hm)),
                          (db_dsigma_sign(mu, sigma), db_dsigma_sign(mu, sigma, h=hs))]
            worst = max(worst, *(abs(a - b) / abs(b) for a, b in pairs))
        assert worst <= 1e-4

    @pytest.mark.parametrize("derivative", CLOSED_FORMS)
    def test_one_censor_solve(self, derivative, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_normal_censor(*args, **kwargs)

        monkeypatch.setattr(statics_module, "solve_normal_censor", counting)
        derivative(0.05, 0.3)
        assert calls == [(0.05, 0.3)]

    @pytest.mark.parametrize("mu,sigma", [(0.01, 50.0), (2.0, 0.05), (700.0, 1e-3)])
    def test_domain_edges(self, mu, sigma):
        # b_tilde overflows at the first point; at the other two the
        # derivatives of b_tilde underflow, far below what a difference
        # quotient of log b_tilde resolves
        assert db_dmu_sign(mu, sigma) <= 0.0
        assert db_dsigma_sign(mu, sigma) >= 0.0
        assert math.isfinite(dw_dmu(mu, sigma)) and dw_dmu(mu, sigma) < 0.0
        assert math.isfinite(dw_dsigma(mu, sigma)) and dw_dsigma(mu, sigma) > 1.0

    def test_drift_derivative_at_largest_mu(self):
        # F ~ exp(sigma*W - sigma^2/2) there, so dW/dmu ~ -1/sigma
        assert dw_dmu(700.0, 1e-3) == pytest.approx(-1000.0, rel=1e-9)


class TestMonotoneCombinations:
    @pytest.mark.parametrize("mu", [0.02, 0.05, 0.2])
    def test_increasing_in_sigma(self, mu):
        # both sigma*W - sigma^2/2 (= log b_tilde - mu) and W - sigma
        # increase in sigma
        sigmas = np.geomspace(0.05, 5.0, 24)
        log_b = []
        w_minus = []
        for s in sigmas:
            sol = solve_normal_censor(mu, s)
            log_b.append(sol.log_b_tilde)
            w_minus.append(sol.w - s)
        assert all(b > a for a, b in zip(log_b, log_b[1:]))
        assert all(b > a for a, b in zip(w_minus, w_minus[1:]))


class TestOmegaCurve:
    def test_positive_and_vanishing_at_origin(self):
        vals = omega_sweep([0.5, 0.1, 0.02])
        assert np.all(vals > 0.0)
        assert vals[2] < vals[1] < vals[0]

    def test_peak_location_and_height(self):
        sigmas = np.linspace(0.5, 5.0, 46)
        vals = omega_sweep(sigmas)
        i = int(np.argmax(vals))
        assert vals[i] == pytest.approx(0.05102, abs=5e-4)
        assert 2.2 <= sigmas[i] <= 2.9

    def test_large_sigma_estimate(self):
        # omega(sigma) ~ (2*log 2 - 1)/sigma up to a modest constant
        est = (2.0 * math.log(2.0) - 1.0) / 20.0
        assert omega_curve(20.0) == pytest.approx(est, rel=0.25)

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_curve(0.0)

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4])
    def test_small_sigma_against_mpmath(self, sigma):
        # the root is placed to ~eps/sigma, the bound OMEGA_SIGMA_MIN is drawn from
        with mpmath.workdps(50):
            s = mpmath.mpf(sigma)

            def g(w):
                x = s - w
                log_f = mpmath.log(mpmath.ncdf(w - s) + mpmath.exp(s * w - s * s / 2)
                                   * mpmath.ncdf(-w))
                return -s / 2 * mpmath.npdf(x) / mpmath.ncdf(-x) - log_f

            want = float(mpmath.findroot(g, 0.062 * s))
        assert abs(omega_curve(sigma) - want) <= 2.0 * np.finfo(float).eps / sigma
        assert want == pytest.approx(0.062 * sigma, rel=1e-2)

    def test_refused_below_the_rounding_floor(self):
        # at sigma = 1e-8 the solve returned -1.1e-8, outside omega's range [0, 1]
        assert 1e-6 < statics_module.OMEGA_SIGMA_MIN < 1e-5
        omega_curve(statics_module.OMEGA_SIGMA_MIN)
        with pytest.raises(DomainError, match="sigma >= "):
            omega_curve(1e-8)

    def test_bracket_ends_evaluated_once(self, monkeypatch):
        # newton takes the sign check's two end values from its caller:
        # the two ends and seven Newton points, none of them twice
        calls, log_F = [], statics_module._log_F

        def counting(w, sigma):
            calls.append(w)
            return log_F(w, sigma)

        monkeypatch.setattr(statics_module, "_log_F", counting)
        omega_curve(1.0)
        assert len(calls) == 9
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("sigma", [math.nextafter(censor_module.SIGMA_MAX, math.inf),
                                       1e100, math.inf, math.nan])
    def test_refused_above_the_censor_domain(self, sigma):
        # above SIGMA_MAX the root lost digits (9.4 relative at 1e8) and then
        # left omega's range: -0.5, the bracket end, at 1e100
        with pytest.raises(DomainError, match="sigma >= "):
            omega_curve(sigma)

    def test_top_of_the_domain_against_mpmath(self):
        sigma = censor_module.SIGMA_MAX
        with mpmath.workdps(60):
            s = mpmath.mpf(sigma)

            def g(w):
                log_f = mpmath.log(mpmath.ncdf(w - s) + mpmath.exp(s * w - s * s / 2)
                                   * mpmath.ncdf(-w))
                return -s / 2 * mpmath.npdf(s - w) / mpmath.ncdf(w - s) - log_f

            want = float(mpmath.findroot(g, 0.386 / sigma))
        assert omega_curve(sigma) == pytest.approx(want, rel=1e-7)

    @given(st.floats(math.log(1e-8), math.log(1e3)).map(math.exp))
    @settings(max_examples=60, deadline=None)
    def test_finite_or_typed_error(self, sigma):
        try:
            w = omega_curve(sigma)
        except (DomainError, ConvergenceError):
            return
        assert math.isfinite(w)


class TestStationarity:
    def test_no_root_below_half(self):
        sol = stationarity_solve(0.25)
        assert not sol.exists
        assert sol.sigma_star is None

    def test_drift_always_dominates_below_half(self):
        # for kappa < 1/2 the stationarity equation has no root:
        # sigma*H(sigma)/2 > kappa*sigma^2 for every sigma
        kappa = 0.25
        for sigma in np.geomspace(0.01, 50.0, 30):
            assert 0.5 * sigma * hazard(sigma) > kappa * sigma * sigma

    def test_boundary_reported_without_finite_root(self):
        sol = stationarity_solve(0.5)
        assert sol.exists
        assert sol.sigma_star is None

    def test_root_contract_above_half(self):
        for kappa in (0.7, 1.0, 2.0):
            sol = stationarity_solve(kappa)
            assert sol.exists and sol.sigma_star > 0.0
            assert sol.residual <= 1e-8
            # both defining equations hold at the root
            w = solve_normal_censor(sol.mu_star, sol.sigma_star).w
            lhs = 0.5 * sol.sigma_star * hazard(sol.sigma_star - w)
            assert lhs == pytest.approx(sol.mu_star, rel=1e-8)
            assert sol.mu_star == pytest.approx(kappa * sol.sigma_star ** 2,
                                                rel=1e-14)

    def test_root_location_kappa_one(self):
        sol = stationarity_solve(1.0)
        assert 0.3989 <= sol.sigma_star <= 1.0

    def test_root_diverges_toward_half(self):
        # sigma* grows without bound as kappa decreases to 1/2
        stars = [stationarity_solve(k).sigma_star for k in (1.0, 0.7, 0.55, 0.52)]
        assert all(b > a for a, b in zip(stars, stars[1:]))
        assert stars[-1] > 4.0

    def test_near_boundary_regression(self):
        # internal consistency anchor on the diverging branch
        sol = stationarity_solve(0.519222)
        assert sol.sigma_star == pytest.approx(4.331, abs=5e-4)

    def test_too_close_to_half_reported(self):
        with pytest.raises(ConvergenceError):
            stationarity_solve(0.5 + 1e-12)

    def test_crude_bounds_bracket_the_root(self):
        # stationarity_solve checks its crude bracket rather than widening
        # it: the residual must be positive at the lower bound, and
        # negative at the upper one wherever the drift cap does not bind
        kappas = 0.5 + np.geomspace(1e-9, 1e4 - 0.5, 400)
        uncapped = 0
        for kappa in kappas:
            lo, hi, cap = statics_module._crude_bracket(kappa)
            assert statics_module._stationarity_residual(kappa, lo) > 0.0, kappa
            if hi < cap:
                assert statics_module._stationarity_residual(kappa, hi) < 0.0, kappa
                uncapped += 1
        assert uncapped >= 200

    def test_domain(self):
        with pytest.raises(DomainError):
            stationarity_solve(-1.0)
        with pytest.raises(DomainError):
            stationarity_solve()

    def test_no_sigma_solved_twice(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_normal_censor(*args, **kwargs)

        monkeypatch.setattr(statics_module, "solve_normal_censor", counting)
        stationarity_solve(1.0)
        assert calls and len(set(calls)) == len(calls)

    @pytest.mark.parametrize("kappa,brent_solves", [(0.7, 12), (1.0, 14), (2.0, 15)])
    def test_fewer_solves_than_brent(self, monkeypatch, kappa, brent_solves):
        # Newton on the closed-form slope: two bracket ends and 7-9 steps,
        # where Brent's method took 10-13
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_normal_censor(*args, **kwargs)

        monkeypatch.setattr(statics_module, "solve_normal_censor", counting)
        stationarity_solve(kappa)
        assert len(calls) <= brent_solves - 3

    @given(st.floats(0.5, 1e6, exclude_min=True))
    @settings(max_examples=60, deadline=None)
    def test_finite_or_typed_error(self, kappa):
        try:
            sol = stationarity_solve(kappa)
        except (DomainError, ConvergenceError):
            return
        assert sol.exists
        assert all(math.isfinite(x) for x in (sol.sigma_star, sol.mu_star, sol.residual))

    def test_horizon_filled_from_params(self):
        p = ModelParams.from_variance(0.05, 0.05)  # kappa = 1
        sol = stationarity_solve(params=p)
        assert sol.theta_star_b == pytest.approx(sol.mu_star / p.mu_bar,
                                                 rel=1e-14)


class TestShapeCheck:
    def test_increasing_at_low_dispersion(self):
        p = ModelParams.from_variance(0.05, 0.2)  # kappa = 0.25
        rep = censor_shape_check(p)
        assert rep.shape == "increasing"
        assert rep.theta_peak is None

    def test_unimodal_at_high_dispersion(self):
        p = ModelParams.from_variance(0.05, 0.05)  # kappa = 1
        rep = censor_shape_check(p)
        assert rep.shape == "unimodal"
        # the grid peak must match the stationarity solution to within
        # one log-grid step
        sol = stationarity_solve(params=p)
        assert abs(math.log(rep.theta_peak / sol.theta_star_b)) \
            <= rep.log_grid_step

    @pytest.mark.parametrize("kappa", (0.25, 0.5, 1.0))
    def test_matches_scalar_loop(self, kappa):
        # the loop of scalar solves the array kernel replaced
        p = ModelParams.from_variance(0.05, 0.05 / kappa)
        rep = censor_shape_check(p)
        log_b = np.array([
            solve_normal_censor(s.mu, s.sigma).log_b_tilde
            for s in (ScaledParams.from_horizon(p, t) for t in rep.thetas)])
        np.testing.assert_allclose(rep.log_b_values, log_b, rtol=0.0, atol=1e-12)
        peak = int(np.argmax(log_b))
        increasing = bool(np.all(np.diff(log_b) > 0.0)) or peak == log_b.size - 1
        assert rep.shape == ("increasing" if increasing else "unimodal")
        assert rep.theta_peak == (None if increasing else rep.thetas[peak])

    def test_one_kernel_call_and_no_scalar_solve(self, monkeypatch):
        scalar, kernel = [], []

        def counting_scalar(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            kernel.append(args)
            return solve_normal_censor_array(*args, **kwargs)

        # censor_shape_check solves through censor.censor_time_path
        monkeypatch.setattr(censor_module, "solve_normal_censor", counting_scalar)
        monkeypatch.setattr(censor_module, "solve_normal_censor_array", counting_kernel)
        censor_shape_check(ModelParams.from_variance(0.05, 0.07))
        assert scalar == []
        assert len(kernel) == 1 and kernel[0][0].shape == (400,)

    def test_validation(self):
        p = ModelParams.from_variance(0.05, 0.05)
        with pytest.raises(DomainError):
            censor_shape_check(p, points=4)


# one (mu_bar, sigma2_bar) per regime: low, mid, critical and high variance
REGIME_PARAMS = [(0.05, 0.03), (0.05, 0.07), (0.05, 0.1), (0.05, 0.15)]


class TestKernelPasses:
    @pytest.mark.parametrize("mu_bar,sigma2_bar", REGIME_PARAMS)
    def test_few_passes_on_the_horizon_grids(self, mu_bar, sigma2_bar):
        # the seed is within Newton's quadratic range over both grids; the
        # small-sigma seed without its second-order term averages 3.8-4.6 passes
        params = ModelParams.from_variance(mu_bar, sigma2_bar)
        lo, hi = timing_module.ENDPOINT_MARGIN, 1.0 - timing_module.ENDPOINT_MARGIN
        scan = lo + (hi - lo) * np.arange(timing_module.SCAN_POINTS) / (
            timing_module.SCAN_POINTS - 1)
        passes = []
        for thetas in (np.geomspace(1e-3, 1e3, 400), scan):
            sol = solve_normal_censor_array(*params.scaled(thetas))
            assert sol.iterations.max() <= 10
            passes.append(sol.iterations)
        assert np.concatenate(passes).mean() <= 3.5
