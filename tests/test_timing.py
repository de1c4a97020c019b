"""Optimal re-stocking date: FOC roots cross-checked by grid search.

The oracle for the exact solver is a dense evaluation of the revenue
R(theta) = theta + (1 - theta) * g_bar(theta): the solver's stationary
point must coincide with the grid argmax to within the grid spacing.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from censor_lab import censor as censor_module
from censor_lab import profit as profit_module
from censor_lab import statics as statics_module
from censor_lab import timing as timing_module
from censor_lab.censor import solve_normal_censor, solve_normal_censor_array
from censor_lab.errors import ConvergenceError, DomainError
from censor_lab.model import ModelParams
from censor_lab.profit import g_bar
from censor_lab.timing import (
    g_bar_prime,
    revenue,
    solve_foc,
    theta_case_i,
    theta_case_ii,
)

VARIANCES = (0.01, 0.03, 0.07, 0.15)


def make_params(s2: float) -> ModelParams:
    return ModelParams.from_variance(0.05, s2)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestRevenue:
    def test_endpoints(self):
        p = make_params(0.07)
        assert revenue(0.0, p) == pytest.approx(g_bar(0.0, p), rel=1e-15)
        assert revenue(1.0, p) == 1.0

    def test_domain(self):
        p = make_params(0.07)
        for t in (-0.1, 1.1):
            with pytest.raises(DomainError):
                revenue(t, p)

    def test_interior_beats_endpoints(self):
        # waiting some positive fraction of the period strictly pays
        p = make_params(0.07)
        assert revenue(0.5, p) > max(revenue(0.0, p), revenue(1.0, p))


class TestExactSolver:
    @pytest.mark.parametrize("s2", VARIANCES)
    def test_solution_contract(self, s2):
        p = make_params(s2)
        sol = solve_foc(p)
        assert 0.0 < sol.theta_star < 1.0
        assert sol.foc_residual <= 1e-6
        assert sol.is_smallest_root

    @pytest.mark.parametrize("s2", VARIANCES)
    def test_local_maximum(self, s2):
        p = make_params(s2)
        sol = solve_foc(p)
        eps = 1e-4
        assert revenue(sol.theta_star - eps, p) < sol.r_value
        assert revenue(sol.theta_star + eps, p) < sol.r_value

    @pytest.mark.parametrize("s2", VARIANCES)
    def test_grid_argmax_agreement(self, s2):
        p = make_params(s2)
        sol = solve_foc(p)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        values = [revenue(t, p) for t in grid]
        best = grid[int(np.argmax(values))]
        assert abs(sol.theta_star - best) <= grid[1] - grid[0]

    def test_theta_grows_with_variance(self):
        stars = [solve_foc(make_params(s2)).theta_star for s2 in VARIANCES]
        assert all(b > a for a, b in zip(stars, stars[1:]))


def central_difference(theta: float, params: ModelParams) -> float:
    """Finite-difference oracle for g_bar', independent of the closed form."""
    h = min(1e-6 * max(theta, 1.0), 0.5 * theta)
    return (g_bar(theta + h, params) - g_bar(theta - h, params)) / (2.0 * h)


class TestGBarPrime:
    @pytest.mark.parametrize("s2", VARIANCES)
    @pytest.mark.parametrize("theta", (0.01, 0.3, 0.7, 5.0))
    def test_matches_central_difference(self, s2, theta):
        p = make_params(s2)
        assert g_bar_prime(theta, p) == pytest.approx(
            central_difference(theta, p), rel=1e-6)

    @pytest.mark.parametrize("s2", VARIANCES)
    @pytest.mark.parametrize("theta", (0.01, 0.3, 0.7))
    def test_revenue_second_matches_central_difference(self, s2, theta):
        # R'' steers solve_foc's Newton steps; the oracle differences the closed-form R'
        p, h = make_params(s2), 1e-5 * theta
        want = (timing_module._revenue_prime(theta + h, p)
                - timing_module._revenue_prime(theta - h, p)) / (2.0 * h)
        at = timing_module._horizon(theta, p)
        assert at.revenue_second(theta, p) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("s2", VARIANCES)
    def test_foc_residual_at_machine_level(self, s2):
        assert solve_foc(make_params(s2)).foc_residual <= 1e-10

    def test_one_censor_solve_per_scan_point(self, monkeypatch):
        # every module that imported the solver gets the counting wrapper;
        # timing solves through censor.censor_time_path
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_normal_censor(*args, **kwargs)

        for mod in (censor_module, profit_module):
            assert mod.solve_normal_censor is solve_normal_censor
            monkeypatch.setattr(mod, "solve_normal_censor", counting)
        solve_foc(ModelParams.from_variance(0.05, 0.07))
        assert 0 < len(calls) <= 300


def scalar_scan_theta_star(params: ModelParams) -> float:
    """solve_foc's root as found by a loop of scalar R' evaluations."""
    lo_end, hi_end = timing_module.ENDPOINT_MARGIN, 1.0 - timing_module.ENDPOINT_MARGIN
    n = timing_module.SCAN_POINTS
    grid = [lo_end + (hi_end - lo_end) * i / (n - 1) for i in range(n)]
    values = [timing_module._revenue_prime(t, params) for t in grid]
    for i in range(n - 1):
        if values[i] == 0.0:
            return grid[i]
        if values[i] * values[i + 1] < 0.0:
            return brentq(lambda t: timing_module._revenue_prime(t, params),
                          grid[i], grid[i + 1], xtol=1e-12)
    raise AssertionError("no sign change of R'")


class TestArrayScan:
    @pytest.mark.parametrize("s2", VARIANCES)
    def test_matches_scalar_scan(self, s2):
        p = make_params(s2)
        assert abs(solve_foc(p).theta_star - scalar_scan_theta_star(p)) <= 1e-12

    def test_one_kernel_call_and_few_scalar_solves(self, monkeypatch):
        scalar, kernel = [], []

        def counting_scalar(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            kernel.append(args)
            return solve_normal_censor_array(*args, **kwargs)

        for mod in (censor_module, profit_module):
            monkeypatch.setattr(mod, "solve_normal_censor", counting_scalar)
        monkeypatch.setattr(censor_module, "solve_normal_censor_array", counting_kernel)
        solve_foc(ModelParams.from_variance(0.05, 0.07))
        assert len(scalar) <= 20
        assert len(kernel) == 1
        assert kernel[0][0].shape == (timing_module.SCAN_POINTS,)


class TestCaseI:
    def test_first_order_condition(self):
        # theta solves theta/(1 - alpha*theta) == 1 - theta after the
        # low-variance profit substitution
        for alpha in (0.01, 0.1, 1.0, 5.0):
            t = theta_case_i(alpha)
            assert abs(t / (1.0 - alpha * t) - (1.0 - t)) <= 1e-12

    def test_range_and_monotonicity(self):
        ts = [theta_case_i(a) for a in (0.01, 0.1, 1.0, 5.0)]
        assert all(0.0 < t < 0.5 for t in ts)
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_small_alpha_limit(self):
        # alpha -> 0+ recovers the symmetric split 1/2 without cancellation
        assert theta_case_i(1e-12) == pytest.approx(0.5, abs=1e-12)

    def test_domain(self):
        for a in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                theta_case_i(a)


class TestCaseII:
    def test_first_order_condition(self):
        for alpha in (0.05, 0.5, 1.5, 3.0):
            t = theta_case_ii(alpha).exact
            assert abs(-math.expm1(-alpha * t) / alpha - (1.0 - t)) <= 1e-12

    def test_monotone_increasing_in_alpha(self):
        ts = [theta_case_ii(a).exact for a in (0.05, 0.5, 1.5)]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_small_alpha_limit(self):
        assert theta_case_ii(1e-8).exact == pytest.approx(0.5, abs=1e-7)

    def test_quadratic_approximation(self):
        r = theta_case_ii(0.5)
        assert r.approx == pytest.approx(1.0 / (1.0 + math.sqrt(0.75)), rel=1e-14)
        assert abs(r.approx - r.exact) < 0.02

    def test_approximation_absent_beyond_two(self):
        assert theta_case_ii(2.0).approx is None
        assert theta_case_ii(3.0).approx is None

    def test_domain(self):
        for a in (0.0, -0.3, math.nan):
            with pytest.raises(DomainError):
                theta_case_ii(a)

    def test_within_an_ulp_of_mpmath(self):
        # Brent's method, which stopped at a bracket of 1e-15, was 4.02 ulp off at worst
        with mpmath.workdps(50):
            for alpha in np.geomspace(1e-8, 200.0, 300).tolist():
                a = mpmath.mpf(alpha)
                want = mpmath.findroot(lambda t: -mpmath.expm1(-a * t) / a - (1 - t),
                                       (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
                got = theta_case_ii(alpha).exact
                assert abs(got - want) <= math.ulp(float(want)), alpha

    @given(log_uniform(1e-300, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_finite_or_typed_error(self, alpha):
        try:
            res = theta_case_ii(alpha)
        except (DomainError, ConvergenceError):
            return
        assert 0.0 <= res.exact <= 1.0


class TestNewtonRefinement:
    @pytest.mark.parametrize("s2,brent_solves", [(0.03, 5), (0.07, 6), (0.15, 6)])
    def test_no_more_solves_than_brent(self, monkeypatch, s2, brent_solves):
        # the two cell ends, then Newton on R' and R'' from their secant point
        scalar = []

        def counting(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        monkeypatch.setattr(censor_module, "solve_normal_censor", counting)
        solve_foc(make_params(s2))
        assert len(scalar) <= brent_solves


class TestNoReSolves:
    def test_few_scalar_solves(self, monkeypatch):
        scalar = []

        def counting(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        for mod in (censor_module, profit_module, statics_module):
            monkeypatch.setattr(mod, "solve_normal_censor", counting)
        solve_foc(ModelParams.from_variance(0.05, 0.07))
        # brentq's bracket ends and iterates; its root is not solved again
        assert len(scalar) <= 7
        assert len(set(scalar)) == len(scalar)


class TestScanEnds:
    @pytest.mark.parametrize("s2,solves", [(0.03, 3), (0.07, 3), (0.15, 2)])
    def test_no_scalar_solve_at_a_cell_end(self, monkeypatch, s2, solves):
        # R' at the cell's ends comes from the scan: the scalar solves are
        # Newton's steps inside the cell, and none repeats a scan point
        scalar, kernel = [], []

        def counting_scalar(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            kernel.append(args)
            return solve_normal_censor_array(*args, **kwargs)

        for mod in (censor_module, profit_module, statics_module):
            monkeypatch.setattr(mod, "solve_normal_censor", counting_scalar)
        monkeypatch.setattr(censor_module, "solve_normal_censor_array", counting_kernel)
        solve_foc(make_params(s2))
        assert len(scalar) == solves
        assert len(kernel) == 1 and kernel[0][0].shape == (timing_module.SCAN_POINTS,)
        scanned = set(zip(kernel[0][0].tolist(), kernel[0][1].tolist()))
        assert not scanned & set(scalar)

    @pytest.mark.parametrize("mu_bar,sigma2_bar", [
        (54.19920975356921, 0.1778279410038923),
        (126.55471588552186, 0.01333521432163324),
        (295.5042367902872, 0.001),
        (295.5042367902872, 0.03162277660168379),
    ])
    def test_rounding_level_box_corners_rejected(self, mu_bar, sigma2_bar):
        # 25 x 25 box points where R' sits at its rounding level near theta = 0:
        # g_bar' underflows to 0 there, or the FOC residual is ~1
        with pytest.raises(ConvergenceError):
            solve_foc(ModelParams.from_variance(mu_bar, sigma2_bar))


# the box of (mu_bar, sigma2_bar) solve_foc is swept over: theta < 1 keeps
# mu = mu_bar*theta inside the censor's domain
MU_BAR_BOX = (1e-6, 690.0)
SIGMA2_BAR_BOX = (1e-6, 1e3)


def solve_or_typed_error(params: ModelParams):
    """solve_foc's result, or None where it raises one of the library's typed errors."""
    try:
        return solve_foc(params)
    except (DomainError, ConvergenceError):
        return None


class TestRootRule:
    def test_upward_first_crossing_rejected(self, monkeypatch):
        # a synthetic R'(theta) = theta - 1/2 first crosses zero upward: a minimum of R
        monkeypatch.setattr(timing_module, "_horizon", lambda theta, params:
                            timing_module._Horizon(1.5 - theta, 0.0 * theta))
        with pytest.raises(ConvergenceError, match="its first is not from"):
            solve_foc(make_params(0.07))

    def test_vanishing_g_bar_prime_rejected(self, monkeypatch):
        # a synthetic R'(theta) = 1/2 - theta with g_bar' = 0: the FOC residual
        # (g_bar - 1)/g_bar' is undefined at the root
        monkeypatch.setattr(timing_module, "_horizon", lambda theta, params:
                            timing_module._Horizon(0.5 + theta, 0.0 * theta))
        with pytest.raises(ConvergenceError, match="is not positive"):
            solve_foc(make_params(0.07))

    @pytest.mark.parametrize("mu_bar,sigma2_bar", [(50.0, 0.001), (100.0, 0.07)])
    def test_rounding_level_revenue_slope_rejected(self, mu_bar, sigma2_bar):
        # at the first point g_bar' underflows to 0 and the scanned R' touches
        # 0 without turning negative; at the second the FOC residual at the
        # root (~1.0) is far above FOC_TOL
        with pytest.raises(ConvergenceError):
            solve_foc(ModelParams.from_variance(mu_bar, sigma2_bar))

    def test_coarse_grid_solves_or_raises_typed_errors(self):
        # under the suite's warning filters, so no overflow warning escapes either
        pairs = [(m, s) for m in np.geomspace(*MU_BAR_BOX, 7)
                 for s in np.geomspace(*SIGMA2_BAR_BOX, 7)]
        pairs += [(50.0, 0.001), (100.0, 0.07)]
        solved = 0
        for mu_bar, sigma2_bar in pairs:
            sol = solve_or_typed_error(ModelParams.from_variance(float(mu_bar), float(sigma2_bar)))
            if sol is not None:
                assert 0.0 < sol.theta_star < 1.0
                assert sol.foc_residual <= timing_module.FOC_TOL
                solved += 1
        assert solved >= 20

    @given(log_uniform(*MU_BAR_BOX), log_uniform(*SIGMA2_BAR_BOX))
    @settings(max_examples=40, deadline=None)
    def test_finite_or_typed_error(self, mu_bar, sigma2_bar):
        sol = solve_or_typed_error(ModelParams.from_variance(mu_bar, sigma2_bar))
        if sol is not None:
            assert 0.0 < sol.theta_star < 1.0
            assert math.isfinite(sol.r_value) and sol.foc_residual <= timing_module.FOC_TOL
