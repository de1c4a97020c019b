"""Optimal re-stocking date: FOC roots cross-checked by grid search.

The oracle for the exact solver is a dense evaluation of the revenue
R(theta) = theta + (1 - theta) * g_bar(theta): the solver's stationary
point must coincide with the grid argmax to within the grid spacing.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from censor_lab import profit as profit_module
from censor_lab import statics as statics_module
from censor_lab import timing as timing_module
from censor_lab.censor import solve_normal_censor, solve_normal_censor_array
from censor_lab.errors import DomainError
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

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            solve_foc(make_params(0.07), tol=0.0)


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
    def test_foc_residual_at_machine_level(self, s2):
        assert solve_foc(make_params(s2)).foc_residual <= 1e-10

    def test_one_censor_solve_per_scan_point(self, monkeypatch):
        # every module that imported the solver gets the counting wrapper
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_normal_censor(*args, **kwargs)

        for mod in (timing_module, profit_module):
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

        for mod in (timing_module, profit_module):
            monkeypatch.setattr(mod, "solve_normal_censor", counting_scalar)
        monkeypatch.setattr(timing_module, "solve_normal_censor_array", counting_kernel)
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


class TestNoReSolves:
    def test_few_scalar_solves(self, monkeypatch):
        scalar = []

        def counting(*args, **kwargs):
            scalar.append(args)
            return solve_normal_censor(*args, **kwargs)

        for mod in (timing_module, profit_module, statics_module):
            monkeypatch.setattr(mod, "solve_normal_censor", counting)
        solve_foc(ModelParams.from_variance(0.05, 0.07))
        # brentq's bracket ends and iterates; its root is not solved again
        assert len(scalar) <= 7
        assert len(set(scalar)) == len(scalar)

    @pytest.mark.parametrize("s2", VARIANCES)
    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.9])
    def test_curvature_matches_central_difference(self, s2, theta):
        # the oracle: R'' = (1 - theta)*g_bar'' - 2*g_bar', with g_bar''
        # the central difference of the closed-form g_bar'
        p = make_params(s2)
        h = 1e-4 * theta
        g2 = (g_bar_prime(theta + h, p) - g_bar_prime(theta - h, p)) / (2.0 * h)
        want = (1.0 - theta) * g2 - 2.0 * g_bar_prime(theta, p)
        at = timing_module._horizon(theta, p)
        assert timing_module._revenue_second(theta, p, at) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("s2", VARIANCES)
    def test_maximum_has_negative_curvature(self, s2):
        p = make_params(s2)
        theta = solve_foc(p).theta_star
        at = timing_module._horizon(theta, p)
        assert timing_module._revenue_second(theta, p, at) < 0.0
