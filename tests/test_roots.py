"""The safeguarded Newton root finder: scipy's roots, bisection fallback, and typed errors."""

import math

import numpy as np
import pytest

from censor_lab import censor as censor_module
from censor_lab.errors import ConvergenceError
from censor_lab.roots import newton
from censor_lab.special import inv_norm_cdf, log_norm_cdf_complement

EPS = np.finfo(float).eps


def _retired_seed(mu, sigma):
    """The bracket centre of the scalar censor solve when it ran Brent's method on F - exp(-mu)."""
    m = -inv_norm_cdf(math.exp(-mu))
    if sigma > m + 2.0:
        return sigma - m - 1.0 / (sigma - m)
    return -mu / sigma + 0.5 * sigma


def _censor_bracket(mu, sigma):
    """The objective F - exp(-mu) and the bracket that solve expanded around _retired_seed."""
    target = math.exp(-mu)

    def g(w):
        return censor_module.censor_F(w, sigma) - target

    w0 = _retired_seed(mu, sigma)
    step = max(0.5, 0.05 * abs(w0))
    lo, hi = w0 - step, w0 + step
    while g(lo) > 0.0:
        step *= 2.0
        lo -= step
    while g(hi) < 0.0:
        step *= 2.0
        hi += step
    return g, lo, hi


def _censor_slope(w, sigma):
    """F_w = sigma*exp(sigma*w - sigma^2/2)*(1 - Phi(w)), the derivative of the objective."""
    return sigma * math.exp(sigma * w - 0.5 * sigma * sigma + log_norm_cdf_complement(w))


def test_same_roots_as_scipy_on_the_censor_objective():
    from scipy.optimize import brentq as scipy_brentq

    rng = np.random.default_rng(16)
    mus = np.exp(rng.uniform(math.log(1e-12), math.log(700.0), 400)).tolist()
    sigmas = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), 400)).tolist()
    for mu, sigma in zip(mus, sigmas):
        g, lo, hi = _censor_bracket(mu, sigma)
        want = scipy_brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
        root, g_root, _ = newton(lambda w: (g(w), _censor_slope(w, sigma)), lo, hi, g(lo), g(hi),
                                 xtol=1e-14, maxiter=200)
        # both place the root to their tolerance, within the rounding of
        # F ~ eps divided by the slope F_w
        bound = 1e-14 + 4.0 * EPS * abs(want) + 2.0 * EPS / _censor_slope(want, sigma)
        assert abs(root - want) <= bound, (mu, sigma)
        assert g_root == g(root)


def test_exact_root_at_an_end():
    def fdf(x):
        return x - 1.0, 1.0

    for lo, hi in [(1.0, 3.0), (-2.0, 1.0)]:
        assert newton(fdf, lo, hi, fdf(lo)[0], fdf(hi)[0], xtol=2e-12) == (1.0, 0.0, 0)


def _bisection_run(slope):
    """newton's iterates on f = x^3 - 0.1 over [0, 1] with f' = slope(x), and the brackets."""
    calls = []

    def fdf(x):
        calls.append(x)
        return x ** 3 - 0.1, slope(x)

    root, _, iterations = newton(fdf, 0.0, 1.0, -0.1, 0.9, xtol=1e-12)
    assert iterations == len(calls)
    return root, calls


@pytest.mark.parametrize("slope", [lambda x: 0.0, lambda x: -3.0 * x * x, lambda x: math.nan],
                         ids=["zero", "wrong_sign", "nan"])
def test_unusable_slope_falls_back_to_bisection(slope):
    root, calls = _bisection_run(slope)
    assert abs(root - 0.1 ** (1.0 / 3.0)) <= 2e-12
    # after the secant start, each point halves the bracket that the signs so far leave
    lo, hi = 0.0, 1.0
    for x, new in zip(calls, calls[1:]):
        lo, hi = (x, hi) if x ** 3 < 0.1 else (lo, x)
        assert new == 0.5 * (x + (hi if x == lo else lo))
    # Newton's own slope converges in a handful of steps
    assert len(_bisection_run(lambda x: 3.0 * x * x)[1]) <= 8 < len(calls)


def test_nan_is_a_convergence_error_naming_the_parameters():
    def fdf(x):
        return (math.nan if x > 0.4 else x - 0.5), 1.0

    with pytest.raises(ConvergenceError, match=r"nan at x=.*'kappa': 0\.7"):
        newton(fdf, 0.0, 1.0, -0.5, 0.5, xtol=1e-12, kappa=0.7)


def test_no_convergence_is_a_convergence_error_naming_the_parameters():
    def fdf(x):
        return x * x - 2.0, 0.0

    with pytest.raises(ConvergenceError, match=r"3 iterations.*'mu': 0\.05, 'sigma': 0\.3"):
        newton(fdf, 0.0, 2.0, -2.0, 2.0, xtol=1e-12, maxiter=3, mu=0.05, sigma=0.3)


@pytest.mark.parametrize("ends", [(1.0, 2.0), (math.nan, 2.0)])
def test_bracket_without_sign_change(ends):
    with pytest.raises(ConvergenceError, match=r"no sign change.*'alpha': 2\.0"):
        newton(lambda x: (x, 1.0), 0.0, 1.0, *ends, xtol=1e-12, alpha=2.0)
