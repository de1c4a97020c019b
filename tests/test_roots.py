"""The in-house Brent root finder: scipy's iterates, and typed errors."""

import math

import numpy as np
import pytest

from censor_lab import censor as censor_module
from censor_lab.errors import ConvergenceError
from censor_lab.roots import brentq
from censor_lab.special import inv_norm_cdf


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


def _cases():
    rng = np.random.default_rng(16)
    mus = np.exp(rng.uniform(math.log(1e-12), math.log(700.0), 400)).tolist()
    sigmas = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), 400)).tolist()
    for mu, sigma in zip(mus, sigmas):
        yield (*_censor_bracket(mu, sigma), dict(xtol=1e-14, rtol=8.9e-16, maxiter=200))
    yield lambda x: x * x - 2.0, 0.0, 2.0, {}
    yield lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0, {}
    yield lambda x: math.floor(8.0 * x) - 3.5, 0.0, 1.0, {}
    # the inverse quadratic step's denominator underflows to 0 eight times
    yield lambda x: (x * x * x - 0.1) * 1e-150, 0.0, 1.0, {}


def test_same_roots_and_iterations_as_scipy():
    from scipy.optimize import brentq as scipy_brentq

    for f, lo, hi, options in _cases():
        want, info = scipy_brentq(f, lo, hi, full_output=True, **options)
        root, f_root, iterations = brentq(f, lo, hi, f(lo), f(hi),
                                          **{"xtol": 2e-12, **options})
        assert root == want and iterations == info.iterations, (lo, hi)
        assert f_root == f(root)


def test_exact_root_at_an_end():
    # scipy returns such an end too, but leaves its iteration count unset
    from scipy.optimize import brentq as scipy_brentq

    def f(x):
        return x - 1.0

    for lo, hi in [(1.0, 3.0), (-2.0, 1.0)]:
        assert brentq(f, lo, hi, f(lo), f(hi), xtol=2e-12) == (1.0, 0.0, 0)
        assert scipy_brentq(f, lo, hi) == 1.0


def test_nan_is_a_convergence_error_naming_the_parameters():
    def f(x):
        return math.nan if x > 0.4 else x - 0.5

    with pytest.raises(ConvergenceError, match=r"nan at x=.*'kappa': 0\.7"):
        brentq(f, 0.0, 1.0, -0.5, 0.5, xtol=1e-12, kappa=0.7)


def test_no_convergence_is_a_convergence_error_naming_the_parameters():
    def f(x):
        return x * x - 2.0

    with pytest.raises(ConvergenceError, match=r"3 iterations.*'mu': 0\.05, 'sigma': 0\.3"):
        brentq(f, 0.0, 2.0, -2.0, 2.0, xtol=1e-12, maxiter=3, mu=0.05, sigma=0.3)


@pytest.mark.parametrize("ends", [(1.0, 2.0), (math.nan, 2.0)])
def test_bracket_without_sign_change(ends):
    with pytest.raises(ConvergenceError, match=r"no sign change.*'alpha': 2\.0"):
        brentq(lambda x: x, 0.0, 1.0, *ends, xtol=1e-12, alpha=2.0)
