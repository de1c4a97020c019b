"""Expected-profit evaluation with revenue f(x) = 2*sqrt(x).

The indirect profit at deterministic price b is h(b) = 1/b, and the
expected profit after re-stocking has the closed form

    g(mu, sigma) = exp(sigma^2 - mu) * Phi(W + sigma)
                 + exp(-mu - sigma*W + sigma^2/2) * (1 - Phi(W)),

with W the normal censor.  ``log_profit_terms`` gives the logs of the two
terms, and g sums them in log space, so the formula survives sigma up to ~50.
"""

from __future__ import annotations

import math

from .censor import censor_time_path, solve_normal_censor
from .errors import DomainError
from .model import ModelParams, _require_nonnegative_finite
from .special import exp_or_inf, log_add_exp, log_norm_cdf, log_norm_cdf_complement


def indirect_profit(b: float) -> float:
    """h(b) = 1/b; strictly convex and decreasing on b > 0."""
    if not (b > 0.0):
        raise DomainError(f"price must be positive, got {b}")
    return 1.0 / b


def log_profit_terms(mu, sigma, w):
    """The logs of g's two terms at a solved W (module docstring), elementwise on arrays."""
    s2 = sigma * sigma
    return ((s2 - mu) + log_norm_cdf(w + sigma),
            (-mu - sigma * w + 0.5 * s2) + log_norm_cdf_complement(w))


def log_expected_profit(mu: float, sigma: float,
                        w: float | None = None) -> float:
    """log g(mu, sigma); elementwise when w is an array of solved censors."""
    if w is None:
        w = solve_normal_censor(mu, sigma).w
    return log_add_exp(*log_profit_terms(mu, sigma, w))


def expected_profit(mu: float, sigma: float, w: float | None = None) -> float:
    """g(mu, sigma) >= 1 up to rounding (inf for extreme sigma^2 - mu); elementwise like the log."""
    return exp_or_inf(log_expected_profit(mu, sigma, w))


def value_of_waiting(mu: float, sigma: float) -> float:
    """g(mu, sigma) - h(1) = g - 1, the gain over buying at t = 0.

    It is positive mathematically, but reads <= 0 at the rounding level
    where g ~ 1 (tiny sigma), and raises OverflowError from math.expm1
    where log g > log(DBL_MAX) ~ 709.78.
    """
    return math.expm1(log_expected_profit(mu, sigma))


def g_bar(theta: float, params: ModelParams) -> float:
    """g along the horizon; g_bar(0) is the continuous extension 1."""
    _require_nonnegative_finite("theta", theta)
    if theta == 0.0:
        return 1.0
    sol = censor_time_path(params, theta)
    return expected_profit(sol.mu, sol.sigma, sol.w)


def myopic_profit(theta: float, params: ModelParams) -> float:
    """Expected profit with no forward contract: exp((sigma_bar^2 - mu_bar)*theta)."""
    _require_nonnegative_finite("theta", theta)
    return exp_or_inf((params.sigma2_bar - params.mu_bar) * theta)
