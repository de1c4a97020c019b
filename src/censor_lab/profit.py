"""Expected-profit evaluation with revenue f(x) = 2*sqrt(x).

The indirect profit at deterministic price b is h(b) = 1/b, and the
expected profit after re-stocking has the closed form

    g(mu, sigma) = exp(sigma^2 - mu) * Phi(W + sigma)
                 + exp(-mu - sigma*W + sigma^2/2) * (1 - Phi(W)),

with W the normal censor.  All exponential factors are combined in log
space so the formula survives sigma up to ~50.
"""

from __future__ import annotations

import math

import numpy as np

from .censor import solve_normal_censor
from .errors import DomainError
from .model import ModelParams, ScaledParams
from .special import log_norm_cdf, log_norm_cdf_complement


def indirect_profit(b: float) -> float:
    """h(b) = 1/b; strictly convex and decreasing on b > 0."""
    if not (b > 0.0):
        raise DomainError(f"price must be positive, got {b}")
    return 1.0 / b


def log_expected_profit(mu: float, sigma: float,
                        w: float | None = None) -> float:
    """log g(mu, sigma); elementwise when w is an array of solved censors."""
    if w is None:
        w = solve_normal_censor(mu, sigma).w
    s2 = sigma * sigma
    a = (s2 - mu) + log_norm_cdf(w + sigma)
    b = (-mu - sigma * w + 0.5 * s2) + log_norm_cdf_complement(w)
    log_g = np.logaddexp(a, b)
    return log_g if isinstance(w, np.ndarray) else float(log_g)


def expected_profit(mu: float, sigma: float, w: float | None = None) -> float:
    """g(mu, sigma) > 1; may overflow to inf for extreme sigma^2 - mu."""
    lg = log_expected_profit(mu, sigma, w)
    return math.exp(lg) if lg < 709.0 else math.inf


def value_of_waiting(mu: float, sigma: float) -> float:
    """g(mu, sigma) - h(1) = g - 1, the strict gain over buying at t = 0."""
    return math.expm1(log_expected_profit(mu, sigma))


def g_bar(theta: float, params: ModelParams) -> float:
    """g along the horizon; g_bar(0) is the continuous extension 1."""
    if theta < 0.0:
        raise DomainError(f"theta must be nonnegative, got {theta}")
    if theta == 0.0:
        return 1.0
    scaled = ScaledParams.from_horizon(params, theta)
    return expected_profit(scaled.mu, scaled.sigma)


def myopic_profit(theta: float, params: ModelParams) -> float:
    """Expected profit with no forward contract: exp((sigma_bar^2 - mu_bar)*theta)."""
    if theta < 0.0:
        raise DomainError(f"theta must be nonnegative, got {theta}")
    return math.exp((params.sigma2_bar - params.mu_bar) * theta)
