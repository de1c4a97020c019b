"""Closed-form asymptotic approximations and the long-horizon regime map.

Every approximation carries its limit direction and remainder-order
tag, so tests can assert that the scaled error shrinks along a
parameter ladder into the limit.  The limit-fact helpers return
diagnostic records rather than booleans for the same reason: finite
grids can only exhibit a monotone approach, not the limit itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .censor import censor_time_path, large_sigma_start, lower_start, mu_hat
from .errors import DomainError
from .model import ModelParams, _require_nonnegative_finite, _require_positive_finite
from .profit import log_profit_terms
from .special import exp_or_inf, log_norm_cdf, log_norm_cdf_complement, norm_cdf

ORIGIN_THETAS = (1e-2, 1e-3, 1e-4)  # w_bar_origin_limits' shrinking grid, largest first


class Regime(enum.Enum):
    """Long-horizon classification of (mu_bar, sigma_bar^2)."""

    LOW_VAR = "low_var"        # sigma_bar^2 < mu_bar
    MID_VAR = "mid_var"        # mu_bar <= sigma_bar^2 < 2*mu_bar
    HIGH_VAR = "high_var"      # 2*mu_bar < sigma_bar^2
    CRITICAL = "critical"      # sigma_bar^2 = 2*mu_bar


class AsymptoticEstimate(NamedTuple):
    value: float
    valid_direction: str
    error_order: str


def classify_regime(params: ModelParams, eps: float = 0.0) -> Regime:
    """Regime of (mu_bar, sigma_bar^2); |sigma2 - 2*mu| <= eps is critical."""
    _require_nonnegative_finite("eps", eps)
    s2 = params.sigma2_bar
    if abs(s2 - 2.0 * params.mu_bar) <= eps:
        return Regime.CRITICAL
    if s2 < params.mu_bar:
        return Regime.LOW_VAR
    if s2 < 2.0 * params.mu_bar:
        return Regime.MID_VAR
    return Regime.HIGH_VAR


def w_small_sigma(mu: float, sigma: float) -> AsymptoticEstimate:
    """W(mu, sigma) ~ -mu/sigma + sigma/2 as sigma -> 0+."""
    _require_positive_finite("mu", mu)
    _require_positive_finite("sigma", sigma)
    return AsymptoticEstimate(value=lower_start(mu, sigma), valid_direction="sigma->0+",
                              error_order="o(sigma)")


def w_large_sigma(mu: float, sigma: float) -> AsymptoticEstimate:
    """W(mu, sigma) ~ sigma - mu_hat - 1/(sigma - mu_hat) as sigma -> inf."""
    _require_positive_finite("mu", mu)
    _require_positive_finite("sigma", sigma)
    value = large_sigma_start(mu, sigma)
    if math.isnan(value):
        raise DomainError(
            f"large-sigma form needs sigma > mu_hat + 1 = {mu_hat(mu) + 1.0:.6g}, got {sigma}")
    return AsymptoticEstimate(value=value, valid_direction="sigma->inf",
                              error_order="o(1/(sigma-mu_hat))")


def g_asymptotic_sigma(mu: float, sigma: float, direction: str) -> AsymptoticEstimate:
    """Profit approximation in sigma: large (exp(sigma^2-mu)) or small."""
    _require_positive_finite("mu", mu)
    _require_positive_finite("sigma", sigma)
    if direction == "large":
        return AsymptoticEstimate(
            value=exp_or_inf(sigma * sigma - mu),
            valid_direction="sigma->inf",
            error_order="o(1/sigma)",
        )
    if direction == "small":
        em = math.exp(-mu)
        return AsymptoticEstimate(
            value=em + (1.0 - em) * norm_cdf(mu / sigma),
            valid_direction="sigma->0+",
            error_order="o(sigma)",
        )
    raise DomainError(f"direction must be 'large' or 'small', got {direction!r}")


def g_asymptotic_theta(theta: float, params: ModelParams,
                       eps: float = 0.0) -> AsymptoticEstimate:
    """Regime-matched leading term of the horizon profit at large theta.

    The critical regime uses the Phi-bearing form
    1/4 + exp(mu_bar*theta) * Phi(sqrt(2*mu_bar*theta)).
    """
    _require_positive_finite("theta", theta)
    regime = classify_regime(params, eps)
    if regime is Regime.LOW_VAR:
        value = 1.0
    elif regime is Regime.CRITICAL:
        expo = params.mu_bar * theta + log_norm_cdf(math.sqrt(2.0 * params.mu_bar * theta))
        value = 0.25 + exp_or_inf(expo)
    else:  # exp(alpha*theta), alpha = sigma_bar^2 - mu_bar, plus 1 in MID_VAR
        value = exp_or_inf((params.sigma2_bar - params.mu_bar) * theta)
        if regime is Regime.MID_VAR:
            value = 1.0 + value
    return AsymptoticEstimate(value, "theta->inf", "o(1/sqrt(theta))")


def g_theta_gap(theta: float, params: ModelParams, eps: float = 0.0) -> float:
    """g_bar(theta) - g_asymptotic_theta(theta), evaluated without cancellation.

    Naive subtraction is pure rounding noise once the leading term is
    large, so each regime gets its own stable decomposition.  The
    critical branch requires sigma_bar^2 == 2*mu_bar exactly.
    """
    sol = censor_time_path(params, theta)
    mu, sigma, w = sol.mu, sol.sigma, sol.w
    s2 = sigma * sigma
    log_term1, log_x = log_profit_terms(mu, sigma, w)
    regime = classify_regime(params, eps)

    if regime is Regime.LOW_VAR:
        return math.exp(log_term1) + math.expm1(log_x)
    if regime is Regime.MID_VAR:
        term1 = -math.exp((s2 - mu) + log_norm_cdf_complement(w + sigma))
        return term1 + math.expm1(log_x)
    if regime is Regime.HIGH_VAR:
        term1 = -math.exp((s2 - mu) + log_norm_cdf_complement(w + sigma))
        return term1 + math.exp(log_x)
    # critical: exact equality keeps exp(sigma^2 - mu) == exp(mu_bar*theta)
    if params.sigma2_bar != 2.0 * params.mu_bar:
        raise DomainError(
            "stable critical-regime gap requires sigma_bar^2 == 2*mu_bar exactly")
    sp = math.sqrt(2.0 * params.mu_bar * theta)  # == sigma here
    term1 = math.exp(mu + log_norm_cdf_complement(sp)) \
        - math.exp(mu + log_norm_cdf_complement(w + sigma))
    return term1 + math.exp(log_x) - 0.25


def w_bar(theta: float, params: ModelParams) -> float:
    """Exact normal censor along the horizon."""
    return censor_time_path(params, theta).w


def w_bar_asymptotic(theta: float, params: ModelParams) -> AsymptoticEstimate:
    """Leading large-theta behaviour of the horizon normal censor."""
    _require_positive_finite("theta", theta)
    mu_b, s2 = params.mu_bar, params.sigma2_bar
    rt = math.sqrt(theta)
    if mu_b > 0.5 * s2:
        return AsymptoticEstimate(
            value=-((mu_b - 0.5 * s2) / params.sigma_bar) * rt,
            valid_direction="theta->inf",
            error_order="o(sqrt(theta))",
        )
    if mu_b < 0.5 * s2:
        return AsymptoticEstimate(
            value=(params.sigma_bar - math.sqrt(2.0 * mu_b)) * rt,
            valid_direction="theta->inf",
            error_order="O(1/sqrt(theta))",
        )
    return AsymptoticEstimate(
        value=math.log(2.0) / (params.sigma_bar * rt),
        valid_direction="theta->inf",
        error_order="o(1/sqrt(theta))",
    )


@dataclass(frozen=True)
class OriginLimitDiagnostics:
    """Grid evidence for the theta -> 0+ limits of the horizon censor."""

    thetas: tuple
    w_values: tuple
    scaled_values: tuple  # sqrt(theta) * W_bar(theta)

    @property
    def w_increasing(self) -> bool:
        return all(b > a for a, b in zip(self.w_values, self.w_values[1:]))

    @property
    def scaled_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.scaled_values, self.scaled_values[1:]))


def w_bar_origin_limits(params: ModelParams) -> OriginLimitDiagnostics:
    """Evaluate W_bar on the shrinking grid ORIGIN_THETAS, largest first."""
    ws = tuple(w_bar(t, params) for t in ORIGIN_THETAS)
    scaled = tuple(math.sqrt(t) * w for t, w in zip(ORIGIN_THETAS, ws))
    return OriginLimitDiagnostics(thetas=ORIGIN_THETAS, w_values=ws, scaled_values=scaled)
