"""Optimal re-stocking date.

The revenue over the unit interval is R(theta) = theta + (1 - theta) *
g_bar(theta); the first-order condition is solved exactly by scanning
R' = 1 - g_bar + (1 - theta) * g_bar' for its first sign change, in one
call of the array censor kernel over the scan grid, and refining that
bracket by brentq on scalar solves.  The last of those solves also
gives R(theta*), the FOC residual and R''(theta*), whose sign confirms
the maximum, so no horizon is solved twice.  The two simplified
closed-form cases (substitute profit models 1 + A*theta*exp(-alpha*theta)
and exp(alpha*theta)) are exposed separately in terms of alpha alone.

g_bar' has a closed form.  Differentiating F(W, sigma) = exp(-mu)
implicitly gives the total derivatives of g(mu, sigma) along the censor,

    dg/dmu = u - g,    dg/dsigma = 2*sigma*exp(sigma^2 - mu)*Phi(W + sigma),

with u = b_tilde^-2: the hazard terms that dW/dmu and dW/dsigma bring in
cancel exactly.  By the chain rule along (mu_bar*theta, sigma_bar*sqrt(theta)),

    g_bar'(theta) = sigma_bar^2 * exp(sigma^2 - mu) * Phi(W + sigma)
                    - mu_bar * (g - u),

so g_bar and g_bar' come from one censor solve.  Differentiating once
more, with sigma' = sigma/(2*theta) and W' = mu_bar*dW/dmu + sigma'*dW/dsigma
from the implicit-function theorem (``statics``), gives g_bar'' and
R'' = (1 - theta)*g_bar'' - 2*g_bar' from that same solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq

from .censor import solve_normal_censor, solve_normal_censor_array
from .errors import ConvergenceError, DomainError
from .model import ModelParams, ScaledParams
from .profit import expected_profit, g_bar
from .special import SQRT_2PI, exp_or_inf, log_norm_cdf
from .statics import _dw_dmu_at, _dw_dsigma_at

ENDPOINT_MARGIN = 1e-9
SCAN_POINTS = 256


@dataclass(frozen=True)
class TimingSolution:
    theta_star: float
    r_value: float
    foc_residual: float
    branch: str
    is_smallest_root: bool


def revenue(theta: float, params: ModelParams) -> float:
    """R(theta) = theta + (1 - theta) * g_bar(theta) on [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    return theta + (1.0 - theta) * g_bar(theta, params)


class _Horizon(NamedTuple):
    """The censor at one horizon theta > 0, or at an array of them, and g_bar, g_bar' there."""

    mu: float
    sigma: float
    w: float
    u: float
    g: float
    growth: float  # exp(sigma^2 - mu) * Phi(W + sigma)
    g_prime: float

    def revenue_prime(self, theta):
        """R'(theta) = 1 - g_bar + (1 - theta) * g_bar'."""
        return 1.0 - self.g + (1.0 - theta) * self.g_prime


def _horizon(theta, params: ModelParams) -> _Horizon:
    """One censor solve at theta > 0; an array of thetas is one call of the array kernel."""
    if isinstance(theta, np.ndarray):
        mu, sigma = params.scaled(theta)
        sol = solve_normal_censor_array(mu, sigma)
    else:
        scaled = ScaledParams.from_horizon(params, theta)
        mu, sigma = scaled.mu, scaled.sigma
        sol = solve_normal_censor(mu, sigma)
    g = expected_profit(mu, sigma, sol.w)
    growth = exp_or_inf(sigma * sigma - mu + log_norm_cdf(sol.w + sigma))
    return _Horizon(mu, sigma, sol.w, sol.u, g, growth,
                    params.sigma2_bar * growth - params.mu_bar * (g - sol.u))


def g_bar_prime(theta: float, params: ModelParams) -> float:
    """d g_bar / d theta for theta > 0, by the implicit-function theorem.

    sigma_bar^2 * exp(sigma^2 - mu) * Phi(W + sigma) - mu_bar * (g - u) at
    mu = mu_bar*theta, sigma = sigma_bar*sqrt(theta); the module docstring
    derives it.
    """
    return _horizon(theta, params).g_prime


def _revenue_prime(theta, params: ModelParams):
    return _horizon(theta, params).revenue_prime(theta)


def _revenue_second(theta: float, params: ModelParams, at: _Horizon) -> float:
    """R''(theta) = (1 - theta)*g_bar'' - 2*g_bar' for scalar theta > 0.

    With A = exp(sigma^2 - mu)*Phi(W + sigma), sigma' = sigma/(2*theta) and
    W' = mu_bar*dW/dmu + sigma'*dW/dsigma,

        g_bar'' = sigma_bar^2*A' - mu_bar*(g_bar' - u'),
        A' = (sigma_bar^2 - mu_bar)*A + exp(sigma^2 - mu)*pdf(W + sigma)*(W' + sigma'),
        u' = -2*u*(sigma'*W + sigma*W' + mu_bar - sigma_bar^2/2).

    ``at`` is the solved horizon at theta.
    """
    mu, sigma, w = at.mu, at.sigma, at.w
    mb, s2 = params.mu_bar, params.sigma2_bar
    ds = sigma / (2.0 * theta)
    dw = mb * _dw_dmu_at(mu, sigma, w) + ds * _dw_dsigma_at(mu, sigma, w)
    da = ((s2 - mb) * at.growth
          + exp_or_inf(sigma * sigma - mu - 0.5 * (w + sigma) ** 2) / SQRT_2PI * (dw + ds))
    du = -2.0 * at.u * (ds * w + sigma * dw + mb - 0.5 * s2)
    return (1.0 - theta) * (s2 * da - mb * (at.g_prime - du)) - 2.0 * at.g_prime


def solve_foc(params: ModelParams, tol: float = 1e-6) -> TimingSolution:
    """Smallest stationary point of R in (0, 1), verified to be a local max."""
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")

    lo_end, hi_end = ENDPOINT_MARGIN, 1.0 - ENDPOINT_MARGIN
    grid = lo_end + (hi_end - lo_end) * np.arange(SCAN_POINTS) / (SCAN_POINTS - 1)
    values = _revenue_prime(grid, params)

    # the first grid point that is a root or starts a sign change
    hits = np.flatnonzero((values[:-1] == 0.0) | (values[:-1] * values[1:] < 0.0))
    if hits.size == 0:
        raise ConvergenceError(
            f"no sign change of R' on (0, 1) for {params}; "
            "a root is guaranteed for valid inputs")

    # brentq returns one of the points it evaluated, so its solves are kept
    solved: dict[float, _Horizon] = {}

    def r_prime(theta: float) -> float:
        solved[theta] = _horizon(theta, params)
        return solved[theta].revenue_prime(theta)

    i = hits[0]
    if values[i] == 0.0:
        theta_star = float(grid[i])
    else:
        theta_star = brentq(r_prime, float(grid[i]), float(grid[i + 1]), xtol=1e-12)
    at = solved.get(theta_star) or _horizon(theta_star, params)

    r_second = _revenue_second(theta_star, params, at)
    if not r_second < 0.0:
        raise ConvergenceError(
            f"stationary point {theta_star} is not a local maximum of R "
            f"(R'' = {r_second:.3e})")

    residual = abs((at.g - 1.0) / at.g_prime - (1.0 - theta_star))
    if residual > tol:
        raise ConvergenceError(
            f"FOC residual {residual:.3e} above tol {tol:.3e} at theta={theta_star}")

    return TimingSolution(theta_star=theta_star,
                          r_value=theta_star + (1.0 - theta_star) * at.g,
                          foc_residual=residual, branch="exact",
                          is_smallest_root=True)


def theta_case_i(alpha: float) -> float:
    """Low-variance closed form 1/2 - (sqrt(1 + alpha^2/4) - 1)/alpha.

    Written so the small-alpha cancellation never occurs; value lies in
    (0, 1/2) and decreases in alpha.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    r = 0.25 * alpha * alpha
    # sqrt(1+r) - 1 == r / (sqrt(1+r) + 1)
    return 0.5 - (alpha / 4.0) / (math.sqrt(1.0 + r) + 1.0)


class CaseIIResult(NamedTuple):
    exact: float
    approx: Optional[float]


def theta_case_ii(alpha: float) -> CaseIIResult:
    """High-variance case: exact root of (1 - exp(-alpha*theta))/alpha = 1 - theta.

    The quadratic approximation 1/(1 + sqrt(1 - alpha/2)) is only
    defined for alpha < 2 and is returned as None otherwise.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")

    def f(theta: float) -> float:
        return -math.expm1(-alpha * theta) / alpha - (1.0 - theta)

    exact = brentq(f, 0.0, 1.0, xtol=1e-15)
    approx = 1.0 / (1.0 + math.sqrt(1.0 - 0.5 * alpha)) if alpha < 2.0 else None
    return CaseIIResult(exact=exact, approx=approx)
