"""Optimal re-stocking date.

The revenue over the unit interval is R(theta) = theta + (1 - theta) *
g_bar(theta); the first-order condition is solved exactly by scanning
R' = 1 - g_bar + (1 - theta) * g_bar' for its first sign change, in one
call of the array censor kernel over the scan grid, and refining that
bracket by Newton's method on R' and R'' (``roots.newton``) on scalar
solves.  As R'(0+) = sigma_bar^2 > 0, a first sign change from + to - is
a local maximum of R.  The last scalar solve gives R(theta*) and the FOC
residual, so no horizon is solved twice.  The two simplified closed-form
cases (substitute profit models 1 + A*theta*exp(-alpha*theta) and
exp(alpha*theta)) are exposed separately in terms of alpha alone.

g_bar' has a closed form.  Differentiating F(W, sigma) = exp(-mu)
implicitly gives the total derivatives of g(mu, sigma) along the censor,

    dg/dmu = u - g,    dg/dsigma = 2*sigma*exp(sigma^2 - mu)*Phi(W + sigma),

with u = b_tilde^-2: the hazard terms that dW/dmu and dW/dsigma bring in
cancel exactly.  By the chain rule along (mu_bar*theta, sigma_bar*sqrt(theta)),

    g_bar'(theta) = sigma_bar^2 * A - mu_bar * (g - u),
    A = exp(sigma^2 - mu) * Phi(W + sigma),

so g_bar and g_bar' come from one censor solve.  So does R'' = (1 - theta)*g_bar'' - 2*g_bar',
with sigma' = sigma/(2*theta) and W' = mu_bar*dW/dmu + sigma'*dW/dsigma (``statics``):

    g_bar'' = sigma_bar^2*A' - mu_bar*(g_bar' - u'),
    A' = (sigma_bar^2 - mu_bar)*A + exp(sigma^2 - mu)*pdf(W + sigma)*(W' + sigma'),
    u' = -2*u*(sigma'*W + sigma*W' + mu_bar - sigma_bar^2/2).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .censor import CensorSolution, censor_time_path
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .profit import g_bar, log_profit_terms
from .roots import newton
from .special import INV_SQRT_2PI, exp_or_inf, log_add_exp
from .statics import _dw_dmu_at, _dw_dsigma_at

ENDPOINT_MARGIN = 1e-9
SCAN_POINTS = 256
FOC_TOL = 1e-6  # the largest |(g_bar - 1)/g_bar' - (1 - theta*)| solve_foc accepts


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
    """g_bar and g_bar' at one horizon theta > 0, or at an array of them, and the solve."""

    g: float
    g_prime: float
    sol: Optional[CensorSolution] = None

    def revenue_prime(self, theta):
        """R'(theta) = 1 - g_bar + (1 - theta) * g_bar'."""
        return 1.0 - self.g + (1.0 - theta) * self.g_prime

    def revenue_second(self, theta: float, params: ModelParams) -> float:
        """R''(theta) at a float theta, in the module docstring's form; nan without a solve."""
        if self.sol is None:
            return math.nan
        mu, sigma, w, u = self.sol.mu, self.sol.sigma, self.sol.w, self.sol.u
        mb, s2 = params.mu_bar, params.sigma2_bar
        ds = sigma / (2.0 * theta)
        dw = mb * _dw_dmu_at(mu, sigma, w) + ds * _dw_dsigma_at(sigma, w)
        # A from g_bar' = sigma_bar^2*A - mu_bar*(g - u)
        da = ((s2 - mb) * (self.g_prime + mb * (self.g - u)) / s2 + INV_SQRT_2PI * (dw + ds)
              * exp_or_inf(sigma * sigma - mu - 0.5 * (w + sigma) * (w + sigma)))
        du = -2.0 * u * (ds * w + sigma * dw + mb - 0.5 * s2)
        return (1.0 - theta) * (s2 * da - mb * (self.g_prime - du)) - 2.0 * self.g_prime


def _horizon(theta, params: ModelParams) -> _Horizon:
    """One censor solve at theta > 0; an array of thetas is one call of the array kernel."""
    sol = censor_time_path(params, theta)
    log_growth, log_rest = log_profit_terms(sol.mu, sol.sigma, sol.w)
    g = exp_or_inf(log_add_exp(log_growth, log_rest))
    growth = exp_or_inf(log_growth)
    # g_bar' overflows where sigma_bar^2 is large, and is inf - inf = nan where g
    # overflows too (floats without a warning); solve_foc raises ConvergenceError
    quiet = isinstance(theta, np.ndarray)
    with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
        return _Horizon(g, params.sigma2_bar * growth - params.mu_bar * (g - sol.u), sol)


def g_bar_prime(theta: float, params: ModelParams) -> float:
    """d g_bar / d theta for theta > 0, in the closed form the module docstring derives."""
    return _horizon(theta, params).g_prime


def _revenue_prime(theta, params: ModelParams):
    return _horizon(theta, params).revenue_prime(theta)


def solve_foc(params: ModelParams) -> TimingSolution:
    """Smallest stationary point of R in (0, 1): a local max, its FOC residual <= FOC_TOL.

    R' > 0 at the first scan point, and R' < 0 past its first sign change in
    the scan and at the scalar bracket ends, so that root is a maximum of R.
    """
    lo_end, hi_end = ENDPOINT_MARGIN, 1.0 - ENDPOINT_MARGIN
    grid = lo_end + (hi_end - lo_end) * np.arange(SCAN_POINTS) / (SCAN_POINTS - 1)
    values = _revenue_prime(grid, params)

    # the first grid point that is a root or starts a sign change, found by
    # comparing signs: the product of two neighbours can overflow
    signs = np.sign(values)
    hits = np.flatnonzero((signs[:-1] == 0.0) | (signs[:-1] == -signs[1:]))
    if hits.size == 0 or not values[0] > 0.0 > values[hits[0] + 1]:
        raise ConvergenceError(
            "R' on (0, 1) has no sign change, or its first is not from + to -, "
            f"for {params}; a maximum is guaranteed for valid inputs")
    i = hits[0]

    lo, hi = float(grid[i]), float(grid[i + 1])
    theta_star, at = lo, _horizon(lo, params)
    if values[i] != 0.0:
        r_lo, r_hi = at.revenue_prime(lo), _revenue_prime(hi, params)
        if not r_lo > 0.0 > r_hi:
            raise ConvergenceError(
                "the scalar solves do not confirm the scan's sign change of R' "
                f"on [{lo}, {hi}] for {params}")

        def fdf(theta: float) -> tuple[float, float]:
            # newton's root is the last theta it calls this at: at is kept for it
            nonlocal at
            at = _horizon(theta, params)
            return at.revenue_prime(theta), at.revenue_second(theta, params)

        theta_star = newton(fdf, lo, hi, r_lo, r_hi, xtol=1e-14, params=params)[0]

    if not at.g_prime > 0.0:
        raise ConvergenceError(f"g_bar' = {at.g_prime:.3e} is not positive at theta={theta_star}")
    residual = abs((at.g - 1.0) / at.g_prime - (1.0 - theta_star))
    if residual > FOC_TOL:
        raise ConvergenceError(
            f"FOC residual {residual:.3e} above tol {FOC_TOL:.3e} at theta={theta_star}")

    return TimingSolution(theta_star=theta_star, r_value=theta_star + (1.0 - theta_star) * at.g,
                          foc_residual=residual, branch="exact", is_smallest_root=True)


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

    def fdf(theta: float) -> tuple[float, float]:
        return -math.expm1(-alpha * theta) / alpha - (1.0 - theta), math.exp(-alpha * theta) + 1.0

    exact = newton(fdf, 0.0, 1.0, fdf(0.0)[0], fdf(1.0)[0], xtol=0.0, alpha=alpha)[0]
    approx = 1.0 / (1.0 + math.sqrt(1.0 - 0.5 * alpha)) if alpha < 2.0 else None
    return CaseIIResult(exact=exact, approx=approx)
