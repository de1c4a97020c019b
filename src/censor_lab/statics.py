"""Comparative statics of the censor.

Each partial derivative of W and b_tilde takes one censor solve: it is
the implicit-function theorem on F(W, sigma) = exp(-mu), assembled in
log space.  Central finite differences of the solved censor are kept
only as the oracle: ``db_*_sign`` with an explicit step, and the hazard
identity

    W + sigma * dW/dsigma - sigma = H(W)

checked with its own difference quotient.  The stationarity system
locates the interior maximum of the censor time path b_bar(theta) when
the dispersion kappa = mu_bar / sigma_bar^2 is at least 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .censor import censor_time_path, log_censor_F, solve_normal_censor
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .roots import brentq
from .special import (SQRT_2PI, exp_or_inf, hazard, log_norm_cdf,
                      log_norm_cdf_complement)

HAZARD_STEP = 1e-6  # the hazard-identity oracle's central-difference step
OMEGA_BRACKET = (-0.5, 1.5)  # contains omega(sigma), which lies in [0, 1]
# omega_curve's objective is O(sigma) with an O(eps) rounding error, so its root
# is placed only to ~eps/sigma (at most 1.4*eps/sigma against mpmath), while
# omega ~ 0.062*sigma at small sigma: the floor keeps that error below 0.1%.
OMEGA_SIGMA_MIN = math.sqrt(1.4 * float(np.finfo(float).eps) / (0.062 * 1e-3))  # ~2.2e-6
SHAPE_THETA_RANGE = (1e-3, 1e3)  # the log theta grid of censor_shape_check


def _w(mu: float, sigma: float) -> float:
    return solve_normal_censor(mu, sigma).w


def dw_dmu(mu: float, sigma: float) -> float:
    """dW/dmu = -exp(-mu)/F_w, F_w = sigma*exp(sigma*W - sigma^2/2)*(1 - Phi(W))."""
    w = _w(mu, sigma)
    return -exp_or_inf(-mu - math.log(sigma) - sigma * w + 0.5 * sigma * sigma
                       - log_norm_cdf_complement(w))


def dw_dsigma(mu: float, sigma: float) -> float:
    """dW/dsigma = (H(W) - W + sigma)/sigma, with H the normal hazard rate."""
    w = _w(mu, sigma)
    return (hazard(w) - w + sigma) / sigma


def _log_b_difference(mu: float, sigma: float, h_mu: float, h_sigma: float) -> float:
    """The oracle: b_tilde times the central difference of log b_tilde on one axis."""
    up = solve_normal_censor(mu + h_mu, sigma + h_sigma).log_b_tilde
    down = solve_normal_censor(mu - h_mu, sigma - h_sigma).log_b_tilde
    return solve_normal_censor(mu, sigma).b_tilde * (up - down) / (2.0 * (h_mu + h_sigma))


def db_dmu_sign(mu: float, sigma: float, h: float | None = None) -> float:
    """d(b_tilde)/d(mu) = -exp(mu)*Phi(W - sigma)/(1 - Phi(W)) <= 0.

    This is b_tilde*(1 + sigma*dW/dmu) rewritten through the martingale
    identity, so nothing cancels.  A step h in (0, mu) selects the oracle.
    """
    if h is not None:
        if not 0.0 < h < mu:
            raise DomainError(f"step h={h} must lie in (0, mu)")
        return _log_b_difference(mu, sigma, h, 0.0)
    w = _w(mu, sigma)
    return -exp_or_inf(mu + log_norm_cdf(w - sigma) - log_norm_cdf_complement(w))


def db_dsigma_sign(mu: float, sigma: float, h: float | None = None) -> float:
    """d(b_tilde)/d(sigma) = b_tilde*H(W) >= 0; a step h in (0, sigma) selects the oracle."""
    if h is not None:
        if not 0.0 < h < sigma:
            raise DomainError(f"step h={h} must lie in (0, sigma)")
        return _log_b_difference(mu, sigma, 0.0, h)
    sol = solve_normal_censor(mu, sigma)
    return sol.b_tilde * hazard(sol.w)


def hazard_identity_residual(mu: float, sigma: float) -> float:
    """|W + sigma*dW/dsigma - sigma - H(W)|, dW/dsigma by a central difference."""
    w = _w(mu, sigma)
    dw = (_w(mu, sigma + HAZARD_STEP) - _w(mu, sigma - HAZARD_STEP)) / (2.0 * HAZARD_STEP)
    return abs(w + sigma * dw - sigma - hazard(w))


def omega_curve(sigma: float) -> float:
    """Unique root w = omega(sigma) of exp(-sigma*H(sigma - w)/2) = F(w, sigma).

    Solved in log space by Brent's method (``roots.brentq``) on
    OMEGA_BRACKET, which contains the root's range [0, 1]; a root outside it
    is reported, not searched for.  Below OMEGA_SIGMA_MIN the root would be
    rounding noise, and a DomainError is raised.
    """
    if not sigma >= OMEGA_SIGMA_MIN:
        raise DomainError(
            f"omega_curve needs sigma >= {OMEGA_SIGMA_MIN:.3g}, got {sigma}: below it the "
            "root is placed only to ~eps/sigma, against omega ~ 0.062*sigma")

    def g(w: float) -> float:
        return -0.5 * sigma * hazard(sigma - w) - log_censor_F(w, sigma)

    lo, hi = OMEGA_BRACKET
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0.0:
        raise ConvergenceError(
            f"omega root left the bracket {OMEGA_BRACKET} at sigma={sigma}: "
            f"g(lo)={g_lo:.3e}, g(hi)={g_hi:.3e}")
    return brentq(g, lo, hi, g_lo, g_hi, xtol=1e-13, sigma=sigma)[0]


def omega_sweep(sigmas) -> np.ndarray:
    """omega(sigma) over an iterable of sigmas."""
    return np.array([omega_curve(s) for s in sigmas])


def _stationarity_residual(kappa: float, sigma: float) -> float:
    """sigma*H(sigma - W)/2 - mu at mu = kappa*sigma^2; positive below sigma_star."""
    mu = kappa * sigma * sigma
    return 0.5 * sigma * hazard(sigma - solve_normal_censor(mu, sigma).w) - mu


def _crude_bracket(kappa: float) -> tuple[float, float, float]:
    """(lo, hi, cap) for kappa > 1/2: lo < sigma_star < hi unless hi = cap, where mu = 650."""
    cap = math.sqrt(650.0 / kappa)
    return 0.5 / (kappa * SQRT_2PI), min(2.0 * math.sqrt(1.0 / (2.0 * kappa - 1.0)), cap), cap


@dataclass(frozen=True)
class StationaritySolution:
    kappa: float
    sigma_star: Optional[float]
    mu_star: Optional[float]
    theta_star_b: Optional[float]
    exists: bool
    residual: Optional[float] = None


def stationarity_solve(kappa: float | None = None,
                       params: ModelParams | None = None) -> StationaritySolution:
    """Solve mu = sigma*H(sigma - W(mu, sigma))/2 jointly with mu = kappa*sigma^2.

    mu is eliminated through the parabola constraint and the single
    remaining equation in sigma is solved by Brent's method between the
    crude under- and over-estimates of ``_crude_bracket``.  That bracket is
    checked, not widened: a residual of the wrong sign at either end
    raises a ConvergenceError, which a sweep of kappa in the tests sees
    only where the drift cap binds (kappa below ~0.5015).  Each sigma is
    solved once, the bracket ends and the residual at sigma_star
    included.  No solution exists for kappa < 1/2.  At kappa == 1/2 the
    stationary point recedes to infinity: sigma*(kappa) diverges as
    kappa -> 1/2+ (the residual plateaus at (1 - log 2)/2 > 0, since
    sigma*W -> log 2 there), so the solution is reported as existing but
    with sigma_star None.  When params is supplied the censor-maximizing
    horizon theta = mu_star / mu_bar is filled in.
    """
    if kappa is None:
        if params is None:
            raise DomainError("provide kappa or params")
        kappa = params.dispersion
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {kappa}")

    if kappa < 0.5:
        return StationaritySolution(kappa=kappa, sigma_star=None, mu_star=None,
                                    theta_star_b=None, exists=False)
    if kappa == 0.5:
        return StationaritySolution(kappa=kappa, sigma_star=None, mu_star=None,
                                    theta_star_b=None, exists=True)

    def f(sigma: float) -> float:
        return _stationarity_residual(kappa, sigma)

    lo, hi, sigma_cap = _crude_bracket(kappa)
    f_lo = f(lo)
    if not f_lo > 0.0:
        raise ConvergenceError(f"no positive lower bracket for kappa={kappa}")
    f_hi = f(hi)
    if not f_hi < 0.0:
        raise ConvergenceError(
            f"stationary point for kappa={kappa} lies beyond sigma = {hi:.3g}, the crude "
            f"upper bound capped at {sigma_cap:.3g} to keep mu solvable; "
            "kappa is too close to 1/2")

    sigma_star, f_star, _ = brentq(f, lo, hi, f_lo, f_hi, xtol=1e-12, kappa=kappa)
    mu_star = kappa * sigma_star * sigma_star
    residual = abs(f_star)
    theta = mu_star / params.mu_bar if params is not None else None
    return StationaritySolution(kappa=kappa, sigma_star=sigma_star,
                                mu_star=mu_star, theta_star_b=theta,
                                exists=True, residual=residual)


@dataclass(frozen=True)
class ShapeReport:
    """Shape of the censor time path b_bar(theta) over a log grid."""

    shape: str  # "increasing" or "unimodal"
    theta_peak: Optional[float]
    thetas: np.ndarray
    log_b_values: np.ndarray

    @property
    def log_grid_step(self) -> float:
        return math.log(self.thetas[1] / self.thetas[0])


def censor_shape_check(params: ModelParams, points: int = 400) -> ShapeReport:
    """Classify b_bar(theta) as increasing or unimodal on `points` log thetas in [1e-3, 1e3]."""
    if points < 8:
        raise DomainError(f"points must be at least 8, got {points}")
    thetas = np.geomspace(*SHAPE_THETA_RANGE, points)
    log_b = censor_time_path(params, thetas).log_b_tilde
    peak = int(np.argmax(log_b))
    rising = peak == points - 1
    return ShapeReport(shape="increasing" if rising else "unimodal",
                       theta_peak=None if rising else float(thetas[peak]),
                       thetas=thetas, log_b_values=log_b)
