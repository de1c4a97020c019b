"""Comparative statics of the censor.

Each partial derivative of W and b_tilde takes one censor solve: it is
the implicit-function theorem on F(W, sigma) = exp(-mu), assembled in
log space.  Central finite differences of the solved censor are kept
only as the oracle: ``db_*_sign`` with an explicit step, and the hazard
identity

    W + sigma * dW/dsigma - sigma = H(W)

checked with its own difference quotient.  The stationarity system
locates the interior maximum of the censor time path b_bar(theta) when
the dispersion kappa = mu_bar / sigma_bar^2 is at least 1/2; it and the
curve omega(sigma) are solved by Newton's method on closed-form slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .censor import SIGMA_MAX, _log_F, censor_time_path, solve_normal_censor
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .roots import newton
from .special import (SQRT_2PI, exp_or_inf, hazard, log_norm_cdf,
                      log_norm_cdf_complement)

HAZARD_STEP = 1e-6  # the hazard-identity oracle's central-difference step
OMEGA_BRACKET = (-0.5, 1.5)  # contains omega(sigma), which lies in [0, 1]
# omega_curve's objective is O(sigma) with an O(eps) rounding error, so its root is
# placed only to ~eps/sigma (at most 3.8*eps/sigma against 60-digit mpmath on 5000
# log-uniform sigma up to 1e-2), while omega ~ 0.062*sigma: the floor keeps it below 0.1%.
OMEGA_SIGMA_MIN = math.sqrt(4.0 * float(np.finfo(float).eps) / (0.062 * 1e-3))  # ~3.8e-6
SHAPE_THETA_RANGE = (1e-3, 1e3)  # the log theta grid of censor_shape_check


def _w(mu: float, sigma: float) -> float:
    return solve_normal_censor(mu, sigma).w


def _dw_dmu_at(mu: float, sigma: float, w: float) -> float:
    """``dw_dmu`` at a solved W; F_w is sigma times F's second term, whose log ``_log_F`` gives."""
    return -exp_or_inf(-mu - math.log(sigma) - _log_F(w, sigma)[1])


def _dw_dsigma_at(sigma: float, w: float) -> float:
    """``dw_dsigma`` at a solved W."""
    return (hazard(w) - w + sigma) / sigma


def dw_dmu(mu: float, sigma: float) -> float:
    """dW/dmu = -exp(-mu)/F_w, F_w = sigma*exp(sigma*W - sigma^2/2)*(1 - Phi(W))."""
    return _dw_dmu_at(mu, sigma, _w(mu, sigma))


def dw_dsigma(mu: float, sigma: float) -> float:
    """dW/dsigma = (H(W) - W + sigma)/sigma, with H the normal hazard rate."""
    return _dw_dsigma_at(sigma, _w(mu, sigma))


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

    Newton's method (``roots.newton``) on g(w) = -sigma*H(x)/2 - log F(w, sigma),
    x = sigma - w, g'(w) = (sigma/2)*H(x)*(H(x) - x) - F_w/F, inside OMEGA_BRACKET,
    which holds omega's range [0, 1].  Below OMEGA_SIGMA_MIN the root would be
    rounding noise, and above SIGMA_MAX it loses digits as fast as sigma grows:
    a DomainError is raised there.
    """
    if not OMEGA_SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise DomainError(f"omega_curve needs sigma >= {OMEGA_SIGMA_MIN:.3g} and <= {SIGMA_MAX:g}, "
                          f"got {sigma}: the root is rounding noise below, and loses digits above")

    def fdf(w: float) -> tuple[float, float]:
        x, h = sigma - w, hazard(sigma - w)
        log_f, b = _log_F(w, sigma)
        return -0.5 * sigma * h - log_f, 0.5 * sigma * h * (h - x) - sigma * math.exp(b - log_f)

    lo, hi = OMEGA_BRACKET
    return newton(fdf, lo, hi, fdf(lo)[0], fdf(hi)[0], xtol=1e-15, sigma=sigma)[0]


def omega_sweep(sigmas) -> np.ndarray:
    """omega(sigma) over an iterable of sigmas."""
    return np.array([omega_curve(float(s)) for s in sigmas])


def _stationarity_fdf(kappa: float, sigma: float) -> tuple[float, float]:
    """f = sigma*H(x)/2 - mu, positive below sigma_star, and df/dsigma at mu = kappa*sigma^2.

    x = sigma - W; H'(x) = H(x)*(H(x) - x), dx/dsigma = 1 - 2*kappa*sigma*dW/dmu - dW/dsigma.
    """
    mu = kappa * sigma * sigma
    w = _w(mu, sigma)
    x, h = sigma - w, hazard(sigma - w)
    dx = 1.0 - 2.0 * kappa * sigma * _dw_dmu_at(mu, sigma, w) - _dw_dsigma_at(sigma, w)
    return 0.5 * sigma * h - mu, 0.5 * h * (1.0 + sigma * (h - x) * dx) - 2.0 * kappa * sigma


def _stationarity_residual(kappa: float, sigma: float) -> float:
    """f(sigma) of ``_stationarity_fdf``."""
    return _stationarity_fdf(kappa, sigma)[0]


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

    mu is eliminated through the parabola constraint, and Newton's method on
    ``_stationarity_fdf`` solves the remaining equation in sigma between the
    crude under- and over-estimates of ``_crude_bracket``.  That bracket is
    checked, not widened: a residual of the wrong sign at either end raises
    a ConvergenceError, which a sweep of kappa in the tests sees only where
    the drift cap binds (kappa below ~0.5015).  Each sigma is solved once,
    the bracket ends and the residual at sigma_star included.  No solution
    exists for kappa < 1/2.  At kappa == 1/2 the stationary point recedes to
    infinity: sigma*(kappa) diverges as kappa -> 1/2+ (the residual plateaus
    at (1 - log 2)/2 > 0, since sigma*W -> log 2 there), so the solution is
    reported as existing but with sigma_star None.  When params is supplied
    the censor-maximizing horizon theta = mu_star / mu_bar is filled in.
    """
    if kappa is None:
        if params is None:
            raise DomainError("provide kappa or params")
        kappa = params.dispersion
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {kappa}")

    if kappa <= 0.5:
        return StationaritySolution(kappa=kappa, sigma_star=None, mu_star=None,
                                    theta_star_b=None, exists=kappa == 0.5)

    lo, hi, sigma_cap = _crude_bracket(kappa)
    f_lo = _stationarity_residual(kappa, lo)
    if not f_lo > 0.0:
        raise ConvergenceError(f"no positive lower bracket for kappa={kappa}")
    f_hi = _stationarity_residual(kappa, hi)
    if not f_hi < 0.0:
        raise ConvergenceError(
            f"stationary point for kappa={kappa} lies beyond sigma = {hi:.3g}, the crude "
            f"upper bound capped at {sigma_cap:.3g} to keep mu solvable; "
            "kappa is too close to 1/2")

    sigma_star, f_star, _ = newton(lambda sigma: _stationarity_fdf(kappa, sigma), lo, hi,
                                   f_lo, f_hi, xtol=1e-14, kappa=kappa)
    mu_star = kappa * sigma_star * sigma_star
    theta = mu_star / params.mu_bar if params is not None else None
    return StationaritySolution(kappa=kappa, sigma_star=sigma_star, mu_star=mu_star,
                                theta_star_b=theta, exists=True, residual=abs(f_star))


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
