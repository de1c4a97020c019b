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
from scipy.optimize import brentq

from .censor import log_censor_F, solve_normal_censor, solve_normal_censor_array
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .special import (SQRT_2PI, exp_or_inf, hazard, log_norm_cdf,
                      log_norm_cdf_complement)


def _w(mu: float, sigma: float) -> float:
    return solve_normal_censor(mu, sigma).w


def _dw_dmu_at(mu: float, sigma: float, w: float) -> float:
    return -exp_or_inf(-mu - math.log(sigma) - sigma * w + 0.5 * sigma * sigma
                       - log_norm_cdf_complement(w))


def _dw_dsigma_at(mu: float, sigma: float, w: float) -> float:
    return (hazard(w) - w + sigma) / sigma


def dw_dmu(mu: float, sigma: float) -> float:
    """dW/dmu = -exp(-mu)/F_w, F_w = sigma*exp(sigma*W - sigma^2/2)*(1 - Phi(W))."""
    return _dw_dmu_at(mu, sigma, _w(mu, sigma))


def dw_dsigma(mu: float, sigma: float) -> float:
    """dW/dsigma = (H(W) - W + sigma)/sigma, with H the normal hazard rate."""
    return _dw_dsigma_at(mu, sigma, _w(mu, sigma))


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


def hazard_identity_residual(mu: float, sigma: float, h: float = 1e-6) -> float:
    """|W + sigma*dW/dsigma - sigma - H(W)| with dW/dsigma by central difference."""
    w = _w(mu, sigma)
    dw = (_w(mu, sigma + h) - _w(mu, sigma - h)) / (2.0 * h)
    return abs(w + sigma * dw - sigma - hazard(w))


def omega_curve(sigma: float, bracket=(-0.5, 1.5)) -> float:
    """Unique root w = omega(sigma) of exp(-sigma*H(sigma - w)/2) = F(w, sigma).

    Solved in log space.  The root is expected in [0, 1]; the bracket
    is widened defensively and a bracketing failure is reported rather
    than silently expanded.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")

    def g(w: float) -> float:
        return -0.5 * sigma * hazard(sigma - w) - log_censor_F(w, sigma)

    lo, hi = bracket
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ConvergenceError(
            f"omega root left the bracket {bracket} at sigma={sigma}: "
            f"g(lo)={glo:.3e}, g(hi)={ghi:.3e}")
    return brentq(g, lo, hi, xtol=1e-13)


def omega_sweep(sigmas) -> np.ndarray:
    """omega(sigma) over an iterable of sigmas."""
    return np.array([omega_curve(s) for s in sigmas])


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
    remaining equation in sigma is bisected between (widened versions
    of) the crude under- and over-estimates; each sigma is solved once,
    the bracket ends and the residual at sigma_star included.  No
    solution exists for kappa < 1/2.  At the boundary kappa == 1/2 the
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

    # brentq re-evaluates the bracket ends and returns one of its points,
    # so each value is kept
    seen: dict[float, float] = {}

    def f(sigma: float) -> float:
        r = seen.get(sigma)
        if r is None:
            mu = kappa * sigma * sigma
            w = solve_normal_censor(mu, sigma).w
            r = seen[sigma] = 0.5 * sigma * hazard(sigma - w) - mu
        return r

    lo = 0.5 / (kappa * SQRT_2PI)
    flo = f(lo)
    shrink = 0
    while flo <= 0.0:
        lo *= 0.5
        flo = f(lo)
        shrink += 1
        if shrink > 60:
            raise ConvergenceError(f"no positive lower bracket for kappa={kappa}")

    hi = 2.0 * math.sqrt(1.0 / (2.0 * kappa - 1.0))
    sigma_cap = math.sqrt(650.0 / kappa)  # keeps mu = kappa*sigma^2 solvable
    hi = min(hi, sigma_cap)
    while f(hi) >= 0.0:
        if hi >= sigma_cap:
            raise ConvergenceError(
                f"stationary point for kappa={kappa} lies beyond the solvable "
                f"drift range (sigma > {sigma_cap:.3g}); kappa is too close to 1/2")
        hi = min(2.0 * hi, sigma_cap)

    sigma_star = brentq(f, lo, hi, xtol=1e-12)
    mu_star = kappa * sigma_star * sigma_star
    residual = abs(f(sigma_star))
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


def censor_shape_check(params: ModelParams, theta_min: float = 1e-3,
                       theta_max: float = 1e3, points: int = 400) -> ShapeReport:
    """Classify b_bar(theta) as increasing or unimodal on a log theta grid."""
    if not (0.0 < theta_min < theta_max) or points < 8:
        raise DomainError("need 0 < theta_min < theta_max and points >= 8")
    thetas = np.geomspace(theta_min, theta_max, points)
    log_b = solve_normal_censor_array(*params.scaled(thetas)).log_b_tilde
    peak = int(np.argmax(log_b))
    rising = bool(np.all(np.diff(log_b) > 0.0))
    if rising or peak == points - 1:
        return ShapeReport(shape="increasing", theta_peak=None,
                           thetas=thetas, log_b_values=log_b)
    return ShapeReport(shape="unimodal", theta_peak=float(thetas[peak]),
                       thetas=thetas, log_b_values=log_b)
