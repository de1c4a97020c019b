"""Comparative statics of the censor.

All partial derivatives are central finite differences of the solved
implicit function; the hazard identity

    W + sigma * dW/dsigma - sigma = H(W)

ties the finite-difference machinery back to a closed form and bounds
its error.  The stationarity system locates the interior maximum of
the censor time path b_bar(theta) when the dispersion kappa =
mu_bar / sigma_bar^2 is at least 1/2.
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
from .special import SQRT_2PI, hazard

_REL_STEP = 1e-6


def _w(mu: float, sigma: float) -> float:
    return solve_normal_censor(mu, sigma).w


def _log_b(mu: float, sigma: float) -> float:
    return solve_normal_censor(mu, sigma).log_b_tilde


def dw_dmu(mu: float, sigma: float, h: float | None = None) -> float:
    h = _REL_STEP * mu if h is None else h
    return (_w(mu + h, sigma) - _w(mu - h, sigma)) / (2.0 * h)


def dw_dsigma(mu: float, sigma: float, h: float | None = None) -> float:
    h = _REL_STEP * sigma if h is None else h
    return (_w(mu, sigma + h) - _w(mu, sigma - h)) / (2.0 * h)


def db_dmu_sign(mu: float, sigma: float, h: float | None = None) -> float:
    """Central-difference d(b_tilde)/d(mu); negative for all valid inputs.

    Differenced in log b_tilde and rescaled, so it stays usable where
    b_tilde is astronomically large.
    """
    h = _REL_STEP * mu if h is None else h
    if not 0.0 < h < mu:
        raise DomainError(f"step h={h} must lie in (0, mu)")
    b = math.exp(_log_b(mu, sigma))
    return b * (_log_b(mu + h, sigma) - _log_b(mu - h, sigma)) / (2.0 * h)


def db_dsigma_sign(mu: float, sigma: float, h: float | None = None) -> float:
    """Central-difference d(b_tilde)/d(sigma); positive for all valid inputs."""
    h = _REL_STEP * sigma if h is None else h
    if not 0.0 < h < sigma:
        raise DomainError(f"step h={h} must lie in (0, sigma)")
    b = math.exp(_log_b(mu, sigma))
    return b * (_log_b(mu, sigma + h) - _log_b(mu, sigma - h)) / (2.0 * h)


def hazard_identity_residual(mu: float, sigma: float,
                             h: float = 1e-6) -> float:
    """|W + sigma*dW/dsigma - sigma - H(W)| with dW/dsigma by central difference."""
    w = _w(mu, sigma)
    lhs = w + sigma * dw_dsigma(mu, sigma, h) - sigma
    return abs(lhs - hazard(w))


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
    of) the crude under- and over-estimates.  No solution exists for
    kappa < 1/2.  At the boundary kappa == 1/2 the stationary point
    recedes to infinity: sigma*(kappa) diverges as kappa -> 1/2+
    (the residual plateaus at (1 - log 2)/2 > 0, since sigma*W ->
    log 2 there), so the solution is reported as existing but with
    sigma_star None.  When params is supplied the censor-maximizing
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
        mu = kappa * sigma * sigma
        w = solve_normal_censor(mu, sigma).w
        return 0.5 * sigma * hazard(sigma - w) - mu

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
