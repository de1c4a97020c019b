"""Reference values for the benchmark's checks, written apart from censor_lab.

Nothing here imports the library.  The double-precision reference is
built on ``scipy.special.log_ndtr`` and ``scipy.optimize.brentq``; the
high-precision one on mpmath at 50 digits.  Both follow the model's
definitions directly:

    F(w, s) = Phi(w - s) + exp(s*w - s^2/2) * (1 - Phi(w)),   F(W, sigma) = exp(-mu),
    log b_tilde = sigma*W + mu - sigma^2/2,
    g = E[1 / min(b, b_tilde)],   b = exp(mu - sigma^2/2 + sigma*Z).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtri

EPS = 2.0 ** -52
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _lse(a: float, b: float) -> float:
    return float(np.logaddexp(a, b))


def log_F(w: float, sigma: float) -> float:
    """log F(w, sigma) from log_ndtr; finite wherever w is."""
    return _lse(float(log_ndtr(w - sigma)),
                sigma * w - 0.5 * sigma * sigma + float(log_ndtr(-w)))


def log_F_scale(mu: float, sigma: float, w: float) -> float:
    """Largest magnitude summed inside log_F, which sets its rounding error."""
    return max(1.0, mu, abs(sigma * w), 0.5 * sigma * sigma,
               abs(float(log_ndtr(-w))), abs(float(log_ndtr(w - sigma))))


def solve_w(mu: float, sigma: float) -> float:
    """W with log F(W, sigma) = -mu, by bracket expansion and brentq."""
    def f(w):
        return log_F(w, sigma) + mu

    w0 = -mu / sigma + 0.5 * sigma
    step = max(1.0, 1e-3 * abs(w0))
    lo, hi = w0 - step, w0 + step
    while f(lo) > 0.0:
        step *= 2.0
        lo -= step
    while f(hi) < 0.0:
        step *= 2.0
        hi += step
    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * EPS, maxiter=1000)


def log_b_tilde(mu: float, sigma: float, w: float) -> float:
    return sigma * w + mu - 0.5 * sigma * sigma


def _w_from_log_b(mu: float, sigma: float, log_b: float) -> float:
    # the normal coordinate of a censor level: (log b - nu) / sigma
    return (log_b - (mu - 0.5 * sigma * sigma)) / sigma


def log_censored_mean(mu: float, sigma: float, log_b: float) -> float:
    """log E[min(b, beta)] with log beta = log_b, from lognormal partial expectations.

    E[b; b < beta] = exp(mu) * Phi(c - sigma) and beta * P(b >= beta) =
    beta * (1 - Phi(c)), c the normal coordinate of beta.
    """
    c = _w_from_log_b(mu, sigma, log_b)
    return _lse(mu + float(log_ndtr(c - sigma)), log_b + float(log_ndtr(-c)))


def log_censored_inverse_mean(mu: float, sigma: float, log_b: float) -> float:
    """log E[1 / min(b, beta)]: exp(sigma^2 - mu)*Phi(c + sigma) + (1 - Phi(c)) / beta."""
    c = _w_from_log_b(mu, sigma, log_b)
    return _lse(sigma * sigma - mu + float(log_ndtr(c + sigma)),
                -log_b + float(log_ndtr(-c)))


def log_g(mu: float, sigma: float) -> float:
    """log g at the reference censor."""
    w = solve_w(mu, sigma)
    return log_censored_inverse_mean(mu, sigma, log_b_tilde(mu, sigma, w))


def log_hazard(x: float) -> float:
    """log of pdf(x) / (1 - Phi(x))."""
    return -0.5 * x * x - HALF_LOG_2PI - float(log_ndtr(-x))


def horizon_log_g(mu_bar: float, sigma2_bar: float, theta: float) -> float:
    return log_g(mu_bar * theta, math.sqrt(sigma2_bar * theta))


def revenue(mu_bar: float, sigma2_bar: float, theta: float) -> float:
    """R(theta) = theta + (1 - theta) * g_bar(theta)."""
    return theta + (1.0 - theta) * math.exp(horizon_log_g(mu_bar, sigma2_bar, theta))


def stationarity_residual(kappa: float, sigma: float) -> float:
    """sigma*H(sigma - W)/2 - mu on the parabola mu = kappa*sigma^2."""
    mu = kappa * sigma * sigma
    w = solve_w(mu, sigma)
    return 0.5 * sigma * math.exp(log_hazard(sigma - w)) - mu


def stationary_theta(mu_bar: float, sigma2_bar: float) -> float:
    """Horizon at which the censor path peaks, for kappa = mu_bar/sigma2_bar > 1/2."""
    kappa = mu_bar / sigma2_bar
    lo, hi = 1e-3, 1.0
    while stationarity_residual(kappa, lo) <= 0.0:
        lo *= 0.5
    while stationarity_residual(kappa, hi) >= 0.0:
        hi *= 2.0
    sigma = brentq(lambda s: stationarity_residual(kappa, s), lo, hi, xtol=1e-13)
    return kappa * sigma * sigma / mu_bar


def asymptotic_g(mu_bar: float, sigma2_bar: float, theta: float) -> float:
    """Leading large-theta term of g_bar, by regime of sigma2_bar against mu_bar and 2*mu_bar."""
    alpha = sigma2_bar - mu_bar
    if sigma2_bar == 2.0 * mu_bar:
        x = math.sqrt(2.0 * mu_bar * theta)
        return 0.25 + math.exp(mu_bar * theta + float(log_ndtr(x)))
    if sigma2_bar < mu_bar:
        return 1.0
    if sigma2_bar < 2.0 * mu_bar:
        return 1.0 + math.exp(alpha * theta)
    return math.exp(alpha * theta)


# --- Monte Carlo stream --------------------------------------------------

def price_sample(mu: float, sigma: float, n: int, seed: int) -> np.ndarray:
    """The documented mc-check stream: Philox(key=seed), 53-bit uniforms
    shifted half a cell into (0, 1), normals by scipy's ndtri."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = (rng.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) / float(1 << 53)
    return np.exp((mu - 0.5 * sigma * sigma) + sigma * ndtri(u))


def mean_and_se(x: np.ndarray) -> tuple[float, float]:
    return float(np.mean(x)), float(np.std(x, ddof=1)) / math.sqrt(x.size)


# --- 50-digit reference --------------------------------------------------

def mp_w_and_log_g(mu: float, sigma: float, w_start: float,
                   dps: int = 50) -> tuple[mpmath.mpf, mpmath.mpf]:
    """W and log g at `dps` digits, by Newton on log F from w_start."""
    with mpmath.workdps(dps + 10):
        m, s = mpmath.mpf(mu), mpmath.mpf(sigma)
        w = mpmath.mpf(w_start)
        tol = mpmath.mpf(10) ** (-dps)
        for _ in range(200):
            tail = mpmath.exp(s * w - s * s / 2) * mpmath.ncdf(-w)
            big_f = mpmath.ncdf(w - s) + tail
            step = (mpmath.log(big_f) + m) / (s * tail / big_f)
            w -= step
            if abs(step) <= tol * max(1, abs(w)):
                break
        else:
            raise ArithmeticError(f"mpmath Newton did not settle at ({mu}, {sigma})")
        lg = mpmath.log(mpmath.exp(s * s - m) * mpmath.ncdf(w + s)
                        + mpmath.exp(-m - s * w + s * s / 2) * mpmath.ncdf(-w))
        return +w, +lg


def mp_log_F_residual(mu: float, sigma: float, w: float, dps: int = 50) -> float:
    """log F(w, sigma) + mu at `dps` digits, for a double w."""
    with mpmath.workdps(dps):
        m, s, x = mpmath.mpf(mu), mpmath.mpf(sigma), mpmath.mpf(w)
        big_f = mpmath.ncdf(x - s) + mpmath.exp(s * x - s * s / 2) * mpmath.ncdf(-x)
        return float(mpmath.log(big_f) + m)
