"""The normal-censor equation and the censor price.

The censor threshold in standard-normal coordinates is the root W of

    F(W, sigma) = exp(-mu),
    F(w, s) = Phi(w - s) + exp(s*w - s^2/2) * (1 - Phi(w)),

which is strictly increasing in w.  The censor price is then
b_tilde = exp(sigma*W + mu - sigma^2/2) > 1, and with revenue
f(x) = 2*sqrt(x) the optimal forward quantity is u = b_tilde^(-2).

``solve_normal_censor`` solves one (mu, sigma) pair with scalar
arithmetic; ``solve_normal_censor_array`` solves whole arrays of pairs
at once, for the callers that sweep a horizon grid.  Numpy's per-call
overhead makes a 0-d call into the array kernel several times slower
than the scalar solve, so each caller picks the path by the type of its
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError
from .model import ModelParams, ScaledParams
from .special import (
    exp_or_inf,
    hazard,
    inv_norm_cdf,
    log_norm_cdf,
    log_norm_cdf_complement,
    norm_cdf,
    norm_cdf_complement,
    norm_pdf,
)

DEFAULT_TOL = 1e-12
MAX_ITER = 200

# exp(sigma*w - sigma^2/2) is evaluated directly below this exponent;
# above it the term is rewritten as pdf(sigma - w) / H(w), which is
# algebraically identical and immune to overflow.
_EXP_SWITCH = 50.0

# exp(-mu) must not underflow for the root to be meaningful
_MU_MAX = 700.0

_EPS = float(np.finfo(float).eps)


def censor_F(w: float, sigma: float) -> float:
    """F(w, sigma); monotone increasing in w, with values in (0, 1)."""
    if sigma < 0.0 or not math.isfinite(w):
        raise DomainError(f"censor_F needs sigma >= 0 and finite w, got ({w}, {sigma})")
    if sigma == 0.0:
        return 1.0
    expo = sigma * w - 0.5 * sigma * sigma
    if expo > _EXP_SWITCH:
        second = norm_pdf(sigma - w) / hazard(w)
    else:
        second = math.exp(expo) * norm_cdf_complement(w)
    return norm_cdf(w - sigma) + second


def log_censor_F(w: float, sigma: float) -> float:
    """log F(w, sigma); usable far into the left tail where F underflows."""
    if sigma < 0.0 or not math.isfinite(w):
        raise DomainError(f"log_censor_F needs sigma >= 0 and finite w, got ({w}, {sigma})")
    if sigma == 0.0:
        return 0.0
    a = log_norm_cdf(w - sigma)
    b = sigma * w - 0.5 * sigma * sigma + log_norm_cdf_complement(w)
    hi, lo = (a, b) if a >= b else (b, a)
    # F <= 1, so the log is capped at 0 (the sum can poke above by an ulp)
    return min(0.0, hi + math.log1p(math.exp(lo - hi)))


def _dF_dw(w: float, sigma: float) -> float:
    # dF/dw = sigma * exp(sigma*w - sigma^2/2) * (1 - Phi(w)); the log
    # assembly stays finite even where the two factors under/overflow
    return sigma * math.exp(sigma * w - 0.5 * sigma * sigma
                            + log_norm_cdf_complement(w))


@dataclass(frozen=True)
class CensorSolution:
    """Solved censor: normal coordinate, price, quantity, diagnostics.

    From ``solve_normal_censor_array`` every field is an array of the
    broadcast input shape.
    """

    w: float
    b_tilde: float
    log_b_tilde: float
    u: float
    residual: float
    iterations: int


def _validate(mu: float, sigma: float) -> None:
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if mu > _MU_MAX:
        raise DomainError(f"mu = {mu} too large: exp(-mu) underflows")


def mu_hat(mu: float) -> float:
    """The large-sigma location parameter -Phi^{-1}(exp(-mu))."""
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"mu must be positive and finite, got {mu}")
    return -inv_norm_cdf(math.exp(-mu))


def _seed(mu: float, sigma: float) -> float:
    m = mu_hat(mu)
    if sigma > m + 2.0:
        return sigma - m - 1.0 / (sigma - m)
    return -mu / sigma + 0.5 * sigma


def solve_normal_censor(mu: float, sigma: float,
                        tol: float = DEFAULT_TOL) -> CensorSolution:
    """Solve F(W, sigma) = exp(-mu) for the normal censor W."""
    _validate(mu, sigma)
    if not (0.0 < tol <= 1e-8):
        raise DomainError(f"tol must lie in (0, 1e-8], got {tol}")

    target = math.exp(-mu)

    def g(w: float) -> float:
        return censor_F(w, sigma) - target

    # bracket by geometric expansion around the asymptotic seed
    w0 = _seed(mu, sigma)
    step = max(0.5, 0.05 * abs(w0))
    lo, hi = w0 - step, w0 + step
    glo, ghi = g(lo), g(hi)
    expansions = 0
    while glo > 0.0:
        step *= 2.0
        lo -= step
        glo = g(lo)
        expansions += 1
        if expansions > MAX_ITER:
            raise ConvergenceError(f"no lower bracket for (mu={mu}, sigma={sigma})")
    while ghi < 0.0:
        step *= 2.0
        hi += step
        ghi = g(hi)
        expansions += 1
        if expansions > MAX_ITER:
            raise ConvergenceError(f"no upper bracket for (mu={mu}, sigma={sigma})")

    w, info = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16,
                     maxiter=MAX_ITER, full_output=True)
    iterations = expansions + info.iterations

    # Newton polish on the F-residual down to the machine floor
    residual = abs(censor_F(w, sigma) - target)
    for _ in range(6):
        if residual == 0.0:
            break
        deriv = _dF_dw(w, sigma)
        if deriv <= 0.0 or not math.isfinite(deriv):
            break
        w_next = w - (censor_F(w, sigma) - target) / deriv
        r_next = abs(censor_F(w_next, sigma) - target)
        iterations += 1
        if r_next >= residual:
            break
        w, residual = w_next, r_next
    if residual > tol:
        raise ConvergenceError(
            f"censor residual {residual:.3e} above tol {tol:.3e} "
            f"for (mu={mu}, sigma={sigma})")

    log_b = sigma * w + mu - 0.5 * sigma * sigma
    # b_tilde > 1 holds mathematically; a negative value here is pure
    # rounding noise from the cancellation sigma*w ~ -mu at tiny sigma
    log_b = max(log_b, 0.0)
    return CensorSolution(
        w=w,
        b_tilde=exp_or_inf(log_b),
        log_b_tilde=log_b,
        u=math.exp(-2.0 * log_b),
        residual=residual,
        iterations=iterations,
    )


def _seed_array(mu: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_seed`` elementwise, and the lower bound sigma/2 - mu/sigma on W.

    F(w, sigma) <= exp(sigma*w - sigma^2/2) for every w, since
    Phi(w - sigma) is the integral of exp(sigma*t - sigma^2/2)*pdf(t) over
    t < w; so log F <= -mu at the small-sigma form, which lies left of W.
    """
    small = -mu / sigma + 0.5 * sigma
    d = sigma + inv_norm_cdf(np.exp(-mu))  # sigma - mu_hat(mu)
    with np.errstate(divide="ignore"):
        return np.where(d > 2.0, d - 1.0 / d, small), small


def _censor_F_array(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``censor_F`` elementwise, with the same overflow rewrite."""
    expo = sigma * w - 0.5 * sigma * sigma
    # np.where evaluates both branches; the one not taken may overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = np.where(expo > _EXP_SWITCH, norm_pdf(sigma - w) / hazard(w),
                          np.exp(expo) * norm_cdf_complement(w))
    return norm_cdf(w - sigma) + second


def _element(mu: np.ndarray, sigma: np.ndarray, i: int) -> str:
    return f"element {i} (mu={float(mu[i])!r}, sigma={float(sigma[i])!r})"


def solve_normal_censor_array(mu, sigma) -> CensorSolution:
    """Solve F(W, sigma) = exp(-mu) elementwise over broadcastable arrays.

    Newton's method on h(w) = log F(w, sigma) + mu.  dF/dw is proportional
    to exp(sigma*w)*(1 - Phi(w)), which is log-concave (its log-derivative
    sigma - H(w) decreases), so F, its integral, is log-concave and h is
    concave: from the left of the root Newton climbs monotonically and
    never overshoots.  From the right it lands left of the root, possibly
    far out where the tail of log Phi is quadratic and each step only
    halves the distance; that move is therefore capped, the cap doubling
    each time it binds, and never goes below the lower bound of
    ``_seed_array``.  An element stops once its step is within two ulps
    of w, or once it crosses the root after having been left of it, which
    only rounding can do.

    Every element is validated as ``solve_normal_censor`` validates its
    input, and ``residual`` is the same F-residual, held to DEFAULT_TOL;
    errors name the offending element by its flat index.  ``iterations``
    counts the h-evaluations of each element.
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                    np.asarray(sigma, dtype=float))
    shape = mu.shape
    mu, sigma = mu.ravel(), sigma.ravel()
    ok = (mu > 0.0) & (mu <= _MU_MAX) & (sigma > 0.0) & (sigma < math.inf)
    if not ok.all():
        raise DomainError(
            f"censor input {_element(mu, sigma, int(np.argmin(ok)))} outside "
            f"0 < mu <= {_MU_MAX:g}, 0 < sigma < inf")

    w, lower = _seed_array(mu, sigma)
    cap = np.maximum(0.5, 0.05 * np.abs(w))
    was_left = np.zeros(w.shape, dtype=bool)
    iterations = np.zeros(w.shape, dtype=np.int64)
    live = np.arange(w.size)
    for _ in range(MAX_ITER):
        if live.size == 0:
            break
        wk, sk = w[live], sigma[live]
        b = sk * wk - 0.5 * sk * sk + log_norm_cdf_complement(wk)
        log_f = np.logaddexp(log_norm_cdf(wk - sk), b)
        h = log_f + mu[live]
        # h' = F_w / F = sigma * exp(b - log F); it underflows to 0 far out
        # on the flat right of F, where the capped step takes over
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -h / (sk * np.exp(b - log_f))
        right = h > 0.0
        ck = cap[live]
        capped = right & ~(step >= -ck)
        step = np.where(capped, -ck, step)
        cap[live] = np.where(capped, 2.0 * ck, ck)
        lk = np.where(right, lower[live], wk)
        lower[live] = lk
        new = np.maximum(wk + step, lk)
        crossed = right & was_left[live]
        was_left[live] |= ~right
        iterations[live] += 1
        done = (h == 0.0) | crossed | (np.abs(new - wk) <= 2.0 * _EPS * np.abs(wk))
        w[live] = np.where(done, wk, new)
        live = live[~done]
    if live.size:
        raise ConvergenceError(
            f"censor not converged in {MAX_ITER} steps at {_element(mu, sigma, live[0])}")

    residual = np.abs(_censor_F_array(w, sigma) - np.exp(-mu))
    if not (residual <= DEFAULT_TOL).all():
        i = int(np.argmin(residual <= DEFAULT_TOL))
        raise ConvergenceError(
            f"censor residual {residual[i]:.3e} above tol {DEFAULT_TOL:.3e} "
            f"at {_element(mu, sigma, i)}")

    # the same clamp as the scalar solve: b_tilde > 1 holds mathematically
    log_b = np.maximum(sigma * w + mu - 0.5 * sigma * sigma, 0.0)
    return CensorSolution(
        w=w.reshape(shape),
        b_tilde=exp_or_inf(log_b).reshape(shape),
        log_b_tilde=log_b.reshape(shape),
        u=np.exp(-2.0 * log_b).reshape(shape),
        residual=residual.reshape(shape),
        iterations=iterations.reshape(shape),
    )


def censor_price(mu: float, sigma: float, tol: float = DEFAULT_TOL) -> float:
    """The censor price b_tilde > 1."""
    return solve_normal_censor(mu, sigma, tol).b_tilde


def censor_time_path(params: ModelParams, theta: float,
                     tol: float = DEFAULT_TOL) -> CensorSolution:
    """Censor along the horizon: b_bar(theta) = b_tilde(mu_bar*theta, sigma_bar*sqrt(theta))."""
    scaled = ScaledParams.from_horizon(params, theta)
    return solve_normal_censor(scaled.mu, scaled.sigma, tol)


def optimal_forward_quantity(b_tilde: float) -> float:
    """u solving f'(u) = b_tilde for f(x) = 2*sqrt(x), i.e. u = b_tilde^(-2)."""
    if not (math.isfinite(b_tilde) and b_tilde > 0.0):
        raise DomainError(f"b_tilde must be positive, got {b_tilde}")
    return b_tilde ** -2.0


def martingale_identity_residual(mu: float, sigma: float,
                                 w: float | None = None) -> float:
    """Residual of exp(mu)*Phi(W - sigma) + b_tilde*(1 - Phi(W)) - 1.

    The b_tilde term is assembled in log space so the identity can be
    checked even where b_tilde itself overflows.
    """
    if w is None:
        w = solve_normal_censor(mu, sigma).w
    log_b = sigma * w + mu - 0.5 * sigma * sigma
    term1 = math.exp(mu) * norm_cdf(w - sigma)
    term2 = math.exp(log_b + log_norm_cdf_complement(w))
    return term1 + term2 - 1.0
