"""The normal-censor equation and the censor price.

The censor threshold in standard-normal coordinates is the root W of

    F(W, sigma) = exp(-mu),
    F(w, s) = Phi(w - s) + exp(s*w - s^2/2) * (1 - Phi(w)),

which is strictly increasing in w.  The censor price is then
b_tilde = exp(sigma*W + mu - sigma^2/2) > 1, and with revenue
f(x) = 2*sqrt(x) the optimal forward quantity is u = b_tilde^(-2).

``solve_normal_censor`` solves one (mu, sigma) pair with scalar
arithmetic: bracket, Brent's method (``roots.brentq``) and a Newton
polish on the F-residual.
``solve_normal_censor_array`` solves whole arrays of pairs at once, for
the callers that sweep a horizon grid: Newton on the concave
log F + mu from the best of three seeds, which at the small-sigma end
is the inverse of the normal loss function, since there
1 - F ~ sigma*psi(W).  Numpy's per-call overhead makes a 0-d call into
the array kernel several times slower than the scalar solve, so each
caller picks the path by the type of its input.  The two paths keep
separate seed rules for now, so that the scalar W stays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ModelParams, ScaledParams
from .roots import brentq
from .special import (
    INV_SQRT_2PI,
    SQRT2,
    SQRT_2PI,
    exp_or_inf,
    hazard,
    inv_norm_cdf,
    log_norm_cdf,
    log_norm_cdf_complement,
    norm_cdf,
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
# the array kernel's h = log F + mu must not be subnormal
_MU_MIN = float(np.finfo(float).tiny)

_EPS = float(np.finfo(float).eps)
_LOG_2 = math.log(2.0)

# the array kernel takes a left step this small relative to max(1, |w|)
# as its last: Newton's quadratic convergence leaves an error of order
# its square, below the rounding level of h
_LAST_STEP = 1e-10


def censor_F(w: float, sigma: float) -> float:
    """F(w, sigma); monotone increasing in w, with values in (0, 1)."""
    if sigma < 0.0 or not math.isfinite(w):
        raise DomainError(f"censor_F needs sigma >= 0 and finite w, got ({w}, {sigma})")
    if sigma == 0.0:
        return 1.0
    expo = sigma * w - 0.5 * sigma * sigma
    # norm_cdf and norm_cdf_complement written out on math.erfc: this is
    # the scalar solver's inner loop, and the arithmetic is theirs
    if expo > _EXP_SWITCH:
        second = norm_pdf(sigma - w) / hazard(w)
    else:
        second = math.exp(expo) * (0.5 * math.erfc(w / SQRT2))
    return 0.5 * math.erfc(-(w - sigma) / SQRT2) + second


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
    """The large-sigma location parameter -Phi^{-1}(exp(-mu)) = Phi^{-1}(1 - exp(-mu)).

    Below mu = log 2 the tail probability 1 - exp(-mu) is taken as
    -expm1(-mu), so mu_hat stays finite where exp(-mu) rounds to 1
    (mu below ~1.1e-16); above it exp(-mu) is the small one, and
    -expm1(-mu) would round to 1 (at mu = 700 it is 1).
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if mu < _LOG_2:
        return inv_norm_cdf(-math.expm1(-mu))
    return -inv_norm_cdf(math.exp(-mu))


def _seed(mu: float, sigma: float) -> float:
    """The scalar solver's bracket centre: the large-sigma form or sigma/2 - mu/sigma.

    It keeps its own -Phi^{-1}(exp(-mu)) rather than ``mu_hat``, and not
    the array kernel's best-of-three seed, so that the bracket, and with
    it the scalar W, stays bit-identical: an exact seed saves brentq
    little, as it narrows the bracket in any case.  One censor algorithm
    for both paths would merge the two rules.
    """
    m = -inv_norm_cdf(math.exp(-mu))
    if sigma > m + 2.0:
        return sigma - m - 1.0 / (sigma - m)
    return -mu / sigma + 0.5 * sigma


def solve_normal_censor(mu: float, sigma: float) -> CensorSolution:
    """Solve F(W, sigma) = exp(-mu) for the normal censor W.

    ``residual`` is |F(W, sigma) - exp(-mu)|, held to DEFAULT_TOL as in the
    array kernel, or a ConvergenceError.  It cannot resolve 1 - F ~ mu where
    exp(-mu) rounds to 1, so such a mu (below ~1.1e-16) raises a DomainError;
    the array kernel, which works on log F + mu, solves it.
    """
    _validate(mu, sigma)

    target = math.exp(-mu)
    if target == 1.0:
        raise DomainError(
            f"mu = {mu} too small for the scalar solver: exp(-mu) rounds to 1")

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

    if glo == 0.0 or ghi == 0.0:
        w, r, steps = (lo, glo, 0) if glo == 0.0 else (hi, ghi, 0)
    else:
        w, r, steps = brentq(g, lo, hi, glo, ghi, xtol=1e-14, rtol=8.9e-16,
                             maxiter=MAX_ITER, mu=mu, sigma=sigma)
    iterations = expansions + steps

    # Newton polish on the F-residual down to the machine floor
    residual = abs(r)
    for _ in range(6):
        if residual == 0.0:
            break
        deriv = _dF_dw(w, sigma)
        if deriv <= 0.0 or not math.isfinite(deriv):
            break
        w_next = w - r / deriv
        r_next = censor_F(w_next, sigma) - target
        iterations += 1
        if abs(r_next) >= residual:
            break
        w, r, residual = w_next, r_next, abs(r_next)
    if residual > DEFAULT_TOL:
        raise ConvergenceError(
            f"censor residual {residual:.3e} above tol {DEFAULT_TOL:.3e} "
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


def _loss_inverse(y: np.ndarray) -> np.ndarray:
    """w with psi(w) = y > 0, psi(w) = pdf(w) - w*(1 - Phi(w)) the normal loss function.

    psi decreases from +inf to 0 and is log-concave, as the integral of
    1 - Phi.  psi(w) < pdf(w) for w > 0 and psi(w) < pdf(0) - w for w < 0,
    so the start lies right of the root, and Newton on the concave
    log psi descends to it monotonically.  With psi = (1 - Phi(w))*(H(w) - w),
    log psi and its derivative -1/(H(w) - w) cost one log_ndtr and one
    hazard; two steps are plenty for a seed.
    """
    w = np.where(y < INV_SQRT_2PI, np.sqrt(-2.0 * np.log(y * SQRT_2PI)),
                 INV_SQRT_2PI - y)
    for _ in range(2):
        gap = hazard(w) - w
        w = w + (log_norm_cdf_complement(w) + np.log(gap) - np.log(y)) * gap
    return w


def _seed_array(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Three starts for the kernel, stacked: a lower bound, the small- and the large-sigma form.

    - sigma/2 - mu/sigma lies left of W: F(w, sigma) <= exp(sigma*w - sigma^2/2)
      for every w, since Phi(w - sigma) is the integral of
      exp(sigma*t - sigma^2/2)*pdf(t) over t < w, so log F <= -mu there.
    - To second order in sigma, with psi the normal loss function,
      1 - F(w, sigma) = sigma*psi(w) + sigma^2/2*(w*psi(w) + 1 - Phi(w)).
      So W ~ w1 + sigma/2*(1 + w1*(H(w1) - w1)), where psi(w1) = (1 - exp(-mu))/sigma.
    - W ~ d - 1/d with d = sigma - mu_hat(mu), where d > 1.

    mu_hat is computed as in ``mu_hat``, through -expm1(-mu) below log 2.
    """
    lower = 0.5 * sigma - mu / sigma
    tail = -np.expm1(-mu)
    below = mu < _LOG_2
    q = inv_norm_cdf(np.where(below, tail, np.exp(-mu)))
    d = sigma - np.where(below, q, -q)
    large = np.where(d > 1.0, d - 1.0 / d, lower)
    first = _loss_inverse(tail / sigma)
    small = first + 0.5 * sigma * (1.0 + first * (hazard(first) - first))
    return np.stack([lower, small, large])


def _newton_step(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """h = log F(w, sigma) + mu and the Newton step -h/h' on it, elementwise."""
    b = sigma * w - 0.5 * sigma * sigma + log_norm_cdf_complement(w)
    log_f = np.logaddexp(log_norm_cdf(w - sigma), b)
    h = log_f + mu
    # h' = F_w / F = sigma * exp(b - log F); it underflows to 0 far out
    # on the flat right of F, where the capped step takes over
    with np.errstate(divide="ignore", invalid="ignore"):
        return h, -h / (sigma * np.exp(b - log_f))


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
    each time it binds, and never goes below the largest point known to
    lie left of the root.

    The first pass evaluates h at the three starts of ``_seed_array`` and
    keeps, per element, the one with the shortest Newton step.  An element
    stops once h is 0, its step is within two ulps of w, or it crosses the
    root after having been left of it, which only rounding can do; a left
    step below _LAST_STEP * max(1, |w|) is taken as its last.  Every pass
    steps the whole array and freezes the finished elements.

    Every element is validated as ``solve_normal_censor`` validates its
    input, except that mu may go below ~1.1e-16, where exp(-mu) rounds to
    1, down to the smallest normal float: below that h sits at the
    subnormal floor, its derivative loses its digits and Newton cannot
    reach W.  ``residual`` is the same |F - exp(-mu)|, held to DEFAULT_TOL,
    taken as exp(-mu)*|expm1(h(W))| without the cancellation near F = 1;
    errors name the offending element by its flat index.  ``iterations``
    counts the passes that evaluated h at each element, the seed pass
    included.
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                    np.asarray(sigma, dtype=float))
    shape = mu.shape
    mu, sigma = mu.ravel(), sigma.ravel()
    ok = (mu >= _MU_MIN) & (mu <= _MU_MAX) & (sigma > 0.0) & (sigma < math.inf)
    if not ok.all():
        raise DomainError(
            f"censor input {_element(mu, sigma, int(np.argmin(ok)))} outside "
            f"{_MU_MIN:.4g} <= mu <= {_MU_MAX:g}, 0 < sigma < inf")

    # the far tails overflow on the way, and a seed form is nan where it
    # does not apply; a nan step never wins the selection
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        starts = _seed_array(mu, sigma)
        h, step = _newton_step(starts, mu, sigma)
        # every start with h <= 0 lies left of the root
        lower = np.maximum(starts[0], np.where(h <= 0.0, starts, -math.inf).max(axis=0))
        size = np.abs(step)
        pick = (np.argmin(np.where(np.isnan(size), math.inf, size), axis=0), np.arange(mu.size))
    w, h, step = starts[pick], h[pick], step[pick]

    cap = np.maximum(0.5, 0.05 * np.abs(w))
    was_left = np.zeros(mu.size, dtype=bool)
    live = np.ones(mu.size, dtype=bool)
    iterations = np.ones(mu.size, dtype=np.int64)
    for _ in range(MAX_ITER):
        # h == 0 goes the careful way too: its step can be 0/0
        right = live & (h >= 0.0)
        capped = right & ~(step >= -cap)
        step = np.where(capped, -cap, step)
        cap = np.where(capped, 2.0 * cap, cap)
        lower = np.where(right, lower, w)
        new = np.maximum(w + step, lower)
        done = ((right & was_left) | (h == 0.0)
                | (np.abs(new - w) <= 2.0 * _EPS * np.abs(w)))
        last = ~right & (np.abs(step) <= _LAST_STEP * np.maximum(1.0, np.abs(w)))
        w = np.where(live & ~done, new, w)
        live &= ~(done | last)
        was_left |= ~right
        if not live.any():
            break
        h, step = _newton_step(w, mu, sigma)
        iterations += live
    else:
        raise ConvergenceError(
            f"censor not converged in {MAX_ITER} steps at "
            f"{_element(mu, sigma, int(np.argmax(live)))}")

    # a last step moves w past the h evaluated for it, so h is taken once more
    residual = np.exp(-mu) * np.abs(np.expm1(_newton_step(w, mu, sigma)[0]))
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


def censor_price(mu: float, sigma: float) -> float:
    """The censor price b_tilde > 1, from a solve held to DEFAULT_TOL."""
    return solve_normal_censor(mu, sigma).b_tilde


def censor_time_path(params: ModelParams, theta: float) -> CensorSolution:
    """b_bar(theta) = b_tilde(mu_bar*theta, sigma_bar*sqrt(theta)), solved to DEFAULT_TOL."""
    scaled = ScaledParams.from_horizon(params, theta)
    return solve_normal_censor(scaled.mu, scaled.sigma)


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
