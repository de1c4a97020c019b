"""The normal-censor equation and the censor price.

The censor threshold in standard-normal coordinates is the root W of

    F(W, sigma) = exp(-mu),
    F(w, s) = Phi(w - s) + exp(s*w - s^2/2) * (1 - Phi(w)),

which is strictly increasing in w.  The censor price is then
b_tilde = exp(sigma*W + mu - sigma^2/2) > 1, and with revenue
f(x) = 2*sqrt(x) the optimal forward quantity is u = b_tilde^(-2).
F is written once, in log form: ``_log_F`` on floats, its twin in
``_newton_step`` on arrays; ``censor_F`` is the exp of the former.

One algorithm solves it: Newton on the concave h = log F + mu, which
resolves 1 - F ~ mu where exp(-mu) rounds to 1, for 0 < sigma <= SIGMA_MAX.
``solve_normal_censor_array`` runs it over arrays, for the callers that
sweep a horizon grid, and ``solve_normal_censor`` step for step on
Python floats, for single points: a 0-d call into the array kernel pays
numpy's per-call overhead on each of its array operations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .errors import ConvergenceError, DomainError
from .model import ModelParams, _require_positive_finite
from .special import (
    INV_SQRT_2PI,
    SQRT_2PI,
    exp_or_inf,
    hazard,
    log_add_exp,
    log_norm_cdf,
    log_norm_cdf_complement,
    norm_cdf,
)

DEFAULT_TOL = 1e-12
MAX_ITER = 200

# exp(-mu) must not underflow for the root to be meaningful
_MU_MAX = 700.0
# below the smallest normal float h = log F + mu is subnormal, its
# derivative loses its digits and Newton cannot reach W
_MU_MIN = float(np.finfo(float).tiny)
# near the root F_w ~ pdf(mu_hat) <= 0.399, so the double nearest W leaves
# |F - exp(-mu)| ~ ulp(W)/2 * F_w ~ 1.1e-16*sigma*pdf(mu_hat): at most 4.4e-13
# while sigma <= 1e4, and above DEFAULT_TOL from sigma ~ 2.3e4 on
SIGMA_MAX = 1e4

_EPS = float(np.finfo(float).eps)

# the solve takes a left step this small relative to max(1, |w|)
# as its last: Newton's quadratic convergence leaves an error of order
# its square, below the rounding level of h
_LAST_STEP = 1e-10


def censor_F(w: float, sigma: float) -> float:
    """F(w, sigma) = exp(log F); monotone increasing in w, with values in [0, 1]."""
    return math.exp(log_censor_F(w, sigma))


def _log_F(w: float, sigma: float) -> tuple[float, float]:
    """(log F(w, sigma), b) on floats, b the log of F's second term."""
    b = sigma * w - 0.5 * sigma * sigma + float(log_ndtr(-w))
    return log_add_exp(float(log_ndtr(w - sigma)), b), b


def log_censor_F(w: float, sigma: float) -> float:
    """log F(w, sigma) at finite w and sigma >= 0; usable far left, where F underflows."""
    if not (0.0 <= sigma < math.inf and math.isfinite(w)):
        raise DomainError(f"censor F needs finite sigma >= 0 and finite w, got ({w}, {sigma})")
    if sigma == 0.0:
        return 0.0
    # F <= 1, so the log is capped at 0 (the sum can poke above by an ulp)
    return min(0.0, _log_F(w, sigma)[0])


class CensorSolution(NamedTuple):
    """Solved censor: the point (mu, sigma), normal coordinate, price, quantity, diagnostics.

    From ``solve_normal_censor_array`` every field is an array of the
    broadcast input shape.
    """

    mu: float
    sigma: float
    w: float
    b_tilde: float
    log_b_tilde: float
    u: float
    residual: float
    iterations: int


def _in_domain(mu, sigma):
    """Whether (mu, sigma) lies in the solvers' domain, elementwise on arrays."""
    return (mu >= _MU_MIN) & (mu <= _MU_MAX) & (sigma > 0.0) & (sigma <= SIGMA_MAX)


_DOMAIN = f"{_MU_MIN:.4g} <= mu <= {_MU_MAX:g}, 0 < sigma <= {SIGMA_MAX:g}"


def mu_hat(mu):
    """The large-sigma location parameter -Phi^{-1}(exp(-mu)) = Phi^{-1}(1 - exp(-mu)), elementwise.

    It is -ndtri_exp(-mu): scipy's ndtri_exp takes the quantile of the
    smaller tail, so mu_hat stays finite where exp(-mu) rounds to 1 (mu
    below ~1.1e-16) and where 1 - exp(-mu) does (at mu = 700).
    """
    m = -ndtri_exp(-mu)
    if isinstance(m, np.ndarray):
        if np.isfinite(m).all():
            return m
    elif math.isfinite(m):
        return float(m)
    raise DomainError(f"mu must be positive and finite, got {mu!r}")


def lower_start(mu, sigma):
    """sigma/2 - mu/sigma, W's small-sigma form, and left of W; on floats or arrays.

    There log F <= -mu: F(w, sigma) <= exp(sigma*w - sigma^2/2), as Phi(w - sigma)
    is the integral of exp(sigma*t - sigma^2/2)*pdf(t) over t < w.
    """
    return 0.5 * sigma - mu / sigma


def large_sigma_start(mu: float, sigma: float) -> float:
    """d - 1/d with d = sigma - mu_hat(mu), the large-sigma form of W; nan where d <= 1."""
    d = sigma - mu_hat(mu)
    return d - 1.0 / d if d > 1.0 else math.nan


def _residual(mu, h):
    """|F - exp(-mu)| as exp(-mu)*|expm1(h)|, without the cancellation near F = 1."""
    if isinstance(h, np.ndarray):
        return np.exp(-mu) * np.abs(np.expm1(h))
    return float(np.exp(-mu)) * abs(math.expm1(h))


def _log_b(mu, sigma, w):
    """log b_tilde = sigma*W + mu - sigma^2/2, on floats or on arrays."""
    return sigma * w + mu - 0.5 * sigma * sigma


def _price(mu, sigma, w):
    """(b_tilde, log b_tilde, u) at W, on floats or on arrays.

    b_tilde > 1 holds mathematically; a log b_tilde below 0 is pure rounding
    noise from the cancellation sigma*W ~ -mu at tiny sigma, and is clamped.
    """
    log_b = _log_b(mu, sigma, w)
    log_b = np.maximum(log_b, 0.0) if isinstance(log_b, np.ndarray) else max(log_b, 0.0)
    return exp_or_inf(log_b), log_b, exp_or_inf(-2.0 * log_b)


def _loss_inverse(y: np.ndarray) -> np.ndarray:
    """w with psi(w) = y > 0, psi(w) = pdf(w) - w*(1 - Phi(w)) the normal loss function.

    psi decreases from +inf to 0 and is log-concave, as the integral of
    1 - Phi.  psi(w) < pdf(w) for w > 0 and psi(w) < pdf(0) - w for w < 0,
    so the start lies right of the root, and Newton on the concave
    log psi descends to it monotonically.  With psi = (1 - Phi(w))*(H(w) - w),
    log psi and its derivative -1/(H(w) - w) cost one log_ndtr and one
    hazard; two steps are plenty for a seed.
    """
    log_y = np.log(y)
    w = np.where(y < INV_SQRT_2PI, np.sqrt(-2.0 * np.log(y * SQRT_2PI)),
                 INV_SQRT_2PI - y)
    for _ in range(2):
        gap = hazard(w) - w
        w = w + (log_norm_cdf_complement(w) + np.log(gap) - log_y) * gap
    return w


def _seed_array(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Three starts for the kernel, stacked: a lower bound, the small- and the large-sigma form.

    - ``lower_start`` lies left of W.
    - To second order in sigma, with psi the normal loss function,
      1 - F(w, sigma) = sigma*psi(w) + sigma^2/2*(w*psi(w) + 1 - Phi(w)).
      So W ~ w1 + sigma/2*(1 + w1*(H(w1) - w1)), where psi(w1) = (1 - exp(-mu))/sigma.
    - ``large_sigma_start``, here written on arrays.
    """
    lower = lower_start(mu, sigma)
    d = sigma - mu_hat(mu)
    large = np.where(d > 1.0, d - 1.0 / d, math.nan)
    first = _loss_inverse(-np.expm1(-mu) / sigma)
    small = first + 0.5 * sigma * (1.0 + first * (hazard(first) - first))
    return np.stack([lower, small, large])


def _newton_step(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray, half_s2: np.ndarray):
    """h = log F(w, sigma) + mu and the Newton step -h/h', elementwise; half_s2 is sigma^2/2."""
    b = sigma * w - half_s2 + log_norm_cdf_complement(w)
    log_f = np.logaddexp(log_norm_cdf(w - sigma), b)
    h = log_f + mu
    # h' = F_w / F = sigma * exp(b - log F); it underflows to 0 far out
    # on the flat right of F, where the capped step takes over
    return h, -h / (sigma * np.exp(b - log_f))


def _element(mu: np.ndarray, sigma: np.ndarray, i: int) -> str:
    return f"element {i} (mu={float(mu[i])!r}, sigma={float(sigma[i])!r})"


def solve_normal_censor_array(mu, sigma) -> CensorSolution:
    """Solve F(W, sigma) = exp(-mu) elementwise over broadcastable arrays.

    Newton on h(w) = log F(w, sigma) + mu.  dF/dw is proportional
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

    The domain is _MU_MIN <= mu <= 700 and 0 < sigma <= SIGMA_MAX: mu may go
    below ~1.1e-16, where exp(-mu) rounds to 1, down to the smallest
    normal float.  ``residual`` is |F - exp(-mu)|, held to DEFAULT_TOL,
    taken as exp(-mu)*|expm1(h(W))|; errors name the offending element by
    its flat index.  ``iterations`` counts the passes that evaluated h at
    each element, the seed pass included.
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                    np.asarray(sigma, dtype=float))
    shape = mu.shape
    mu, sigma = mu.ravel(), sigma.ravel()
    ok = _in_domain(mu, sigma)
    if not ok.all():
        raise DomainError(
            f"censor input {_element(mu, sigma, int(np.argmin(ok)))} outside {_DOMAIN}")

    n, half_s2 = mu.size, 0.5 * sigma * sigma
    # the far tails overflow on the way, a seed form is nan where it does
    # not apply, and h' underflows to 0 far right; a nan step never wins
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        starts = _seed_array(mu, sigma)
        h, step = _newton_step(starts, mu, sigma, half_s2)
        # every start with h <= 0 lies left of the root
        lower = np.maximum(starts[0], np.where(h <= 0.0, starts, -math.inf).max(axis=0))
        size = np.abs(step)
        pick = np.argmin(np.where(np.isnan(size), math.inf, size), axis=0) * n + np.arange(n)
        w, h, step = starts.take(pick), h.take(pick), step.take(pick)

        cap = np.maximum(0.5, 0.05 * np.abs(w))
        was_left = np.zeros(n, dtype=bool)
        live = np.ones(n, dtype=bool)
        iterations = np.ones(n, dtype=np.int64)
        for _ in range(MAX_ITER):
            # h == 0 goes the careful way too: its step can be 0/0
            right = live & (h >= 0.0)
            neg_cap = -cap
            capped = right & ~(step >= neg_cap)
            step = np.where(capped, neg_cap, step)
            cap = np.where(capped, 2.0 * cap, cap)
            lower = np.where(right, lower, w)
            new = np.maximum(w + step, lower)
            abs_w = np.abs(w)
            done = (right & was_left) | (h == 0.0) | (np.abs(new - w) <= 2.0 * _EPS * abs_w)
            last = ~right & (np.abs(step) <= _LAST_STEP * np.maximum(1.0, abs_w))
            moved = live & ~done
            w = np.where(moved, new, w)
            live = moved & ~last
            was_left |= ~right
            if not live.any():
                break
            h, step = _newton_step(w, mu, sigma, half_s2)
            iterations += live
        else:
            raise ConvergenceError(f"censor not converged in {MAX_ITER} steps at "
                                   f"{_element(mu, sigma, int(np.argmax(live)))}")

        # the final pass's moves are last steps past the h evaluated for them,
        # so h is taken there once more; elsewhere h is that of the final w
        if moved.any():
            h[moved] = _newton_step(w[moved], mu[moved], sigma[moved], half_s2[moved])[0]
    residual = _residual(mu, h)
    if not (residual <= DEFAULT_TOL).all():
        i = int(np.argmin(residual <= DEFAULT_TOL))
        raise ConvergenceError(f"censor residual {residual[i]:.3e} above tol {DEFAULT_TOL:.3e} "
                               f"at {_element(mu, sigma, i)}")

    fields = (mu, sigma, w, *_price(mu, sigma, w), residual, iterations)
    return CensorSolution(*(x.reshape(shape) for x in fields))


def _loss_inverse_float(y: float) -> float:
    """``_loss_inverse`` on a float; nan where y is not in (0, inf), as there."""
    if not 0.0 < y < math.inf:
        return math.nan
    log_y = math.log(y)
    w = math.sqrt(-2.0 * math.log(y * SQRT_2PI)) if y < INV_SQRT_2PI else INV_SQRT_2PI - y
    for _ in range(2):
        gap = hazard(w) - w
        w = w + (float(log_ndtr(-w)) + math.log(gap) - log_y) * gap
    return w


def _starts(mu: float, sigma: float) -> tuple[float, float, float]:
    """The three starts of ``_seed_array`` for one (mu, sigma), on floats."""
    first = _loss_inverse_float(-math.expm1(-mu) / sigma)
    small = first + 0.5 * sigma * (1.0 + first * (hazard(first) - first))
    return lower_start(mu, sigma), small, large_sigma_start(mu, sigma)


def _newton_step_float(w: float, mu: float, sigma: float) -> tuple[float, float]:
    """``_newton_step`` on floats; where h' underflows to 0 the step is -h*inf, as -h/0 is there."""
    log_f, b = _log_F(w, sigma)
    h = log_f + mu
    dh = sigma * math.exp(b - log_f)
    return h, (-h / dh if dh else -h * math.inf)


def solve_normal_censor(mu: float, sigma: float) -> CensorSolution:
    """Solve F(W, sigma) = exp(-mu) for one (mu, sigma) on Python floats.

    ``solve_normal_censor_array``'s iteration step for step: the same starts
    and pick, capped right step, lower bound, stop rules, domain and
    residual, held to DEFAULT_TOL.  W matches the kernel's to rounding
    (math.exp and numpy's exp may differ in the last bit), and
    ``iterations`` counts the same passes.  The residual exp(-mu)*|expm1(h)|
    takes numpy's exp, as the kernel does, and math's expm1, the libm function
    numpy calls, so it has the kernel's bits for the same h.
    """
    mu, sigma = float(mu), float(sigma)
    if not _in_domain(mu, sigma):
        raise DomainError(f"censor input (mu={mu!r}, sigma={sigma!r}) outside {_DOMAIN}")

    starts = _starts(mu, sigma)
    # every start with h <= 0 lies left of the root; the first shortest step wins,
    # and a nan start, a form that does not apply, has a nan step, which never does
    lower, pick = starts[0], None
    for start in starts:
        h, step = _newton_step_float(start, mu, sigma) if start == start else (start, start)
        lower = max(lower, start) if h <= 0.0 else lower
        size = abs(step) if step == step else math.inf
        pick = (size, start, h, step) if pick is None or size < pick[0] else pick
    _, w, h, step = pick

    cap = max(0.5, 0.05 * abs(w))
    was_left = False
    iterations = 1
    for _ in range(MAX_ITER):
        right = h >= 0.0
        if right and not step >= -cap:
            step, cap = -cap, 2.0 * cap
        lower = lower if right else w
        new = max(w + step, lower)
        if (right and was_left) or h == 0.0 or abs(new - w) <= 2.0 * _EPS * abs(w):
            break
        last = not right and abs(step) <= _LAST_STEP * max(1.0, abs(w))
        w = new
        h, step = _newton_step_float(w, mu, sigma)
        if last:
            break
        iterations += 1
        was_left = was_left or not right
    else:
        raise ConvergenceError(
            f"censor not converged in {MAX_ITER} steps at (mu={mu!r}, sigma={sigma!r})")

    # h is that of the final w: a stop leaves w where h was taken
    residual = _residual(mu, h)
    if not residual <= DEFAULT_TOL:
        raise ConvergenceError(f"censor residual {residual:.3e} above tol {DEFAULT_TOL:.3e} "
                               f"at (mu={mu!r}, sigma={sigma!r})")

    return CensorSolution(mu, sigma, w, *_price(mu, sigma, w), residual, iterations)


def censor_price(mu: float, sigma: float) -> float:
    """The censor price b_tilde > 1, from a solve held to DEFAULT_TOL."""
    return solve_normal_censor(mu, sigma).b_tilde


def censor_time_path(params: ModelParams, theta) -> CensorSolution:
    """b_bar(theta) = b_tilde(mu_bar*theta, sigma_bar*sqrt(theta)); an array is one kernel call."""
    if isinstance(theta, np.ndarray):
        if not (theta > 0.0).all():
            raise DomainError(f"theta must be positive, got {float(theta[~(theta > 0.0)][0])!r}")
        return solve_normal_censor_array(*params.scaled(theta))
    _require_positive_finite("theta", theta)
    return solve_normal_censor(*params.scaled(theta))


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
    term1 = math.exp(mu) * norm_cdf(w - sigma)
    term2 = math.exp(_log_b(mu, sigma, w) + log_norm_cdf_complement(w))
    return term1 + term2 - 1.0
