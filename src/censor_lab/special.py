"""Standard-normal primitives on top of ``scipy.special``.

The log forms and the inverse CDF are scipy's ``log_ndtr`` and
``ndtri`` ufuncs, and scalar inputs give ``float`` results.  The CDF
pair is 0.5*erfc; its scalar branch stays on ``math.erfc``, which keeps
the subnormal complement 1 - Phi(38) ~ 2.9e-316 that scipy's ``erfc``
flushes to zero.  The hazard rate goes through the scaled ``erfcx``, so
it stays accurate far beyond the range where 1 - Phi(x) underflows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
LOG_2 = math.log(2.0)

# erfcx(|x|/sqrt(2)) overflows for x below this; the complement is 1 to
# machine precision there anyway.
_HAZARD_UNDERFLOW = -37.0


def _ufunc(f, x):
    y = f(x)
    return y if isinstance(x, np.ndarray) else float(y)


def exp_or_inf(x):
    """exp(x), or inf from x = 709 (just below log DBL_MAX) on, and nan at nan; elementwise."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return np.where(x >= 709.0, math.inf, np.exp(x))
    return math.inf if x >= 709.0 else math.exp(x)


def log_add_exp(a, b):
    """log(exp(a) + exp(b)); elementwise, by np.logaddexp, on arrays.

    On floats it takes np.logaddexp's steps in ``math``: the same bits,
    without numpy's per-call cost and without a warning.
    """
    if isinstance(a, np.ndarray):
        return np.logaddexp(a, b)
    if a == b:
        return a + LOG_2
    d = a - b
    if d > 0.0:
        return a + math.log1p(math.exp(-d))
    return b + math.log1p(math.exp(d)) if d <= 0.0 else d


def norm_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    if isinstance(x, np.ndarray):
        return np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return math.exp(-0.5 * x * x) * INV_SQRT_2PI


def _erfc(x):
    return _sp.erfc(x) if isinstance(x, np.ndarray) else math.erfc(x)


def norm_cdf(x):
    """Standard normal CDF; accepts +-inf and saturates to 1/0."""
    return 0.5 * _erfc(-x / SQRT2)


def norm_cdf_complement(x):
    """1 - Phi(x) without cancellation for large positive x."""
    return 0.5 * _erfc(x / SQRT2)


def log_norm_cdf(x):
    """log Phi(x), accurate in both tails."""
    return _ufunc(_sp.log_ndtr, x)


def log_norm_cdf_complement(x):
    """log(1 - Phi(x)), accurate in both tails."""
    return _ufunc(_sp.log_ndtr, -x)


def hazard(x):
    """Normal hazard rate H(x) = pdf(x) / (1 - Phi(x))."""
    if isinstance(x, np.ndarray):
        h = np.asarray(SQRT_2_OVER_PI / _sp.erfcx(x / SQRT2))
        tail = x < _HAZARD_UNDERFLOW  # rare, and as on floats, so both give the same bits
        h[tail] = [norm_pdf(v) for v in x[tail].tolist()]
        return h
    if x < _HAZARD_UNDERFLOW:
        return norm_pdf(x)
    return SQRT_2_OVER_PI / float(_sp.erfcx(x / SQRT2))


def inv_norm_cdf(p, out=None):
    """Inverse standard normal CDF on the open interval (0, 1).

    `out`, an array other than `p`, receives the quantiles of an array `p`.
    Raises DomainError outside (0, 1), where the quantile is infinite
    or undefined; for an array it names the first such element.
    """
    x = _sp.ndtri(p, out=out) if out is not None else _ufunc(_sp.ndtri, p)
    if isinstance(x, np.ndarray):
        finite = np.isfinite(x)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError("probability must lie strictly in (0, 1), got "
                              f"{float(np.ravel(p)[i])!r} at flat index {i}")
    elif not math.isfinite(x):
        raise DomainError(f"probability must lie strictly in (0, 1), got {p}")
    return x
