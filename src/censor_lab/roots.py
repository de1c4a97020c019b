"""Safeguarded Newton root finding on Python floats (Numerical Recipes, §9.4, ``rtsafe``)."""

import math

from .errors import ConvergenceError


def newton(fdf, lo, hi, f_lo, f_hi, /, xtol, maxiter=100, **params):
    """(root, f(root), iterations) of f on [lo, hi], given f at both ends; fdf(x) is (f, f').

    From the ends' secant point, Newton steps inside a bracket that shrinks to the
    sign of each f, and bisects where a step would leave it or not halve the step
    before last, or f' is 0 or nan.  It stops once the next step is at most xtol or
    cannot move x, so the root is the last point fdf was called at (an end takes 0
    iterations), and a caller can keep what fdf computed there.  The keywords after
    maxiter name the caller's parameters in the ConvergenceError for no sign
    change, a nan f or maxiter iterations.
    """
    lo, hi, f_lo, f_hi = float(lo), float(hi), float(f_lo), float(f_hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return (lo, f_lo, 0) if f_lo == 0.0 else (hi, f_hi, 0)
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise ConvergenceError(f"no sign change on [{lo}, {hi}] for {params}")
    ends = {f_lo < 0.0: lo, f_hi < 0.0: hi}  # the bracket, keyed by f < 0 there
    x = lo + f_lo / (f_lo - f_hi) * (hi - lo)
    if not min(lo, hi) < x < max(lo, hi):  # rounded onto an end, or inf/inf
        x = 0.5 * (lo + hi)
    before_last = last = abs(hi - lo)
    for iterations in range(1, maxiter + 1):
        f, df = map(float, fdf(x))
        if f == 0.0:
            return x, f, iterations
        if math.isnan(f):
            raise ConvergenceError(f"f is nan at x={x} for {params}")
        ends[f < 0.0] = x
        far = ends[f > 0.0]
        step = -f / df if df else math.nan
        if not (0.0 < step / (far - x) < 1.0 and abs(step) <= 0.5 * before_last):
            step = 0.5 * (far - x)
        if abs(step) <= xtol or x + step in (x, far):
            return x, f, iterations
        before_last, last = last, abs(step)
        x += step
    raise ConvergenceError(f"no convergence in {maxiter} iterations for {params}")
