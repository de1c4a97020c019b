"""Brent-Dekker root finding on Python floats (Brent 1973, ch. 4).

A line-for-line port of scipy's ``brentq.c``, iterates and iteration counts
included, that does not load ``scipy.optimize``.
"""

import math

from .errors import ConvergenceError

RTOL = 4.0 * 2.0 ** -52  # scipy's default and smallest rtol, 4 eps


def brentq(f, xpre, xcur, fpre, fcur, /, xtol, rtol=RTOL, maxiter=100, **params):
    """(root, f(root), iterations) of f on [xpre, xcur], given f at both ends.

    A root at an end takes 0 iterations.  The keywords after maxiter name the
    caller's parameters in the ConvergenceError for a bracket without a sign
    change, a nan value of f, or no convergence in maxiter iterations.
    """
    xpre, xcur, fpre, fcur = float(xpre), float(xcur), float(fpre), float(fcur)
    if fpre == 0.0 or fcur == 0.0:
        return (xpre, fpre, 0) if fpre == 0.0 else (xcur, fcur, 0)
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise ConvergenceError(f"no sign change on [{xpre}, {xcur}] for {params}")
    for iterations in range(1, maxiter + 1):
        # true on the first pass, which sets the contrapoint xblk and the steps
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, iterations
        stry = math.inf  # a bisection, unless an interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed divisor: C's step is inf or nan
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ConvergenceError(f"f is nan at x={xcur} for {params}")
    raise ConvergenceError(f"no convergence in {maxiter} iterations for {params}")
