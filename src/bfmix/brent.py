"""Brent's bracketing root finder, a line-for-line port of scipy's
``brentq`` (scipy/optimize/Zeros/brentq.c and its Python wrapper).

Same iterates and the same stopping rule, with scipy's default rtol, so
roots agree with ``scipy.optimize.brentq`` bit for bit.  Its failures
are numeric failures (NumericError) of scipy's types: RootError, also a
ValueError, for a non-positive xtol, a NaN function value or a bracket
without a sign change, and NumericError, a RuntimeError, when maxiter
runs out.
"""

import math

from .errors import NumericError

__all__ = ["brentq", "RootError"]


class RootError(NumericError, ValueError):
    """Brent cannot start or go on: the ValueError cases of scipy."""

# scipy's default (and tightest) relative tolerance: 4 machine epsilons
_RTOL = 4.0 * 2.220446049250313e-16


def _value(f, x, fx=None):
    if fx is None:
        fx = f(x)
    if math.isnan(fx):
        raise RootError(
            f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol, maxiter, fa=None, fb=None):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when the bracket half-width is below
    (xtol + _RTOL * |x|) / 2, the same rule as scipy.  A caller that
    already holds f(a) or f(b) passes it as fa or fb, and f is not
    called there again; the iterates are the same.
    """
    if xtol <= 0:
        raise RootError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0

    fpre = _value(f, xpre, fa)
    fcur = _value(f, xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a zero divisor yields inf or nan in C, and the step test
            # below then fails, so it bisects in both
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre = scur
            scur = stry
        else:
            # bisect
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NumericError(f"Failed to converge after {maxiter} iterations.")
