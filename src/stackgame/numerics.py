"""Low-level numerical routines: adaptive Simpson quadrature and bisection.

These are deliberately plain implementations with explicit tolerances so that
every caller in the package shares one quadrature and one root-finding policy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

# Subdivision stops once an interval is this small relative to the whole
# integration range; prevents infinite descent on non-smooth integrands.
_MIN_REL_WIDTH = 1e-14
# uniform panels the range is cut into before any subdivision
_INITIAL_PANELS = 8
_MAX_BISECTIONS = 200  # halvings bisect_monotone_vec makes at most


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] with adaptive Simpson subdivision.

    The local acceptance test is the classic |S2 - S1| <= 15*tol with the
    Richardson correction term added to the accepted value. The range is first
    cut into uniform panels so a feature narrower than the whole interval
    cannot hide between the initial sample points.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericalError(f"non-finite integration bounds [{a}, {b}]")
    if tol <= 0:
        raise NumericalError(f"quadrature tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    min_width = (b - a) * _MIN_REL_WIDTH
    edges = [a + (b - a) * i / _INITIAL_PANELS for i in range(_INITIAL_PANELS + 1)]
    edges[-1] = b

    total = 0.0
    # Each stack entry: (a, b, fa, fm, fb, simpson_estimate, local_tol)
    stack = []
    panel_tol = tol / _INITIAL_PANELS
    for xa, xb in zip(edges[:-1], edges[1:]):
        fa = f(xa)
        fb = f(xb)
        m = 0.5 * (xa + xb)
        fm = f(m)
        whole = (xb - xa) / 6.0 * (fa + 4.0 * fm + fb)
        stack.append((xa, xb, fa, fm, fb, whole, panel_tol))
    while stack:
        xa, xb, ya, ym, yb, s_whole, loc_tol = stack.pop()
        xm = 0.5 * (xa + xb)
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm = f(lm)
        yrm = f(rm)
        h6 = (xb - xa) / 12.0
        s_left = h6 * (ya + 4.0 * ylm + ym)
        s_right = h6 * (ym + 4.0 * yrm + yb)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * loc_tol or (xb - xa) <= min_width:
            total += s_left + s_right + err / 15.0
        else:
            half_tol = 0.5 * loc_tol
            stack.append((xa, xm, ya, ylm, ym, s_left, half_tol))
            stack.append((xm, xb, ym, yrm, yb, s_right, half_tol))
    return sign * total


def bisect_monotone_vec(fn, lo, hi, *, xtol: float = 1e-12) -> np.ndarray:
    """Vectorized bisection: the root of a decreasing fn in each bracket [lo, hi].

    fn must accept ndarray input; lo and hi are arrays of one shape. Each
    bracket stops halving once it is xtol narrow, so every result depends only
    on its own bracket, not on what else is solved in the same call.
    """
    lo_arr, hi_arr = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(_MAX_BISECTIONS):
        active = hi_arr - lo_arr > xtol
        if not np.any(active):
            break
        mid = 0.5 * (lo_arr + hi_arr)
        go_right = fn(mid) > 0.0
        lo_arr = np.where(active & go_right, mid, lo_arr)
        hi_arr = np.where(active & ~go_right, mid, hi_arr)
    return 0.5 * (lo_arr + hi_arr)
