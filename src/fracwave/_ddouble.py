"""Vectorized double-double (~32 significant digits) arithmetic helpers.

Only the handful of operations needed by the power-series summation in
:mod:`fracwave.mittag_leffler` are provided.  A double-double value is a pair
``(hi, lo)`` of float64 arrays with ``hi + lo`` the represented number and
``|lo| <= ulp(hi)/2``.
"""

from __future__ import annotations

import numpy as np

# 2**27 + 1, Dekker splitting constant for float64
_SPLITTER = 134217729.0

# Effective unit roundoff of a double-double, 2**-104
DD_EPS = 4.93e-32


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| componentwise (guaranteed after a renormalizing sum)
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_add(xh, xl, yh, yl):
    sh, sl = _two_sum(xh, yh)
    sl = sl + (xl + yl)
    return _quick_two_sum(sh, sl)


def dd_mul(xh, xl, yh, yl):
    ph, pl = _two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return _quick_two_sum(ph, pl)


def dd_mul_double(xh, xl, y):
    """Multiply a double-double by an exact float64 ``y``."""
    ph, pl = _two_prod(xh, y)
    pl = pl + xl * y
    return _quick_two_sum(ph, pl)


def dd_from_mpf(x) -> tuple[float, float]:
    """Split an mpmath value into a (hi, lo) float64 pair."""
    hi = float(x)
    lo = float(x - hi)
    return hi, lo
