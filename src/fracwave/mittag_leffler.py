"""Two-parameter Mittag-Leffler function on the real line, with decay checks.

The evaluator targets the arguments produced by the spectral mode dynamics,
``z = -lambda * t**alpha`` with ``alpha`` in (1, 2), but accepts any
``alpha`` in (0, 2] and ``beta > 0`` on ``|z| <= Z_MAX``.

Each half-axis runs one estimate-gated cascade of tiers, ordered by the
cancellation scale ``m = |z|**(1/alpha)``.  A tier sees the arguments no
earlier tier accepted and whose ``m`` lies in its band; it keeps only
the values whose a-posteriori error estimate meets the target tolerance,
so there is no hand-tuned switch radius.  Negative axis:

1. plain Kahan-compensated Taylor series (``m <= 12``),
2. the Bromwich integral of ``e**s s**(alpha-beta) / (s**alpha - z)`` on a
   parabolic contour (``m <= 46``), summed by the trapezoid rule on 69
   fixed nodes at a cost flat in ``m``.  The poles ``s**alpha = z`` are the
   saddle pair of tier 3 and enter as its residues.  Where a pole lies near
   the contour and the sum's change from twice the step alone declines a
   value, the step is halved for that value, at most twice,
3. the large-argument expansion: optimally truncated algebraic series plus
   the conjugate saddle pair ``(2/alpha) Re[w**(1-beta) e**w]``,
   ``w = m e**(i pi/alpha)`` (present for ``alpha > 1``; for ``alpha`` near 2
   the damped oscillation dominates and is essential),
4. the contour sum again, for ``m > 46``, where the expansion is not yet
   accurate.

Positive axis:

1. the Kahan series (``m <= 60``),
2. the exponential lead ``(1/alpha) m**(1-beta) exp(m)`` minus the same
   optimally truncated algebraic series.  Past ``m`` of about 709 the value
   leaves the double range and ``ml`` raises ``ValueError``.

The series' term ratios ``c_{k+1}/c_k`` of ``c_k = 1/Gamma(alpha k +
beta)`` and the expansions' coefficients ``1/Gamma(beta - alpha k)`` are
doubles rounded from 20-digit reciprocal gammas, built once per (alpha,
beta).  The series table reaches only as far as the calling half-axis
needs; the longer positive-axis table is built once a positive argument
arrives, which the solver never sends.

Whatever every tier declines goes to arbitrary precision.  On the negative
axis above ``m = 100`` that is the contour sum again, with its step halved
until it converges and its working precision raised until the rounding of
its terms lies 20 digits below the value; its cost does not grow with
``m``.  Everything else is summed as ``sum_k z**k c_k`` with an
incrementally updated power, at ``30 + 0.45 m`` digits (twice that per unit
of ``m`` for ``alpha <= 1``).  Each coefficient ``c_k`` is taken at that
precision when the sum reaches it, so the fallback keeps no state between
calls.  The two tables of doubles above are the module's only caches:
least-recently-used maps bounded in bytes, so a process that scans many
orders does not grow without limit.
``_MP_MAX_DPS`` (800 digits) caps both arbitrary-precision sums: the power
series can reach it only on the positive axis, where the expansion accepts
long before, and the contour only where the value lies hundreds of digits
below its terms, at a zero of the function.  Each thread works in its own
mpmath context, so concurrent calls never share a working precision.
``alpha = 1`` with ``beta`` in {1, 2} uses ``exp`` and ``expm1(z)/z`` on the
negative axis.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import libmp

__all__ = [
    "Z_MAX",
    "MLParams",
    "BoundFit",
    "gamma",
    "ml",
    "DECAY_SAMPLES",
    "verify_decay_bound",
    "max_ratio",
]

# Hard cap on |z|; beyond this the tiers have not been validated.
Z_MAX = 1.0e8

_EPS = 2.220446049250313e-16
# Relative-error targets: tighter on the moderate range, relaxed far out.
_TOL_NEAR = 3.0e-11
_TOL_FAR = 1.0e-9
_NEAR_LIMIT = 64.0

_M_DOUBLE = 12.0   # Kahan double series attempted below this m
_M_CONTOUR = 46.0  # contour sum attempted ahead of the expansion below this m
_M_POS_SERIES = 60.0
_ASYM_KMAX = 40
_SERIES_KMAX = 1400
# largest term factor |z R_k| the series tier takes.  Only R_0 ~ 1/(beta
# Gamma(alpha)) comes near it, for beta so small that c_0 ~ beta sits at the
# bottom of the double range, where it has lost digits (or R_0 is infinite)
_FACTOR_MAX = 2.0**995
_MP_MAX_DPS = 800
# negative-axis values every tier declines are summed as a power series up to
# this m, and on the contour above it
_M_MP_SERIES = 100.0


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("alpha and beta must be finite")
        if not 0.0 < a <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {a}")
        if b <= 0.0:
            raise ValueError(f"beta must be positive, got {b}")


@dataclass(frozen=True)
class BoundFit:
    """Empirical fit of the algebraic decay envelope on the negative axis."""

    mu: float
    c_empirical: float
    sample_count: int
    max_violation: float

    @property
    def violated(self) -> bool:
        return self.max_violation > 0.0


def gamma(x: float) -> float:
    """Euler gamma for real ``x``; non-positive integers are rejected."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma argument must be finite")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at non-positive integer {x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# per-thread mpmath contexts and byte-bounded caches

_MP_LOCAL = threading.local()


def _mp_context():
    """This thread's mpmath context.  Working precision is a property of the
    context, so concurrent calls must not share the global ``mpmath.mp``."""
    ctx = getattr(_MP_LOCAL, "ctx", None)
    if ctx is None:
        ctx = _MP_LOCAL.ctx = mp.MPContext()
    return ctx


class _ByteLRU:
    """Least-recently-used map whose entries' sizes, as ``nbytes(value)``
    estimates them, sum to at most ``budget`` bytes.

    Storing an entry evicts the least recently used ones until the total
    fits, the new entry too if it alone is over budget.  Values are replaced,
    never mutated, so a caller holding an evicted value still has a valid
    one; a lock keeps the order and the byte count consistent under
    concurrent calls.
    """

    def __init__(self, nbytes, budget: int):
        self.nbytes = nbytes
        self.budget = budget
        self.total = 0
        self._items: OrderedDict = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return default
            self._items.move_to_end(key)
            return item[0]

    def __setitem__(self, key, value) -> None:
        size = self.nbytes(value)
        with self._lock:
            old = self._items.pop(key, None)
            self.total += size - (old[1] if old else 0)
            self._items[key] = (value, size)
            while self.total > self.budget:
                self.total -= self._items.popitem(last=False)[1][1]


# Per-cache byte budget.  One 30-alpha sweep holds about 90 kB of series
# tables and expansion coefficients, so only long scans over many orders evict.
_CACHE_BYTES = 32 * 2**20


# ---------------------------------------------------------------------------
# reciprocal gammas.  Every one the module takes comes from mpmath's raw
# routine at the context's precision, which skips the context's argument
# conversion on every call: the double tables rounded from _TABLE_DPS digits
# (the expansions' coefficients 1/Gamma(beta - alpha k) and the series tier's
# term ratios c_{k+1}/c_k), the arbitrary-precision power series' c_k and the
# contour sum's lead 1/Gamma(beta - alpha).

_TABLE_DPS = 20
_NEAREST = libmp.round_nearest
_MPF_ORDER = functools.cmp_to_key(libmp.mpf_cmp)


def _rgamma_raw(ctx, x):
    """``1/Gamma`` of the raw mpmath value ``x`` at the context's precision;
    zero at the poles."""
    return libmp.mpf_rgamma(x, ctx.prec, _NEAREST)


def _series_coeff(ctx, a, b, k: int):
    """``c_k = 1/Gamma(alpha k + beta)`` at the context's precision, from the
    raw ``a`` = alpha and ``b`` = beta, at the argument formed exactly."""
    return _rgamma_raw(ctx, libmp.mpf_add(libmp.mpf_mul(a, libmp.from_int(k)), b))


def _rgamma_double(ctx, x: float) -> float:
    """``1/Gamma(x)`` from the context's precision, rounded to double; 0.0 at
    the poles and where ``Gamma(x)`` overflows the double range (``x`` above
    about 171.62)."""
    r = libmp.to_float(_rgamma_raw(ctx, libmp.from_float(x)), rnd=_NEAREST)
    return r if abs(r) * sys.float_info.max >= 1.0 else 0.0


# (alpha, beta) -> 1/Gamma(beta - alpha k) for k = 1.._ASYM_KMAX
_ASYM_CACHE = _ByteLRU(lambda coeffs: coeffs.nbytes + 256, _CACHE_BYTES)


def _asym_coeffs(alpha: float, beta: float) -> np.ndarray:
    """``1/Gamma(beta - alpha k)``, k = 1.._ASYM_KMAX, each at the argument
    as rounded to double: the coefficients of the algebraic series, the
    first also the contour's lead term.

    Rounded from 20 digits, they are the correctly rounded doubles unless a
    value lies within about 1e-20 (relative) of a halfway point between two.
    """
    key = (alpha, beta)
    coeffs = _ASYM_CACHE.get(key)
    if coeffs is None:
        ctx = _mp_context()
        with ctx.workdps(_TABLE_DPS):
            coeffs = np.array([_rgamma_double(ctx, beta - alpha * k)
                               for k in range(1, _ASYM_KMAX + 1)])
        _ASYM_CACHE[key] = coeffs
    return coeffs


def _table_bytes(entry) -> int:
    return entry[0].nbytes + 256


# (alpha, beta) -> (ratios R_k = c_{k+1}/c_k, c_0), the longest built so far
_TABLE_CACHE = _ByteLRU(_table_bytes, _CACHE_BYTES)


def _series_length(alpha: float, m_max: float) -> int:
    return min(_SERIES_KMAX, int(3.8 * max(m_max, 1.0) / alpha) + 48)


def _series_table(alpha: float, beta: float, m_max: float):
    """Term ratios ``R_k = c_{k+1}/c_k`` and ``c_0``, rounded to double, as
    far as a series out to ``m_max`` needs.

    The coefficients ``c_k = 1/Gamma(alpha k + beta)``, at arguments formed
    exactly, and their ratios are taken at ``_TABLE_DPS`` digits.  One table
    per (alpha, beta); a longer request replaces it with a longer one.
    """
    size = _series_length(alpha, m_max)
    entry = _TABLE_CACHE.get((alpha, beta))
    if entry is not None and entry[0].size >= size:
        return entry
    ctx = _mp_context()
    a, b = libmp.from_float(alpha), libmp.from_float(beta)
    with ctx.workdps(_TABLE_DPS):
        c = [_series_coeff(ctx, a, b, k) for k in range(size + 1)]
        ratios = np.array([libmp.to_float(libmp.mpf_div(c[k + 1], c[k], ctx.prec, _NEAREST),
                                          rnd=_NEAREST) for k in range(size)])
    entry = (ratios, libmp.to_float(c[0], rnd=_NEAREST))
    _TABLE_CACHE[(alpha, beta)] = entry
    return entry


def _declined(z):
    return np.zeros_like(z), np.zeros(z.shape, dtype=bool)


def _series_double(alpha, beta, z, tol):
    """Kahan-compensated Taylor series at ``z`` of one sign; returns (value,
    accept mask).

    Its table reaches ``m = _M_DOUBLE`` for negative ``z`` and
    ``_M_POS_SERIES`` for positive ``z``, so the longer table is built only
    once a positive argument arrives.  Every value is declined where a term
    factor ``z R_k`` could exceed ``_FACTOR_MAX``.
    """
    zmax = float(np.max(np.abs(z)))
    ratios, c0 = _series_table(alpha, beta, _M_POS_SERIES if z[0] > 0.0 else _M_DOUBLE)
    n = min(_series_length(alpha, zmax ** (1.0 / alpha)), ratios.size)
    if not np.max(np.abs(ratios[:n])) < _FACTOR_MAX / zmax:
        return _declined(z)
    t = np.full(z.shape, c0)
    s = t.copy()
    comp = np.zeros_like(s)
    acc = np.abs(t)
    for k in range(n - 1):
        t = t * (z * ratios[k])
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        acc += np.abs(t)
        if k > 4 and np.all(np.abs(t) <= 1e-20 * acc):
            break
    est = 4.0 * _EPS * acc + np.abs(t)
    ok = est <= tol * np.abs(s)
    return s, ok


# ---------------------------------------------------------------------------
# large-argument expansions


def _algebraic(alpha, beta, z):
    """Optimally truncated ``sum_{k>=1} z**-k / Gamma(beta - alpha k)``.

    Returns ``(sum, abs_sum, truncation_estimate)``: the sum stops before
    the first term that fails to decrease, which then bounds the error.  For
    integer ``alpha`` the arguments step by integers, so once one is exactly
    a pole every later one is too: the series has ended, and what was kept
    is exact (estimate 0) wherever it had not already stopped.
    """
    coeffs = _asym_coeffs(alpha, beta)
    invz = 1.0 / z
    p = invz.copy()
    s = np.zeros_like(z)
    s_abs = np.zeros_like(z)
    prev = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    est = np.zeros_like(z)
    for k in range(1, _ASYM_KMAX + 1):
        arg = beta - alpha * k
        # arguments that are non-positive integers up to rounding sit at
        # gamma poles: the coefficient is (essentially) zero and must not
        # feed the term-growth stopping rule
        if arg < 0.5 and abs(arg - round(arg)) < 1e-6:
            if alpha == round(alpha) and arg == round(arg):
                return s, s_abs, est
            p = p * invz
            continue
        rg = coeffs[k - 1]
        if rg != 0.0:
            t = p * rg
            mag = np.abs(t)
            stop = active & (mag >= prev)
            np.copyto(est, mag, where=stop)
            active &= ~stop
            if not active.any():
                break
            np.add(s, t, out=s, where=active)
            np.add(s_abs, mag, out=s_abs, where=active)
            np.copyto(prev, mag, where=active)
        p = p * invz
    # ran out of terms while still decreasing: last kept term is the estimate
    np.copyto(est, np.where(np.isfinite(prev), prev, 0.0), where=active)
    return s, s_abs, est


def _saddle_pair(alpha, beta, m):
    """The conjugate pole pair ``(2/alpha) Re[w**(1-beta) e**w]``,
    ``w = m e**(i pi/alpha)``, and its amplitude; for ``alpha > 1``.

    Its phase ``m sin(pi/alpha)`` carries a rounding error of order
    ``m eps``, which near a zero of the cosine is large against the pair
    itself but not against its amplitude.
    """
    phi = math.pi / alpha
    with np.errstate(under="ignore"):
        amp = (2.0 / alpha) * m ** (1.0 - beta) * np.exp(m * math.cos(phi))
        return amp * np.cos(m * math.sin(phi) + (1.0 - beta) * phi), amp


def _asym_neg(alpha, beta, z, tol):
    """Algebraic expansion plus saddle pair for z < 0; returns (value, accept)."""
    s, s_abs, est = _algebraic(alpha, beta, z)
    val = -s
    # each algebraic term is a few roundings from a double; only the saddle
    # pair's phase error grows with m.  It is charged against the pair's
    # amplitude, not the pair as evaluated, which near a zero of the cosine
    # understates it (at alpha = beta = 1.954, z = -1.99e5, 1e-10 relative
    # against a true 5.3e-10)
    est = est + (2.0 * _ASYM_KMAX + 30.0) * _EPS * s_abs
    if alpha > 1.0:
        m = np.abs(z) ** (1.0 / alpha)
        osc, amp = _saddle_pair(alpha, beta, m)
        val = val + osc
        est = est + (3.0 * m + 30.0) * _EPS * amp
    ok = est <= 0.1 * tol * np.abs(val)
    # fully degenerate expansion (all coefficients at gamma poles): the value
    # is exponentially small; 0.0 is the correctly rounded double only when
    # even exp(-m cos) underflows entirely
    if alpha <= 1.0:
        ok &= s_abs > 0.0
    return val, ok


def _asym_pos(alpha, beta, z, tol):
    """Exponential lead minus the algebraic expansion for z > 0; returns
    (value, accept)."""
    s, s_abs, est = _algebraic(alpha, beta, z)
    with np.errstate(over="ignore", invalid="ignore"):
        m = z ** (1.0 / alpha)
        lead = (1.0 / alpha) * m ** (1.0 - beta) * np.exp(m)
        # for beta > 1, exp(m) overflows while the lead still fits
        big = np.isinf(lead)
        lead[big] = np.exp(m[big] + (1.0 - beta) * np.log(m[big]) - math.log(alpha))
    val = lead - s
    # an infinite estimate would pass the accept test; m itself overflows
    # (giving inf * 0 = nan) only for alpha far below 1
    over = ~np.isfinite(val)
    if np.any(over):
        raise ValueError(f"E_{{alpha,beta}}(z) overflows double precision (alpha={alpha}, "
                         f"beta={beta}, z={float(z[over][0])!r})")
    est = est + (3.0 * m + 30.0) * _EPS * (s_abs + lead)
    return val, est <= 0.1 * tol * np.abs(val)


# ---------------------------------------------------------------------------
# Bromwich integral on a parabolic contour (Weideman & Trefethen, Math. Comp.
# 76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015)
#
#   E_{a,b}(-x) = (1/2 pi i) int e**s s**(a-b) / (s**a + x) ds
#               = (1/Gamma(b-a) - J) / x,
#   J = (1/2 pi i) int e**s s**(2a-b) / (s**a + x) ds
#
# on s = mu (1 + iu)**2, u real; Hankel's integral gives the first term.
# Where the value is small against the first integrand (for beta = alpha,
# E ~ x**-2 against an integrand of size 1/x), J is not, so its sum does not
# cancel.  The integrand is conjugate-symmetric in u, so the trapezoid rule
# with step h sums Re g(kh) over k >= 0 only.  Its error falls geometrically
# in 1/h at a rate set by the nearest singularity in the u-plane: the branch
# point s = 0 at u = i, and for alpha > 1 the poles s**a = -x, which are the
# saddle pair of the large-argument expansion.  Poles right of the contour,
# at Im u < 0, enter as that pair's residues.  No step depends on m, so the
# cost is flat in m.

_CONTOUR_H = 0.1
# u up to 6.8: exp(mu (1 - u**2)) is below 1e-19 of the integrand's scale for
# every mu the scale rule below picks
_CONTOUR_NODES = 69
_CONTOUR_MU = (1.0, 4.0)
# a value whose sum changed too much at the last halving of the step gets at
# most this many more halvings
_CONTOUR_HALVINGS = 2
# (values x nodes) complex temporaries are summed in row blocks of this size
_CONTOUR_BLOCK_BYTES = 2**20


def _bromwich_parts(a, b, mu, w, exp):
    """The integrand of ``J`` at ``s = mu w**2``, ``w = 1 + iu``, times
    ``ds/du / (2 pi i)`` and divided by ``mu**(1+2a-b) / pi``, is
    ``num / (den + x)``; returns ``(num, den)``, neither of which depends on
    ``x``.

    Written once for NumPy (a column of ``mu`` against a row of nodes ``w``)
    and for mpmath scalars; ``exp`` is the matching exponential.
    """
    return exp(mu * (w * w)) * w ** (2 * (2 * a - b) + 1), mu**a * w ** (2 * a)


def _contour_blocks(alpha, beta, x, mu, u):
    """``Re`` of the integrand at the nodes ``u``, as (row slice, block) pairs
    of a (values x nodes) array.  ``num`` and ``den`` are formed once per
    distinct ``mu``, not once per value."""
    levels, which = np.unique(mu, return_inverse=True)
    num, den = _bromwich_parts(alpha, beta, levels[:, None], 1.0 + 1j * u, np.exp)
    # about four complex temporaries of a block are alive at once
    rows = max(1, _CONTOUR_BLOCK_BYTES // (64 * u.size))
    for lo in range(0, x.size, rows):
        blk = slice(lo, lo + rows)
        i = which[blk]
        yield blk, np.ascontiguousarray((num[i] / (den[i] + x[blk, None])).real)


def _contour_scale(alpha, m):
    """Per-value contour scale ``mu`` and whether the pole pair lies inside
    (right of) the contour.

    The pole ``m e**(i pi/alpha)`` sits at ``Im u = 1 - sqrt(q/mu)`` with
    ``q = m cos(pi/(2 alpha))**2``.  The small scale keeps the integrand's
    size ``e**mu``, and so its rounding, low; the large one is taken where
    the small one would leave the pole within 1/3 of the real u-axis, and
    puts it at least 1/3 above it.
    """
    lo, hi = _CONTOUR_MU
    mu = np.full(m.shape, lo)
    if alpha <= 1.0:  # no pole on the principal sheet
        return mu, np.zeros(m.shape, dtype=bool)
    q = m * math.cos(0.5 * math.pi / alpha) ** 2
    mu[np.abs(1.0 - np.sqrt(q / lo)) < 1.0 / 3.0] = hi
    return mu, q > mu


def _contour_neg(alpha, beta, z, tol):
    """Trapezoid sum on the parabolic contour for z < 0; returns (value, accept).

    The estimate is the rounding of the terms plus the change from the sum
    at twice the step, which bounds the error of the finer sum many times
    over.  Where that change alone fails the tolerance (a pole near the
    real u-axis), the step is halved for that value, up to
    ``_CONTOUR_HALVINGS`` times: each halving adds the odd nodes to the sum
    it has.
    """
    x = -z
    with np.errstate(over="ignore"):
        m = x ** (1.0 / alpha)
    mu, inside = _contour_scale(alpha, m)
    # sums in units of the first step
    fine = np.empty_like(x)
    coarse = np.empty_like(x)
    size = np.empty_like(x)
    for blk, g in _contour_blocks(alpha, beta, x, mu, _CONTOUR_H * np.arange(_CONTOUR_NODES)):
        g[:, 0] *= 0.5
        fine[blk] = g.sum(axis=1)
        coarse[blk] = 2.0 * g[:, ::2].sum(axis=1)
        size[blk] = np.abs(g).sum(axis=1)
    scale = (2.0 * _CONTOUR_H / math.pi) * mu ** (1.0 + 2.0 * alpha - beta)
    lead = _asym_coeffs(alpha, beta)[0]
    pair = np.zeros_like(x)
    pair_err = np.zeros_like(x)
    if np.any(inside):
        pair[inside], amp = _saddle_pair(alpha, beta, m[inside])
        pair_err[inside] = (3.0 * m[inside] + 30.0) * _EPS * amp

    def finish(i):
        rounding = 10.0 * _EPS * (abs(lead) + scale[i] * size[i])
        step = scale[i] * np.abs(fine[i] - coarse[i])
        return ((lead - scale[i] * fine[i]) / x[i] + pair[i],
                rounding / x[i] + pair_err[i], (rounding + step) / x[i] + pair_err[i])

    val, noise, est = finish(slice(None))
    redo = np.flatnonzero((est > tol * np.abs(val)) & (noise <= tol * np.abs(val)))
    for halving in range(1, _CONTOUR_HALVINGS + 1):
        if redo.size == 0:
            break
        odd = 2.0 * np.arange((_CONTOUR_NODES - 1) * 2 ** (halving - 1)) + 1.0
        weight = 0.5**halving
        for blk, g in _contour_blocks(alpha, beta, x[redo], mu[redo], weight * _CONTOUR_H * odd):
            i = redo[blk]
            coarse[i] = fine[i]
            fine[i] = 0.5 * fine[i] + weight * g.sum(axis=1)
            size[i] = 0.5 * size[i] + weight * np.abs(g).sum(axis=1)
        val[redo], _, est[redo] = finish(redo)
        redo = redo[est[redo] > tol[redo] * np.abs(val[redo])]
    return val, est <= tol * np.abs(val)


def _fallback_dps(alpha: float, z: float) -> int:
    """Working digits of the arbitrary-precision sum at ``z``."""
    m = abs(z) ** (1.0 / alpha)
    # for alpha <= 1 the value itself can be exponentially small, doubling
    # the number of digits lost to cancellation
    return 30 + int(0.45 * m) if alpha > 1.0 else 30 + int(0.92 * m)


def _over_precision_cap(alpha: float, z: float) -> ValueError:
    return ValueError(
        "argument needs more than the supported working precision "
        f"(alpha={alpha}, z={z}); see module docstring for the envelope"
    )


def _mpmath_single(alpha: float, beta: float, z: float) -> float:
    """``sum_k z**k c_k`` at ``_fallback_dps`` digits, each coefficient
    ``c_k = 1/Gamma(alpha k + beta)`` taken at that precision as the sum
    reaches it."""
    dps = _fallback_dps(alpha, z)
    if dps > _MP_MAX_DPS:
        raise _over_precision_cap(alpha, z)
    # raw mpmath values and operations: the roundings of the context's
    # arithmetic at its precision, without its number objects
    a, b, zz = libmp.from_float(alpha), libmp.from_float(beta), libmp.from_float(z)
    tiny = libmp.from_float(1e-300)
    mul, add, gt = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_gt
    ctx = _mp_context()
    with ctx.workdps(dps):
        prec = ctx.prec
        eps = (ctx.mpf(10) ** (-dps - 5))._mpf_
        s = term_max = libmp.fzero
        power = libmp.fone
        t = _series_coeff(ctx, a, b, 0)
        k = 0
        while True:
            s = add(s, t, prec, _NEAREST)
            at = libmp.mpf_abs(t)
            if gt(at, term_max):
                term_max = at
            k += 1
            power = mul(power, zz, prec, _NEAREST)
            t = mul(power, _series_coeff(ctx, a, b, k), prec, _NEAREST)
            if k > 5:
                scale = max(term_max, libmp.mpf_abs(s), tiny, key=_MPF_ORDER)
                if gt(mul(eps, scale, prec, _NEAREST), libmp.mpf_abs(t)):
                    break
            if k > 60000:
                raise ValueError("series did not converge in the fallback")
    return libmp.to_float(s, rnd=_NEAREST)


# relative digits to which the arbitrary-precision contour sum is converged
_CONTOUR_MP_DIGITS = 20


def _contour_sum_mp(ctx, alpha, beta, z, mu, inside):
    """Contour sum at the context's working precision, the step halved until
    two successive sums agree to ``_CONTOUR_MP_DIGITS`` digits.

    Returns the value, its change at the last halving and the sum of the
    magnitudes it was added from.
    """
    a, b, x, mu = ctx.mpf(alpha), ctx.mpf(beta), -ctx.mpf(z), ctx.mpf(mu)
    pair = ctx.mpf(0)
    if inside:
        pole = ctx.power(x, 1 / a) * ctx.expj(ctx.pi / a)
        pair = 2 / a * ctx.re(pole ** (1 - b) * ctx.exp(pole))

    def term(u):
        num, den = _bromwich_parts(a, b, mu, ctx.mpc(1, u), ctx.exp)
        return ctx.re(num / (den + x))

    h = ctx.mpf(1) / 4
    terms = [term(0) / 2]
    size = abs(terms[0])
    # out to where the terms, falling like exp(-mu u**2), pass below the
    # working precision
    while len(terms) * h <= 2 or abs(terms[-1]) > ctx.eps * size:
        terms.append(term(len(terms) * h))
        size += abs(terms[-1])
    n = len(terms) - 1
    total = ctx.fsum(terms)
    factor = 2 * mu ** (1 + 2 * a - b) / ctx.pi
    lead = ctx.make_mpf(_rgamma_raw(ctx, libmp.mpf_sub(libmp.from_float(beta),
                                                       libmp.from_float(alpha))))
    val = (lead - h * factor * total) / x + pair
    for _ in range(6):
        h /= 2
        odd = [term((2 * k + 1) * h) for k in range(n)]
        n *= 2
        total += ctx.fsum(odd)
        size += ctx.fsum(odd, absolute=True)
        prev, val = val, (lead - h * factor * total) / x + pair
        if abs(val - prev) <= ctx.mpf(10) ** -_CONTOUR_MP_DIGITS * abs(val):
            break
    return val, abs(val - prev), (abs(lead) + h * factor * size) / x + abs(pair)


def _contour_mp(alpha: float, beta: float, z: float) -> float:
    """``E_{alpha,beta}(z)`` for ``z < 0`` from the contour sum in arbitrary
    precision, at a cost that does not grow with ``m``.

    Starts at ``_CONTOUR_MP_DIGITS + 15`` digits and raises the precision
    until the rounding of the terms lies ``_CONTOUR_MP_DIGITS`` digits below
    the value: near a zero of the function the value is far smaller than its
    terms.
    """
    with np.errstate(over="ignore"):
        mu, inside = _contour_scale(alpha, np.abs([z]) ** (1.0 / alpha))
    ctx = _mp_context()
    dps = _CONTOUR_MP_DIGITS + 15
    while dps <= _MP_MAX_DPS:
        with ctx.workdps(dps):
            val, spread, size = _contour_sum_mp(ctx, alpha, beta, z, mu[0], inside[0])
            target = ctx.mpf(10) ** -_CONTOUR_MP_DIGITS * abs(val)
            noise = 10 * ctx.eps * size
            if noise <= target:
                if spread > target:
                    raise ValueError(f"contour sum did not converge (alpha={alpha}, "
                                     f"beta={beta}, z={z})")
                return float(val)
            dps += 10 + (int(ctx.log10(noise / target)) if target else dps)
    raise _over_precision_cap(alpha, z)


# ((m_lo, m_hi), tier) in the order tried on each half-axis: a tier sees the
# pending values with m_lo < m <= m_hi.  The contour sum takes the band
# between the series and the expansion first, and what the expansion leaves
# beyond it
_ANY = -math.inf
_NEG_TIERS = (((_ANY, _M_DOUBLE), _series_double), ((_ANY, _M_CONTOUR), _contour_neg),
              ((_ANY, math.inf), _asym_neg), ((_M_CONTOUR, math.inf), _contour_neg))
_POS_TIERS = (((_ANY, _M_POS_SERIES), _series_double), ((_ANY, math.inf), _asym_pos))


def _cascade(alpha, beta, z, tiers):
    """Evaluate at nonzero ``z`` of one sign.

    Each tier sees the still-pending arguments in its band of ``m`` and
    keeps the values whose error estimate meets the tolerance; whatever
    every tier declines goes to arbitrary precision: the contour sum where
    ``z < 0`` and ``m > _M_MP_SERIES``, the power series otherwise.
    """
    out = np.empty_like(z)
    with np.errstate(over="ignore"):  # m = inf for alpha far below 1
        m = np.abs(z) ** (1.0 / alpha)
    tol = np.where(np.abs(z) <= _NEAR_LIMIT, _TOL_NEAR, _TOL_FAR)
    pending = np.ones(z.shape, dtype=bool)
    for (lo, hi), tier in tiers:
        sel = pending & (m > lo) & (m <= hi)
        if np.any(sel):
            val, ok = tier(alpha, beta, z[sel], tol[sel])
            idx = np.flatnonzero(sel)[ok]
            out[idx] = val[ok]
            pending[idx] = False
    # both fallbacks and the band edge between them are looked up at call
    # time, so they can be wrapped or moved from outside
    for i in np.flatnonzero(pending):
        v = float(z[i])
        if v < 0.0 and m[i] > _M_MP_SERIES:
            out[i] = _contour_mp(alpha, beta, v)
        else:
            out[i] = _mpmath_single(alpha, beta, v)
    return out


def ml(params: MLParams, z):
    """Evaluate E_{alpha,beta} at real ``z`` (scalar or array, |z| <= Z_MAX)."""
    alpha, beta = params.alpha, params.beta
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel().copy()
    if not np.all(np.isfinite(flat)):
        raise ValueError("z must be finite")
    if np.any(np.abs(flat) > Z_MAX):
        raise ValueError(f"|z| exceeds the supported range Z_MAX={Z_MAX:g}")

    out = np.empty_like(flat)
    zero = flat == 0.0
    if np.any(zero):
        out[zero] = 1.0 / gamma(beta)
    pos = flat > 0.0
    if np.any(pos):
        out[pos] = _cascade(alpha, beta, flat[pos], _POS_TIERS)
    neg = flat < 0.0
    if np.any(neg):
        zn = flat[neg]
        if alpha == 1.0 and beta == 1.0:
            out[neg] = np.exp(zn)
        elif alpha == 1.0 and beta == 2.0:
            out[neg] = np.expm1(zn) / zn
        else:
            out[neg] = _cascade(alpha, beta, zn, _NEG_TIERS)

    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# decay envelope on the negative axis

# the dyadic samples z = -2**k, k = 0..20, every envelope fit runs on
DECAY_SAMPLES = tuple(-(2.0**k) for k in range(21))


def _dyadic_levels(az: np.ndarray) -> np.ndarray:
    lev = np.zeros(az.shape, dtype=int)
    big = az >= 1.0
    lev[big] = np.floor(np.log2(az[big])).astype(int)
    return lev


def _tail_growth_violation(level_sups: np.ndarray, threshold: float = 1.1) -> float:
    """Max excess of running-sup growth ratios over the tail half of levels.

    The weighted samples |E|(1+|z|) legitimately climb toward their plateau
    over the first levels; unboundedness shows up as persistent growth in the
    later ones, so only the tail half of the level-to-level ratios is scored.
    """
    if level_sups.size < 2:
        return 0.0
    running = np.maximum.accumulate(level_sups)
    ratios = running[1:] / running[:-1]
    start = ratios.size // 2
    tail = ratios[start:]
    if tail.size == 0:
        return 0.0
    return float(max(0.0, np.max(tail) - threshold))


def verify_decay_bound(params: MLParams, z_samples) -> BoundFit:
    """Check sup |E(z)|(1+|z|) saturates across dyadic extensions of z <= 0."""
    if not 1.0 < params.alpha < 2.0:
        raise ValueError("the decay envelope requires alpha strictly in (1, 2)")
    z = np.asarray(z_samples, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("z_samples must be non-empty")
    if np.any(z > 0.0):
        raise ValueError("all samples must lie on the non-positive real axis")

    values = np.abs(ml(params, z)) * (1.0 + np.abs(z))
    az = np.abs(z)
    levels = _dyadic_levels(az)
    uniq = np.unique(levels)
    sups = np.array([values[levels == l].max() for l in uniq])
    violation = _tail_growth_violation(sups)
    mu = 0.5 * (math.pi * params.alpha / 2.0 + math.pi)
    return BoundFit(
        mu=mu,
        c_empirical=float(np.max(values)),
        sample_count=int(z.size),
        max_violation=violation,
    )


def max_ratio(beta: float) -> tuple[float, float]:
    """Argmax and maximum of x**beta / (1 + x) on [0, inf) for beta in (0,1)."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    argmax = beta / (1.0 - beta)
    value = beta**beta * (1.0 - beta) ** (1.0 - beta)
    return argmax, value
