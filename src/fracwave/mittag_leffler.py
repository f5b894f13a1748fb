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
   the damped oscillation dominates and is essential; at ``alpha = 1``
   half the pair, the one real pole ``z**(1-beta) e**z``; just above 1,
   where the series holds only part of the pair, its estimate is charged
   for the rest),
4. the contour sum again, for ``m > 46``, where the expansion is not yet
   accurate.

Positive axis:

1. the Kahan series (``m <= 60``),
2. the exponential lead ``(1/alpha) m**(1-beta) exp(m)`` minus the same
   optimally truncated algebraic series.  Past ``m`` of about 709 the value
   leaves the double range and ``ml`` raises ``ValueError``.

Every tier is elementwise: a value and its accept flag, and so the tier
that produces it, depend on its own argument alone, never on the rest of
its call.  The series gives each value its own term count and stop, and
charges its truncation as the geometric tail its falling term ratios bound
(see ``_series_double``); the algebraic series charges each value at least
what its early exit could leave out (below).  The cascade runs every tier,
and the fallbacks, over windows of about ``_CASCADE_CHUNK`` (8,192) input
positions and writes what they accept straight into the result, so a
window's selections, tolerances and working arrays stay small; the window
size moves no bit.  ``ml`` reads its input in place, so its working set is
the result, a few masks and one window.  On the solver's blocks of 2**15
values (256 KiB; the 512-mode interval at alpha 1.25, 1.5 and 1.9 and 512
to 16,384 steps) one call's tracemalloc peak read 1.4-2.2 MB, 5.3-8.3
times its input, highest at small t, where the contour sum's (values x
nodes) blocks of up to ``_CONTOUR_BLOCK_BYTES`` set it; on whole kernel
grids of 2**18 values it read under 2 times.  A solve's ``ml`` working set
is bounded by its block, not by its grid.

The series' term ratios ``c_{k+1}/c_k`` of ``c_k = 1/Gamma(alpha k +
beta)`` and the expansions' coefficients ``1/Gamma(beta - alpha k)`` (c_k
at k < 0) are doubles rounded from 20-digit reciprocal gammas, one table of
each per (alpha, beta).  Each grows only as far as it is read: the series
extends its ratios ``_TERM_CHUNK`` (8) at a time when its loop reaches
their end, the algebraic series its coefficients as many at a time, and
the contour sum reads the lead coefficient alone.  Every entry is the same
20-digit computation whenever it is built, so a grown table has the bits of
one built whole.  The algebraic series also stops early: after each
``_TERM_CHUNK`` terms it bounds every later term it could add, ``|1/Gamma(x)|``
by 1.13 for ``x > 0`` and by ``Gamma(1 - x)/pi`` for ``x < 0``, and ``|z|**-k``
by ``zmin**(1-k)/|z|`` over the smallest running ``|z|``.  It ends once every
such term lies below ``2**-54`` times its value's ``|sum|``, under half an
ulp of the sum, so adding it would leave the sum's bits unchanged; every
value's estimate is at least that much, so it does not depend on where the
loop ended.  Until the first of its values stops, it adds its terms in
place and without masks.

Every reciprocal gamma, in the tables and in arbitrary precision, is a c_k
at its exactly formed argument (``_series_coeff``), and one rule decides
the poles, in integer arithmetic (``_pole_terms``).  A pole's coefficient
is zero; for integer ``alpha`` the algebraic series ends there.  The terms
within 1e-6 of a pole are added, and stop on their own growth rather than
the other terms'.

Whatever every tier declines goes to arbitrary precision.  On the negative
axis above ``m = 100``, for ``alpha > 1``, that is first the large-argument
expansion: the algebraic series plus the saddle pair; these are the
values next to a zero of the function, which the double tiers must
decline.  It takes fewer terms the larger ``m`` is: about 75 just above
``m = 100`` for alpha near 1, about 10 at ``m = 250``.  It keeps its value
only where a bound on its remainder lies 20 digits below the value; what it
declines goes to the contour sum, with its step halved until it converges.
Both run through one loop that raises their working precision until the
rounding of their terms lies 20 digits below the value, so neither's cost
grows with ``m``.  Everything else is summed as ``sum_k z**k c_k`` with an
incrementally updated power, at ``30 + 0.45 m`` digits (twice that per unit
of ``m`` for ``alpha <= 1``).  Each coefficient ``c_k`` is taken at that
precision when the sum reaches it, so the fallback keeps no state between
calls; for ``alpha = p/q`` with a small power of two ``q`` (every order
``verify`` samples) all but the first q come from the exact gamma
recurrence, one division each.  The two tables of doubles above are the
module's only state: one record per (alpha, beta) in a
``functools.lru_cache`` of ``_TABLES_MAX`` orders.  A record holds at most
``_SERIES_KMAX + _ASYM_KMAX`` doubles, so a process that scans many orders
keeps about 3 MB at most.  ``_MP_MAX_DPS`` (800 digits) caps every
arbitrary-precision sum: the power series can reach it only on the positive
axis, where the expansion accepts long before, and the far expansion (which
then declines) and the contour only where the value lies hundreds of digits
below its terms, at a zero of the function.  Each thread works in its own
mpmath context, so concurrent calls never share a working precision.
``alpha = 1`` with ``beta`` in {1, 2} uses ``exp`` and ``expm1(z)/z`` on the
negative axis.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import types
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
    "GROWTH_THRESHOLD",
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
# per-thread mpmath contexts and the per-order tables

_MP_LOCAL = threading.local()


def _mp_context():
    """This thread's mpmath context.  Working precision is a property of the
    context, so concurrent calls must not share the global ``mpmath.mp``."""
    ctx = getattr(_MP_LOCAL, "ctx", None)
    if ctx is None:
        ctx = _MP_LOCAL.ctx = mp.MPContext()
    return ctx


# orders whose tables are kept.  A record holds at most 1,440 doubles, so
# this bounds the cache near 3 MB; a seed-7 ``verify all`` reads 21 orders
# and one 30-alpha sweep 60
_TABLES_MAX = 256


@functools.lru_cache(maxsize=_TABLES_MAX)
def _tables(alpha: float, beta: float):
    """The record of one order's tables, as far as they are built: ``series``
    (see ``_series_table``) and ``coeffs`` (see ``_asym_coeffs``).

    A table grows by storing a longer one in its field, never by changing
    an array, so a caller keeps a valid table whatever other threads store.
    Two threads extending one record race only to store: both hold the same
    bits at every length, so a shorter table stored over a longer one costs
    a rebuild and nothing else.  Callers look this function up at call
    time, so it can be replaced from outside.
    """
    return types.SimpleNamespace(series=None, coeffs=np.empty(0))


# ---------------------------------------------------------------------------
# reciprocal gammas: every one the module takes is ``_series_coeff``, from
# mpmath's raw routine, which skips the context's argument conversion

_TABLE_DPS = 20
_NEAREST = libmp.round_nearest
_MPF_ORDER = functools.cmp_to_key(libmp.mpf_cmp)


def _rgamma_raw(ctx, x):
    """``1/Gamma`` of the raw mpmath value ``x`` at the context's precision;
    zero at the poles."""
    return libmp.mpf_rgamma(x, ctx.prec, _NEAREST)


def _series_coeff(ctx, order, k: int):
    """``c_k = 1/Gamma(alpha k + beta)`` at the context's precision, at the
    argument formed exactly from ``order = _dyadic(alpha, beta)``, for any
    integer ``k`` (zero at a pole)."""
    step, x0, e = order
    return _rgamma_raw(ctx, libmp.from_man_exp(x0 + k * step, -e))


def _dyadic(alpha: float, beta: float):
    """``(D alpha, D beta, log2 D)`` in integers, ``D`` the larger of the two
    doubles' denominators (both powers of two)."""
    p, q = alpha.as_integer_ratio()
    bn, bd = beta.as_integer_ratio()
    d = max(q, bd)
    return p * (d // q), bn * (d // bd), d.bit_length() - 1


def _asym_coeffs(alpha: float, beta: float, size: int) -> np.ndarray:
    """``1/Gamma(beta - alpha k)`` for k = 1..``size`` at least: the
    coefficients of the algebraic series, the first also the contour's lead
    term; 0.0 at the poles and where ``Gamma`` overflows (above about 171.62).

    Rounded from 20 digits, they are the correctly rounded doubles unless a
    value lies within about 1e-20 (relative) of a halfway point between two.
    A shorter table is replaced by one extended to ``size`` entries.
    """
    tables = _tables(alpha, beta)
    coeffs = tables.coeffs
    if coeffs.size < size:
        ctx, order = _mp_context(), _dyadic(alpha, beta)
        with ctx.workdps(_TABLE_DPS):
            new = [libmp.to_float(_series_coeff(ctx, order, -k), rnd=_NEAREST)
                   for k in range(coeffs.size + 1, size + 1)]
        new = [r if abs(r) * sys.float_info.max >= 1.0 else 0.0 for r in new]
        coeffs = tables.coeffs = np.concatenate([coeffs, new])
    return coeffs


# both series take their terms in runs of this many: each extends its table
# by a run when its loop reaches the end of what is built, and tests whether
# it can stop after each run
_TERM_CHUNK = 8


def _series_length(alpha: float, m):
    """The series' term count at cancellation scale ``m`` (scalar or array)."""
    return np.minimum(_SERIES_KMAX, (3.8 * np.maximum(m, 1.0) / alpha).astype(int) + 48)


def _series_table(alpha: float, beta: float, size: int):
    """Term ratios ``R_k = c_{k+1}/c_k``, ``size`` of them at least, and
    ``c_0``, rounded to double, with the raw ``c_k`` the ratios end on.

    The coefficients ``c_k = 1/Gamma(alpha k + beta)``, at arguments formed
    exactly, and their ratios are taken at ``_TABLE_DPS`` digits.  One table
    per (alpha, beta), kept as one tuple so that its last coefficient always
    matches its ratios; a shorter one is replaced by one extended to
    ``size`` ratios, which starts from the coefficient the shorter one ends
    on.
    """
    tables = _tables(alpha, beta)
    entry = tables.series
    if entry is not None and entry[0].size >= size:
        return entry
    ctx, order = _mp_context(), _dyadic(alpha, beta)
    with ctx.workdps(_TABLE_DPS):
        if entry is None:
            last = _series_coeff(ctx, order, 0)
            ratios, c0 = np.empty(0), libmp.to_float(last, rnd=_NEAREST)
        else:
            ratios, c0, last = entry
        new = []
        for k in range(ratios.size + 1, size + 1):
            c = _series_coeff(ctx, order, k)
            new.append(libmp.to_float(libmp.mpf_div(c, last, ctx.prec, _NEAREST), rnd=_NEAREST))
            last = c
    entry = tables.series = (np.concatenate([ratios, new]), c0, last)
    return entry


def _series_double(alpha, beta, z, tol):
    """Kahan-compensated Taylor series at ``z`` of one sign; returns (value,
    accept mask).  Every value is summed on its own: nothing it returns
    depends on the rest of ``z``.

    A value is declined where a term factor ``z R_k`` reaches
    ``_FACTOR_MAX``.  ``R_k = Gamma(alpha k + beta)/Gamma(alpha k + alpha +
    beta)`` falls as k grows, because the digamma function increases on
    (0, inf), so that test reads ``R_0`` alone.  Otherwise the value takes
    its terms in runs of ``_TERM_CHUNK``, and stops after the first run
    that ends on a term ``|t| <= 1e-20 acc`` or that reaches its term count,
    ``_series_length`` at its own ``m``, capped at ``m = _M_DOUBLE`` for
    negative ``z`` and ``_M_POS_SERIES`` for positive ``z``.  A value that
    stops is written out and leaves the working arrays.  Its truncation is
    charged as the geometric tail ``|t| q/(1 - q)``, at least ``|t|``: the
    ratios fall, so every later term is at most ``q = |z| R_{k-1}``, read
    from the last ratio used, times the one before.  Where ``q >= 1`` the
    value is declined.  At small alpha the terms fall slowly and that tail
    is up to about 12 times ``|t|``.  The loop extends the table as it
    reads it and updates its arrays in place, in the operation order of
    ``t = t * (z * R_k)`` and the Kahan step.
    """
    m_cap = _M_POS_SERIES if z[0] > 0.0 else _M_DOUBLE
    # no value reaches its term count before this many terms
    first = _series_length(alpha, 0.0) - 1
    ratios, c0, _ = _series_table(alpha, beta, _TERM_CHUNK)
    val = np.zeros_like(z)
    ok = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore"):
        idx = np.flatnonzero(np.abs(z) * ratios[0] < _FACTOR_MAX)
    zs = z[idx]
    t = np.full(idx.size, c0)
    s = t.copy()
    comp = np.zeros_like(s)
    acc = np.abs(t)
    w = np.empty_like(s)
    k = 0
    while idx.size:
        if ratios.size < k + _TERM_CHUNK:
            ratios = _series_table(alpha, beta, k + _TERM_CHUNK)[0]
        for r in ratios[k : k + _TERM_CHUNK]:
            t *= np.multiply(zs, r, out=w)
            # the Kahan step y = t - comp, tmp = s + y, comp = (tmp - s) - y,
            # s = tmp, with y in comp and tmp in w
            np.subtract(t, comp, out=comp)
            np.add(s, comp, out=w)
            np.subtract(w, s, out=s)
            np.subtract(s, comp, out=comp)
            s, w = w, s
            acc += np.abs(t, out=w)
        k += _TERM_CHUNK
        stop = w <= 1e-20 * acc
        if k >= first:
            with np.errstate(over="ignore"):
                m = np.minimum(np.abs(zs) ** (1.0 / alpha), m_cap)
            stop |= k >= _series_length(alpha, m) - 1
        if stop.any():
            # est = 4 eps acc + |t| max(1, q/(1 - q)), accepted where est <=
            # tol |s| and q < 1
            done = idx[stop]
            q = np.abs(zs[stop]) * ratios[k - 1]
            # q/(1 - q) only where q < 1: q >= 1 is declined below
            tail = w[stop] * np.maximum(1.0, np.divide(q, 1.0 - q, out=np.ones_like(q),
                                                        where=q < 1.0))
            val[done] = s[stop]
            ok[done] = (q < 1.0) & (4.0 * _EPS * acc[stop] + tail <= tol[done] * np.abs(s[stop]))
            run = ~stop
            idx, zs, t, s, comp, acc = (a[run] for a in (idx, zs, t, s, comp, acc))
            w = np.empty_like(s)
    return val, ok


# ---------------------------------------------------------------------------
# large-argument expansions


# a term below this fraction of |s| lies under half an ulp of s: adding it
# leaves s unchanged
_NEGLIGIBLE = 2.0**-54


def _pole_terms(alpha: float, beta: float):
    """``(k, ends, pole, near)`` for k = 1, 2, ...: whether the algebraic
    series ends at term k, whether ``beta - alpha k``, formed exactly in
    integer arithmetic, is a gamma pole (a non-positive integer), and whether
    it lies within 1e-6 of one as rounded to double.  For integer ``alpha``
    (``D`` divides ``D alpha``) the arguments step by integers, so after one
    pole every later one is too: the end.
    """
    step, x0, e = _dyadic(alpha, beta)
    d = 1 << e
    for k in itertools.count(1):
        x = x0 - k * step  # D (beta - alpha k)
        pole = x <= 0 and x % d == 0
        arg = beta - alpha * k
        yield k, pole and step % d == 0, pole, arg < 0.5 and abs(arg - round(arg)) < 1e-6


def _log_coeff_bounds(alpha: float, beta: float) -> np.ndarray:
    """Logarithm of a bound on ``|1/Gamma(beta - alpha k)|``, k =
    1.._ASYM_KMAX, for every term the algebraic series can add or stop at;
    -inf at the poles and past its end.

    ``|1/Gamma(x)|`` is at most 1.13 for ``x > 0`` and, by the reflection
    formula, ``Gamma(1 - x)/pi`` for ``x < 0``; the factor 1.01 covers the
    rounding of the coefficients and of the powers of ``1/z``.
    """
    log_g = np.full(_ASYM_KMAX, -np.inf)
    for k, ends, pole, _ in itertools.islice(_pole_terms(alpha, beta), _ASYM_KMAX):
        if ends:
            break
        if not pole:
            x = beta - alpha * k
            log_g[k - 1] = math.log(1.01 * 1.13) if x > 0.0 else (
                math.lgamma(1.0 - x) - math.log(math.pi / 1.01))
    return log_g


def _algebraic(alpha, beta, z):
    """Optimally truncated ``sum_{k>=1} z**-k / Gamma(beta - alpha k)``.

    Returns ``(sum, abs_sum, truncation_estimate)``: the sum stops before
    the first term that fails to decrease, which then bounds the error.  The
    terms next to a gamma pole, far below their neighbours, stop the same
    way among themselves, which ends only them; the estimate is the larger
    bound.  For integer ``alpha`` the series ends at the first gamma pole,
    and what was kept is exact wherever it had not already stopped.

    After every ``_TERM_CHUNK`` terms the loop also ends if no later term
    can change a running value's sums: each term it could still add or stop
    at is bounded below ``_NEGLIGIBLE`` times that value's ``|sum|``.  So sum
    and abs_sum keep the bits of the whole loop.  Every value is charged at
    least ``_NEGLIGIBLE |sum|``, the most such a term can be: the estimate
    is the larger of that and what the whole loop charges, so it does not
    depend on where the loop ended, nor on the other values.  Coefficients
    are built ``_TERM_CHUNK`` at a time, as far as the loop reads them.
    """
    log_g = _log_coeff_bounds(alpha, beta)
    az = np.abs(z)
    # powers of 1/z below the normal range carry an absolute rounding error
    # of up to 2**-1075 per step, which the relative factor in log_g does
    # not cover; in units of 1/|z| it is at most this
    slack = _ASYM_KMAX * 2.0**-1074 * math.exp(min(np.max(log_g), 709.0)) * np.max(az)
    coeffs = np.empty(0)
    invz = 1.0 / z
    p = invz.copy()
    s = np.zeros_like(z)
    s_abs = np.zeros_like(z)
    prev = np.full(z.shape, np.inf)
    est = np.zeros_like(z)
    t, mag = np.empty_like(z), np.empty_like(z)
    stop = np.empty(z.shape, dtype=bool)
    # True while every value still runs: until the first stop the terms are
    # added in place and without masks, with the bits of the masked updates
    active = True
    near_on, near_prev = True, math.inf  # the terms next to a pole: running, last kept
    for k, ends, _, near in itertools.islice(_pole_terms(alpha, beta), _ASYM_KMAX):
        if ends:
            break
        if k > coeffs.size:
            coeffs = _asym_coeffs(alpha, beta, -(-k // _TERM_CHUNK) * _TERM_CHUNK)
        rg = coeffs[k - 1]  # zero at a pole
        if rg != 0.0:
            np.multiply(p, rg, out=t)
            np.abs(t, out=mag)
            if near:
                grow = near_on & active & (mag >= near_prev)
                np.maximum(est, mag, out=est, where=grow)
                near_on = near_on & ~grow
                add = near_on & active
                np.add(s, t, out=s, where=add)
                np.add(s_abs, mag, out=s_abs, where=add)
                near_prev = np.where(add, mag, near_prev)
            else:
                np.greater_equal(mag, prev, out=stop)
                if active is True and not stop.any():
                    s += t
                    s_abs += mag
                    prev, mag = mag, prev
                else:
                    np.maximum(est, mag, out=est, where=stop & active)
                    active = active & ~stop
                    if not active.any():
                        break
                    np.add(s, t, out=s, where=active)
                    np.add(s_abs, mag, out=s_abs, where=active)
                    np.copyto(prev, mag, where=active)
        if k % _TERM_CHUNK == 0 and k < _ASYM_KMAX:
            # a later term j of a running value is at most g_j |z|**-j <=
            # g_j zmin**(1-j) / |z|, over the smallest running |z|; |sum z|
            # is about the same for every value.  exp(709) is near the top
            # of the double range, far above any |sum z|
            top = np.max(log_g[k:] - np.arange(k, _ASYM_KMAX)
                         * math.log(np.where(active, az, np.inf).min()))
            bound = math.exp(min(top, 709.0)) + slack
            if top > -np.inf and bound < _NEGLIGIBLE * np.where(active, np.abs(s) * az, np.inf).min():
                break
        p *= invz
    else:
        # ran out of terms while still decreasing: the last kept term of each
        # kind is the estimate
        for last, on in ((prev, active), (near_prev, near_on & active)):
            np.maximum(est, np.where(np.isfinite(last), last, 0.0), out=est, where=on)
    return s, s_abs, np.maximum(est, _NEGLIGIBLE * np.abs(s), out=est)


def _saddle_pair(alpha, beta, m):
    """The conjugate pole pair ``(2/alpha) Re[w**(1-beta) e**w]``,
    ``w = m e**(i pi/alpha)``, and its amplitude; for ``alpha > 1``.  At
    ``alpha = 1`` the two poles meet on the branch cut in one, ``z**(1-beta)
    e**z``, half the pair.

    Its phase ``m sin(pi/alpha)`` carries a rounding error of order
    ``m eps``, which near a zero of the cosine is large against the pair
    itself but not against its amplitude.
    """
    phi = math.pi / alpha
    with np.errstate(under="ignore"):
        amp = (2.0 / alpha if alpha > 1.0 else 1.0) * m ** (1.0 - beta) * np.exp(m * math.cos(phi))
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
    if alpha >= 1.0:
        m = np.abs(z) ** (1.0 / alpha)
        osc, amp = _saddle_pair(alpha, beta, m)
        val = val + osc
        est = est + (3.0 * m + 30.0) * _EPS * amp
        if alpha > 1.0:
            # the pair's poles lie pi - pi/alpha off the branch cut, and next
            # to it the truncated series switches on only part of them: half
            # as alpha -> 1+, erfc(x)/2 short by Berry's smoothing, x = (pi -
            # pi/alpha) sqrt(m/2).  Terms next to gamma poles need not show
            # it, so it is charged, by the bound exp(-x**2)/2
            est = est + 0.5 * amp * np.exp(-0.5 * (math.pi - math.pi / alpha) ** 2 * m)
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
    level of ``mu`` (one of ``_CONTOUR_MU``), not once per value, and each
    level's node row meets its values by broadcasting, not by a gather."""
    num, den = _bromwich_parts(alpha, beta, np.array(_CONTOUR_MU)[:, None], 1.0 + 1j * u, np.exp)
    high = mu == _CONTOUR_MU[1]
    # about four complex temporaries of a block are alive at once
    rows = max(1, _CONTOUR_BLOCK_BYTES // (64 * u.size))
    for lo in range(0, x.size, rows):
        blk = slice(lo, lo + rows)
        xb, hb = x[blk, None], high[blk]
        if hb.all() or not hb.any():  # one level: no selection
            j = int(hb[0])
            yield blk, np.ascontiguousarray((num[j] / (den[j] + xb)).real)
            continue
        g = np.empty((xb.shape[0], u.size))
        for j, on in enumerate((~hb, hb)):
            g[on] = (num[j] / (den[j] + xb[on])).real
        yield blk, g


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
    lead = _asym_coeffs(alpha, beta, 1)[0]
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


# largest denominator q of alpha = p/q for which ``_mpmath_single`` takes its
# coefficients by recurrence: it needs q gammas per value and a product of p
# integers per coefficient; every alpha ``verify`` samples has q <= 4
_RECURRENCE_Q_MAX = 16


def _mpmath_single(alpha: float, beta: float, z: float) -> float:
    """``sum_k z**k c_k`` at ``_fallback_dps`` digits, each coefficient
    ``c_k = 1/Gamma(alpha k + beta)`` taken at that precision as the sum
    reaches it.

    Where ``alpha`` is a fraction p/q (exactly, as a double) with q at most
    ``_RECURRENCE_Q_MAX``, only ``c_0 .. c_{q-1}`` are gammas: the rest follow
    from ``Gamma(x + p) = (x)_p Gamma(x)`` at ``x = alpha (k - q) + beta``,
    ``c_k = c_{k-q} / prod_{j<p} (x + j)``.  The p factors share the
    power-of-two denominator D of alpha and beta, so their product is the
    exact integer ``prod_j (D x + j D)`` over ``D**p`` and each coefficient
    rounds once, in the division.  Any other alpha takes a gamma per term.
    """
    dps = _fallback_dps(alpha, z)
    if dps > _MP_MAX_DPS:
        raise ValueError("argument needs more than the supported working precision "
                         f"(alpha={alpha}, z={z}); see module docstring for the envelope")
    # raw mpmath values and operations: the roundings of the context's
    # arithmetic at its precision, without its number objects
    zz, tiny = libmp.from_float(z), libmp.from_float(1e-300)
    mul, add, gt = libmp.mpf_mul, libmp.mpf_add, libmp.mpf_gt
    p, q = alpha.as_integer_ratio()
    step, x0, e = order = _dyadic(alpha, beta)  # D alpha, D beta and log2 D
    D, shift = 1 << e, -p * e
    ctx = _mp_context()
    with ctx.workdps(dps):
        prec = ctx.prec
        coeffs = []

        def coeff(k):
            if q > _RECURRENCE_Q_MAX:
                return _series_coeff(ctx, order, k)
            if k < q:
                c = _series_coeff(ctx, order, k)
            else:
                dx = x0 + (k - q) * step  # D x
                pochhammer = dx
                for j in range(1, p):
                    pochhammer *= dx + j * D
                c = libmp.mpf_div(coeffs[k - q], libmp.from_man_exp(pochhammer, shift), prec,
                                  _NEAREST)
            coeffs.append(c)
            return c

        eps = (ctx.mpf(10) ** (-dps - 5))._mpf_
        s = term_max = libmp.fzero
        power = libmp.fone
        t = coeff(0)
        k = 0
        while True:
            s = add(s, t, prec, _NEAREST)
            at = libmp.mpf_abs(t)
            if gt(at, term_max):
                term_max = at
            k += 1
            power = mul(power, zz, prec, _NEAREST)
            t = mul(power, coeff(k), prec, _NEAREST)
            if k > 5:
                scale = max(term_max, libmp.mpf_abs(s), tiny, key=_MPF_ORDER)
                if gt(mul(eps, scale, prec, _NEAREST), libmp.mpf_abs(t)):
                    break
            if k > 60000:
                raise ValueError("series did not converge in the fallback")
    return libmp.to_float(s, rnd=_NEAREST)


# relative digits to which the arbitrary-precision sums are converged
_CONTOUR_MP_DIGITS = 20


def _saddle_pair_mp(ctx, alpha, beta, x):
    """``_saddle_pair`` at ``m = x**(1/alpha)`` in arbitrary precision, for
    ``alpha > 1`` (its callers' range), and the amplitude times ``m``: the
    scale of its phase's rounding."""
    a, b = ctx.mpf(alpha), ctx.mpf(beta)
    m = ctx.power(x, 1 / a)
    w = m * ctx.expj(ctx.pi / a)
    pair = 2 / a * ctx.re(w ** (1 - b) * ctx.exp(w))
    return pair, m * abs(2 / a * m ** (1 - b) * ctx.exp(w.real))


def _contour_sum_mp(ctx, alpha, beta, z):
    """Contour sum at the context's working precision, the step halved until
    two successive sums agree to ``_CONTOUR_MP_DIGITS`` digits.

    Returns the value, its change at the last halving and the sum of the
    magnitudes it was added from.
    """
    with np.errstate(over="ignore"):
        mu, inside = _contour_scale(alpha, np.abs([z]) ** (1.0 / alpha))
    a, b, x, mu = ctx.mpf(alpha), ctx.mpf(beta), -ctx.mpf(z), ctx.mpf(mu[0])
    pair = _saddle_pair_mp(ctx, alpha, beta, x)[0] if inside[0] else ctx.mpf(0)

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
    lead = ctx.make_mpf(_series_coeff(ctx, _dyadic(alpha, beta), -1))
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


def _precise_mp(sum_mp, alpha: float, beta: float, z: float):
    """The double of ``sum_mp(ctx, alpha, beta, z)`` (value, error bound, sum
    of magnitudes), or None where the bound misses ``_CONTOUR_MP_DIGITS``
    digits of the value or the precision would pass ``_MP_MAX_DPS``.

    Starts at ``_CONTOUR_MP_DIGITS + 15`` digits and raises the precision
    until the rounding of the terms lies ``_CONTOUR_MP_DIGITS`` digits below
    the value: near a zero of the function the value is far smaller than its
    terms.  A bound that misses those digits at the terms' scale misses them
    at any precision, so it declines at once.
    """
    ctx = _mp_context()
    dps = _CONTOUR_MP_DIGITS + 15
    while dps <= _MP_MAX_DPS:
        with ctx.workdps(dps):
            val, err, size = sum_mp(ctx, alpha, beta, z)
            digits = ctx.mpf(10) ** -_CONTOUR_MP_DIGITS
            if err > digits * size:
                return None
            target = digits * abs(val)
            noise = 10 * ctx.eps * size
            if noise <= target:
                return float(val) if err <= target else None
            dps += 10 + (int(ctx.log10(noise / target)) if target else dps)
    return None


def _contour_mp(alpha: float, beta: float, z: float) -> float:
    """``E_{alpha,beta}(z)`` for ``z < 0`` from ``_contour_sum_mp`` by
    ``_precise_mp``, at a cost that does not grow with ``m``."""
    val = _precise_mp(_contour_sum_mp, alpha, beta, z)
    if val is None:
        raise ValueError("contour sum did not converge within the supported working precision "
                         f"(alpha={alpha}, beta={beta}, z={z}); see module docstring")
    return val


def _expansion_sum_mp(ctx, alpha, beta, z):
    """The large-argument expansion at the context's working precision:
    ``-sum_{k<n} z**-k / Gamma(beta - alpha k)`` plus the saddle pair.

    Returns the value, a bound on its truncation error and the sum of the
    magnitudes it was added from (the pair's counted ``m`` times over, for
    the rounding of its phase).  Past the terms it adds, the series expands
    the integral over the branch cut, whose remainder after term n - 1 is at
    most ``B_n = F Gamma(alpha n - beta + 1) / (pi |z|**n)``, with ``F =
    1/|sin(pi alpha)|`` where ``cos(pi alpha) < 0`` and 1 elsewhere.  It
    stops at the first n where ``B_n`` lies below the working precision or
    no longer falls, and where ``_pole_terms`` ends the series, where the
    cut is gone and the sum is exact.
    """
    order, x = _dyadic(alpha, beta), -ctx.mpf(z)
    s, size = _saddle_pair_mp(ctx, alpha, beta, x)
    log_f = -math.log(math.sin(math.pi * (alpha - 1.0))) if alpha < 1.5 else 0.0
    log_x, log_eps = math.log(-z), math.log(ctx.eps)
    prev = math.inf
    power = ctx.mpf(1)
    for n, ends, _, _ in _pole_terms(alpha, beta):
        arg = alpha * n - beta + 1.0
        if arg > 0.0:  # B_n is finite
            log_b = log_f + math.lgamma(arg) - math.log(math.pi) - n * log_x
            if log_b <= log_eps + float(ctx.log(size)) or log_b >= prev:
                return s, math.exp(log_b), size
            prev = log_b
        if ends:
            return s, 0.0, size
        power /= x
        t = power * ctx.make_mpf(_series_coeff(ctx, order, -n))
        # z**-n = (-1)**n x**-n, and the series enters with a minus sign
        s += t if n % 2 else -t
        size += abs(t)


def _expansion_mp(alpha: float, beta: float, z: float):
    """``E_{alpha,beta}(z)`` for ``z < 0`` and ``1 < alpha <= 2`` from
    ``_expansion_sum_mp`` by ``_precise_mp``, or None where that declines."""
    return _precise_mp(_expansion_sum_mp, alpha, beta, z) if alpha > 1.0 else None


# ((m_lo, m_hi), tier) in the order tried on each half-axis: a tier sees the
# pending values with m_lo < m <= m_hi.  The contour sum takes the band
# between the series and the expansion first, and what the expansion leaves
# beyond it
_ANY = -math.inf
_NEG_TIERS = (((_ANY, _M_DOUBLE), _series_double), ((_ANY, _M_CONTOUR), _contour_neg),
              ((_ANY, math.inf), _asym_neg), ((_M_CONTOUR, math.inf), _contour_neg))
_POS_TIERS = (((_ANY, _M_POS_SERIES), _series_double), ((_ANY, math.inf), _asym_pos))


# the cascade runs its tiers and fallbacks over windows of about this many
# positions of its input, so their selections, tolerances and working arrays
# stay small.  The input splits into the nearest whole number of equal
# windows, so an input a little over one window (the alpha sweep's 256 x 33
# kernels) stays whole rather than leaving a small window to pay each tier's
# fixed cost again
_CASCADE_CHUNK = 2**13


def _cascade(alpha, beta, z, tiers, pending, out):
    """Evaluate at the entries of ``z`` where ``pending`` is set, all nonzero
    and of one sign (``pending`` is cleared as they are evaluated), and write
    them into ``out``.

    Window by window, each tier sees the still-pending arguments in its band
    of ``m`` and keeps the values whose error estimate meets the tolerance;
    whatever every tier declines goes to arbitrary precision: where ``z < 0``
    and ``m > _M_MP_SERIES`` the expansion, and the contour sum where that
    declines, the power series otherwise.
    """
    step = max(1, -(-z.size // max(1, round(z.size / _CASCADE_CHUNK))))
    for start in range(0, z.size, step):
        w = slice(start, start + step)
        zw, todo, res = z[w], pending[w], out[w]
        # in place, with the bits of np.abs(zw) ** (1/alpha): ``**=`` takes
        # the same scalar fast paths as ``**`` (sqrt for alpha = 2)
        m = np.abs(zw)
        with np.errstate(over="ignore"):  # m = inf for alpha far below 1
            m **= 1.0 / alpha
        for (lo, hi), tier in tiers:
            sel = todo & (m > lo) & (m <= hi)
            if np.any(sel):
                zs = zw[sel]
                tol = np.where(np.abs(zs) <= _NEAR_LIMIT, _TOL_NEAR, _TOL_FAR)
                val, ok = tier(alpha, beta, zs, tol)
                idx = np.flatnonzero(sel)[ok]
                res[idx] = val[ok]
                todo[idx] = False
        # the fallbacks and the band edge between them are looked up at call
        # time, so they can be wrapped or moved from outside
        for i in np.flatnonzero(todo):
            v = float(zw[i])
            if v < 0.0 and m[i] > _M_MP_SERIES:
                val = _expansion_mp(alpha, beta, v)
                res[i] = _contour_mp(alpha, beta, v) if val is None else val
            else:
                res[i] = _mpmath_single(alpha, beta, v)


def ml(params: MLParams, z):
    """Evaluate E_{alpha,beta} at real ``z`` (scalar or array, |z| <= Z_MAX).

    The input is only read, and not copied when it is contiguous (see the
    module docstring for the working set).
    """
    alpha, beta = params.alpha, params.beta
    arr = np.asarray(z, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    if flat.size == 0:
        return out.reshape(arr.shape)
    lo, hi = float(flat.min()), float(flat.max())  # nan if any entry is
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("z must be finite")
    if max(-lo, hi) > Z_MAX:
        raise ValueError(f"|z| exceeds the supported range Z_MAX={Z_MAX:g}")

    if hi > 0.0:
        _cascade(alpha, beta, flat, _POS_TIERS, flat > 0.0, out)
    if lo < 0.0:
        neg = flat < 0.0
        if alpha == 1.0 and beta in (1.0, 2.0):
            zn = flat[neg]
            out[neg] = np.exp(zn) if beta == 1.0 else np.expm1(zn) / zn
        else:
            _cascade(alpha, beta, flat, _NEG_TIERS, neg, out)
    zero = flat == 0.0
    if np.any(zero):
        out[zero] = _series_table(alpha, beta, 0)[1]  # c_0 = 1/Gamma(beta)

    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# decay envelope on the negative axis

# the dyadic samples z = -2**k, k = 0..20, every envelope fit runs on
DECAY_SAMPLES = tuple(-(2.0**k) for k in range(21))
# the level-to-level growth ratio of the envelope's running sup that its tail
# may not exceed
GROWTH_THRESHOLD = 1.1


def _tail_growth_violation(level_sups: np.ndarray) -> float:
    """Max excess of running-sup growth ratios over ``GROWTH_THRESHOLD``,
    in the tail half of the levels.

    The weighted samples |E|(1+|z|) legitimately climb toward their plateau
    over the first levels; unboundedness shows up as persistent growth in the
    later ones, so only the tail half of the level-to-level ratios is scored.
    """
    running = np.maximum.accumulate(level_sups)
    ratios = running[1:] / running[:-1]
    tail = ratios[ratios.size // 2 :]
    return float(max(0.0, np.max(tail) - GROWTH_THRESHOLD))


def verify_decay_bound(params: MLParams) -> BoundFit:
    """Check sup |E(z)|(1+|z|) saturates across the dyadic ``DECAY_SAMPLES``."""
    if not 1.0 < params.alpha < 2.0:
        raise ValueError("the decay envelope requires alpha strictly in (1, 2)")
    z = np.asarray(DECAY_SAMPLES)
    # one sample per dyadic level, in ascending |z|: each is its level's sup
    values = np.abs(ml(params, z)) * (1.0 + np.abs(z))
    violation = _tail_growth_violation(values)
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
