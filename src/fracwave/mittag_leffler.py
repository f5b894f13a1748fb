"""Two-parameter Mittag-Leffler function on the real line, with decay checks.

The evaluator targets the arguments produced by the spectral mode dynamics,
``z = -lambda * t**alpha`` with ``alpha`` in (1, 2), but accepts any
``alpha`` in (0, 2] and ``beta > 0`` on ``|z| <= Z_MAX``.

Each half-axis runs one estimate-gated cascade of tiers, ordered by the
cancellation scale ``m = |z|**(1/alpha)``.  A tier sees the arguments no
earlier tier accepted and whose ``m`` lies below its limit; it keeps only
the values whose a-posteriori error estimate meets the target tolerance,
so there is no hand-tuned switch radius.  Negative axis:

1. plain Kahan-compensated Taylor series (``m <= 12``),
2. the same series in double-double arithmetic, its term ratios split from
   the extended-precision coefficient table below (``m <= 46``),
3. the large-argument expansion: optimally truncated algebraic series plus
   the conjugate saddle pair ``(2/alpha) Re[w**(1-beta) e**w]``,
   ``w = m e**(i pi/alpha)`` (present for ``alpha > 1``; for ``alpha`` near 2
   the damped oscillation dominates and is essential),
4. the Bromwich integral of ``e**s s**(alpha-beta) / (s**alpha - z)`` on a
   parabolic contour, summed by the trapezoid rule on 69 fixed nodes at a
   cost flat in ``m``.  The poles ``s**alpha = z`` are the saddle pair of
   tier 3 and enter as its residues.  It covers the band where the series
   have run out of digits and the expansion is not yet accurate.

Positive axis:

1. the Kahan series (``m <= 60``),
2. the exponential lead ``(1/alpha) m**(1-beta) exp(m)`` minus the same
   optimally truncated algebraic series.  Past ``m`` of about 709 the value
   leaves the double range and ``ml`` raises ``ValueError``.

Whatever every tier declines goes to arbitrary precision.  On the negative
axis above ``m = 100`` that is the contour sum again, with its step halved
until it converges and its working precision raised until the rounding of
its terms lies 20 digits below the value; its cost does not grow with
``m``.  Everything else is summed as ``sum_k z**k c_k`` with an
incrementally updated power, at ``30 + 0.45 m`` digits (twice that per unit
of ``m`` for ``alpha <= 1``).  The coefficients ``c_k = 1/Gamma(alpha k +
beta)`` come from one cached table per (alpha, beta), which also supplies
the series tiers' term ratios ``c_{k+1}/c_k``.  The table grows in length
only to the terms a sum reaches, and in precision only when a batch of
values needs more digits than it holds: once, to the most any of them
needs, rounded up to a step of 32.  So the arbitrary-precision gamma runs
once per coefficient rather than once per term of every value.  The
coefficient and series-table caches are least-recently-used maps bounded
in bytes, so a process that scans many orders does not grow without limit.
``_MP_MAX_DPS`` (800 digits) caps both arbitrary-precision sums: the power
series can reach it only on the positive axis, where the expansion accepts
long before, and the contour only where the value lies hundreds of digits
below its terms, at a zero of the function.  Each thread works in its own
mpmath context, so concurrent calls never share a working precision.
``alpha = 1`` with ``beta`` in {1, 2} uses ``exp`` and ``expm1(z)/z`` on the
negative axis.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.special as sp

from ._ddouble import DD_EPS, dd_add, dd_from_mpf, dd_mul, dd_mul_double

__all__ = [
    "Z_MAX",
    "MLParams",
    "BoundFit",
    "gamma",
    "ml",
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
_M_DD = 46.0       # double-double series attempted below this m
_M_POS_SERIES = 60.0
_ASYM_KMAX = 40
_SERIES_KMAX = 1400
# largest term factor |z R_k| the series tiers take: the double-double split
# scales it by 2**27 + 1
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
# reciprocal-gamma coefficients c_k = 1/Gamma(alpha k + beta), shared by the
# series tables and the arbitrary-precision fallback

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


# Per-cache byte budget.  One 30-alpha sweep holds about 0.2 MB of series
# tables and 3 MB of coefficients, so only long scans over many orders evict.
_CACHE_BYTES = 32 * 2**20

_COEFF_DPS_STEP = 32   # table precision is the requested dps rounded up to this
_COEFF_CHUNK = 32      # the fallback extends a table by this many terms at a time


def _coeff_bytes(entry) -> int:
    # an mpf of d digits takes about 250 + d/2 bytes with mpmath's
    # pure-Python integers
    held, coeffs = entry
    return len(coeffs) * (256 + held // 2)


# (alpha, beta) -> (held dps, coefficients)
_COEFF_CACHE = _ByteLRU(_coeff_bytes, _CACHE_BYTES)


def _rgamma_coeffs(alpha: float, beta: float, n: int, dps: int) -> tuple:
    """At least ``n`` coefficients ``1/Gamma(alpha k + beta)`` held to at least
    ``dps`` digits.

    One table per (alpha, beta).  It is extended only to the length asked
    for, and rebuilt only when a caller needs more digits than it holds, at
    ``dps`` rounded up to ``_COEFF_DPS_STEP``.  A grown table replaces the
    cache entry instead of mutating it, so concurrent callers each keep a
    consistent tuple; two threads growing one table may both build it, and
    whichever entry is stored last is as valid as the other.
    """
    key = (alpha, beta)
    held, coeffs = _COEFF_CACHE.get(key, (0, ()))
    if held >= dps and len(coeffs) >= n:
        return coeffs
    if held < dps:
        held = -(-dps // _COEFF_DPS_STEP) * _COEFF_DPS_STEP
        coeffs = ()
    ctx = _mp_context()
    with ctx.workdps(held):
        a = ctx.mpf(alpha)
        b = ctx.mpf(beta)
        coeffs += tuple(1 / ctx.gamma(a * k + b) for k in range(len(coeffs), n))
    _COEFF_CACHE[key] = (held, coeffs)
    return coeffs


# ---------------------------------------------------------------------------
# series tables: T_{k+1} = T_k * z * R_k with R_k = c_{k+1} / c_k


def _table_bytes(entry) -> int:
    return 2 * entry[0].nbytes + 256


# (alpha, beta) -> (ratio hi, ratio lo, c_0 hi, c_0 lo)
_TABLE_CACHE = _ByteLRU(_table_bytes, _CACHE_BYTES)


def _series_length(alpha: float, m_max: float) -> int:
    return min(_SERIES_KMAX, int(3.8 * max(m_max, 1.0) / alpha) + 48)


def _series_tables(alpha: float, beta: float):
    """Term-ratio table as long as any series tier can ask for (m <= _M_POS_SERIES)."""
    key = (alpha, beta)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    size = _series_length(alpha, _M_POS_SERIES)
    c = _rgamma_coeffs(alpha, beta, size + 1, 50)
    rhi = np.empty(size)
    rlo = np.empty(size)
    ctx = _mp_context()
    with ctx.workdps(50):
        for k in range(size):
            rhi[k], rlo[k] = dd_from_mpf(ctx.fdiv(c[k + 1], c[k]))
        t0h, t0l = dd_from_mpf(ctx.mpf(c[0]))
    entry = (rhi, rlo, t0h, t0l)
    _TABLE_CACHE[key] = entry
    return entry


def _series_prefix(alpha, beta, z):
    """The tables and the term count a series tier needs for ``z``, or None
    (the tier declines every value) where a term factor ``z R_k`` could
    overflow the double-double split.  Only ``R_0 ~ 1/(beta Gamma(alpha))``
    gets that large, for beta near the bottom of the double range; for
    subnormal beta it is infinite."""
    tables = _series_tables(alpha, beta)
    zmax = float(np.max(np.abs(z)))
    n = min(_series_length(alpha, zmax ** (1.0 / alpha)), tables[0].size)
    if not np.max(np.abs(tables[0][:n])) < _FACTOR_MAX / zmax:
        return None
    return tables, n


def _declined(z):
    return np.zeros_like(z), np.zeros(z.shape, dtype=bool)


def _series_double(alpha, beta, z, tol):
    """Kahan series; returns (value, accept mask)."""
    prefix = _series_prefix(alpha, beta, z)
    if prefix is None:
        return _declined(z)
    (rhi, _, t0h, _), n = prefix
    t = np.full(z.shape, t0h)
    s = t.copy()
    comp = np.zeros_like(s)
    acc = np.abs(t)
    for k in range(n - 1):
        t = t * (z * rhi[k])
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


def _series_dd(alpha, beta, z, tol):
    """Double-double series; returns (value, accept mask)."""
    prefix = _series_prefix(alpha, beta, z)
    if prefix is None:
        return _declined(z)
    (rhi, rlo, t0h, t0l), n = prefix
    th = np.full(z.shape, t0h)
    tl = np.full(z.shape, t0l)
    sh, sl = th.copy(), tl.copy()
    acc = np.abs(th)
    used = n
    for k in range(n - 1):
        fh, fl = dd_mul_double(rhi[k], rlo[k], z)
        th, tl = dd_mul(th, tl, fh, fl)
        sh, sl = dd_add(sh, sl, th, tl)
        acc += np.abs(th)
        if k > 4 and np.all(np.abs(th) <= 1e-36 * acc):
            used = k + 2
            break
    est = DD_EPS * (used + 8.0) * acc + np.abs(th)
    ok = est <= tol * np.abs(sh)
    return sh, ok


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
        rg = sp.rgamma(arg)
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
    # pair's phase error grows with m.  It is charged against the pair as
    # evaluated, and the 0.1 tol gate leaves room for where the cosine is near
    # a zero (at alpha = beta = 1.954, z = -1.99e5 this estimate reads 1e-10
    # relative against a true 5e-10)
    est = est + (2.0 * _ASYM_KMAX + 30.0) * _EPS * s_abs
    if alpha > 1.0:
        m = np.abs(z) ** (1.0 / alpha)
        osc, amp = _saddle_pair(alpha, beta, m)
        val = val + osc
        est = est + (3.0 * m + 30.0) * _EPS * np.abs(osc)
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
# (values x nodes) complex temporaries are summed in row blocks of this size
_CONTOUR_BLOCK_BYTES = 4 * 2**20


def _bromwich_terms(a, b, x, mu, w, exp):
    """Integrand of ``J`` at ``s = mu w**2``, ``w = 1 + iu``, times
    ``ds/du / (2 pi i)`` and divided by ``mu**(1+2a-b) / pi``.

    Written once for NumPy (``x``, ``mu`` columns against a row of nodes
    ``w``) and for mpmath scalars; ``exp`` is the matching exponential.
    """
    return exp(mu * (w * w)) * w ** (2 * (2 * a - b) + 1) / (mu**a * w ** (2 * a) + x)


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
    over.
    """
    x = -z
    with np.errstate(over="ignore"):
        m = x ** (1.0 / alpha)
    mu, inside = _contour_scale(alpha, m)
    w = 1.0 + 1j * (_CONTOUR_H * np.arange(_CONTOUR_NODES))
    fine = np.empty_like(x)
    coarse = np.empty_like(x)
    size = np.empty_like(x)
    # about four complex temporaries of a block are alive at once
    rows = max(1, _CONTOUR_BLOCK_BYTES // (64 * w.size))
    for lo in range(0, x.size, rows):
        blk = slice(lo, lo + rows)
        g = np.ascontiguousarray(
            _bromwich_terms(alpha, beta, x[blk, None], mu[blk, None], w, np.exp).real)
        g[:, 0] *= 0.5
        fine[blk] = g.sum(axis=1)
        coarse[blk] = 2.0 * g[:, ::2].sum(axis=1)
        size[blk] = np.abs(g).sum(axis=1)
    scale = (2.0 * _CONTOUR_H / math.pi) * mu ** (1.0 + 2.0 * alpha - beta)
    lead = sp.rgamma(beta - alpha)
    val = (lead - scale * fine) / x
    est = (10.0 * _EPS * (abs(lead) + scale * size) + scale * np.abs(fine - coarse)) / x
    if np.any(inside):
        osc, amp = _saddle_pair(alpha, beta, m[inside])
        val[inside] += osc
        est[inside] += (3.0 * m[inside] + 30.0) * _EPS * amp
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
    dps = _fallback_dps(alpha, z)
    if dps > _MP_MAX_DPS:
        raise _over_precision_cap(alpha, z)
    c = _rgamma_coeffs(alpha, beta, _COEFF_CHUNK, dps)
    ctx = _mp_context()
    with ctx.workdps(dps):
        zz = ctx.mpf(z)
        s = ctx.mpf(0)
        term_max = ctx.mpf(0)
        eps = ctx.mpf(10) ** (-dps - 5)
        tiny = ctx.mpf(1e-300)
        power = ctx.mpf(1)
        t = ctx.mpf(c[0])
        at = abs(t)
        k = 0
        while True:
            s += t
            if at > term_max:
                term_max = at
            k += 1
            if k == len(c):
                c = _rgamma_coeffs(alpha, beta, k + _COEFF_CHUNK, dps)
            power *= zz
            t = power * c[k]
            at = abs(t)
            if k > 5 and at < eps * max(term_max, abs(s), tiny):
                break
            if k > 60000:
                raise ValueError("series did not converge in the fallback")
        return float(s)


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
        return ctx.re(_bromwich_terms(a, b, x, mu, ctx.mpc(1, u), ctx.exp))

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
    lead = ctx.rgamma(b - a)
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


# (m limit, tier) in the order tried on each half-axis
_NEG_TIERS = ((_M_DOUBLE, _series_double), (_M_DD, _series_dd), (math.inf, _asym_neg),
              (math.inf, _contour_neg))
_POS_TIERS = ((_M_POS_SERIES, _series_double), (math.inf, _asym_pos))


def _cascade(alpha, beta, z, tiers, m_contour=math.inf):
    """Evaluate at nonzero ``z`` of one sign.

    Each tier sees the still-pending arguments with ``m <= limit`` and
    keeps the values whose error estimate meets the tolerance; whatever
    every tier declines goes to arbitrary precision: the contour sum where
    ``m > m_contour``, the power series otherwise.
    """
    out = np.empty_like(z)
    with np.errstate(over="ignore"):  # m = inf for alpha far below 1
        m = np.abs(z) ** (1.0 / alpha)
    tol = np.where(np.abs(z) <= _NEAR_LIMIT, _TOL_NEAR, _TOL_FAR)
    pending = np.ones(z.shape, dtype=bool)
    for limit, tier in tiers:
        sel = pending & (m <= limit)
        if np.any(sel):
            val, ok = tier(alpha, beta, z[sel], tol[sel])
            idx = np.flatnonzero(sel)[ok]
            out[idx] = val[ok]
            pending[idx] = False
    rest = np.flatnonzero(pending)
    contour = m[rest] > m_contour
    # both fallbacks are looked up at call time so they can be wrapped from
    # outside
    for i in rest[contour]:
        out[i] = _contour_mp(alpha, beta, float(z[i]))
    rest = rest[~contour]
    values = [float(v) for v in z[rest]]
    # the coefficient table takes the batch's highest in-cap precision at
    # once instead of being rebuilt each time a later value needs more digits
    dps = [d for d in (_fallback_dps(alpha, v) for v in values) if d <= _MP_MAX_DPS]
    if dps:
        _rgamma_coeffs(alpha, beta, 1, max(dps))
    for i, v in zip(rest, values):
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
            out[neg] = _cascade(alpha, beta, zn, _NEG_TIERS, _M_MP_SERIES)

    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# decay envelope on the negative axis


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
