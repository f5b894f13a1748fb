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
   the damped oscillation dominates and is essential).

Positive axis:

1. the Kahan series (``m <= 60``),
2. the exponential lead ``(1/alpha) m**(1-beta) exp(m)`` minus the same
   optimally truncated algebraic series.  Past ``m`` of about 709 the value
   leaves the double range and ``ml`` raises ``ValueError``.

Whatever every tier declines is summed in arbitrary precision as
``sum_k z**k c_k`` with an incrementally updated power.  The coefficients
``c_k = 1/Gamma(alpha k + beta)`` come from one cached table per
(alpha, beta), which also supplies the series tiers' term ratios
``c_{k+1}/c_k``.  The table grows in length only to the terms a sum
reaches, and in precision only when a batch of values needs more digits
than it holds: once, to the most any of them needs, rounded up to a step
of 32.  So the arbitrary-precision gamma runs once per coefficient rather
than once per term of every value.  The coefficient and series-table caches
are least-recently-used maps bounded in bytes, so a process that scans
many orders does not grow without limit.  Each thread
works in its own mpmath context, so concurrent calls never share a working
precision.  ``alpha = 1`` with ``beta`` in {1, 2} uses ``exp`` and
``expm1(z)/z`` on the negative axis.
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
_MP_MAX_DPS = 800


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


def _series_double(alpha, beta, z, tol):
    """Kahan series; returns (value, accept mask)."""
    rhi, _, t0h, _ = _series_tables(alpha, beta)
    n = min(_series_length(alpha, float(np.max(np.abs(z))) ** (1.0 / alpha)), rhi.size)
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
    rhi, rlo, t0h, t0l = _series_tables(alpha, beta)
    n = min(_series_length(alpha, float(np.max(np.abs(z))) ** (1.0 / alpha)), rhi.size)
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


def _asym_neg(alpha, beta, z, tol):
    """Algebraic expansion plus saddle pair for z < 0; returns (value, accept)."""
    s, s_abs, est = _algebraic(alpha, beta, z)
    val = -s
    m = np.abs(z) ** (1.0 / alpha)
    if alpha > 1.0:
        phi = math.pi / alpha
        with np.errstate(under="ignore"):
            osc = (
                (2.0 / alpha)
                * m ** (1.0 - beta)
                * np.exp(m * math.cos(phi))
                * np.cos(m * math.sin(phi) + (1.0 - beta) * phi)
            )
        val = val + osc
        s_abs = s_abs + np.abs(osc)
    est = est + (3.0 * m + 30.0) * _EPS * s_abs
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
    m = z ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        lead = (1.0 / alpha) * m ** (1.0 - beta) * np.exp(m)
        # for beta > 1, exp(m) overflows while the lead still fits
        big = np.isinf(lead)
        lead[big] = np.exp(m[big] + (1.0 - beta) * np.log(m[big]) - math.log(alpha))
    val = lead - s
    if np.any(np.isinf(val)):  # an infinite estimate would pass the accept test
        raise ValueError(f"E_{{alpha,beta}}(z) overflows double precision (alpha={alpha}, "
                         f"beta={beta}, z={float(z[np.isinf(val)][0])!r})")
    est = est + (3.0 * m + 30.0) * _EPS * (s_abs + lead)
    return val, est <= 0.1 * tol * np.abs(val)


def _fallback_dps(alpha: float, z: float) -> int:
    """Working digits of the arbitrary-precision sum at ``z``."""
    m = abs(z) ** (1.0 / alpha)
    # for alpha <= 1 the value itself can be exponentially small, doubling
    # the number of digits lost to cancellation
    return 30 + int(0.45 * m) if alpha > 1.0 else 30 + int(0.92 * m)


def _mpmath_single(alpha: float, beta: float, z: float) -> float:
    dps = _fallback_dps(alpha, z)
    if dps > _MP_MAX_DPS:
        raise ValueError(
            "argument needs more than the supported working precision "
            f"(alpha={alpha}, z={z}); see module docstring for the envelope"
        )
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


# (m limit, tier) in the order tried on each half-axis
_NEG_TIERS = ((_M_DOUBLE, _series_double), (_M_DD, _series_dd), (math.inf, _asym_neg))
_POS_TIERS = ((_M_POS_SERIES, _series_double), (math.inf, _asym_pos))


def _cascade(alpha, beta, z, tiers):
    """Evaluate at nonzero ``z`` of one sign.

    Each tier sees the still-pending arguments with ``m <= limit`` and
    keeps the values whose error estimate meets the tolerance; whatever
    every tier declines goes to arbitrary precision.
    """
    out = np.empty_like(z)
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
    rest = [float(v) for v in z[pending]]
    # the coefficient table takes the batch's highest in-cap precision at
    # once instead of being rebuilt each time a later value needs more digits
    dps = [d for d in (_fallback_dps(alpha, v) for v in rest) if d <= _MP_MAX_DPS]
    if dps:
        _rgamma_coeffs(alpha, beta, 1, max(dps))
    # looked up at call time so the fallback can be wrapped from outside
    for i, v in zip(np.flatnonzero(pending), rest):
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
