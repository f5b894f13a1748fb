"""Discrete fractional calculus on a uniform time grid.

The Riemann-Liouville integral is discretized by the product-trapezoidal
rule: the kernel ``t**(beta-1)/Gamma(beta)`` is integrated exactly against
the piecewise-linear interpolant of the data.  The rule is exact for linear
data, handles the kernel singularity without mesh grading, and reduces to
the cumulative trapezoid at ``beta = 1``.  On top of it sit the Caputo
derivative (order in (1,2), fed with second-derivative samples), an
L2-contraction check, the composition (semigroup) check, Slobodeckij
seminorms of sampled paths, and the forward/inverse norm-equivalence study.

The seminorm's exterior double sum runs in O(M log M) time and O(M) memory:
node pairs fewer than ``_BAND`` (16) steps apart are summed directly with
their exact exterior-cell counts, and the far field, whose kernel depends
only on the offset, is expanded into a Toeplitz quadratic form of the path
shifted by its first node and evaluated by real FFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mittag_leffler import gamma
from .spectral import _check_t_end, _integer

__all__ = [
    "TimeGrid",
    "KernelPhi",
    "SampledPath",
    "frac_integral",
    "caputo_derivative",
    "young_bound_check",
    "semigroup_check",
    "gagliardo_seminorm",
    "sobolev_norm",
    "l2_time_norm",
    "norm_equivalence_study",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = t_end."""

    t_end: float
    steps: int

    def __post_init__(self):
        _check_t_end(self.t_end)
        object.__setattr__(self, "steps", _integer("steps", self.steps))
        if self.steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def spacing(self) -> float:
        return self.t_end / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.steps + 1)


@dataclass(frozen=True)
class KernelPhi:
    """Power kernel t**(beta-1)/Gamma(beta) driving the fractional integral."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t ** (self.beta - 1.0) / gamma(self.beta)

    def l1_norm(self, t_end: float) -> float:
        return t_end**self.beta / gamma(self.beta + 1.0)


@dataclass
class SampledPath:
    """Node samples of a scalar- or vector-valued function of time."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError("values must have one row per grid node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def is_vector(self) -> bool:
        return self.values.ndim > 1

    def components(self) -> np.ndarray:
        v = self.values
        return v[:, None] if v.ndim == 1 else v


def _conv_weights(beta: float, steps: int, h: float):
    """Convolution weights of the product-trapezoidal rule.

    Returns (w, v) with
      I(t_n) = sum_k w[n-k] f_k - v[n+1] f_0,  n >= 1
    where v has length steps+2.
    """
    s = h**beta / gamma(beta + 2.0)
    m = np.arange(0, steps + 2, dtype=float)
    a = m ** (beta + 1.0)
    b = m**beta
    da = np.diff(a)  # a[m] - a[m-1] for m = 1..steps+1
    db = np.diff(b)
    mm = m[1:]
    u = s * (beta * da - (mm - 1.0) * (beta + 1.0) * db)
    v = s * (mm * (beta + 1.0) * db - beta * da)
    w = np.empty(steps + 1)
    w[0] = v[0]  # v_1
    w[1:] = u[:steps] + v[1 : steps + 1]
    vfull = np.concatenate(([0.0], v))  # vfull[m] = v_m
    return w, vfull


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer ``2**a 3**b 5**c >= n``: a length the real
    FFT factors into radix-2, -3 and -5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5  # 3**b 5**c, times the least power of two that reaches n
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=4)
def _conv_factors(grid: TimeGrid, beta: float):
    """Path-independent factors of ``frac_integral`` on ``grid``, read-only:
    the FFT length, the spectrum of the convolution weights ``w`` (as a
    column) and the start correction ``v`` of ``_conv_weights``."""
    w, v = _conv_weights(beta, grid.steps, grid.spacing)
    # linear convolution by real FFT; padding to the full length 2M+1 keeps
    # wrap-around out of the first M+1 outputs
    size = _fast_len(2 * grid.steps + 1)
    wspec = np.fft.rfft(w[:, None], size, axis=0)
    wspec.setflags(write=False)
    v.setflags(write=False)
    return size, wspec, v


def frac_integral(f: SampledPath, beta: float) -> SampledPath:
    """Fractional integral of order beta in (0, 1] by product trapezoid.

    Each column of a vector-valued path is transformed alone, so a stack of
    paths passed as the columns of one path gives each path's own bits; the
    weights and their spectrum are cached per (grid, beta).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    grid = f.grid
    vals = f.components()
    size, wspec, v = _conv_factors(grid, beta)
    out = np.fft.irfft(np.fft.rfft(vals, size, axis=0) * wspec, size, axis=0)[: grid.steps + 1]
    out -= v[1 : grid.steps + 2, None] * vals[0][None, :]
    out[0] = 0.0
    if not f.is_vector:
        out = out[:, 0]
    return SampledPath(grid, out)


def _frac_integrals(paths, beta: float) -> list:
    """``frac_integral`` of each of ``paths`` (a sequence on one grid) in
    one call: the paths go through as the columns of one path."""
    grid, stack = _stack(paths)
    P, R, d = stack.shape
    cols = frac_integral(SampledPath(grid, stack.transpose(1, 0, 2).reshape(R, P * d)), beta).values
    return [SampledPath(grid, v if p.is_vector else v[:, 0])
            for p, v in zip(paths, cols.reshape(R, P, d).transpose(1, 0, 2))]


def caputo_derivative(f_second: SampledPath, alpha: float) -> SampledPath:
    """Caputo derivative of order alpha in (1, 2) from second-derivative samples."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    return frac_integral(f_second, 2.0 - alpha)


def _node_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.steps + 1, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    return w


def _component_weights(weights, d: int):
    """``weights`` as a 1-D float array of one finite, non-negative entry
    per component, or None when no weights are given."""
    if weights is None:
        return None
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != d:
        raise ValueError(
            f"weights must be a 1-D array with one entry per component ({d}), got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    return w


def _pow2_scaled(stack: np.ndarray, wts):
    """``(stack * 2**-s, wts * 2**-2w, s + w)`` for a stack (P, M+1, d) of
    paths: each path's values scaled below 1 by its own exact power of two
    ``2**-s``, the weights below 4 by ``2**-2w``, so that no square of a
    value and no weighted square overflows or underflows.  A norm formed
    from a scaled path is the norm of the original times ``2**-(s + w)``,
    with the same bits wherever the original's squares stay in the normal
    range.  The exponents come back as Python ints, one per path."""
    scale = np.frexp(np.max(np.abs(stack), axis=(1, 2), initial=0.0))[1]
    stack = np.ldexp(stack, -scale[:, None, None])
    if wts is not None:
        wscale = (math.frexp(float(np.max(wts, initial=0.0)))[1] + 1) // 2
        wts = np.ldexp(wts, -2 * wscale)
        scale = scale + wscale
    return stack, wts, scale.tolist()


def _wsum(stack: np.ndarray, wts) -> np.ndarray:
    """Sums over the last axis of ``stack``, one array per path (first
    axis), weighted by ``wts`` when given, each with the bits of its path
    reduced alone: a plain sum reduces every row on its own, and each
    path's weighted sum is its own BLAS call, as a batched product may pick
    another kernel."""
    if wts is None:
        return np.sum(stack, axis=-1)
    return np.array([x @ wts for x in stack]).reshape(stack.shape[:-1])


def _stack(paths) -> tuple[TimeGrid, np.ndarray]:
    """The grid and the values (P, M+1, d) of ``paths``: one sampled path
    (P = 1), or a non-empty sequence of them on one grid with one shape."""
    paths = [paths] if isinstance(paths, SampledPath) else list(paths)
    if not paths:
        raise ValueError("need at least one path")
    grid, shape = paths[0].grid, paths[0].values.shape
    if any(p.grid != grid or p.values.shape != shape for p in paths):
        raise ValueError("the paths of a stack must share one grid and one shape")
    return grid, np.stack([p.components() for p in paths])


def _one_or_each(paths, values: np.ndarray):
    """``values``, one per path, as a float for one path or an array for a
    sequence of them."""
    return float(values[0]) if isinstance(paths, SampledPath) else values


def l2_time_norm(f, weights=None):
    """Trapezoidal L2(0,T;H) norm; `weights` are per-component H-weights.

    ``f`` is one sampled path, for a float, or a sequence of paths on one
    grid, for an array of one norm per path, measured in one pass with the
    bits of each path alone."""
    grid, stack = _stack(f)
    stack, wts, scales = _pow2_scaled(stack, _component_weights(weights, stack.shape[2]))
    sums = np.sum(_node_weights(grid) * _wsum(stack**2, wts), axis=-1)
    return _one_or_each(f, np.array([math.ldexp(math.sqrt(s), scale)
                                     for s, scale in zip(sums.tolist(), scales)]))


def young_bound_check(f: SampledPath, beta: float) -> tuple[float, float]:
    """L2 contraction of the fractional integral: returns (lhs, rhs)."""
    lhs = l2_time_norm(frac_integral(f, beta))
    rhs = KernelPhi(beta).l1_norm(f.grid.t_end) * l2_time_norm(f)
    return lhs, rhs


def semigroup_check(f: SampledPath, beta: float, gamma_: float) -> float:
    """Relative L2 discrepancy of I^beta I^gamma f against I^(beta+gamma) f."""
    if not (0.0 < beta <= 1.0 and 0.0 < gamma_ <= 1.0):
        raise ValueError("both orders must lie in (0, 1]")
    if beta + gamma_ > 1.0:
        raise ValueError("the composed order beta + gamma must not exceed 1")
    direct = frac_integral(f, beta + gamma_)
    composed = frac_integral(frac_integral(f, gamma_), beta)
    denom = l2_time_norm(direct)
    if denom == 0.0:
        return 0.0
    diff = SampledPath(f.grid, composed.values - direct.values)
    return l2_time_norm(diff) / denom


# Node pairs closer than this many steps are summed pair by pair; farther
# pairs go through the FFT form, whose cancellation grows towards the
# diagonal.  It must be at least 3, where every touching cell is exterior; at
# 3, smooth, rough and offset paths (M = 512, 2048) were off by up to 4.8e-13
# relative, at 16 by up to 3.5e-14.
_BAND = 16


def _band_counts(M: int) -> np.ndarray:
    """Exterior cells (|cell row - cell col| >= 2) touching the node pair
    (i, i+k), in row k-1 for k = 1.._BAND-1 and column i (zero where
    i + k > M).  Cell a spans nodes a..a+1, so the cells touching the pair
    are a in {i-1, i} by b in {i+k-1, i+k}, those that lie in 0..M-1."""
    i = np.arange(M + 1)
    counts = np.zeros((_BAND - 1, M + 1))
    for k in range(1, _BAND):
        for da in (-1, 0):
            for db in (-1, 0):
                if k + db - da >= 2:
                    counts[k - 1] += (i + da >= 0) & (i + k + db <= M - 1)
    return counts


@functools.lru_cache(maxsize=4)
def _seminorm_factors(grid: TimeGrid, beta: float):
    """Data-independent O(M) factors of the exterior seminorm sum, read-only.

    ``band[k-1]`` weighs ``|v_i - v_{i+k}|**2`` for k < _BAND: both orders
    of the pair, its exterior cell count times h*h/4, and the kernel
    ``(k h)**(-1 - 2 beta)``.  Beyond the band every touching cell is
    exterior, so the pair weight is ``n_i n_j`` (n = 1 at the end nodes, 2
    inside) and the far sum is ``sum_i diag_i |x_i|**2 - u.(K u)`` with
    ``u = n x``; ``diag`` is ``(h*h/2) n (K n)`` and ``spec`` the real
    spectrum of the circulant that embeds ``(h*h/2) K``, at length ``size``
    (``K`` the kernel zeroed below the band).  ``spec`` is None when the
    grid has no pair beyond the band.
    """
    M = grid.steps
    h = grid.spacing
    with np.errstate(divide="ignore"):
        kern = (np.arange(M + 1) * h) ** (-1.0 - 2.0 * beta)
    counts = _band_counts(M) * (h * h / 2.0)
    band = tuple(counts[k - 1, : M + 1 - k] * kern[k] for k in range(1, min(_BAND, M + 1)))
    kern[:_BAND] = 0.0
    size = _fast_len(2 * (M + 1))
    spec = diag = None
    if M >= _BAND:
        col = np.zeros(size)
        col[: M + 1] = kern
        col[size - M :] = kern[:0:-1]
        spec = np.fft.rfft(col).real * (h * h / 2.0)
        n = np.full(M + 1, 2.0)
        n[0] = n[-1] = 1.0
        diag = n * np.fft.irfft(np.fft.rfft(n, size) * spec, size)[: M + 1]
        spec.setflags(write=False)
        diag.setflags(write=False)
    for coef in band:
        coef.setflags(write=False)
    return band, size, spec, diag


def gagliardo_seminorm(v, beta: float, weights=None):
    """Slobodeckij seminorm of order beta in (0,1) of sampled paths.

    Exterior cells (two or more cells off the diagonal) use the tensor
    trapezoid on node values: ``|v_i - v_j|**2 |t_i - t_j|**(-1-2 beta)``,
    weighted by the exterior cells touching each node pair.  Pairs fewer
    than ``_BAND`` = 16 steps apart are summed directly with their exact
    cell counts.  Beyond that every touching cell is exterior, the pair
    weight factors into per-node counts and the kernel depends only on
    ``|i - j|``, so the far sum expands into ``|x_i|**2`` terms minus a
    Toeplitz quadratic form in ``x = v - v_0``, evaluated by real FFT.  The
    shift keeps that cancellation relative to the path's range rather than
    its offset, and gives a constant path exact zeros.  The cells touching
    the diagonal integrate ``|t - tau|**(1-2 beta)`` exactly against local
    linear slopes, which keeps the quadrature finite for the integrable
    singularity.  O(M log M) time and O(M d) memory; the data-independent
    factors are cached per (grid, beta).

    ``v`` is one sampled path, for a float, or a sequence of paths on one
    grid, for an array of one seminorm per path: the differences, squares
    and transforms run on the whole stack, and every reduction keeps the
    bits of its path alone (``_wsum``; the dot products run path by path).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    grid, stack = _stack(v)
    M = grid.steps
    h = grid.spacing
    stack, wts, scales = _pow2_scaled(stack, _component_weights(weights, stack.shape[2]))
    band, size, spec, diag = _seminorm_factors(grid, beta)
    totals = [0.0] * len(stack)
    for k, coef in enumerate(band, start=1):
        for p, sq in enumerate(_wsum((stack[:, k:] - stack[:, :-k]) ** 2, wts)):
            totals[p] += float(coef @ sq)
    if spec is not None:
        x = stack - stack[:, :1]
        u = x.copy()
        u[:, 1:-1] *= 2.0
        ku = np.fft.irfft(np.fft.rfft(u, size, axis=1) * spec[:, None], size, axis=1)[:, : M + 1]
        cross = _wsum(np.sum(u * ku, axis=1), wts).tolist()
        for p, sq in enumerate(_wsum(x**2, wts)):
            far = float(diag @ sq) - cross[p]
            totals[p] += max(far, 0.0)  # non-negative; rounding may leave it just below

    c0 = 2.0 / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    c1 = (2.0 ** (3.0 - 2.0 * beta) - 2.0) / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    slopes = np.sum(_wsum(((stack[:, 1:] - stack[:, :-1]) / h) ** 2, wts), axis=-1).tolist()
    mids = np.sum(_wsum(((stack[:, 2:] - stack[:, :-2]) / (2.0 * h)) ** 2, wts), axis=-1).tolist()
    for p, (slope, mid) in enumerate(zip(slopes, mids)):  # M >= 2: every path has a mid
        totals[p] += c0 * h ** (3.0 - 2.0 * beta) * slope
        totals[p] += 2.0 * c1 * h ** (3.0 - 2.0 * beta) * mid
    return _one_or_each(v, np.array([math.ldexp(math.sqrt(total), scale)
                                     for total, scale in zip(totals, scales)]))


def sobolev_norm(v, beta: float):
    """H^beta(0,T;H) norm: L2 norm plus the Slobodeckij seminorm, of one
    path or of each of a sequence of them."""
    return l2_time_norm(v) + gagliardo_seminorm(v, beta)


@dataclass
class EquivalenceStudy:
    ratios: np.ndarray
    skipped: int

    @property
    def ratio_min(self) -> float:
        return float(np.min(self.ratios))

    @property
    def ratio_max(self) -> float:
        return float(np.max(self.ratios))


def norm_equivalence_study(ensemble, beta: float) -> EquivalenceStudy:
    """Ratios ||I^beta u||_{H^beta} / ||u||_{L2} over an ensemble of paths on one grid,
    bounded below only over paths with u(0) = 0 (``verify``'s sine sums): ``frac_integral``'s
    matrix has a zero row 0, and its null vector, mostly a spike at t = 0, has ratio ~1e-15.
    The ensemble goes through the integral and each norm as one stack."""
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    ensemble = list(ensemble)
    denoms = l2_time_norm(ensemble)
    live = denoms != 0.0
    if not live.any():
        raise ValueError("all ensemble members have zero norm")
    iu = _frac_integrals([u for u, on in zip(ensemble, live) if on], beta)
    return EquivalenceStudy(sobolev_norm(iu, beta) / denoms[live], int(np.count_nonzero(~live)))
