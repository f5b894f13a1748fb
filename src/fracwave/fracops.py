"""Discrete fractional calculus on a uniform time grid.

The Riemann-Liouville integral is discretized by the product-trapezoidal
rule: the kernel ``t**(beta-1)/Gamma(beta)`` is integrated exactly against
the piecewise-linear interpolant of the data.  The rule is exact for linear
data, handles the kernel singularity without mesh grading, and reduces to
the cumulative trapezoid at ``beta = 1``.  On top of it sit the Caputo
derivative (order in (1,2), fed with second-derivative samples), an
L2-contraction check, the composition (semigroup) check, Slobodeckij
seminorms of sampled paths, and the forward/inverse norm-equivalence study.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .mittag_leffler import gamma
from .spectral import _write_csv

__all__ = [
    "TimeGrid",
    "KernelPhi",
    "SampledPath",
    "frac_integral",
    "frac_integral_inverse",
    "caputo_derivative",
    "caputo_first_order",
    "young_bound_check",
    "semigroup_check",
    "gagliardo_seminorm",
    "sobolev_norm",
    "l2_time_norm",
    "norm_equivalence_study",
    "path_to_csv",
    "path_from_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = t_end."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError("t_end must be positive and finite")
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


def frac_integral(f: SampledPath, beta: float) -> SampledPath:
    """Fractional integral of order beta in (0, 1] by product trapezoid."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    grid = f.grid
    vals = f.components()
    w, v = _conv_weights(beta, grid.steps, grid.spacing)
    # linear convolution by real FFT; padding to the full length 2M+1 keeps
    # wrap-around out of the first M+1 outputs
    size = _fast_len(2 * grid.steps + 1)
    spec = np.fft.rfft(vals, size, axis=0) * np.fft.rfft(w[:, None], size, axis=0)
    out = np.fft.irfft(spec, size, axis=0)[: grid.steps + 1]
    out -= v[1 : grid.steps + 2, None] * vals[0][None, :]
    out[0] = 0.0
    if not f.is_vector:
        out = out[:, 0]
    return SampledPath(grid, out)


def frac_integral_inverse(g: SampledPath, beta: float, f0: float | np.ndarray = 0.0) -> SampledPath:
    """Deconvolve the product-trapezoidal integral (diagnostic/test use).

    The node-0 value of the preimage is not determined by the data
    (the integral vanishes there for every input) and must be supplied.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    grid = g.grid
    M = grid.steps
    gv = g.components()
    w, v = _conv_weights(beta, M, grid.spacing)
    first = np.broadcast_to(np.atleast_1d(np.asarray(f0, dtype=float)), gv.shape[1:]).astype(float)
    # rows n = 1..M:  g_n - (w_n - v_{n+1}) f_0 = sum_{k=1..n} w_{n-k} f_k
    rhs = gv[1:] - (w[1:] - v[2 : M + 2])[:, None] * first[None, :]
    # the lower-triangular Toeplitz system, by forward substitution
    sol = np.empty_like(rhs)
    for n in range(M):
        sol[n] = (rhs[n] - w[n:0:-1] @ sol[:n]) / w[0]
    out = np.vstack([first[None, :], sol])
    if not g.is_vector:
        out = out[:, 0]
    return SampledPath(grid, out)


def caputo_derivative(f_second: SampledPath, alpha: float) -> SampledPath:
    """Caputo derivative of order alpha in (1, 2) from second-derivative samples."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    return frac_integral(f_second, 2.0 - alpha)


def caputo_first_order(f_prime: SampledPath, alpha: float) -> SampledPath:
    """Caputo derivative of order alpha in (0, 1) from first-derivative samples."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return frac_integral(f_prime, 1.0 - alpha)


def _node_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.steps + 1, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    return w


def l2_time_norm(f: SampledPath, weights=None) -> float:
    """Trapezoidal L2(0,T;H) norm; `weights` are per-component H-weights."""
    vals = f.components()
    if weights is None:
        sq = np.sum(vals**2, axis=1)
    else:
        sq = vals**2 @ np.asarray(weights, dtype=float)
    return float(np.sqrt(np.sum(_node_weights(f.grid) * sq)))


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


def _exterior_node_counts(M: int) -> np.ndarray:
    """How many exterior cells (|cell row - cell col| >= 2) touch each node
    pair: the 2x2 box sum of the zero-padded far-cell mask."""
    cells = np.arange(M)
    far = np.zeros((M + 2, M + 2))
    far[1:-1, 1:-1] = np.abs(cells[:, None] - cells[None, :]) >= 2
    return far[:-1, :-1] + far[1:, :-1] + far[:-1, 1:] + far[1:, 1:]


@functools.lru_cache(maxsize=4)
def _seminorm_factors(grid: TimeGrid, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Data-independent factors of the exterior seminorm sum, read-only:
    trapezoid weights (exterior node counts times h*h/4) and the kernel
    ``|t - tau|**(-1 - 2 beta)`` (0 on the diagonal)."""
    h = grid.spacing
    t = grid.nodes
    dt = np.abs(t[:, None] - t[None, :])
    with np.errstate(divide="ignore"):
        kern = np.where(dt > 0, dt ** (-1.0 - 2.0 * beta), 0.0)
    pair_w = _exterior_node_counts(grid.steps) * (h * h / 4.0)
    pair_w.setflags(write=False)
    kern.setflags(write=False)
    return pair_w, kern


def gagliardo_seminorm(v: SampledPath, beta: float, weights=None) -> float:
    """Slobodeckij seminorm of order beta in (0,1) of a sampled path.

    Off-diagonal cells use the tensor trapezoid on node values; the band of
    cells touching the diagonal integrates ``|t - tau|**(1-2 beta)`` exactly
    against local linear slopes, which keeps the quadrature finite for the
    integrable singularity.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    grid = v.grid
    M = grid.steps
    h = grid.spacing
    vals = v.components()
    wts = None if weights is None else np.asarray(weights, dtype=float)

    def sqnorm(diff):
        return np.sum(diff**2, axis=-1) if wts is None else diff**2 @ wts

    pair_w, kern = _seminorm_factors(grid, beta)
    sq = sqnorm(vals[:, None, :] - vals[None, :, :])
    total = float(np.sum(pair_w * sq * kern))

    c0 = 2.0 / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    c1 = (2.0 ** (3.0 - 2.0 * beta) - 2.0) / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    slopes = (vals[1:] - vals[:-1]) / h
    total += c0 * h ** (3.0 - 2.0 * beta) * float(np.sum(sqnorm(slopes)))
    if M >= 2:
        mid = (vals[2:] - vals[:-2]) / (2.0 * h)
        total += 2.0 * c1 * h ** (3.0 - 2.0 * beta) * float(np.sum(sqnorm(mid)))
    return math.sqrt(total)


def sobolev_norm(v: SampledPath, beta: float, weights=None) -> float:
    """H^beta(0,T;H) norm: L2 norm plus the Slobodeckij seminorm."""
    return l2_time_norm(v, weights) + gagliardo_seminorm(v, beta, weights)


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


def norm_equivalence_study(ensemble, beta: float, weights=None) -> EquivalenceStudy:
    """Ratios ||I^beta u||_{H^beta} / ||u||_{L2} over an ensemble of paths."""
    if not ensemble:
        raise ValueError("ensemble must be non-empty")
    ratios = []
    skipped = 0
    for u in ensemble:
        denom = l2_time_norm(u, weights)
        if denom == 0.0:
            skipped += 1
            continue
        iu = frac_integral(u, beta)
        ratios.append(sobolev_norm(iu, beta, weights) / denom)
    if not ratios:
        raise ValueError("all ensemble members have zero norm")
    return EquivalenceStudy(np.asarray(ratios), skipped)


def path_to_csv(path: SampledPath, filename: str) -> None:
    vals = path.components()
    header = ["t"] + [f"v{i}" for i in range(vals.shape[1])]
    table = np.column_stack((path.grid.nodes, vals))
    _write_csv(filename, header, (row.tolist() for row in table))


def path_from_csv(filename: str) -> SampledPath:
    with open(filename, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    t = data[:, 0]
    steps = len(t) - 1
    grid = TimeGrid(t_end=float(t[-1]), steps=steps)
    if not np.allclose(t, grid.nodes, rtol=0, atol=1e-12 * max(1.0, t[-1])):
        raise ValueError("CSV nodes are not a uniform grid starting at 0")
    vals = data[:, 1:]
    if vals.shape[1] == 1:
        vals = vals[:, 0]
    return SampledPath(grid, vals)
