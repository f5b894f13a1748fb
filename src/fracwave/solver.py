"""Exact-in-time series solution of the fractional diffusion-wave problem.

Each Dirichlet mode evolves independently:

    y_n(t)      = a_n E_{a,1}(-l_n t^a) + b_n t E_{a,2}(-l_n t^a)
    y_n'(t)     = -l_n a_n t^(a-1) E_{a,a}(-l_n t^a) + b_n E_{a,1}(-l_n t^a)
    y_n''(t)    = -l_n (a_n t^(a-2) E_{a,a-1}(-l_n t^a) + b_n t^(a-1) E_{a,a}(-l_n t^a))
    (D_t^a y)_n = -l_n y_n(t)

with ``a`` the fractional order and ``l_n`` the eigenvalue; ``ModePropagator``
holds these kernels for a set of modes on one time set.  Fields are
pairwise-summed over modes in ascending order, so results are bitwise
reproducible; ``spectral.mode_sum`` sums in bounded-memory blocks with the
same bits whatever the block size or layout, so no solve holds the whole
mode x time x point product.
``solve_field`` serves arbitrary points that way; ``solve_grid`` serves the
equispaced grids of ``spectral.uniform_grid`` by type-I sine transform
(``spectral.grid_sum``), which agrees with the pairwise sum to roundoff and
gives exact zeros on the boundary.  Every solve can report an estimate,
not a bound (``truncation_tail``), of the norm its truncated mode sum misses.

``solve_field``, ``solve_grid`` and ``write_grid_snapshots_csv`` take the
time rows in blocks of at most ``_BLOCK_VALUES`` mode x row values: per
block, the two kernels the quantity reads, their combination and the
synthesized field rows, written into the returned array or to the CSV
file, so no solve holds an N x (M+1) array.  The array solves
run in this process.  ``fracwave solve``'s snapshot CSV is one of the
package's two fork sites (``verify``'s check shares are the other), with
the rule of both (``spectral``): when it forks, a child computes and formats
each half of its rows and this process only copies their files in, in
order (``write_grid_snapshots_csv``).  The blocks are the serial ones either
way, so forked or not, the bytes are the same; a failed child's rows are
computed and formatted in this process.
"""

from __future__ import annotations

import functools
import io
import math
import shutil
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fracops import TimeGrid
from .mittag_leffler import DECAY_SAMPLES, MLParams, ml, verify_decay_bound
from .params import FracOrder, as_alpha
from .spectral import (_FORK_MIN_VALUES, ModeCoefficients, SpectralDomain, _csv_file, _fork_width,
                       _forked, _grid_size, _grid_synthesis, _integer, _table_lines, _write_csv,
                       _write_json, domain_to_config, eval_modes, mode_sum, uniform_grid)

__all__ = [
    "SolutionQuery",
    "ModeState",
    "ModePropagator",
    "mode_solution",
    "mode_second_derivative_samples",
    "coefficient_evolution",
    "solve_field",
    "solve_grid",
    "truncation_tail",
    "write_snapshots_csv",
    "write_grid_snapshots_csv",
    "write_manifest",
]

_WHICH = ("value", "velocity", "caputo")


@dataclass(frozen=True)
class SolutionQuery:
    """One solve request: order, domain, data, time grid, selected quantity."""

    alpha: FracOrder
    domain: SpectralDomain
    data: ModeCoefficients
    tgrid: TimeGrid
    which: str = "value"
    n_sum: int | None = None  # modes actually summed; rest feed the tail bound

    def __post_init__(self):
        object.__setattr__(self, "alpha", FracOrder(as_alpha(self.alpha)))
        if len(self.data) != self.domain.mode_count:
            raise ValueError("data length must equal the domain mode count")
        if self.which not in _WHICH:
            raise ValueError(f"which must be one of {_WHICH}")
        if self.n_sum is not None:
            object.__setattr__(self, "n_sum", _integer("n_sum", self.n_sum))
            if not 1 <= self.n_sum <= self.domain.mode_count:
                raise ValueError("n_sum must lie in [1, mode_count]")

    @property
    def active_modes(self) -> int:
        return self.domain.mode_count if self.n_sum is None else self.n_sum


@dataclass(frozen=True)
class ModeState:
    """Value, velocity and fractional derivative of one mode (per time)."""

    y: np.ndarray
    y_prime: np.ndarray
    y_caputo: np.ndarray


class ModePropagator:
    """The ML kernels of modes ``l_n`` on one time set, for any data (a, b).

    ``z = -l_n t^a`` (shape (N, len(times))) is formed once; each kernel
    (``e1`` = E_{a,1}, ``te2`` = t E_{a,2}, ``ea`` = E_{a,a}, ``eam1`` =
    E_{a,a-1}, the last for t > 0 only) costs one ``ml`` call on that whole
    grid, on first use.  Time powers stay separate factors so each
    combination multiplies in one fixed order.  Studies over many datasets
    build one propagator and reuse it for every draw, and ``head`` serves
    a study over fewer modes from the same kernels.
    """

    def __init__(self, eigenvalues, alpha, times):
        self.lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        self.alpha = as_alpha(alpha)
        self.times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(self.times < 0.0):
            raise ValueError("t must be non-negative")
        self.z = -np.outer(self.lam, self.times**self.alpha)

    def _ml(self, beta: float) -> np.ndarray:
        return ml(MLParams(self.alpha, beta), self.z)

    def head(self, n: int) -> "ModePropagator":
        """The propagator of the first ``n`` modes on the same times, sharing
        the kernels this one has computed so far as row views; a kernel
        computed later is computed for the ``n`` modes alone.  A row view
        has the bits of the smaller propagator's own kernel, since an ``ml``
        value does not depend on its call."""
        sub = object.__new__(ModePropagator)
        sub.lam, sub.alpha, sub.times, sub.z = self.lam[:n], self.alpha, self.times, self.z[:n]
        for name in ("e1", "te2", "ea", "eam1"):
            if name in vars(self):
                vars(sub)[name] = vars(self)[name][:n]
        return sub

    @cached_property
    def e1(self) -> np.ndarray:
        return self._ml(1.0)

    @cached_property
    def te2(self) -> np.ndarray:
        out = self._ml(2.0)
        out *= self.times[None, :]
        return out

    @cached_property
    def ea(self) -> np.ndarray:
        return self._ml(self.alpha)

    @cached_property
    def tpow(self) -> np.ndarray:
        # t^(alpha-1) -> 0 as t -> 0 for alpha > 1; branch to avoid 0**negative
        tt = self.times
        out = np.zeros_like(tt)
        pos = tt > 0.0
        out[pos] = tt[pos] ** (self.alpha - 1.0)
        return out

    @cached_property
    def eam1(self) -> np.ndarray:
        if np.any(self.times <= 0.0):
            raise ValueError("the second derivative needs t > 0")
        return self._ml(self.alpha - 1.0)

    # Each combination builds its result in one array with at most one
    # temporary of its size, in the operation order of the formula written
    # out (products are commutative, so a factor may be applied last).

    def value(self, a, b) -> np.ndarray:
        """y_n(t) = a E_{a,1} + b t E_{a,2}, shape (N, len(times))."""
        out = _col(a) * self.e1
        out += _col(b) * self.te2
        return out

    def velocity(self, a, b) -> np.ndarray:
        """y_n'(t) = -l_n a t^(alpha-1) E_{a,a} + b E_{a,1}; finite at t = 0 for alpha > 1."""
        out = -self.lam[:, None] * _col(a) * self.tpow[None, :]
        out *= self.ea
        out += _col(b) * self.e1
        return out

    def caputo(self, a, b) -> np.ndarray:
        """(D_t^a y)_n(t) = -l_n y_n(t)."""
        out = self.value(a, b)
        out *= -self.lam[:, None]
        return out

    def second_derivative(self, a, b) -> np.ndarray:
        """y_n''(t) = -l_n (a t^(alpha-2) E_{a,a-1} + b t^(alpha-1) E_{a,a}); it
        blows up like t^(alpha-2) at the origin, so t > 0 only."""
        eam1 = self.eam1
        t2 = self.times ** (self.alpha - 2.0)
        out = _col(a) * t2[None, :]
        out *= eam1
        part = _col(b) * self.tpow[None, :]
        part *= self.ea
        out += part
        out *= -self.lam[:, None]
        return out


def _col(coeffs) -> np.ndarray:
    return np.asarray(coeffs, dtype=float).reshape(-1, 1)


def _scalar_or_row(rows: np.ndarray, t):
    return float(rows[0, 0]) if np.ndim(t) == 0 else rows[0]


def mode_solution(lam: float, alpha, a: float, b: float, t) -> ModeState:
    """Evolve a single mode; ``t`` may be a scalar or an array, t >= 0."""
    if lam <= 0.0:
        raise ValueError("the eigenvalue must be positive")
    prop = ModePropagator(lam, alpha, t)
    return ModeState(*(_scalar_or_row(getattr(prop, w)(a, b), t) for w in _WHICH))


def mode_second_derivative_samples(lam, alpha, a, b, tgrid: TimeGrid) -> np.ndarray:
    """Second-derivative node samples tuned for the product-trapezoid rule.

    Near the origin y'' blows up like t^(alpha-2) and plain samples make the
    piecewise-linear interpolant integrate wrongly at first order.  Over the
    first ~sqrt(M) panels the samples are chosen so the interpolant's panel
    means equal the exact ones (backward recursion anchored on the exact
    value at the junction); beyond that the samples are exact.  Quadrature
    error norms away from the origin then converge at roughly first order
    instead of alpha - 1.

    ``lam``, ``a`` and ``b`` may be arrays over modes, evaluated in one
    ``ml`` call per kernel: the samples then have shape (N, M+1), and
    (M+1,) for a scalar ``lam``.
    """
    t = tgrid.nodes
    M = tgrid.steps
    J = min(M // 2, max(4, math.isqrt(M)))
    v = np.empty((np.size(lam), M + 1))
    v[:, J:] = ModePropagator(lam, alpha, t[J:]).second_derivative(a, b)
    means = np.diff(ModePropagator(lam, alpha, t[: J + 1]).velocity(a, b), axis=1) / tgrid.spacing
    for j in range(J - 1, -1, -1):
        v[:, j] = 2.0 * means[:, j] - v[:, j + 1]
    return v if np.ndim(lam) else v[0]


def coefficient_evolution(query: SolutionQuery) -> np.ndarray:
    """Selected per-mode quantity on the time grid, shape (n_active, M+1)."""
    n = query.active_modes
    prop = ModePropagator(query.domain.eigenvalues[:n], query.alpha.alpha, query.tgrid.nodes)
    return getattr(prop, query.which)(query.data.a[:n], query.data.b[:n])


# mode x row values per block of time rows (256 KiB of each kernel)
_BLOCK_VALUES = 2**15


def _block_rows(modes: int) -> int:
    """Time rows per block: at most ``_BLOCK_VALUES`` mode x row values."""
    return max(1, _BLOCK_VALUES // modes)


def _row_blocks(query: SolutionQuery, synth, start: int, stop: int):
    """``(r, rows)`` per block of time rows ``start`` (a block edge) to
    ``stop``: ``rows = synth(coeff)``, with ``coeff`` the (n_active, rows)
    quantity of the block's times and ``r`` its first row."""
    n = query.active_modes
    lam, a, b = query.domain.eigenvalues[:n], query.data.a[:n], query.data.b[:n]
    t, step = query.tgrid.nodes, _block_rows(n)
    for r in range(start, stop, step):
        prop = ModePropagator(lam, query.alpha.alpha, t[r : min(r + step, stop)])
        yield r, synth(getattr(prop, query.which)(a, b))


def _solve_array(query: SolutionQuery, synth, cols: int) -> np.ndarray:
    """The field rows of ``query`` (``_row_blocks``) in one (M+1, cols) array."""
    out = np.empty((query.tgrid.steps + 1, cols))
    for r, rows in _row_blocks(query, synth, 0, len(out)):
        out[r : r + len(rows)] = rows
    return out


def solve_field(query: SolutionQuery, points) -> np.ndarray:
    """Field snapshots, shape (M+1, P): rows are time nodes."""
    # fixed ascending-mode pairwise reduction for reproducibility
    basis = eval_modes(query.domain, points)[: query.active_modes]
    return _solve_array(query, functools.partial(mode_sum, basis=basis), basis.shape[1])


def solve_grid(query: SolutionQuery, P: int) -> np.ndarray:
    """Field snapshots on ``uniform_grid(query.domain, P)``, shape (M+1, P)
    on the interval and (M+1, P*P) on the rectangle: ``solve_field`` on
    those points, synthesized by sine transform."""
    return _solve_array(query, _grid_synthesis(query.domain, query.active_modes, P),
                        _grid_size(P) ** len(query.domain.lengths))


@functools.lru_cache(maxsize=16)
def _decay_constant(alpha: float, beta: float) -> float:
    return verify_decay_bound(MLParams(alpha, beta), DECAY_SAMPLES).c_empirical


def truncation_tail(query: SolutionQuery, theta: float, t: float) -> float:
    """Estimate of the omitted-mode norm at time t in the theta scale.

    Modes beyond ``n_sum`` are scaled by the decay envelope |E(z)| <= C/(1+|z|)
    with C the maximum at the 21 ``DECAY_SAMPLES`` points, up to about 1.5x
    below the dense supremum: not an upper bound (ROADMAP.md, "An honest tail
    bound").  At t = 0, |E(0)| = 1 and it is the plain coefficient-tail norm.
    A theta that is not finite, or a t that is not finite and non-negative,
    raises ``ValueError`` whatever ``n_sum`` is.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")
    al = query.alpha.alpha
    n = query.active_modes
    lam = query.domain.eigenvalues[n:]
    if lam.size == 0:
        return 0.0
    a = np.abs(query.data.a[n:])
    b = np.abs(query.data.b[n:])
    if t == 0.0:
        per_mode = a
    else:
        c1 = _decay_constant(al, 1.0)
        c2 = _decay_constant(al, 2.0)
        env = 1.0 + lam * t**al
        per_mode = c1 * a / env + c2 * b * t / env
    return float(np.sqrt(np.sum(lam ** (2.0 * theta) * per_mode**2)))


def _snapshot_header(points) -> list[str]:
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim == 1:
        return ["t"] + [f"x={repr(float(x))}" for x in pts]
    return ["t"] + [f"x={repr(float(p[0]))};y={repr(float(p[1]))}" for p in pts]


def write_snapshots_csv(query: SolutionQuery, points, fields: np.ndarray, filename: str) -> None:
    _write_csv(filename, _snapshot_header(points),
               np.column_stack((query.tgrid.nodes, fields)))


def write_grid_snapshots_csv(query: SolutionQuery, P: int, filename: str) -> None:
    """``write_snapshots_csv`` of ``solve_grid(query, P)`` on its points,
    the same bytes, written block by block as the rows are solved: the
    field is never held whole.  A solve that fails removes the file.

    The rows are one share, or two halves, each a whole number of blocks,
    when the later half holds at least ``_FORK_MIN_VALUES`` mode values and
    CSV cells and ``_fork_width`` allows it.  Then a forked child computes
    and formats each half into its file, and this process computes no row:
    it copies the children's files in, in order.  A share with no child
    that succeeded is computed and formatted here."""
    points = uniform_grid(query.domain, P)
    n, R, t = query.active_modes, query.tgrid.steps + 1, query.tgrid.nodes
    synth = _grid_synthesis(query.domain, n, P)
    step = _block_rows(n)
    split = step * (-(-R // step) // 2)
    shares = [(0, split), (split, R)]
    if split == 0 or (R - split) * (n + len(points) + 1) < _FORK_MIN_VALUES or _fork_width() < 2:
        shares = [(0, R)]

    def job(raw, share):
        text = io.TextIOWrapper(raw, "ascii", newline="")
        for r, rows in _row_blocks(query, synth, *share):
            text.writelines(_table_lines(np.column_stack((t[r : r + len(rows)], rows))))
        text.detach()

    jobs = [functools.partial(job, share=share) for share in shares]
    with _csv_file(filename, _snapshot_header(points)) as fh, \
            _forked(jobs if len(shares) > 1 else []) as join:
        for k, share in enumerate(shares):
            done = join(k)
            fh.flush()
            if done is None:
                job(fh.buffer, share)
            else:
                shutil.copyfileobj(done, fh.buffer)


def write_manifest(query: SolutionQuery, filename: str, theta: float = 0.0, extra: dict | None = None) -> None:
    tail_end = truncation_tail(query, theta, query.tgrid.t_end)
    tail_zero = truncation_tail(query, theta, 0.0)
    manifest = {
        "alpha": query.alpha.alpha,
        "which": query.which,
        "domain": domain_to_config(query.domain),
        "modes_summed": query.active_modes,
        "time_grid": {"t_end": query.tgrid.t_end, "steps": query.tgrid.steps},
        "tail_estimate": {"theta": theta, "at_t_end": tail_end, "at_zero": tail_zero},
    }
    if extra:
        manifest.update(extra)
    _write_json(filename, manifest)
