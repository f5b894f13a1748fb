"""Dirichlet Laplacian eigenstructure on an interval and a rectangle.

The interval is the one-axis case of one tensor-sine box, so eigenpairs are
analytic (no eigensolver error) and each formula (eigenvalues, modes,
boundary faces, normal derivatives) is written once for any number of axes;
only the builders differ, in mode selection.  A domain stores its lengths and
mode indices; its composite Gauss-Legendre quadrature and boundary data are
built on first use, so a grid solve builds none.  Mode sums against
a basis go through ``mode_sum``, which forms the mode x row x point product
in bounded-memory blocks without changing a bit of the pairwise reduction.
On the equispaced grids of ``uniform_grid`` the same sums are type-I
discrete sine transforms: ``grid_sum`` folds every mode onto the grid's
interior nodes by aliasing and applies a DST-I along each axis, run on
``numpy.fft`` as pocketfft runs it inside ``scipy.fft.dstn``: O(R G log G)
instead of O(N R G) for R rows on G grid points, with boundary nodes
exactly 0.  No module of the package imports scipy; the test suite checks
these bits against ``scipy.fft``.

``_forked`` is the package's one fork-join helper and ``_fork_width`` its
one fork rule.  The package forks at two sites: the two halves of the rows
of ``fracwave solve``'s snapshot CSV (``solver.write_grid_snapshots_csv``)
and ``verify``'s check shares.  Both deal their work into shares and walk
them in one loop: when the package forks, every share runs in a child, and
the parent only joins and reads the children's files back in order; a share
with no child that succeeded (a serial run passes no jobs) runs in the
parent.  A forked child does not map the file-backed pages it never
touches, so its resident set stays below its parent's: with both halves of
the benchmark's large solves in children, their peak RSS fell from 44.4 to
39.7 MB (interval) and from 44.1 to 41.7 MB (rectangle) on a 2-core x86
host, at about 40 ms more wall time each.  Each job is the serial computation, so forked or not, the bytes are
the same.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import operator
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpectralDomain",
    "ModeCoefficients",
    "build_interval",
    "build_rectangle",
    "project",
    "synthesize",
    "eval_modes",
    "frac_power_norm",
    "pairwise_sum",
    "mode_sum",
    "uniform_grid",
    "grid_sum",
    "tail_stabilizes",
    "domain_to_config",
]


def pairwise_sum(arr: np.ndarray, axis: int = 0) -> np.ndarray:
    """Deterministic pairwise reduction (independent of BLAS threading)."""
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    while a.shape[0] > 1:
        n = a.shape[0]
        even = a[0 : n - n % 2 : 2]
        odd = a[1 : n : 2]
        s = even + odd
        if n % 2:
            s = np.concatenate([s, a[-1:]], axis=0)
        a = s
    return a[0]


# bytes one ``mode_sum`` block may occupy: a buffer of the block's
# products and the pairwise halvings after the first level (together about
# 12 bytes per product, in a budget of 16); ``grid_sum`` sizes its row
# blocks by the same budget.  4 MiB keeps a solve's working set small next
# to its mode x time kernels, and no bit depends on it
_MODE_SUM_BYTES = 4 * 2**20


def mode_sum(coeff, basis) -> np.ndarray:
    """``sum_n coeff[n, r] * basis[n, p]`` of (N, R) and (N, P) arrays, shape (R, P).

    Bit for bit ``pairwise_sum(coeff[:, :, None] * basis[:, None, :])``: the
    pairwise tree depends only on N, so forming its first level,
    ``c[0::2] e[0::2] + c[1::2] e[1::2]`` with the last product carried when
    N is odd, one block of rows (and, when one row is over budget, of
    points) at a time, changes nothing.  The whole product never exists:
    every block reuses one buffer for the first level and the products of
    the odd rows, so a block and the halvings after it take about three
    quarters of ``_MODE_SUM_BYTES`` (4 MiB) beside the (R, P) result,
    whatever R and P are.
    """
    c = np.asarray(coeff, dtype=float)
    e = np.asarray(basis, dtype=float)
    (N, R), P = c.shape, e.shape[1]
    out = np.empty((R, P))
    elems = _MODE_SUM_BYTES // 16  # product elements per block
    cols = max(1, min(P, elems // N))
    rows = max(1, elems // (N * cols))
    h = N // 2
    # the first level's rows, then the odd rows' products
    buf = np.empty((N, min(rows, R), cols))
    for i in range(0, R, rows):
        for j in range(0, P, cols):
            ci, ej = c[:, i : i + rows], e[:, j : j + cols]
            b = buf[:, : ci.shape[1], : ej.shape[1]]
            level, odd = b[: N - h], b[N - h :]
            np.einsum("nr,np->nrp", ci[0 : 2 * h : 2], ej[0 : 2 * h : 2], out=level[:h])
            level[:h] += np.einsum("nr,np->nrp", ci[1::2], ej[1::2], out=odd)
            if N % 2:
                np.multiply(ci[-1, :, None], ej[-1], out=level[-1])
            out[i : i + rows, j : j + cols] = pairwise_sum(level, axis=0)
    return out


def tail_stabilizes(terms: np.ndarray, frac: float = 0.125, tol: float = 0.05):
    """Partial-sum stabilization heuristic for non-negative term sequences.

    True when the last ``frac`` of the terms contributes at most ``tol`` of
    the total, i.e. the partial sums have visibly flattened.  A 2-D array
    holds one sequence per row and gives one flag per row, each with the
    bits of its row alone.
    """
    t = np.asarray(terms, dtype=float)
    total = np.sum(t, axis=-1)
    k = max(1, int(t.shape[-1] * frac))
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (total == 0.0) | (np.sum(t[..., -k:], axis=-1) / total <= tol)
    return ok if ok.ndim else bool(ok)


@functools.lru_cache(maxsize=32)
def _leggauss(order: int):
    """The ``order``-point Gauss-Legendre rule on [-1, 1], nodes and weights,
    computed once per order and handed out read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(a: float, b: float, panels: int, order: int = 10):
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * x[None, :]).ravel(), np.tile(half * w, panels)


def _tensor_nodes(axes) -> np.ndarray:
    """(Q, k) tensor grid of k one-axis node arrays, first axis slowest; one node for k = 0."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1) if grids else np.empty((1, 0))


def _tensor_weights(axes) -> np.ndarray:
    """Products of one-axis weights in the node order of ``_tensor_nodes``."""
    return functools.reduce(np.multiply.outer, axes, np.ones(())).ravel()


def _as_points(nodes: np.ndarray) -> np.ndarray:
    """(Q, d) nodes as the package passes points: plain positions for d = 1."""
    return nodes.reshape(-1) if nodes.shape[1] == 1 else nodes


def _sine_tensor(scale, wavenumbers: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``scale * prod_a sin(k_a x_a)``, (N, P), of (N, d) wavenumbers at (P, d) nodes."""
    for k, x in zip(wavenumbers.T, nodes.T):
        scale = scale * np.sin(np.outer(k, x))
    return scale


@dataclass(frozen=True)
class SpectralDomain:
    """The box (0, L_1) x ... x (0, L_d), d = 1 or 2: mode n with index row
    ``j`` is ``prod_a sqrt(2 / L_a) sin(j_a pi x_a / L_a)``, with eigenvalue
    ``sum_a (j_a pi / L_a)^2``.  Quadrature and boundary data are built on
    first use."""

    lengths: tuple[float, ...]
    mode_index: np.ndarray  # (N,) for interval, (N, 2) for rectangle

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(map(float, self.lengths)))
        if not all(0.0 < L < math.inf for L in self.lengths):
            raise ValueError(f"domain lengths must be finite and positive, got {self.lengths}")
        with np.errstate(over="ignore"):  # no axis term may underflow, no sum overflow
            if not (np.all(self.wavenumbers**2 > 0.0) and np.all(np.isfinite(self.eigenvalues))):
                raise ValueError(f"domain lengths {self.lengths} put eigenvalues out of "
                                 "floating-point range")

    @property
    def kind(self) -> str:
        return next(kind for kind, (_, axes) in _BUILDERS.items() if axes == len(self.lengths))

    @property
    def is_interval(self) -> bool:
        return len(self.lengths) == 1

    @property
    def mode_count(self) -> int:
        return len(self.mode_index)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """``j_a pi / L_a`` per mode and axis, shape (N, d)."""
        return self.mode_index.reshape(self.mode_count, -1) * math.pi / np.array(self.lengths)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return functools.reduce(np.add, (self.wavenumbers**2).T)

    @property
    def _amplitude(self) -> float:
        return math.prod(math.sqrt(2.0 / L) for L in self.lengths)

    @cached_property
    def _panels(self):
        """Composite Gauss rules along each axis, sized to resolve products of
        the highest mode index retained in that direction."""
        top = self.mode_index.reshape(self.mode_count, -1).max(axis=0)
        return [_gauss_panels(0.0, L, max(4, int(t) // 2 + 3)) for L, t in zip(self.lengths, top)]

    @cached_property
    def quad_points(self) -> np.ndarray:
        return _as_points(_tensor_nodes([x for x, _ in self._panels]))

    @cached_property
    def quad_weights(self) -> np.ndarray:
        return _tensor_weights([w for _, w in self._panels])

    def _faces(self):
        """``(axis, end, outward sign, nodes, weights)`` per boundary face: for
        each axis its ends at 0 and L, each the tensor of the other axes'
        Gauss rules (one node of weight 1 on the interval)."""
        for a, L in enumerate(self.lengths):
            rules = self._panels[:a] + self._panels[a + 1 :]
            nodes, wts = _tensor_nodes([x for x, _ in rules]), _tensor_weights([w for _, w in rules])
            for end, sgn in ((0.0, -1.0), (L, 1.0)):
                yield a, end, sgn, np.insert(nodes, a, end, axis=1), wts

    @cached_property
    def boundary_points(self) -> np.ndarray:
        return _as_points(np.concatenate([f[3] for f in self._faces()]))

    @cached_property
    def boundary_weights(self) -> np.ndarray:
        return np.concatenate([f[4] for f in self._faces()])

    @cached_property
    def boundary_normal_deriv(self) -> np.ndarray:
        """Outward normal derivative of every mode at every boundary node, (N, B)."""
        idx, k = self.mode_index.reshape(self.mode_count, -1), self.wavenumbers
        faces = []
        for a, end, sgn, nodes, _ in self._faces():
            slope = sgn * self._amplitude * k[:, [a]] * np.cos(idx[:, [a]] * math.pi * (end / self.lengths[a]))
            faces.append(_sine_tensor(slope, np.delete(k, a, axis=1), np.delete(nodes, a, axis=1)))
        return np.concatenate(faces, axis=1)


def _integer(name: str, value) -> int:
    """``value``, a Python or NumPy integer, as an int; anything else, a
    whole float too, raises ``ValueError`` naming the count ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def build_interval(L: float, N: int) -> SpectralDomain:
    """Sine eigenbasis on (0, L): modes 1..N, lambda_n = (n pi / L)^2."""
    N = _integer("the mode count", N)
    if N < 1:
        raise ValueError("need at least one mode")
    return SpectralDomain((L,), np.arange(1, N + 1))


def build_rectangle(L1: float, L2: float, N: int) -> SpectralDomain:
    """Tensor sine eigenbasis on (0,L1)x(0,L2), sorted by eigenvalue.

    Ties are broken lexicographically by the index pair so runs are
    reproducible under degeneracy.  The modes are searched in a block of
    K_1 x K_2 index pairs, K_a in proportion to L_a and sized by Weyl's law
    to hold about N modes (at most 3N pairs on every shape tried); it
    doubles along each axis until no pair outside it can be among the N
    lowest.  Lengths so far apart that one axis's term absorbs the other's
    steps in rounding raise ``ValueError``.
    """
    N = _integer("the mode count", N)
    if N < 1:
        raise ValueError("need at least one mode")
    lengths = (L1, L2)
    SpectralDomain(lengths, np.ones((1, 2), dtype=int))  # lengths finite, positive, in range
    # Weyl's law with its boundary term: about (pi/4) x_1 x_2 - (x_1 + x_2)/2
    # modes lie below the eigenvalue (pi x_a / L_a)^2 of either axis, with
    # x_a = s c_a and c_1 / c_2 = L_1 / L_2; s solves that count = N
    c = math.sqrt(L1) / math.sqrt(L2)
    half = 0.5 * (c + 1.0 / c)
    s = (half + math.hypot(half, math.sqrt(math.pi * N))) / (0.5 * math.pi)
    x = (s * c, s / c)
    while True:
        # an index past N on either axis is never taken: the N pairs of
        # lower indices along that axis come first
        K = [math.ceil(min(xa, N)) for xa in x]
        # each axis's term (j pi / L_a)^2 for j = 1..K_a + 1, as the domain forms it
        terms = [SpectralDomain((L,), np.arange(1, k + 2)).eigenvalues for L, k in zip(lengths, K)]
        lam = np.add.outer(terms[0][:-1], terms[1][:-1])
        # stable: ties stay in the block's (j_1, j_2) order
        order = np.argsort(lam, axis=None, kind="stable")
        # a pair beyond the block on an axis is at least the pair just past
        # its edge there
        edges = (terms[0][-1] + terms[1][0], terms[0][0] + terms[1][-1])
        cutoff = min((e for e, k in zip(edges, K) if k < N), default=math.inf)
        if order.size >= N and lam.flat[order[N - 1]] < cutoff:
            break
        x = (2.0 * x[0], 2.0 * x[1])
    taken = np.zeros(lam.shape, dtype=bool)
    taken.flat[order[:N]] = True
    # mathematically the eigenvalue rises with either index; where rounding
    # makes two taken neighbours along an axis equal, the lengths are out of range
    for axis in (0, 1):
        if np.any((np.diff(lam, axis=axis) <= 0.0) & np.delete(taken, 0, axis=axis)):
            raise ValueError(f"domain lengths {lengths} are too far apart: eigenvalues of "
                             "neighbouring modes round to the same value")
    return SpectralDomain(lengths, np.stack(np.unravel_index(order[:N], lam.shape), axis=1) + 1)


def eval_modes(domain: SpectralDomain, points) -> np.ndarray:
    """Matrix e_n(x_p) of shape (N, P)."""
    x = np.asarray(points, dtype=float).reshape(-1, len(domain.lengths))
    if np.any((x < -1e-12) | (x > np.array(domain.lengths) + 1e-12)):
        raise ValueError("points must lie in the closed domain")
    return _sine_tensor(domain._amplitude, domain.wavenumbers, x)


def project(domain: SpectralDomain, f) -> np.ndarray:
    """Coefficients <f, e_n> by the domain quadrature.

    ``f`` may be a callable taking one coordinate array per axis, or an
    array of samples at ``domain.quad_points``.
    """
    if callable(f):
        nodes = domain.quad_points.reshape(domain.quad_weights.size, -1)
        samples = np.asarray(f(*nodes.T), dtype=float)
    else:
        samples = np.asarray(f, dtype=float)
        if samples.shape != domain.quad_points.shape[:1]:
            raise ValueError("sample array must match the domain quadrature nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    E = eval_modes(domain, domain.quad_points)
    return E @ (domain.quad_weights * samples)


def synthesize(domain: SpectralDomain, coeffs, points) -> np.ndarray:
    """Evaluate sum_n c_n e_n at points (deterministic pairwise mode sum)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[0] != domain.mode_count:
        raise ValueError("coefficient count must match the domain mode count")
    return mode_sum(c[:, None], eval_modes(domain, points))[0]


def _grid_size(P: int) -> int:
    P = _integer("the points per axis", P)
    if P < 2:
        raise ValueError(f"a uniform grid needs at least 2 points per axis, got {P}")
    return P


def uniform_grid(domain: SpectralDomain, P: int) -> np.ndarray:
    """``P`` equispaced nodes per axis, ends included: ``linspace(0, L, P)``
    on the interval; on the rectangle the tensor grid flattened x-major,
    shape (P*P, 2)."""
    P = _grid_size(P)
    return _as_points(_tensor_nodes([np.linspace(0.0, L, P) for L in domain.lengths]))


def _dst1(x: np.ndarray, axes) -> np.ndarray:
    """Unnormalized type-I sine transform along each of ``axes`` in turn,
    ``y_k = 2 sum_j x_j sin(pi (j+1)(k+1) / (n+1))``: minus the imaginary part
    of the real FFT of the odd extension ``[0, x, 0, -x[::-1]]``, as pocketfft
    computes ``scipy.fft.dstn(x, type=1)``, bit for bit."""
    for ax in axes:
        x = np.moveaxis(x, ax, -1)
        n = x.shape[-1]
        ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
        ext[..., 1 : n + 1] = x
        ext[..., n + 2 :] = -x[..., ::-1]
        x = np.moveaxis(-np.fft.rfft(ext).imag[..., 1 : n + 1], -1, ax)
    return x


def grid_sum(coeff, domain: SpectralDomain, P: int) -> np.ndarray:
    """``mode_sum(coeff, eval_modes(domain, uniform_grid(domain, P)))`` by
    type-I sine transform, shape (R, P) or (R, P*P); ``coeff`` (n, R) holds
    the first n modes of ``domain``.

    On the nodes ``j L / K`` (K = P - 1) the sine of index i equals that of
    ``i mod 2K``, and for residues r > K minus that of ``2K - r``; residues
    0 and K vanish there.  Each mode is folded that way along every axis and
    its signed coefficient scattered onto the K - 1 interior nodes per axis
    with ``np.add.at`` in mode order, so aliased modes always add in the same
    order; one DST-I per axis then synthesizes the interior.  Boundary nodes
    are exactly 0.  Time rows go through in blocks under the ``mode_sum``
    budget: a block's scatter, odd extension, spectrum and result take about
    ``_MODE_SUM_BYTES`` (128 rows of the 512-mode, 513-point interval solve).
    """
    c = np.asarray(coeff, dtype=float)
    return _grid_synthesis(domain, c.shape[0], P)(c)


def _grid_synthesis(domain: SpectralDomain, n: int, P: int):
    """``coeff -> grid_sum(coeff, domain, P)`` for (n, R) coefficients, with
    the folding of the n modes onto the grid done once for every call."""
    P = _grid_size(P)
    if n > domain.mode_count:
        raise ValueError("more coefficient rows than domain modes")
    idx = domain.mode_index[:n].reshape(n, -1)
    dims, K = idx.shape[1], P - 1
    res = idx % (2 * K)
    # False everywhere when every node is on the boundary (P = 2) or every
    # mode vanishes there
    live = np.all(res % K != 0, axis=1)
    res = res[live]
    sign = np.where(res > K, -1.0, 1.0).prod(axis=1)[:, None]
    nodes = (slice(None),) + tuple((np.where(res > K, 2 * K - res, res) - 1).T)
    # sqrt(2/L) per axis, over the factor 2 of each unnormalized DST-I
    scale = math.prod(math.sqrt(0.5 / L) for L in domain.lengths)
    interior = (slice(None),) + (slice(1, -1),) * dims
    axes = tuple(range(1, dims + 1))
    # per time row: the signed coefficients, the scattered block, and the
    # transform's odd extension, spectrum and result (about 6 block sizes)
    rows = max(1, _MODE_SUM_BYTES // (64 * max(n, (K - 1) ** dims)))

    def synth(c: np.ndarray) -> np.ndarray:
        R = c.shape[1]
        out = np.zeros((R,) + (P,) * dims)
        for r in range(0, R if live.any() else 0, rows):
            blk = np.zeros((min(rows, R - r),) + (K - 1,) * dims)
            np.add.at(blk, nodes, (c[live, r : r + rows] * sign).T)
            out[r : r + rows][interior] = _dst1(blk, axes) * scale
        return out.reshape(R, -1)

    return synth


def frac_power_norm(domain: SpectralDomain, coeffs, theta: float) -> float:
    """Weighted-l2 norm (sum lambda^{2 theta} c^2)^(1/2), theta in [-1, 1]."""
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    c = np.asarray(coeffs, dtype=float)
    if c.shape[0] != domain.mode_count:
        raise ValueError("coefficient count must match the domain mode count")
    return float(np.sqrt(pairwise_sum(domain.eigenvalues ** (2.0 * theta) * c**2)))


@dataclass
class ModeCoefficients:
    """Spectral data (a_n, b_n) of the two initial conditions."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("a and b must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("coefficients must be finite")

    def __len__(self) -> int:
        return self.a.size

    def energy(self, lam) -> float:
        """Data energy sum(lam a^2) + sum(b^2) for eigenvalues ``lam``."""
        return float(np.sum(lam * self.a**2) + np.sum(self.b**2))

    def energy_norm(self, lam) -> float:
        """Data norm sqrt(sum(lam a^2)) + sqrt(sum(b^2)), ||u0||_H1 + ||u1||_L2."""
        return math.sqrt(float(np.sum(lam * self.a**2))) + math.sqrt(float(np.sum(self.b**2)))


def domain_to_config(domain: SpectralDomain) -> dict:
    return {"kind": domain.kind, "lengths": list(domain.lengths), "mode_count": domain.mode_count}


# domain kind -> (builder taking that many lengths and the mode count, number of axes)
_BUILDERS = {"interval": (build_interval, 1), "rectangle": (build_rectangle, 2)}


# A snapshot CSV's two halves go to forked children only when the later half
# holds this many mode values and CSV cells: a fork round trip from an 80 MB
# NumPy process took 3.4-4.6 ms on a 2-core x86 host, against about 25 ms
# for an ``ml`` kernel of 2^16 values and 80 ms to format 2^16 floats.  The
# later halves of the benchmark's large solves hold 263,682 (interval) and
# 148,194 (rectangle) and fork.
_FORK_MIN_VALUES = 2**16


# set in a child of ``_forked``: its parent's other jobs hold the other CPUs
_IN_FORKED_CHILD = False


def _fork_width() -> int:
    """Processes one stage may run at once: the usable CPUs, or 1 (serial)
    where ``fork`` is missing, another thread runs (a forked child would
    inherit any lock that thread holds, with no thread left to release it),
    this process is a child of ``_forked`` (whose siblings and parent keep
    the other CPUs busy) or a daemonic ``multiprocessing`` worker, which may
    have no children."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or _IN_FORKED_CHILD):
        return 1
    # a pool worker has multiprocessing loaded already; never load it here
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _forked(jobs):
    """Start each ``job(file)`` of ``jobs`` in a child forked now; yields
    ``join(i)``, which waits for child ``i`` and returns its file at offset
    0, or None if it has no started child (``i`` past ``jobs``, or its file
    or fork failed) or its child failed: the caller then runs that job itself.

    A child gets its inputs by copy-on-write and writes to an anonymous
    temporary file opened before the fork, so nothing is pickled and no pipe
    fills up.  It ends in ``os._exit`` after flushing that file, running none
    of the caller's ``finally`` blocks or ``atexit`` handlers and flushing no
    inherited buffer.  Children not yet joined are killed and reaped on the
    way out, on any exception too (a signal handler's, Ctrl-C).
    """
    children = []  # [pid, file] per job; pid None once reaped or never started
    try:
        for job in jobs:
            child = [None, None]
            children.append(child)
            try:
                child[1] = tempfile.TemporaryFile()
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                global _IN_FORKED_CHILD
                _IN_FORKED_CHILD = True
                status = 1
                try:
                    job(child[1])
                    child[1].flush()
                    status = 0
                finally:
                    os._exit(status)
            child[0] = pid

        def join(i: int):
            pid, fh = children[i] if i < len(children) else (None, None)
            if pid is None:
                return None
            _, status = os.waitpid(pid, 0)
            children[i][0] = None
            if status != 0:
                return None
            fh.seek(0)
            return fh

        yield join
    finally:
        for pid, fh in children:
            if pid is not None:
                import signal  # here only: ``import fracwave`` loads no module for this

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if fh is not None:
                fh.close()


def _csv_lines(rows):
    """CSV lines of ``rows`` (sequences of Python numbers): the ``repr`` of
    each entry, the shortest round-trip form of a float."""
    return (",".join(map(repr, row)) + "\r\n" for row in rows)


def _table_lines(table: np.ndarray):
    return _csv_lines(row.tolist() for row in table)


@contextlib.contextmanager
def _csv_file(filename: str, header: list[str]):
    """The text file ``filename``, open for CSV lines after ``header``; an
    exception on the way out removes the file, so no partial table is left."""
    fh = open(filename, "w", newline="")
    try:
        with fh:
            csv.writer(fh).writerow(header)
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(filename)
        raise


def _write_csv(filename: str, header: list[str], rows) -> None:
    """Write ``header``, then each row (a sequence of Python numbers, or a
    row of a 2-D float array ``rows``) as the ``repr`` of its entries.

    Number reprs never need CSV quoting, so rows are joined directly; the
    bytes are those of ``csv.writer`` (comma, ``\\r\\n`` line ends)."""
    with _csv_file(filename, header) as fh:
        fh.writelines(_table_lines(rows) if isinstance(rows, np.ndarray) else _csv_lines(rows))


def _write_json(filename: str, obj) -> None:
    """Write ``obj`` as sorted, two-space-indented JSON ending in a newline.

    The text is formed before the file is opened, and NaN or infinity,
    which JSON (RFC 8259) cannot hold, raise ``ValueError``: no file is
    written then."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(filename, "w") as fh:
        fh.write(text + "\n")
