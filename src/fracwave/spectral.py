"""Dirichlet Laplacian eigenstructure on an interval and a rectangle.

Eigenpairs are analytic (sine basis / tensor sines), so every downstream
estimate check is free of eigensolver error.  The domain object carries a
composite Gauss-Legendre quadrature sized to resolve products of the highest
retained modes, plus boundary quadrature; the outward-normal derivatives of
every mode at the boundary nodes are built on first use.  Mode sums against
a basis go through ``mode_sum``, which forms the mode x row x point product
in bounded-memory blocks, the longer of the row and point axes innermost,
without changing a bit of the pairwise reduction.
On the equispaced grids of ``uniform_grid`` the same sums are type-I
discrete sine transforms: ``grid_sum`` folds every mode onto the grid's
interior nodes by aliasing and applies a DST-I along each axis, run on
``numpy.fft`` as pocketfft runs it inside ``scipy.fft.dstn``: O(R G log G)
instead of O(N R G) for R rows on G grid points, with boundary nodes
exactly 0.  No module of the package imports scipy; the test suite checks
these bits against ``scipy.fft``.
"""

from __future__ import annotations

import csv
import json
import math
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
    "domain_from_config",
    "coeffs_to_csv",
    "coeffs_from_csv",
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


# bytes one ``mode_sum`` block may occupy: the product block plus the
# pairwise halvings of it (together at most twice the block).  The longer of
# the row and point axes is the block's innermost axis, so NumPy runs long
# inner loops (boundary traces have only P = 2 points against thousands of
# time rows)
_MODE_SUM_BYTES = 32 * 2**20


def mode_sum(coeff, basis) -> np.ndarray:
    """``sum_n coeff[n, r] * basis[n, p]`` of (N, R) and (N, P) arrays, shape (R, P).

    Bit for bit ``pairwise_sum(coeff[:, :, None] * basis[:, None, :])``: the
    pairwise tree depends only on N, so forming the product one block of rows
    (and, when one row is over budget, of points) at a time changes nothing.
    When P < R the blocks are ``basis[:, p, None] * coeff[:, None, r]``,
    written back transposed: the product is commutative, so neither the
    block size nor the layout moves a bit.
    """
    c = np.asarray(coeff, dtype=float)
    e = np.asarray(basis, dtype=float)
    (N, R), P = c.shape, e.shape[1]
    out = np.empty((R, P))
    # (outer, inner) operands, and the output seen in their (outer, inner) order
    a, b, view = (c, e, out) if P >= R else (e, c, out.T)
    elems = _MODE_SUM_BYTES // 16  # 8-byte floats, twice over for the halvings
    cols = max(1, min(b.shape[1], elems // N))
    rows = max(1, elems // (N * cols))
    for i in range(0, a.shape[1], rows):
        for j in range(0, b.shape[1], cols):
            view[i : i + rows, j : j + cols] = pairwise_sum(
                a[:, i : i + rows, None] * b[:, None, j : j + cols], axis=0)
    return out


def tail_stabilizes(terms: np.ndarray, frac: float = 0.125, tol: float = 0.05) -> bool:
    """Partial-sum stabilization heuristic for non-negative term sequences.

    True when the last ``frac`` of the terms contributes at most ``tol`` of
    the total, i.e. the partial sums have visibly flattened.
    """
    t = np.asarray(terms, dtype=float)
    total = float(np.sum(t))
    if total == 0.0:
        return True
    k = max(1, int(len(t) * frac))
    return float(np.sum(t[-k:])) / total <= tol


def _gauss_panels(a: float, b: float, panels: int, order: int = 10):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * x[None, :]).ravel()
    wts = np.tile(half * w, panels)
    return pts, wts


@dataclass(frozen=True)
class SpectralDomain:
    """Analytic Dirichlet eigenstructure plus quadrature data."""

    kind: str
    lengths: tuple[float, ...]
    mode_count: int
    eigenvalues: np.ndarray
    mode_index: np.ndarray  # (N,) for interval, (N, 2) for rectangle
    quad_points: np.ndarray  # (Q,) or (Q, 2)
    quad_weights: np.ndarray  # (Q,)
    boundary_points: np.ndarray  # (B,) interval positions or (B, 2)
    boundary_weights: np.ndarray  # (B,)

    @property
    def is_interval(self) -> bool:
        return self.kind == "interval"

    @cached_property
    def boundary_normal_deriv(self) -> np.ndarray:
        """Outward normal derivative of every mode at every boundary node,
        shape (N, B); built on first use (only trace studies read it)."""
        if self.is_interval:
            (L,) = self.lengths
            n = self.mode_index
            dn = math.sqrt(2.0 / L) * (n * math.pi / L)
            # outward normal derivative: -e'(0) at x=0, +e'(L) at x=L
            return np.stack([-dn, dn * np.cos(n * math.pi)], axis=1)
        L1, L2 = self.lengths
        idx = self.mode_index
        amp = 2.0 / math.sqrt(L1 * L2)
        panels = _axis_panels(self.lengths, idx)
        w = [idx[:, [a]] * math.pi / L for a, L in enumerate(self.lengths)]
        out = np.empty((len(idx), self.boundary_points.shape[0]))
        col = 0
        # edges in boundary-node order: x = 0, x = L1, y = 0, y = L2
        for a, L in enumerate(self.lengths):
            nodes = panels[1 - a][0]
            for x0, sgn in ((0.0, -1.0), (L, 1.0)):  # outward normal along -/+ axis a
                cos = np.cos(idx[:, [a]] * math.pi * (x0 / L))
                out[:, col : col + nodes.size] = sgn * amp * w[a] * cos * np.sin(w[1 - a] * nodes)
                col += nodes.size
        return out


def _axis_panels(lengths, mode_index):
    """Composite Gauss nodes and weights along each axis, sized to the
    highest mode index retained in that direction."""
    return [_gauss_panels(0.0, L, max(4, int(top) // 2 + 3))
            for L, top in zip(lengths, mode_index.max(axis=0))]


def build_interval(L: float, N: int) -> SpectralDomain:
    """Sine eigenbasis on (0, L): lambda_n = (n pi / L)^2."""
    if L <= 0:
        raise ValueError("L must be positive")
    if N < 1:
        raise ValueError("need at least one mode")
    n = np.arange(1, N + 1)
    lam = (n * math.pi / L) ** 2
    pts, wts = _axis_panels((L,), n[:, None])[0]
    return SpectralDomain(
        kind="interval",
        lengths=(float(L),),
        mode_count=N,
        eigenvalues=lam.astype(float),
        mode_index=n,
        quad_points=pts,
        quad_weights=wts,
        boundary_points=np.array([0.0, L]),
        boundary_weights=np.array([1.0, 1.0]),
    )


def build_rectangle(L1: float, L2: float, N: int) -> SpectralDomain:
    """Tensor sine eigenbasis on (0,L1)x(0,L2), sorted by eigenvalue.

    Ties are broken lexicographically by the index pair so runs are
    reproducible under degeneracy.
    """
    if L1 <= 0 or L2 <= 0:
        raise ValueError("edge lengths must be positive")
    if N < 1:
        raise ValueError("need at least one mode")
    K = max(2, int(math.isqrt(N)) + 2)
    while True:
        j = np.arange(1, K + 1)
        lj = (j * math.pi / L1) ** 2
        lk = (j * math.pi / L2) ** 2
        lam = (lj[:, None] + lk[None, :]).ravel()
        ia, ib = np.repeat(j, K), np.tile(j, K)
        order = np.lexsort((ib, ia, lam))
        # the block is large enough once the N-th value cannot be beaten by
        # any eigenvalue involving an index beyond K
        cutoff = min((math.pi * (K + 1) / L1) ** 2 + (math.pi / L2) ** 2,
                     (math.pi / L1) ** 2 + (math.pi * (K + 1) / L2) ** 2)
        if order.size >= N and lam[order[N - 1]] < cutoff:
            break
        K *= 2
    chosen = order[:N]
    idx = np.stack([ia[chosen], ib[chosen]], axis=1)

    (px, wx), (py, wy) = _axis_panels((L1, L2), idx)
    PX, PY = np.meshgrid(px, py, indexing="ij")
    # boundary: four edges in the order x = 0, x = L1, y = 0, y = L2
    b_pts = [np.stack([np.full_like(py, x0), py], axis=1) for x0 in (0.0, L1)]
    b_pts += [np.stack([px, np.full_like(px, y0)], axis=1) for y0 in (0.0, L2)]
    return SpectralDomain(
        kind="rectangle",
        lengths=(float(L1), float(L2)),
        mode_count=N,
        eigenvalues=lam[chosen],
        mode_index=idx,
        quad_points=np.stack([PX.ravel(), PY.ravel()], axis=1),
        quad_weights=np.outer(wx, wy).ravel(),
        boundary_points=np.concatenate(b_pts, axis=0),
        boundary_weights=np.concatenate([wy, wy, wx, wx]),
    )


def eval_modes(domain: SpectralDomain, points) -> np.ndarray:
    """Matrix e_n(x_p) of shape (N, P)."""
    pts = np.asarray(points, dtype=float)
    if domain.is_interval:
        (L,) = domain.lengths
        x = np.atleast_1d(pts)
        if np.any((x < -1e-12) | (x > L + 1e-12)):
            raise ValueError("points must lie in the closed domain")
        n = domain.mode_index
        return math.sqrt(2.0 / L) * np.sin(np.outer(n * math.pi / L, x))
    L1, L2 = domain.lengths
    xy = np.atleast_2d(pts)
    if np.any((xy[:, 0] < -1e-12) | (xy[:, 0] > L1 + 1e-12) | (xy[:, 1] < -1e-12) | (xy[:, 1] > L2 + 1e-12)):
        raise ValueError("points must lie in the closed domain")
    amp = 2.0 / math.sqrt(L1 * L2)
    j = domain.mode_index[:, 0][:, None]
    k = domain.mode_index[:, 1][:, None]
    x = xy[:, 0][None, :]
    y = xy[:, 1][None, :]
    return amp * np.sin(j * math.pi * x / L1) * np.sin(k * math.pi * y / L2)


def project(domain: SpectralDomain, f) -> np.ndarray:
    """Coefficients <f, e_n> by the domain quadrature.

    ``f`` may be a callable on points or an array of samples at
    ``domain.quad_points``.
    """
    if callable(f):
        if domain.is_interval:
            samples = np.asarray(f(domain.quad_points), dtype=float)
        else:
            samples = np.asarray(f(domain.quad_points[:, 0], domain.quad_points[:, 1]), dtype=float)
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
    if P < 2:
        raise ValueError(f"a uniform grid needs at least 2 points per axis, got {P}")
    return int(P)


def uniform_grid(domain: SpectralDomain, P: int) -> np.ndarray:
    """``P`` equispaced nodes per axis, ends included: ``linspace(0, L, P)``
    on the interval; on the rectangle the tensor grid flattened x-major,
    shape (P*P, 2)."""
    P = _grid_size(P)
    axes = [np.linspace(0.0, L, P) for L in domain.lengths]
    if domain.is_interval:
        return axes[0]
    PX, PY = np.meshgrid(*axes, indexing="ij")
    return np.stack([PX.ravel(), PY.ravel()], axis=1)


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
    budget.
    """
    c = np.asarray(coeff, dtype=float)
    (n, R), P = c.shape, _grid_size(P)
    if n > domain.mode_count:
        raise ValueError("more coefficient rows than domain modes")
    idx = domain.mode_index[:n].reshape(n, -1)
    dims, K = idx.shape[1], P - 1
    out = np.zeros((R,) + (P,) * dims)
    res = idx % (2 * K)
    live = np.all(res % K != 0, axis=1)
    if not live.any():  # every node on the boundary (P = 2) or every mode vanishing there
        return out.reshape(R, -1)
    res = res[live]
    sign = np.where(res > K, -1.0, 1.0).prod(axis=1)[:, None]
    nodes = tuple((np.where(res > K, 2 * K - res, res) - 1).T)
    # sqrt(2/L) per axis, over the factor 2 of each unnormalized DST-I
    scale = math.prod(math.sqrt(0.5 / L) for L in domain.lengths)
    interior = (slice(None),) + (slice(1, -1),) * dims
    axes = tuple(range(1, dims + 1))
    # per time row: the signed coefficients, the scattered block, and the
    # transform's odd extension, spectrum and result (about 6 block sizes)
    rows = max(1, _MODE_SUM_BYTES // (64 * max(n, (K - 1) ** dims)))
    for r in range(0, R, rows):
        blk = np.zeros((min(rows, R - r),) + (K - 1,) * dims)
        np.add.at(blk, (slice(None),) + nodes, (c[live, r : r + rows] * sign).T)
        out[r : r + rows][interior] = _dst1(blk, axes) * scale
    return out.reshape(R, -1)


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

    def scaled(self, factor: float) -> "ModeCoefficients":
        return ModeCoefficients(self.a * factor, self.b * factor)

    def energy(self, lam) -> float:
        """Data energy sum(lam a^2) + sum(b^2) for eigenvalues ``lam``."""
        return float(np.sum(lam * self.a**2) + np.sum(self.b**2))

    def energy_norm(self, lam) -> float:
        """Data norm sqrt(sum(lam a^2)) + sqrt(sum(b^2)), ||u0||_H1 + ||u1||_L2."""
        return math.sqrt(float(np.sum(lam * self.a**2))) + math.sqrt(float(np.sum(self.b**2)))


def domain_to_config(domain: SpectralDomain) -> dict:
    return {"kind": domain.kind, "lengths": list(domain.lengths), "mode_count": domain.mode_count}


def domain_from_config(cfg: dict) -> SpectralDomain:
    kind = cfg["kind"]
    if kind == "interval":
        return build_interval(cfg["lengths"][0], cfg["mode_count"])
    if kind == "rectangle":
        return build_rectangle(cfg["lengths"][0], cfg["lengths"][1], cfg["mode_count"])
    raise ValueError(f"unknown domain kind {kind!r}")


def _write_csv(filename: str, header: list[str], rows) -> None:
    """Write ``header``, then each row (a sequence of Python numbers) as the
    ``repr`` of its entries: the shortest round-trip form of a float.

    Number reprs never need CSV quoting, so rows are joined directly; the
    bytes are those of ``csv.writer`` (comma, ``\\r\\n`` line ends)."""
    with open(filename, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _write_json(filename: str, obj) -> None:
    """Write ``obj`` as sorted, two-space-indented JSON ending in a newline."""
    with open(filename, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def coeffs_to_csv(coeffs: ModeCoefficients, filename: str) -> None:
    index = range(1, len(coeffs.a) + 1)
    _write_csv(filename, ["n", "a", "b"], zip(index, coeffs.a.tolist(), coeffs.b.tolist()))


def coeffs_from_csv(filename: str) -> ModeCoefficients:
    with open(filename, newline="") as fh:
        rows = list(csv.reader(fh))
    a = np.array([float(r[1]) for r in rows[1:]])
    b = np.array([float(r[2]) for r in rows[1:]])
    return ModeCoefficients(a, b)
