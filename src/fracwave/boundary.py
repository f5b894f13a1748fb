"""Boundary normal-derivative traces and the multiplier-identity checks.

On the interval the multiplier field ``h(x) = 2x/L - 1`` equals the outward
normal at both endpoints and has constant derivative, which makes every
volume term a weighted coefficient sum.  The rectangle supports traces and
the trace-energy ratio study only: a C^1 field equal to the normal cannot
exist across corners, so the integration-by-parts identities are restricted
to the interval by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fracops import (
    SampledPath,
    TimeGrid,
    frac_integral,
    gagliardo_seminorm,
    l2_time_norm,
)
from .params import as_alpha, identity_overlap_range
from .regularity import NormReport
from .solver import ModePropagator, mode_second_derivative_samples
from .spectral import (_MODE_SUM_BYTES, ModeCoefficients, SpectralDomain, _gauss_panels,
                       _leggauss, _write_csv, eval_modes, mode_sum, pairwise_sum,
                       tail_stabilizes)

__all__ = [
    "MultiplierField",
    "interval_multiplier",
    "TraceSeries",
    "normal_trace",
    "hidden_inequality_ratio",
    "TestFunction",
    "trig_test_function",
    "multiplier_identity_check",
    "fractional_identity_check",
    "trace_seminorm_bound",
    "trace_to_csv",
]


@dataclass(frozen=True)
class MultiplierField:
    """C^1 vector field on the closed interval with its derivative."""

    h: callable
    dh: callable


def interval_multiplier(L: float) -> MultiplierField:
    """The affine field matching the outward normal at both endpoints."""
    if L <= 0:
        raise ValueError("L must be positive")
    return MultiplierField(h=lambda x: 2.0 * np.asarray(x) / L - 1.0,
                           dh=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0 / L))


@dataclass
class TraceSeries:
    """Normal-derivative samples on boundary points over a time grid."""

    grid: TimeGrid
    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # (M+1, B)

    def as_path(self) -> SampledPath:
        return SampledPath(self.grid, self.values)


def _trace_energy(values: np.ndarray, weights: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Time integral (trapezoid) of the boundary-weighted squared trace, for
    every trace in ``values`` (..., M+1, B) at once."""
    return np.trapezoid(values**2 @ weights, nodes, axis=-1)


def trace_to_csv(trace: TraceSeries, filename: str) -> None:
    rows = ((t, b, v) for t, vals in zip(trace.grid.nodes.tolist(), trace.values.tolist())
            for b, v in enumerate(vals))
    _write_csv(filename, ["t", "boundary_point", "value"], rows)


def _trace_tail_check(domain: SpectralDomain, data, t_end: float) -> None:
    """Raise for the first dataset of ``data`` (a sequence) whose boundary
    trace series has not visibly converged, all datasets tested at once."""
    if any(len(d) != domain.mode_count for d in data):
        raise ValueError("data length must equal the domain mode count")
    # coarse divergence guard: sqrt(lambda)-weighted coefficients must have
    # visibly flattened partial sums (borderline H1 data, decay ~ 1/n, fails;
    # the n^-2-or-faster test classes pass with margin even for random draws)
    shape = (len(data), domain.mode_count)
    terms = np.abs(np.reshape([d.b for d in data], shape))
    terms *= t_end
    terms += np.abs(np.reshape([d.a for d in data], shape))
    terms *= np.sqrt(domain.eigenvalues)
    ok = tail_stabilizes(terms, frac=0.25, tol=0.22)
    if not ok.all():
        row = terms[np.argmin(ok)]
        k = max(1, len(row) // 4)
        frac = float(np.sum(row[-k:]) / max(np.sum(row), 1e-300))
        raise ValueError(
            "boundary trace mode sum has not stabilized: the last quarter of "
            f"the modes still contributes {frac:.1%} (needs faster coefficient decay)"
        )


def _traces(domain: SpectralDomain, prop: ModePropagator, data, tgrid: TimeGrid):
    """Boundary traces of the datasets ``data`` (a sequence) on ``prop``'s
    kernels, in order, as blocks of shape (draws, M+1, B).

    Every dataset passes the tail check first.  A block is one contraction
    ``einsum("rn,nt->rt", W, K)`` of ``W = phi'^T (x) C``, the boundary
    normal derivatives times the block's stacked coefficients ``(a, b)``,
    reshaped to (B * draws, 2N), with ``K = [e1; te2]`` of shape (2N, M+1).
    Without ``optimize`` NumPy adds the 2N products of each entry in mode
    order in its own loop, not in BLAS, so a trace has the same bits alone
    or in any block, under any number of BLAS threads.  A block, its
    product, its transposed copy and a caller's squares of it stay within
    ``_MODE_SUM_BYTES``.
    """
    _trace_tail_check(domain, data, tgrid.t_end)
    phi = np.tile(domain.boundary_normal_deriv.T, 2)  # (B, 2N)
    K = np.concatenate([prop.e1, prop.te2])
    (B, N2), T = phi.shape, K.shape[1]
    size = max(1, _MODE_SUM_BYTES // (8 * B * (N2 + 3 * T)))
    for i in range(0, len(data), size):
        C = np.array([np.concatenate([d.a, d.b]) for d in data[i : i + size]])
        out = np.einsum("rn,nt->rt", (phi[:, None, :] * C).reshape(-1, N2), K, optimize=False)
        yield np.ascontiguousarray(out.reshape(B, len(C), T).transpose(1, 2, 0))


def normal_trace(domain: SpectralDomain, data: ModeCoefficients, alpha, tgrid: TimeGrid) -> TraceSeries:
    """Series trace of the normal derivative on the boundary quadrature."""
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    ((values,),) = _traces(domain, prop, [data], tgrid)
    return _series(domain, tgrid, values)


def _series(domain: SpectralDomain, tgrid: TimeGrid, values: np.ndarray) -> TraceSeries:
    return TraceSeries(tgrid, domain.boundary_points, domain.boundary_weights, values)


@dataclass
class RatioStudy:
    ratios: np.ndarray
    skipped: int
    table: list = field(default_factory=list)
    # draw index -> TraceSeries, for the draws the study was asked to keep
    traces: dict = field(default_factory=dict)

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))


def hidden_inequality_ratio(
    domain: SpectralDomain,
    ensemble,
    alpha,
    tgrid: TimeGrid,
) -> RatioStudy:
    """Trace energy over data energy, per draw, with the shared mode dynamics
    evaluated once and the traces contracted together for the whole ensemble."""
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    return _ratio_study(domain, prop, list(ensemble), tgrid)


def _ratio_study(domain: SpectralDomain, prop: ModePropagator, ensemble,
                 tgrid: TimeGrid, keep=()) -> RatioStudy:
    """The ratio study of ``ensemble`` on ``prop``'s kernels, one ``_traces``
    contraction for all its draws of nonzero energy; the traces of the draws
    whose indices are in ``keep`` stay in ``RatioStudy.traces``."""
    energies = [data.energy(domain.eigenvalues) for data in ensemble]
    live = [i for i, energy in enumerate(energies) if energy != 0.0]
    if not live:
        raise ValueError("every draw had zero energy")
    nums, traces = [], {}
    for block in _traces(domain, prop, [ensemble[i] for i in live], tgrid):
        for i, values in zip(live[len(nums) :], block):
            if i in keep:
                traces[i] = _series(domain, tgrid, values.copy())
        nums += _trace_energy(block, domain.boundary_weights, tgrid.nodes).tolist()
    table = [{"draw": i, "trace_energy": num, "data_energy": energies[i],
              "ratio": num / energies[i]} for i, num in zip(live, nums)]
    return RatioStudy(np.asarray([row["ratio"] for row in table]), len(ensemble) - len(live),
                      table, traces)


@dataclass(frozen=True)
class TestFunction:
    """Twice-differentiable test function with analytic derivatives."""

    w: callable
    dw: callable
    d2w: callable


def trig_test_function(coeffs, L: float = 1.0) -> TestFunction:
    """Sine polynomial sum_k c_k sin(k pi x / L); vanishes at both ends."""
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(1, len(c) + 1) * math.pi / L

    def w(x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.outer(x, k)) @ c

    def dw(x):
        x = np.asarray(x, dtype=float)
        return np.cos(np.outer(x, k)) @ (c * k)

    def d2w(x):
        x = np.asarray(x, dtype=float)
        return -np.sin(np.outer(x, k)) @ (c * k * k)

    return TestFunction(w, dw, d2w)


def multiplier_identity_check(
    wfun: TestFunction,
    hfield: MultiplierField,
    L: float = 1.0,
) -> dict:
    """Residual of the one-dimensional integration-by-parts identity

        2 int w'' h w' dx = [h (w')^2]_0^L - int h' (w')^2 dx

    for a C^2 function vanishing on the boundary."""
    for xb in (0.0, L):
        if abs(float(np.asarray(wfun.w(np.array([xb])))[0])) > 1e-10:
            raise ValueError("the test function must vanish on the boundary")
    x, wq = _leggauss(64)
    x = 0.5 * L * (x + 1.0)
    wq = 0.5 * L * wq
    dwx = wfun.dw(x)
    lhs = 2.0 * float(np.sum(wq * wfun.d2w(x) * hfield.h(x) * dwx))
    hL = float(np.asarray(hfield.h(np.array([L])))[0])
    h0 = float(np.asarray(hfield.h(np.array([0.0])))[0])
    dL = float(np.asarray(wfun.dw(np.array([L])))[0])
    d0 = float(np.asarray(wfun.dw(np.array([0.0])))[0])
    rhs = hL * dL**2 - h0 * d0**2 - float(np.sum(wq * hfield.dh(x) * dwx**2))
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)
    return {"lhs": lhs, "rhs": rhs, "residual": residual}


def _product_matrix(domain: SpectralDomain, hfield: MultiplierField) -> np.ndarray:
    """G[n, m] = int e_n h e_m' dx by enriched composite Gauss quadrature."""
    (L,) = domain.lengths
    pts, wts = _gauss_panels(0.0, L, domain.mode_count + 4)
    k = domain.wavenumbers
    dE = math.sqrt(2.0 / L) * k * np.cos(np.outer(k, pts))
    return (eval_modes(domain, pts) * (wts * hfield.h(pts))) @ dE.T


@dataclass
class IdentityCheck:
    lhs: float
    rhs: float
    duality_term: float
    volume_term: float

    @property
    def residual(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return abs(self.lhs - self.rhs) / scale if scale > 0 else 0.0


def _integrated_caputo_coeffs(domain, data, alpha, beta, tgrid):
    """I^beta of the discrete fractional time derivative, per mode.

    The derivative is produced by the quadrature pipeline itself: the
    product-trapezoidal integral of order 2 - alpha applied to sampled
    second derivatives (mean-preserving near the origin, where they blow up
    like t^(alpha-2)), then the order-beta integral.
    """
    al = as_alpha(alpha)
    second = np.zeros((domain.mode_count, tgrid.steps + 1))
    live = (data.a != 0.0) | (data.b != 0.0)
    if np.any(live):
        second[live] = mode_second_derivative_samples(domain.eigenvalues[live], al,
                                                      data.a[live], data.b[live], tgrid)
    cap = frac_integral(SampledPath(tgrid, second.T), 2.0 - al).values
    return frac_integral(SampledPath(tgrid, cap), beta).values.T


def _identity_terms(domain, data, alpha, beta, tgrid):
    """Ingredients of both identity checks on the interval: the order-beta
    integrated mode coefficients and boundary trace, the integrated discrete
    derivative coefficients, and the multiplier's product matrix."""
    coeff = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes).value(data.a, data.b)
    icoeff = frac_integral(SampledPath(tgrid, coeff.T), beta).values.T
    itrace = mode_sum(icoeff, domain.boundary_normal_deriv)
    icap = _integrated_caputo_coeffs(domain, data, alpha, beta, tgrid)
    G = _product_matrix(domain, interval_multiplier(domain.lengths[0]))
    return icoeff, itrace, icap, G


def fractional_identity_check(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
    beta: float,
    theta: float,
    tgrid: TimeGrid,
) -> IdentityCheck:
    """Time-integrated multiplier identity on the interval.

    Boundary route: the time integral of the squared fractionally integrated
    trace.  Volume route: twice the integrated duality pairing of the
    fractionally integrated *discrete* time derivative (the quadrature
    pipeline, not the algebraic mode relation) against ``h`` times the
    integrated gradient, plus the single surviving volume term (the
    multiplier's derivative is constant).  The pairing is evaluated as a
    plain inner product, valid for the smooth truncated series.  The two
    routes share no time-discretization shortcut, so the residual honestly
    tracks the quadrature error and decreases under grid refinement.
    """
    if not domain.is_interval:
        raise ValueError("the multiplier identity is only available on the interval "
                         "(the field cannot be C^1 across rectangle corners)")
    al = as_alpha(alpha)
    identity_overlap_range(al).validate(theta)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    (L,) = domain.lengths
    lam = domain.eigenvalues
    icoeff, itrace, icap, G = _identity_terms(domain, data, alpha, beta, tgrid)
    tt = tgrid.nodes

    lhs = float(np.trapezoid(itrace**2 @ domain.boundary_weights, tt))
    duality = np.einsum("nt,nm,mt->t", icap, G, icoeff)
    volume = (2.0 / L) * pairwise_sum(lam[:, None] * icoeff**2, axis=0)
    duality_term = 2.0 * float(np.trapezoid(duality, tt))
    volume_term = float(np.trapezoid(volume, tt))
    return IdentityCheck(lhs=lhs, rhs=duality_term + volume_term,
                         duality_term=duality_term, volume_term=volume_term)


@dataclass
class TraceBoundReport:
    integrated_route: NormReport
    plain_route: NormReport
    cross_ratio: float


def trace_seminorm_bound(
    domain: SpectralDomain,
    ensemble,
    alpha,
    beta: float,
    tgrid: TimeGrid,
) -> list[TraceBoundReport]:
    """Trace energy measured two equivalent ways, with their ratio, per draw.

    Route 1 integrates the trace fractionally and measures the squared
    time-Sobolev data (L2 squared plus squared Slobodeckij seminorm); route
    2 is the plain squared L2 norm of the trace.  Both are divided by the
    data energy; a zero-energy draw reports zeros.  The mode dynamics are
    evaluated once, and the traces contracted together (``_traces``), for
    the whole ensemble.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    ensemble = list(ensemble)
    values = (v for block in _traces(domain, prop, ensemble, tgrid) for v in block)
    return [_trace_bound_report(domain, data, prop.alpha, beta, _series(domain, tgrid, v))
            for data, v in zip(ensemble, values)]


def _trace_bound_report(domain: SpectralDomain, data: ModeCoefficients, al: float,
                        beta: float, trace: TraceSeries | None) -> TraceBoundReport:
    """The two routes of one draw from its trace, which a zero-energy draw
    (reported as zeros) need not have."""
    energy = data.energy(domain.eigenvalues)
    if energy == 0.0:
        return TraceBoundReport(
            NormReport("integrated-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0),
            NormReport("plain-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0),
            cross_ratio=0.0,
        )
    wts = domain.boundary_weights
    path = trace.as_path()
    itr = frac_integral(path, beta)
    il2 = l2_time_norm(itr, wts)
    semi = gagliardo_seminorm(itr, beta, wts)
    plain = l2_time_norm(path, wts)
    tgrid = trace.grid
    params = {"alpha": al, "beta": beta, "t_end": tgrid.t_end, "steps": tgrid.steps}
    integrated = NormReport("integrated-trace-energy", params,
                            value=(il2**2 + semi**2) / energy, bound_rhs=energy)
    plain_rep = NormReport("plain-trace-energy", params,
                           value=plain**2 / energy, bound_rhs=energy)
    cross = plain / (il2 + semi) if (il2 + semi) > 0 else 0.0
    return TraceBoundReport(integrated, plain_rep, cross_ratio=cross)
