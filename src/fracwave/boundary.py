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
from .spectral import (ModeCoefficients, SpectralDomain, _gauss_panels, _write_csv, mode_sum,
                       pairwise_sum, tail_stabilizes)

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
    "two_time_identity_check",
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

    def energy(self) -> float:
        """Time integral of the weighted squared trace (trapezoid)."""
        sq = self.values**2 @ self.weights
        return float(np.trapezoid(sq, self.grid.nodes))


def trace_to_csv(trace: TraceSeries, filename: str) -> None:
    rows = ((t, b, v) for t, vals in zip(trace.grid.nodes.tolist(), trace.values.tolist())
            for b, v in enumerate(vals))
    _write_csv(filename, ["t", "boundary_point", "value"], rows)


def _trace_tail_check(domain: SpectralDomain, data: ModeCoefficients, t_end: float) -> None:
    if len(data) != domain.mode_count:
        raise ValueError("data length must equal the domain mode count")
    # coarse divergence guard: sqrt(lambda)-weighted coefficients must have
    # visibly flattened partial sums (borderline H1 data, decay ~ 1/n, fails;
    # the n^-2-or-faster test classes pass with margin even for random draws)
    lam = domain.eigenvalues
    terms = np.sqrt(lam) * (np.abs(data.a) + t_end * np.abs(data.b))
    if not tail_stabilizes(terms, frac=0.25, tol=0.22):
        k = max(1, len(terms) // 4)
        frac = float(np.sum(terms[-k:]) / max(np.sum(terms), 1e-300))
        raise ValueError(
            "boundary trace mode sum has not stabilized: the last quarter of "
            f"the modes still contributes {frac:.1%} (needs faster coefficient decay)"
        )


def _draw_trace(domain: SpectralDomain, prop: ModePropagator, data: ModeCoefficients,
                tgrid: TimeGrid) -> TraceSeries:
    """Trace of one dataset from the shared mode dynamics."""
    _trace_tail_check(domain, data, tgrid.t_end)
    vals = mode_sum(prop.value(data.a, data.b), domain.boundary_normal_deriv)
    return TraceSeries(tgrid, domain.boundary_points, domain.boundary_weights, vals)


def normal_trace(domain: SpectralDomain, data: ModeCoefficients, alpha, tgrid: TimeGrid) -> TraceSeries:
    """Series trace of the normal derivative on the boundary quadrature."""
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    return _draw_trace(domain, prop, data, tgrid)


@dataclass
class RatioStudy:
    ratios: np.ndarray
    skipped: int
    table: list = field(default_factory=list)

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
    evaluated once for the whole ensemble."""
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    return _ratio_study(domain, prop, ensemble, tgrid)


def _ratio_study(domain: SpectralDomain, prop: ModePropagator, ensemble,
                 tgrid: TimeGrid) -> RatioStudy:
    lam = domain.eigenvalues
    ratios = []
    table = []
    skipped = 0
    for i, data in enumerate(ensemble):
        energy = float(np.sum(lam * data.a**2) + np.sum(data.b**2))
        if energy == 0.0:
            skipped += 1
            continue
        num = _draw_trace(domain, prop, data, tgrid).energy()
        ratios.append(num / energy)
        table.append({"draw": i, "trace_energy": num, "data_energy": energy, "ratio": num / energy})
    if not ratios:
        raise ValueError("every draw had zero energy")
    return RatioStudy(np.asarray(ratios), skipped, table)


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
    n_gauss: int = 64,
) -> dict:
    """Residual of the one-dimensional integration-by-parts identity

        2 int w'' h w' dx = [h (w')^2]_0^L - int h' (w')^2 dx

    for a C^2 function vanishing on the boundary."""
    for xb in (0.0, L):
        if abs(float(np.asarray(wfun.w(np.array([xb])))[0])) > 1e-10:
            raise ValueError("the test function must vanish on the boundary")
    x, wq = np.polynomial.legendre.leggauss(n_gauss)
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
    n = domain.mode_index
    amp = math.sqrt(2.0 / L)
    E = amp * np.sin(np.outer(n * math.pi / L, pts))
    dE = amp * (n * math.pi / L)[:, None] * np.cos(np.outer(n * math.pi / L, pts))
    return (E * (wts * hfield.h(pts))) @ dE.T


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


def _interval_identity_ingredients(domain, data, alpha, beta, tgrid):
    coeff = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes).value(data.a, data.b)
    icoeff = frac_integral(SampledPath(tgrid, coeff.T), beta).values.T
    return icoeff, mode_sum(icoeff, domain.boundary_normal_deriv)


def _integrated_caputo_coeffs(domain, data, alpha, beta, tgrid):
    """I^beta of the discrete fractional time derivative, per mode.

    The derivative is produced by the quadrature pipeline itself: the
    product-trapezoidal integral of order 2 - alpha applied to sampled
    second derivatives (mean-preserving near the origin, where they blow up
    like t^(alpha-2)), then the order-beta integral.
    """
    al = as_alpha(alpha)
    lam = domain.eigenvalues
    second = np.empty((domain.mode_count, tgrid.steps + 1))
    for n in range(domain.mode_count):
        a, b = data.a[n], data.b[n]
        if a == 0.0 and b == 0.0:
            second[n] = 0.0
            continue
        second[n] = mode_second_derivative_samples(lam[n], al, a, b, tgrid)
    cap = frac_integral(SampledPath(tgrid, second.T), 2.0 - al).values
    return frac_integral(SampledPath(tgrid, cap), beta).values.T


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
    hfield = interval_multiplier(L)
    lam = domain.eigenvalues
    icoeff, itrace = _interval_identity_ingredients(domain, data, alpha, beta, tgrid)
    icap = _integrated_caputo_coeffs(domain, data, alpha, beta, tgrid)
    tt = tgrid.nodes

    lhs = float(np.trapezoid(itrace**2 @ domain.boundary_weights, tt))
    G = _product_matrix(domain, hfield)
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
    evaluated once for the whole ensemble.
    """
    prop = ModePropagator(domain.eigenvalues, alpha, tgrid.nodes)
    return _trace_bound_reports(domain, prop, ensemble, beta, tgrid)


def _trace_bound_reports(domain: SpectralDomain, prop: ModePropagator, ensemble,
                         beta: float, tgrid: TimeGrid) -> list[TraceBoundReport]:
    al = prop.alpha
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    wts = domain.boundary_weights
    reports = []
    for data in ensemble:
        energy = float(np.sum(domain.eigenvalues * data.a**2) + np.sum(data.b**2))
        if energy == 0.0:
            reports.append(TraceBoundReport(
                NormReport("integrated-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0),
                NormReport("plain-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0),
                cross_ratio=0.0,
            ))
            continue
        path = _draw_trace(domain, prop, data, tgrid).as_path()
        itr = frac_integral(path, beta)
        il2 = l2_time_norm(itr, wts)
        semi = gagliardo_seminorm(itr, beta, wts)
        plain = l2_time_norm(path, wts)
        params = {"alpha": al, "beta": beta, "t_end": tgrid.t_end, "steps": tgrid.steps}
        integrated = NormReport("integrated-trace-energy", params,
                                value=(il2**2 + semi**2) / energy, bound_rhs=energy)
        plain_rep = NormReport("plain-trace-energy", params,
                               value=plain**2 / energy, bound_rhs=energy)
        cross = plain / (il2 + semi) if (il2 + semi) > 0 else 0.0
        reports.append(TraceBoundReport(integrated, plain_rep, cross_ratio=cross))
    return reports


def two_time_identity_check(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
    beta: float,
    tgrid: TimeGrid,
    node_pairs,
) -> float:
    """Max residual of the two-time difference form of the identity.

    For selected node pairs (i, j) the boundary term built from trace
    differences must match the duality and volume terms built from
    coefficient differences; exercised as a slow cross check.
    """
    if not domain.is_interval:
        raise ValueError("two-time identity is interval-only")
    (L,) = domain.lengths
    lam = domain.eigenvalues
    hfield = interval_multiplier(L)
    icoeff, itrace = _interval_identity_ingredients(domain, data, alpha, beta, tgrid)
    icap = _integrated_caputo_coeffs(domain, data, alpha, beta, tgrid)
    G = _product_matrix(domain, hfield)
    worst = 0.0
    for i, j in node_pairs:
        d = icoeff[:, i] - icoeff[:, j]
        dcap = icap[:, i] - icap[:, j]
        dtr = itrace[i] - itrace[j]
        lhs = float(dtr**2 @ domain.boundary_weights)
        duality = 2.0 * float(dcap @ G @ d)
        volume = (2.0 / L) * float(np.sum(lam * d**2))
        rhs = duality + volume
        scale = max(abs(lhs), abs(rhs))
        if scale > 0:
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst
