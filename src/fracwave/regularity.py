"""Numerical checks of the solution's regularity estimates.

Everything here works in coefficient space: initial-data continuity in the
energy norm, uniform-in-time bounds, the two square-integrable-in-time
norms with their origin singularities, the smoother-data velocity limit and
the short-time velocity blow-up rate.  Constants are never asserted, only
boundedness, exact scaling invariance and fitted rate exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import (
    ThetaRange,
    as_alpha,
    caputo_dual_range,
    gradient_range,
    velocity_dual_range,
)
from .solver import ModePropagator
from .spectral import ModeCoefficients, SpectralDomain, _integer, pairwise_sum, tail_stabilizes

__all__ = [
    "NormReport",
    "initial_convergence",
    "uniform_bound_report",
    "l2_time_norms",
    "smooth_data_velocity",
    "velocity_blowup_rate",
    "fit_loglog_slope",
]


@dataclass
class NormReport:
    """One named norm value with the parameters it was computed under."""

    quantity: str
    params: dict
    value: float
    bound_rhs: float | None = None

    def as_dict(self) -> dict:
        d = {"quantity": self.quantity, "value": self.value, **self.params}
        if self.bound_rhs is not None:
            d["bound_rhs"] = self.bound_rhs
        return d


def fit_loglog_slope(t, err) -> float:
    """Least-squares slope of log(err) against log(t)."""
    t = np.asarray(t, dtype=float)
    err = np.asarray(err, dtype=float)
    mask = (t > 0) & (err > 0)
    if np.count_nonzero(mask) < 2:
        raise ValueError("need at least two positive samples for a slope fit")
    return float(np.polyfit(np.log(t[mask]), np.log(err[mask]), 1)[0])


def _weighted_norms(weights, per_mode_sq):
    return np.sqrt(pairwise_sum(weights[:, None] * per_mode_sq, axis=0))


def initial_convergence(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
    theta: float,
    t_sequence,
) -> dict:
    """Energy-norm and dual-velocity errors against the initial data.

    Returns a table {"t", "h1_error", "velocity_error"} over the given
    strictly decreasing positive time sequence.
    """
    al = as_alpha(alpha)
    theta = velocity_dual_range(al).validate(theta)
    ts = np.asarray(t_sequence, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) >= 0) or np.any(ts < 0):
        raise ValueError("t_sequence must be strictly decreasing and non-negative")
    lam = domain.eigenvalues
    prop = ModePropagator(lam, al, ts)
    y = prop.value(data.a, data.b)
    v = prop.velocity(data.a, data.b)
    h1_err = _weighted_norms(lam, (y - data.a[:, None]) ** 2)
    vel_err = _weighted_norms(lam ** (-2.0 * theta), (v - data.b[:, None]) ** 2)
    return {"t": ts, "h1_error": h1_err, "velocity_error": vel_err, "theta": theta, "alpha": al}


def uniform_bound_report(
    domain: SpectralDomain,
    ensemble,
    alpha,
    theta: float,
    t_end: float,
) -> list[NormReport]:
    """Sup-over-grid energy and dual-velocity norms, per ensemble member.

    The reported value is the ratio of the sup norms to the data norm
    ||u0||_{H1} + ||u1||_{L2}; it is exactly invariant under scalar data
    rescaling.  Zero-data members are skipped.
    """
    al = as_alpha(alpha)
    theta = velocity_dual_range(al).validate(theta)
    times = np.linspace(0.0, t_end, 129)
    lam = domain.eigenvalues
    prop = ModePropagator(lam, al, times)
    reports: list[NormReport] = []
    for i, data in enumerate(ensemble):
        data_norm = data.energy_norm(lam)
        if data_norm == 0.0:
            continue
        y = prop.value(data.a, data.b)
        v = prop.velocity(data.a, data.b)
        sup_u = float(np.max(_weighted_norms(lam, y**2)))
        sup_v = float(np.max(_weighted_norms(lam ** (-2.0 * theta), v**2)))
        reports.append(
            NormReport(
                quantity="uniform-energy-and-dual-velocity",
                params={"draw": i, "alpha": al, "theta": theta, "t_end": t_end,
                        "sup_energy": sup_u, "sup_velocity_dual": sup_v},
                value=(sup_u + sup_v) / data_norm,
                bound_rhs=data_norm,
            )
        )
    return reports


def _graded_integral(times, integrand):
    """Trapezoid on a graded mesh plus a power-law patch on the first panel."""
    total = float(np.trapezoid(integrand[1:], times[1:]))
    t1, t2 = times[1], times[2]
    g1, g2 = integrand[1], integrand[2]
    if g1 > 0.0 and g2 > 0.0 and t2 > t1:
        p = math.log(g2 / g1) / math.log(t2 / t1)
        p = min(max(p, -0.98), 6.0)
        total += g1 * t1 / (p + 1.0)
    return total


def l2_time_norms(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
    theta_grad: float,
    theta_cap: float,
    t_end: float,
    steps: int = 512,
) -> tuple[NormReport, NormReport]:
    """Time-L2 norms of the smoothed gradient and the dual fractional derivative.

    The integrands blow up at the origin like t^(-2 a theta_grad) and
    t^(a (2 theta_cap - 1)); both are integrable inside the admissible theta
    windows, and the quadrature uses a quadratically graded mesh of
    ``steps`` panels (an integer, at least 2) with an extrapolated first
    panel.
    """
    steps = _integer("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    al = as_alpha(alpha)
    theta_grad = gradient_range(al).validate(theta_grad)
    theta_cap = caputo_dual_range(al).validate(theta_cap)
    lam = domain.eigenvalues
    j = np.arange(steps + 1, dtype=float)
    times = t_end * (j / steps) ** 2
    y = ModePropagator(lam, al, times).value(data.a, data.b)
    grad_integrand = pairwise_sum(lam[:, None] ** (1.0 + 2.0 * theta_grad) * y**2, axis=0)
    cap_integrand = pairwise_sum(lam[:, None] ** (2.0 - 2.0 * theta_cap) * y**2, axis=0)
    grad_sq = _graded_integral(times, grad_integrand)
    cap_sq = _graded_integral(times, cap_integrand)
    data_norm = data.energy_norm(lam)
    mk = lambda name, theta, val: NormReport(
        quantity=name,
        params={"alpha": al, "theta": theta, "t_end": t_end, "steps": steps},
        value=math.sqrt(val),
        bound_rhs=data_norm,
    )
    return (
        mk("gradient-l2-in-time", theta_grad, grad_sq),
        mk("caputo-dual-l2-in-time", theta_cap, cap_sq),
    )


def smooth_data_velocity(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
    epsilon: float,
    t_sequence,
) -> dict:
    """Plain-L2 velocity error for data half an extra power smoother.

    Requires sum(lambda^(1+2 eps) a^2) to stabilize numerically; returns the
    error table so callers can fit the envelope exponent
    (alpha - 2 + 2 alpha eps)/2.
    """
    al = as_alpha(alpha)
    rng = ThetaRange("smooth-data", (2.0 - al) / (2.0 * al), 0.5)
    epsilon = rng.validate(epsilon)
    lam = domain.eigenvalues
    terms = lam ** (1.0 + 2.0 * epsilon) * data.a**2
    if not tail_stabilizes(terms):
        raise ValueError(
            "data is not numerically in the smoother class: partial sums of "
            "lambda^(1+2 eps) a^2 have not stabilized"
        )
    ts = np.asarray(t_sequence, dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("t_sequence must be strictly decreasing and positive")
    v = ModePropagator(lam, al, ts).velocity(data.a, data.b)
    err = np.sqrt(pairwise_sum((v - data.b[:, None]) ** 2, axis=0))
    return {"t": ts, "velocity_error": err, "epsilon": epsilon, "alpha": al,
            "envelope_exponent": (al - 2.0 + 2.0 * al * epsilon) / 2.0}


@dataclass
class BlowupFit:
    exponent: float
    expected: float
    multi_mode: bool
    table: dict = field(repr=False, default_factory=dict)


def velocity_blowup_rate(
    domain: SpectralDomain,
    data: ModeCoefficients,
    alpha,
) -> BlowupFit:
    """Fit the short-time growth exponent of the plain-L2 velocity norm on
    9 geometrically spaced times from 1e-4 to 1e-2.

    For position-only data the norm behaves like t^(alpha-1); multi-mode
    input only mixes the prefactor, which is flagged, not rejected.
    """
    al = as_alpha(alpha)
    if np.any(data.b != 0.0):
        raise ValueError("the blow-up rate study needs velocity-free data (b = 0)")
    multi = int(np.count_nonzero(data.a)) > 1
    ts = np.geomspace(1e-4, 1e-2, 9)
    v = ModePropagator(domain.eigenvalues, al, ts).velocity(data.a, data.b)
    norm = np.sqrt(pairwise_sum(v**2, axis=0))
    slope = fit_loglog_slope(ts, norm)
    return BlowupFit(
        exponent=slope,
        expected=al - 1.0,
        multi_mode=multi,
        table={"t": ts, "velocity_norm": norm},
    )
