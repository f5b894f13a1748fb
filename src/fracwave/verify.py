"""Acceptance harness: every advertised guarantee as a pass/fail check.

Each check returns a CheckResult with the numbers it computed, so the CLI
can print one line per criterion and serialize a deterministic report.
The randomized checks take a ``seed`` and derive all their draws from it;
the others take no argument.

``run_all`` (``fracwave verify all``) deals the checks into one share per
usable CPU (``_shares``) and walks the shares in one loop, with the rule of
both fork sites (``spectral``): each share runs in a child of
``spectral._forked`` that pickles its results to its file, and the parent
only joins and reads them back.  Where ``spectral._fork_width`` allows one
process (one usable CPU, no ``fork``, another thread running, or a forked
child or daemonic pool worker as caller) there is one share and no job,
and the same loop runs it here.
Each check draws only from its seed and ML values do not depend on cache
state, so the results, and the report bytes, are identical either way.

Work that does not depend on the data runs once.  The trace-energy check
draws its three ensembles, tail-checks them and stacks their coefficients
and data energies (``boundary._draws``) before its alpha loop, and
evaluates one 128-mode propagator per alpha; its 64-mode studies read the
leading rows of those kernels (``ModePropagator.head``), each study takes
the traces of all its draws in one contraction (``boundary._traces``), and
its route reports measure the traces its first study kept as one stack
(``boundary._route_reports``: one ``frac_integral`` and one pass of each
norm).  The norm-equivalence check measures each ensemble as one stack the
same way.  The mode-ODE check evaluates each kernel once per alpha on its
finest grid and reads every coarser grid as every s-th time of it
(``ModePropagator.at``); the integrated-identity check evaluates kernels
for its one mode of nonzero data alone.  ``check_ml_identities`` makes one
``ml`` call per order, and its oracle, the fallback ``_mpmath_single``,
takes all but the first q coefficients of alpha = p/q by exact recurrence.
None of this sharing moves a bit: an ``ml`` value does not depend on its
call, nor a trace on the other draws of its contraction, nor a norm on the
other paths of its stack (the tests pin these on the grids used here); a
coarse grid's nodes are every s-th node of the fine grid's, bit for bit;
the recurrence rounds to the doubles of the gamma-per-term series (tested
for q <= 8), and the draws and traces are the same arrays, computed once.
"""

from __future__ import annotations

import inspect
import math
import pickle
from dataclasses import dataclass, field

import numpy as np

from .boundary import (
    _draws,
    _ratio_study,
    _route_reports,
    fractional_identity_check,
    interval_multiplier,
    multiplier_identity_check,
    trig_test_function,
)
from .fracops import (
    SampledPath,
    TimeGrid,
    caputo_derivative,
    frac_integral,
    norm_equivalence_study,
    semigroup_check,
)
from .mittag_leffler import (GROWTH_THRESHOLD, MLParams, _mpmath_single, gamma, max_ratio, ml,
                             verify_decay_bound)
from .presets import _random_trig_paths, h1_saturating, random_decay, single_mode
from .regularity import fit_loglog_slope, initial_convergence, velocity_blowup_rate
from .solver import ModePropagator, mode_second_derivative_samples
from .spectral import _fork_width, _forked, build_interval

__all__ = ["CheckResult", "run_all", "ALL_CHECKS", "report_lines"]

_ALPHAS = (1.25, 1.5, 1.75)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}


def _rel(err_num, scale) -> float:
    return float(np.max(np.abs(err_num) / scale))


def check_ml_identities() -> CheckResult:
    """Closed-form identities and the shift recurrence, against exact values
    and the extended-precision series."""
    tol_near, tol_far = 1e-10, 1e-8
    worst = {"near": 0.0, "far": 0.0, "oracle": 0.0}

    def score(err, z):
        band = "near" if abs(z) <= 50.0 else "far"
        worst[band] = max(worst[band], err)

    # exponential
    z = np.concatenate([np.linspace(-50.0, 50.0, 41), -np.geomspace(60.0, 700.0, 8)])
    for zi, v in zip(z.tolist(), ml(MLParams(1.0, 1.0), z).tolist()):
        ref = math.exp(zi)
        score(abs(v - ref) / abs(ref), zi)

    # cosine / cardinal sine on the negative axis
    x = np.geomspace(1e-2, 1e6, 160)
    vc = ml(MLParams(2.0, 1.0), -x)
    refc = np.cos(np.sqrt(x))
    vs = ml(MLParams(2.0, 2.0), -x)
    refs = np.sin(np.sqrt(x)) / np.sqrt(x)
    for xi, a, b in zip(x, vc, refc):
        score(abs(a - b) / max(abs(b), 1e-12), -xi)
    for xi, a, b in zip(x, vs, refs):
        score(abs(a - b) / max(abs(b), 1e-12), -xi)

    # the recurrence E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b), scale-normalized,
    # and extended-precision series oracle spot checks: one ml call per order
    z_rec = np.concatenate([-np.geomspace(1e-2, 1e6, 50), np.geomspace(1e-2, 50.0, 12)])
    z_oracle = [-0.7, -5.0, -30.0, -90.0, -400.0]
    for alpha in _ALPHAS:
        for beta in (1.0, 2.0, alpha):
            recurrence = beta != alpha
            vals = ml(MLParams(alpha, beta), np.concatenate([z_rec, z_oracle]) if recurrence
                      else np.array(z_oracle))
            if recurrence:
                lhs = vals[: z_rec.size]
                mid = z_rec * ml(MLParams(alpha, alpha + beta), z_rec)
                rhs = mid + 1.0 / gamma(beta)
                scale = np.maximum(np.abs(lhs), np.maximum(np.abs(mid), 1.0 / gamma(beta)))
                for zi, e in zip(z_rec, np.abs(lhs - rhs) / scale):
                    score(float(e), zi)
            for zi, v in zip(z_oracle, vals[-len(z_oracle):].tolist()):
                ref = _mpmath_single(alpha, beta, zi)
                err = abs(v - ref) / max(abs(ref), 1e-300)
                worst["oracle"] = max(worst["oracle"], err)
                score(err, zi)

    passed = worst["near"] <= tol_near and worst["far"] <= tol_far
    return CheckResult("ml-identities", passed, {"worst": worst,
                                                 "tol_near": tol_near, "tol_far": tol_far})


def check_decay_envelope() -> CheckResult:
    """The weighted envelope |E|(1+|z|) saturates across dyadic samples."""
    rows = {}
    passed = True
    for alpha in _ALPHAS:
        fit = verify_decay_bound(MLParams(alpha, 1.0))
        rows[str(alpha)] = {"c_empirical": fit.c_empirical, "max_violation": fit.max_violation}
        passed &= (fit.max_violation == 0.0) and math.isfinite(fit.c_empirical)
    return CheckResult("decay-envelope", passed, {"per_alpha": rows, "growth_threshold": GROWTH_THRESHOLD})


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def check_kernel_peak(seed: int = 7) -> CheckResult:
    """Closed-form peak of x**b/(1+x) against golden-section search."""
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.02, 0.98, size=50)
    worst_val = 0.0
    worst_arg = 0.0
    for b in betas:
        argmax, value = max_ratio(float(b))
        f = lambda x: x**b / (1.0 + x)
        xg, vg = _golden_max(f, 0.0, 10.0 * argmax)
        worst_val = max(worst_val, abs(vg - value))
        worst_arg = max(worst_arg, abs(xg - argmax) / (1.0 + argmax))
    passed = worst_val <= 1e-10 and worst_arg <= 1e-5
    return CheckResult("kernel-peak", passed,
                       {"worst_value_diff": worst_val, "worst_argmax_rel": worst_arg,
                        "draws": 50})


def check_frac_integral_suite() -> CheckResult:
    """Power-kernel integral exactness, semigroup refinement, derivative images."""
    details = {}
    passed = True

    grid = TimeGrid(1.0, 1024)
    worst = 0.0
    for beta in (0.3, 0.5, 0.9):
        out = frac_integral(SampledPath(grid, np.ones(grid.steps + 1)), beta)
        ref = grid.nodes**beta / gamma(beta + 1.0)
        worst = max(worst, _rel(out.values[1:] - ref[1:], ref[1:]))
    details["const_image_rel"] = worst
    passed &= worst <= 1e-3

    # mildly rough path: first-order quadrature error makes the discrepancy
    # halve per grid doubling
    discs = []
    for M in (1024, 2048):
        g = TimeGrid(1.0, M)
        vals = np.empty(M + 1)
        vals[1:] = g.nodes[1:] ** (-0.45)
        vals[0] = vals[1]
        discs.append(semigroup_check(SampledPath(g, vals), 0.5, 0.5))
    ratio = discs[1] / discs[0]
    details["semigroup"] = {"discrepancies": discs, "doubling_ratio": ratio}
    passed &= 0.4 <= ratio <= 0.6

    alpha = 1.5
    zero = caputo_derivative(SampledPath(grid, np.zeros(grid.steps + 1)), alpha)
    details["caputo_linear_max"] = float(np.max(np.abs(zero.values)))
    passed &= details["caputo_linear_max"] <= 1e-12
    quad = caputo_derivative(SampledPath(grid, np.full(grid.steps + 1, 2.0)), alpha)
    ref = 2.0 * grid.nodes ** (2.0 - alpha) / gamma(3.0 - alpha)
    details["caputo_quadratic_rel"] = _rel(quad.values[1:] - ref[1:], ref[1:])
    passed &= details["caputo_quadratic_rel"] <= 1e-3

    return CheckResult("frac-integral-suite", passed, details)


def check_norm_equivalence(seed: int = 7) -> CheckResult:
    """Two-sided stability of ||I^b u||_{H^b} / ||u||_{L2} over an ensemble."""
    beta = 0.25
    brackets = {}
    for M in (256, 512):
        grid = TimeGrid(1.0, M)
        ensemble = [SampledPath(grid, v) for v in _random_trig_paths(grid, 50, seed)]
        study = norm_equivalence_study(ensemble, beta)
        brackets[M] = (study.ratio_min, study.ratio_max)
    (lo1, hi1), (lo2, hi2) = brackets[256], brackets[512]
    passed = (
        hi1 / lo1 < 100.0
        and hi2 / lo2 < 100.0
        and 0.5 <= lo2 / lo1 <= 2.0
        and 0.5 <= hi2 / hi1 <= 2.0
    )
    return CheckResult(
        "norm-equivalence", passed,
        {"beta": beta, "bracket_M256": brackets[256], "bracket_M512": brackets[512]},
    )


def check_mode_ode_residual() -> CheckResult:
    """Discrete fractional derivative of a sampled mode against -lambda y."""
    lam = math.pi**2
    details = {}
    passed = True
    grids = (256, 512, 1024)
    for alpha in _ALPHAS:
        # one propagator per alpha on the finest grid: every grid reads every
        # s-th time of its kernels, so each kernel is evaluated once
        fine = ModePropagator(lam, alpha, TimeGrid(1.0, grids[-1]).nodes)
        errs = []
        for M in grids:
            g = TimeGrid(1.0, M)
            t = g.nodes
            prop = fine.at(slice(None, None, grids[-1] // M))
            second = mode_second_derivative_samples(prop, 1.0, 0.0, g)[0]
            cap = caputo_derivative(SampledPath(g, second), alpha)
            target = prop.caputo(1.0, 0.0)[0]
            sel = t >= 0.05
            num = np.sqrt(np.trapezoid((cap.values[sel] - target[sel]) ** 2, t[sel]))
            den = np.sqrt(np.trapezoid(target[sel] ** 2, t[sel]))
            errs.append(num / den)
        order = fit_loglog_slope([1.0 / m for m in grids], errs)
        details[str(alpha)] = {"errors": errs, "order": order}
        passed &= (errs[-1] < errs[0]) and order >= 0.5
    return CheckResult("mode-ode-residual", passed, details)


def check_initial_data_continuity() -> CheckResult:
    """Energy-norm convergence to the data and the dual-velocity rate."""
    alpha, theta = 1.5, 0.4
    t_seq = 2.0 ** (-np.arange(4, 15, dtype=float))
    details = {}

    dom1 = build_interval(1.0, 8)
    table = initial_convergence(dom1, single_mode(8, 1), alpha, theta, t_seq)
    h1 = table["h1_error"]
    vel = table["velocity_error"]
    mono = bool(np.all(np.diff(h1) < 0) and np.all(np.diff(vel) < 0))
    details["single_mode"] = {
        "h1_final": float(h1[-1]),
        "velocity_final": float(vel[-1]),
        "monotone": mono,
    }
    passed = mono and h1[-1] <= 1e-4

    # near-saturating data realizes the envelope exponent
    dom2 = build_interval(1.0, 2048)
    table2 = initial_convergence(dom2, h1_saturating(2048, 0.05), alpha, theta, t_seq)
    slope = fit_loglog_slope(table2["t"], table2["velocity_error"])
    target = (alpha - 2.0 + 2.0 * alpha * theta) / 2.0
    details["velocity_slope"] = {"fitted": slope, "target": target}
    passed &= abs(slope - target) <= 0.1
    return CheckResult("initial-data-continuity", passed, details)


def check_velocity_blowup() -> CheckResult:
    """Short-time velocity growth exponent alpha - 1 for position data."""
    details = {}
    passed = True
    dom = build_interval(1.0, 4)
    for alpha in _ALPHAS:
        fit = velocity_blowup_rate(dom, single_mode(4, 1), alpha)
        details[str(alpha)] = {"fitted": fit.exponent, "expected": fit.expected}
        passed &= abs(fit.exponent - fit.expected) <= 0.05
    return CheckResult("velocity-blowup-rate", passed, details)


def check_multiplier_identity(seed: int = 7) -> CheckResult:
    """1-d integration-by-parts identity, exact case plus random probes."""
    h = interval_multiplier(1.0)
    base = multiplier_identity_check(trig_test_function([1.0]), h)
    details = {"sine_case": base, "target": math.pi**2}
    passed = base["residual"] <= 1e-10 and abs(base["lhs"] - math.pi**2) <= 1e-10 * math.pi**2
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(seed + 100 + i)
        w = trig_test_function(rng.standard_normal(8))
        worst = max(worst, multiplier_identity_check(w, h)["residual"])
    details["random_worst"] = worst
    passed &= worst <= 1e-8
    return CheckResult("multiplier-identity", passed, details)


def check_trace_energy_bound(seed: int = 7) -> CheckResult:
    """Trace-energy over data-energy ratios: bounded, stable, route-consistent."""
    T, beta = 1.0, 0.25
    grid = TimeGrid(T, 192)
    details = {}
    passed = True
    # the draws, their tail checks, stacked coefficients and data energies
    # do not depend on alpha; the route reports take every fourth draw of
    # the first study and reuse its traces
    dom64, dom128 = build_interval(1.0, 64), build_interval(1.0, 128)
    draws = _draws(dom64, [random_decay(64, 2.0, seed + i) for i in range(100)], grid)
    draws_re = _draws(dom64, [random_decay(64, 2.0, seed + 1000 + i) for i in range(100)], grid)
    draws128 = _draws(dom128, [random_decay(128, 2.0, seed + i) for i in range(100)], grid)
    routes = range(0, len(draws.energies), 4)
    for alpha in _ALPHAS:
        # one propagator per alpha: the 64-mode studies read the leading rows
        # of the 128-mode kernels, so each kernel is evaluated once
        prop128 = ModePropagator(dom128.eigenvalues, alpha, grid.nodes)
        study128 = _ratio_study(prop128, draws128)
        prop64 = prop128.head(64)
        study = _ratio_study(prop64, draws, keep=routes)
        study_re = _ratio_study(prop64, draws_re)

        reps = _route_reports(dom64, grid, [draws.energies[i] for i in routes], prop64.alpha, beta,
                              [study.traces[i].as_path() for i in routes if i in study.traces])
        cross = np.asarray([rep.cross_ratio for rep in reps])
        bracket = float(np.max(cross) / np.min(cross))

        r0, r1, r2 = study.max_ratio, study_re.max_ratio, study128.max_ratio
        ok = (
            math.isfinite(r0)
            and 0.5 <= r1 / r0 <= 2.0
            and 0.5 <= r2 / r0 <= 2.0
            and bracket < 100.0
        )
        details[str(alpha)] = {
            "max_ratio": r0, "reseeded": r1, "enriched": r2,
            "route_bracket": bracket, "skipped": study.skipped,
        }
        passed &= ok
    return CheckResult("trace-energy-bound", passed, details)


def check_integrated_identity() -> CheckResult:
    """Integrated multiplier identity: small residual, halving under refinement."""
    alpha, beta = 1.75, 0.25
    dom = build_interval(1.0, 8)
    data = single_mode(8, 1)
    res = {}
    for M in (1024, 2048):
        res[M] = fractional_identity_check(dom, data, alpha, beta, TimeGrid(1.0, M)).residual
    ratio = res[2048] / res[1024]
    passed = res[1024] <= 5e-2 and 0.4 <= ratio <= 0.6
    return CheckResult(
        "integrated-identity", passed,
        {"alpha": alpha, "beta": beta, "residual_M1024": res[1024],
         "residual_M2048": res[2048], "doubling_ratio": ratio},
    )


ALL_CHECKS = (
    check_ml_identities,
    check_decay_envelope,
    check_kernel_peak,
    check_frac_integral_suite,
    check_norm_equivalence,
    check_mode_ode_residual,
    check_initial_data_continuity,
    check_velocity_blowup,
    check_multiplier_identity,
    check_trace_energy_bound,
    check_integrated_identity,
)


# Cold ms of each check by function name (by name, so a wrapped check keeps
# its cost): the median of 15 fresh processes per check at seed 7 on a 2-core
# x86 host, taken in rounds over all the checks, each timing one call,
#   python -c "import time; from fracwave import verify; t = time.perf_counter();
#              verify.check_trace_energy_bound(7); print(time.perf_counter() - t)"
# The host's speed moves all of them together by up to about 1.6 times from
# run to run; the shares read only their ratios
_COLD_MS = dict(
    check_trace_energy_bound=132, check_ml_identities=87, check_initial_data_continuity=66,
    check_mode_ode_residual=30, check_norm_equivalence=29, check_integrated_identity=27,
    check_multiplier_identity=19, check_kernel_peak=12, check_decay_envelope=8,
    check_velocity_blowup=7, check_frac_integral_suite=4)


def _shares(width: int) -> list[list[int]]:
    """ALL_CHECKS indices in ``min(width, len(ALL_CHECKS))`` shares: longest
    first, each to the least-loaded share, on a tie the one of fewer checks."""
    cost = [_COLD_MS.get(fn.__name__, 0) for fn in ALL_CHECKS]
    shares = [[] for _ in range(min(width, len(ALL_CHECKS)))]
    for i in sorted(range(len(ALL_CHECKS)), key=lambda i: -cost[i]):
        min(shares, key=lambda share: (sum(cost[j] for j in share), len(share))).append(i)
    return shares


def _run_check(check, seed: int) -> CheckResult:
    """``check(seed)`` if the check takes a seed, else ``check()`` (a
    ``functools.wraps`` wrapper reports the signature of its check)."""
    return check(seed) if "seed" in inspect.signature(check).parameters else check()


def run_all(seed: int = 7) -> list[CheckResult]:
    """Every check, the randomized ones at ``seed``, in ALL_CHECKS order,
    run as the module docstring says; a check that raises in a child
    re-raises here."""
    shares = _shares(_fork_width())

    def checks(share):
        return [_run_check(ALL_CHECKS[i], seed) for i in share]

    done = {}
    jobs = [lambda fh, share=share: pickle.dump(checks(share), fh) for share in shares]
    with _forked(jobs if len(shares) > 1 else []) as join:
        for k, share in enumerate(shares):
            fh = join(k)
            done.update(zip(share, checks(share) if fh is None else pickle.load(fh)))
    return [done[i] for i in range(len(ALL_CHECKS))]


def report_lines(results) -> list[str]:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return lines
