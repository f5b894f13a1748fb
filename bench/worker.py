"""Child-process side of the benchmark.

Every request the benchmark times runs in a fresh interpreter started from
``run.py``, which imports ``fracwave`` from the checkout's ``src``:

    python3 bench/worker.py cli    --report R [--trace] -- <fracwave argv>
    python3 bench/worker.py sweep  --report R [--trace] --seed S [sizes]
    python3 bench/worker.py check-solve --report R --csv F --domain D ...

``cli`` runs ``fracwave.cli.main`` in-process (tracing optionally on) and
records how long ``main`` took.  ``sweep`` is one alpha-sweep request: one
``solve_field`` per alpha of a fixed grid over (1, 2), each under a
deadline, timed after ``import fracwave``.
``check-solve`` checks a snapshot CSV written by ``fracwave solve``.  Each
mode writes one JSON report.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import fracwave  # noqa: E402
from tracer import ML, Tracer  # noqa: E402

WHICH = ("value", "velocity", "caputo")
SWEEP_BINS = 10
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Per-solve deadline of the alpha sweep: at least three times its slowest
# solve on the grid (1.1-1.3 s on a 2-core x86 host).
DEADLINE_S = 6.0
SPOT_CHECKS = 8
# Per-band time budget of the ``ml`` replay that gives ``Mvals_per_s_m_*``.
RETIME_BUDGET_S = 2.0


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a request runs past its deadline.

    A ``BaseException`` so that no ``except Exception`` in the package can
    swallow it.
    """


@contextmanager
def deadline(seconds: float):
    def _expire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


def _layer_report(tracer: Tracer) -> dict[str, float]:
    """Raw per-layer numbers; ``run.py`` merges processes and forms ratios."""
    metrics = tracer.layer_metrics()
    counts, bands = tracer.ml_bands()
    metrics.update(counts)
    ml = tracer.originals[ML]
    for band, items in bands.items():
        done, busy = retime_ml(ml, items, RETIME_BUDGET_S)
        metrics[f"{ML}.retime_values_m_{band}"] = float(done)
        metrics[f"{ML}.retime_s_m_{band}"] = busy
    return metrics


def retime_ml(ml, items, budget_s: float) -> tuple[int, float]:
    """Replay captured ``ml`` inputs of one band; returns (values, seconds).

    Groups are replayed in capture order in chunks of at most 8,192 values
    until ``budget_s`` is spent.  A chunk cut off by the budget, or raising
    ``ValueError``, counts its time but none of its values.
    """
    done = 0
    busy = 0.0
    for alpha, beta, z in items:
        for start in range(0, z.size, 8192):
            left = budget_s - busy
            if left <= 0.0:
                return done, busy
            chunk = z[start:start + 8192]
            t0 = time.perf_counter()
            try:
                with deadline(left):
                    ml(fracwave.MLParams(alpha, beta), chunk)
                done += chunk.size
            except (ValueError, DeadlineExceeded):
                pass
            busy += time.perf_counter() - t0
    return done, busy


# ---------------------------------------------------------------------------
# cli


def cmd_cli(args) -> int:
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    import fracwave.cli

    t0 = time.perf_counter()
    status = fracwave.cli.main(args.argv)
    main_s = time.perf_counter() - t0
    report = {"status": status, "main_s": main_s}
    if tracer:
        report["layers"] = _layer_report(tracer)
    _write(args.report, report)
    return status


# ---------------------------------------------------------------------------
# alpha sweep


def sweep_alphas(per_bin: int) -> np.ndarray:
    """The alpha grid: ``per_bin`` alphas in each 0.1-wide bin of (1, 2).

    The grid is offset by the golden-ratio fraction, so no alpha sits on a
    rational with a small denominator (1.25, 1.5, 1.75, ...), where vanishing
    gamma coefficients let the fast tiers accept everything.
    """
    n = SWEEP_BINS * per_bin
    return 1.0 + (np.arange(n) + GOLDEN) / n


def cmd_sweep(args) -> int:
    from fracwave import FracOrder, SolutionQuery, TimeGrid, build_interval, synthesize
    from fracwave.mittag_leffler import ml
    from fracwave.presets import random_decay

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    solve_field = sys.modules["fracwave.solver"].solve_field  # wrapped when tracing

    n, steps, npts = args.modes, args.steps, args.points
    domain = build_interval(1.0, n)
    points = np.linspace(0.0, 1.0, npts)
    grid = TimeGrid(1.0, steps)
    data_rng, pick_rng = (np.random.default_rng([args.seed, k]) for k in (0, 1))
    requests = []
    failures: list[str] = []
    spot = []
    busy = 0.0
    for j, alpha in enumerate(sweep_alphas(args.per_bin)):
        alpha = float(alpha)
        which = WHICH[j % len(WHICH)]
        data = random_decay(n, 2.0, int(data_rng.integers(2**31)))
        query = SolutionQuery(FracOrder(alpha), domain, data, grid, which)
        outcome = "ok"
        t0 = time.perf_counter()
        try:
            with deadline(DEADLINE_S):
                field = solve_field(query, points)
        except DeadlineExceeded:
            outcome = "deadline"
        except ValueError as exc:
            outcome = "error: " + str(exc).split(";")[0][:120]
        seconds = time.perf_counter() - t0
        busy += seconds
        if outcome == "ok":
            problem = _check_field(field, query, points, synthesize)
            if problem:
                outcome = "wrong: " + problem
                failures.append(f"alpha={alpha!r} {which}: {problem}")
            else:
                spot.append(_spot_pick(pick_rng, query))
        requests.append({"alpha": alpha, "which": which, "seconds": seconds,
                         "outcome": outcome, "values": n * (steps + 1)})
    picks = [spot[i] for i in pick_rng.choice(len(spot), min(len(spot), SPOT_CHECKS),
                                              replace=False)] if spot else []
    failures += _spot_check(ml, picks)
    report = {"wall_s": busy, "requests": requests, "check_failures": failures,
              "spot_checks": len(picks)}
    if tracer:
        report["layers"] = _layer_report(tracer)
    _write(args.report, report)
    return 0


def _check_field(field, query, points, synthesize) -> str:
    shape = (query.tgrid.steps + 1, len(points))
    if field.shape != shape:
        return f"shape {field.shape} != {shape}"
    if not np.all(np.isfinite(field)):
        return "non-finite values"
    if query.which == "value":
        ref = synthesize(query.domain, query.data.a, points)
        err = float(np.max(np.abs(field[0] - ref)))
        if err > 1e-12 * max(1.0, float(np.max(np.abs(ref)))):
            return f"t=0 row differs from synthesize(u0) by {err:.3g}"
    return ""


def _spot_pick(rng, query):
    """One (alpha, beta, z) the request evaluated, with cheap m <= 12."""
    alpha = query.alpha.alpha
    beta = {"value": 2.0, "caputo": 1.0, "velocity": alpha}[query.which]
    lam = query.domain.eigenvalues
    t = query.tgrid.nodes[1:]
    z = -np.outer(lam, t**alpha)
    cand = np.flatnonzero(np.abs(z) ** (1.0 / alpha) <= 12.0)
    return alpha, beta, float(z.flat[cand[rng.integers(cand.size)]])


def _spot_check(ml, picks) -> list[str]:
    """Compare package ``ml`` with the independent series oracle."""
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import ml_series_ref

    bad = []
    for alpha, beta, z in picks:
        ref = ml_series_ref(alpha, beta, z)
        got = float(ml(fracwave.MLParams(alpha, beta), z))
        if not abs(got - ref) <= 1e-10 * abs(ref) + 1e-15:
            bad.append(f"E_{{{alpha!r},{beta!r}}}({z!r}) = {got!r}, oracle {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# solve output check


def cmd_check_solve(args) -> int:
    from fracwave.presets import build_preset

    rows = np.loadtxt(args.csv, delimiter=",", skiprows=1, ndmin=2)
    kind, _, dims = args.domain.partition(":")
    lengths = [float(v) for v in dims.split(",")]
    if kind == "interval":
        domain = fracwave.build_interval(lengths[0], args.modes)
    else:
        domain = fracwave.build_rectangle(lengths[0], lengths[1], args.modes)
    problems = []
    if domain.is_interval:
        points = np.linspace(0.0, domain.lengths[0], args.points)
    else:
        px = np.linspace(0.0, domain.lengths[0], args.points)
        py = np.linspace(0.0, domain.lengths[1], args.points)
        PX, PY = np.meshgrid(px, py, indexing="ij")
        points = np.stack([PX.ravel(), PY.ravel()], axis=1)
    shape = (args.steps + 1, 1 + len(points))
    if rows.shape != shape:
        problems.append(f"{args.csv}: shape {rows.shape} != {shape}")
    elif not np.all(np.isfinite(rows)):
        problems.append(f"{args.csv}: non-finite values")
    else:
        data = build_preset(args.preset, domain, seed=args.seed)
        ref = fracwave.synthesize(domain, data.a, points)
        err = float(np.max(np.abs(rows[0, 1:] - ref)))
        if rows[0, 0] != 0.0 or err > 1e-12 * max(1.0, float(np.max(np.abs(ref)))):
            problems.append(f"{args.csv}: t=0 row differs from synthesize(u0) by {err:.3g}")
    _write(args.report, {"problems": problems})
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for name in ("cli", "sweep", "check-solve"):
        s = sub.add_parser(name)
        s.add_argument("--report", required=True)
        s.add_argument("--trace", action="store_true")
    c = sub.choices["cli"]
    c.add_argument("argv", nargs=argparse.REMAINDER)
    s = sub.choices["sweep"]
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--per-bin", type=int, default=3)
    s.add_argument("--modes", type=int, default=256)
    s.add_argument("--steps", type=int, default=32)
    s.add_argument("--points", type=int, default=65)
    k = sub.choices["check-solve"]
    for flag in ("--csv", "--domain", "--preset"):
        k.add_argument(flag, required=True)
    for flag in ("--modes", "--steps", "--points", "--seed"):
        k.add_argument(flag, type=int, required=True)
    args = p.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cmd_cli(args)
    return {"sweep": cmd_sweep, "check-solve": cmd_check_solve}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
