"""Outside-in benchmark of the fracwave package.

    python3 bench/run.py --workload verify --seed 7 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``verify``       one ``fracwave verify all --seed <s>`` subprocess per request;
* ``solve-large``  two ``fracwave solve`` subprocesses per request (a large
                   interval solve and a many-mode rectangle solve);
* ``alpha-sweep``  one worker process per request that, after ``import
                   fracwave``, runs ``solve_field`` over a fixed grid of alphas
                   covering (1, 2), each solve under a deadline.

One client sends requests in a closed loop (the next starts when the last
has exited) until ``--seconds`` have passed.  Child processes get at most two
BLAS/OpenMP threads.  ``--trace 0`` reports the end-to-end metrics, with
times scaled to a reference host speed; ``--trace 1`` reports the per-layer
metrics of a traced run next to an untraced one.
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file uses the standard library only: the benchmark's own process stays
small, and all package work happens in the child processes it times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
PY = sys.executable or "python3"

THREADS = "2"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Children still running this long after the benchmark started are killed,
# so that a hung request cannot keep the run past three minutes.
KILL_AFTER_S = 170.0
SETUP_REPEATS = 3
VERIFY_CRITERIA = 11
# Reference duration of ``host_tick``: times are reported at the host speed
# at which the tick takes this long.
REF_TICK_S = 0.25

# Request sizes.  ``tiny`` exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "solves": [
            ["--modes", "512", "--steps", "512", "--points", "513"],
            ["--domain", "rectangle:1.0,1.5", "--modes", "16384", "--steps", "16",
             "--points", "9"],
        ],
        "sweep": {"modes": 256, "steps": 32, "points": 65, "per-bin": 3},
        "setup_repeats": SETUP_REPEATS,
    },
    "tiny": {
        "solves": [
            ["--modes", "16", "--steps", "8", "--points", "9"],
            ["--domain", "rectangle:1.0,1.5", "--modes", "64", "--steps", "4",
             "--points", "3"],
        ],
        "sweep": {"modes": 16, "steps": 8, "points": 9, "per-bin": 1},
        "setup_repeats": 1,
    },
}

# Per-layer metrics reported by ``--trace 1`` are the ``per_layer`` list of
# BENCHMARK.json; names absent from a workload's trace read 0.
SPEC = ROOT / "BENCHMARK.json"
ML = "mittag_leffler.ml"


class Failure(Exception):
    """A request that failed: non-zero exit or missed deadline."""


class WrongOutput(Failure):
    """A request whose output failed its check."""


class Child:
    """Runs child processes with pinned threads and records their cost."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({v: THREADS for v in THREAD_VARS})
        self.peak_rss_mb = 0.0
        self.processes = 0
        self.kill_at = time.perf_counter() + KILL_AFTER_S

    def run(self, argv: list[str], log: str, request: bool = True) -> tuple[int, float]:
        """Run to completion; returns (exit code, wall seconds).

        Only request processes count towards ``peak_rss_mb``; set-up
        samples and output checkers do not.
        """
        with open(self.workdir / f"{log}.out", "wb") as out, \
                open(self.workdir / f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.kill_at - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if request:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
            self.processes += 1
        return proc.returncode, wall

    def stderr_tail(self, log: str) -> str:
        text = (self.workdir / f"{log}.err").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""

    def worker(self, args: list[str], log: str, request: bool = True) -> dict:
        report = self.workdir / f"{log}.json"
        report.unlink(missing_ok=True)
        code, _ = self.run([PY, str(WORKER), args[0], "--report", str(report)] + args[1:],
                           log, request)
        if code != 0 or not report.exists():
            raise Failure(f"worker {args[0]} exited {code}: {self.stderr_tail(log)}")
        return json.loads(report.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def host_tick() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    It takes about ``REF_TICK_S`` on a quiet 2-core x86 host and up to 40%
    longer while other tenants load the machine.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(4_000_000):
        acc += k * k
    return time.perf_counter() - t0


def measure_setup(child: Child) -> float:
    """Seconds from a fresh interpreter to a completed ``import fracwave``."""
    code, wall = child.run([PY, "-c", "import fracwave"], "setup", request=False)
    if code != 0:
        raise SystemExit(f"error: import fracwave failed: {child.stderr_tail('setup')}")
    return wall


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One named workload; ``i`` numbers the requests of a run.

    ``request`` returns (wall seconds, mode values in millions, per-solve
    success flags); ``traced`` returns (raw layer metrics, traced seconds,
    untraced seconds, success flags) from a traced and an untraced copy of
    one request.  Both raise ``Failure`` for a request that failed as a
    whole.
    """

    def __init__(self, child: Child, seed: int, size: dict):
        self.child, self.seed, self.size = child, seed, size
        self.notes: dict = {}


class Verify(Workload):
    """``fracwave verify all``: the lab's headline command."""

    def _argv(self) -> list[str]:
        self.report.unlink(missing_ok=True)
        return ["verify", "all", "--seed", str(self.seed), "--out", self.report.name]

    @property
    def report(self) -> Path:
        return self.child.workdir / "report.json"

    def _check(self) -> None:
        if not self.report.exists():
            raise Failure("verify wrote no report")
        criteria = json.loads(self.report.read_text())["criteria"]
        passed = sum(c["passed"] for c in criteria)
        if len(criteria) < VERIFY_CRITERIA or passed != len(criteria):
            raise WrongOutput(f"verify passed {passed}/{len(criteria)} criteria")
        digest = sha256(self.report)
        if digest != self.notes.setdefault("report_sha256", digest):
            raise WrongOutput("verify report differs between reruns of one seed")

    def request(self, i):
        code, wall = self.child.run([PY, "-m", "fracwave.cli"] + self._argv(), "verify")
        if code not in (0, 1):  # 1: a criterion failed, which the check reports
            raise Failure(f"verify exited {code}: {self.child.stderr_tail('verify')}")
        self._check()
        return wall, 0.0, [True]

    def traced(self, i):
        plain = self.child.worker(["cli", "--"] + self._argv(), "plain")
        self._check()
        traced = self.child.worker(["cli", "--trace", "--"] + self._argv(), "traced")
        self._check()
        return traced["layers"], traced["main_s"], plain["main_s"], [True]


class SolveLarge(Workload):
    """Two ``fracwave solve`` runs: memory, assembly, CSV and rectangle layers."""

    def _argv(self, k: int) -> list[str]:
        for path in self._outputs(k):
            path.unlink(missing_ok=True)
        return (["solve", "--preset", "random-decay", "--seed", str(self.seed),
                 "--out-prefix", f"solve{k}"] + self.size["solves"][k])

    def _outputs(self, k: int) -> tuple[Path, Path]:
        return (self.child.workdir / f"solve{k}_snapshots.csv",
                self.child.workdir / f"solve{k}_manifest.json")

    def _option(self, k: int, flag: str, default: str = "") -> str:
        opts = self.size["solves"][k]
        return opts[opts.index(flag) + 1] if flag in opts else default

    def _check(self, k: int) -> None:
        """Full check of the first output; later reruns must match its bytes."""
        csv, manifest = self._outputs(k)
        if not (csv.exists() and manifest.exists()):
            raise WrongOutput(f"solve {k} wrote no snapshot or manifest")
        digest = sha256(csv)
        if digest != self.notes.setdefault(f"solve{k}_sha256", digest):
            raise WrongOutput(f"solve {k} output differs between reruns of one seed")
        if self.notes.get(f"solve{k}_checked"):
            return
        report = self.child.worker(
            ["check-solve", "--csv", str(csv), "--preset", "random-decay",
             "--domain", self._option(k, "--domain", "interval:1.0"),
             "--modes", self._option(k, "--modes"), "--steps", self._option(k, "--steps"),
             "--points", self._option(k, "--points"), "--seed", str(self.seed)],
            f"check{k}", request=False)
        if report["problems"]:
            raise WrongOutput("; ".join(report["problems"]))
        self.notes[f"solve{k}_checked"] = True

    def request(self, i):
        n = len(self.size["solves"])
        t0 = time.perf_counter()
        for k in range(n):
            code, _ = self.child.run([PY, "-m", "fracwave.cli"] + self._argv(k), f"solve{k}")
            if code != 0:
                raise Failure(f"solve {k} exited {code}: {self.child.stderr_tail(f'solve{k}')}")
        wall = time.perf_counter() - t0
        for k in range(n):
            self._check(k)
        values = sum(int(self._option(k, "--modes")) * (int(self._option(k, "--steps")) + 1)
                     for k in range(n))
        return wall, values / 1e6, [True] * n

    def traced(self, i):
        layers, traced_s, plain_s = [], 0.0, 0.0
        for k in range(len(self.size["solves"])):
            plain = self.child.worker(["cli", "--"] + self._argv(k), f"plain{k}")
            self._check(k)
            traced = self.child.worker(["cli", "--trace", "--"] + self._argv(k), f"traced{k}")
            self._check(k)
            layers.append(traced["layers"])
            traced_s += traced["main_s"]
            plain_s += plain["main_s"]
        return merge_layers(layers), traced_s, plain_s, [True] * len(self.size["solves"])


class AlphaSweep(Workload):
    """``solve_field`` over a fixed alpha grid in one process, after import.

    Each solve of the grid counts as one attempted request; a solve that
    raises or misses its deadline counts as failed.
    """

    def _argv(self, i: int, trace: bool = False) -> list[str]:
        s = self.size["sweep"]
        return (["sweep"] + (["--trace"] if trace else [])
                + ["--seed", str(self.seed * 1000 + i)]
                + [f"--{k}={v}" for k, v in s.items()])

    def _account(self, report: dict) -> tuple[float, float, list[bool]]:
        if report["check_failures"]:
            raise WrongOutput("; ".join(report["check_failures"]))
        outcomes = self.notes.setdefault("outcomes", {})
        for r in report["requests"]:
            key = r["outcome"].split(":")[0]
            outcomes[key] = outcomes.get(key, 0) + 1
        self.notes["failed_alphas"] = sorted(
            round(r["alpha"], 4) for r in report["requests"] if r["outcome"] != "ok")
        self.notes["max_solve_s"] = max(self.notes.get("max_solve_s", 0.0),
                                        max(r["seconds"] for r in report["requests"]))
        self.notes["spot_checks"] = self.notes.get("spot_checks", 0) + report["spot_checks"]
        ok = [r["outcome"] == "ok" for r in report["requests"]]
        values = sum(r["values"] for r, good in zip(report["requests"], ok) if good)
        return report["wall_s"], values / 1e6, ok

    def request(self, i):
        return self._account(self.child.worker(self._argv(i), "sweep"))

    def traced(self, i):
        plain = self.child.worker(self._argv(i), "plain")
        traced = self.child.worker(self._argv(i, trace=True), "traced")
        if traced["check_failures"]:
            raise WrongOutput("; ".join(traced["check_failures"]))
        _, _, ok = self._account(plain)
        return traced["layers"], traced["wall_s"], plain["wall_s"], ok


WORKLOADS = {"verify": Verify, "solve-large": SolveLarge, "alpha-sweep": AlphaSweep}


def merge_layers(parts: list[dict]) -> dict:
    """Combine the raw layer reports of several processes of one request."""
    out: dict = {}
    for part in parts:
        for key, val in part.items():
            if key.endswith((".max_call_s", ".peak_mb")):
                out[key] = max(out.get(key, 0.0), val)
            else:
                out[key] = out.get(key, 0.0) + val
    return out


def finish_layers(raw: dict) -> dict:
    """Derived ratios from merged raw counts (see tracer.Tracer)."""
    out = dict(raw)
    values = raw.get(f"{ML}.values", 0.0)
    out[f"{ML}.repeat_frac"] = raw.get(f"{ML}.repeats", 0.0) / values if values else 0.0
    for band in ("le_12", "12_46", "gt_46"):
        busy = raw.get(f"{ML}.retime_s_m_{band}", 0.0)
        done = raw.get(f"{ML}.retime_values_m_{band}", 0.0)
        out[f"{ML}.Mvals_per_s_m_{band}"] = done / busy / 1e6 if busy > 0.0 else 0.0
    return out


# ---------------------------------------------------------------------------


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    lines = {p.stem: sum(1 for _ in p.open()) for p in sorted((SRC / "fracwave").glob("*.py"))}
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "child_threads": {v: THREADS for v in THREAD_VARS},
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def spread(values: list[float]) -> str:
    """Sample count and unscaled quartiles of one run's time samples."""
    if len(values) < 2:
        return f"median of {len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, unscaled q1={q[0]:.4g} q3={q[2]:.4g}"


def run(args) -> dict:
    size = SIZES[args.size]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        child = Child(workdir)
        workload = WORKLOADS[args.workload](child, args.seed, size)
        result = loop(args, child, workload, 0 if args.trace else size["setup_repeats"])
        result["env"] = environment()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def loop(args, child: Child, workload: Workload, setup_repeats: int) -> dict:
    """Closed loop of requests for ``args.seconds`` of request time.

    An untraced run times ``host_tick`` before each request and after the
    last, and reports its times at the reference host speed: scaled by
    ``REF_TICK_S`` over the run's median tick (bench/README.md,
    "Steadiness").  Set-up samples are taken before the first requests, one
    before each.  Neither ticks nor set-up count against ``args.seconds``.
    """
    setup, walls, ticks, values, layers, overheads = [], [], [], [], [], []
    attempted = failed = 0
    wrong: list[str] = []
    problems: list[str] = []
    t_start = time.perf_counter()
    outside = 0.0
    i = 0
    while i == 0 or time.perf_counter() - t_start - outside < args.seconds:
        t0 = time.perf_counter()
        if not args.trace:
            ticks.append(host_tick())
            if len(setup) < setup_repeats:
                setup.append(measure_setup(child))
        outside += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            if args.trace:
                raw, traced_s, plain_s, ok = workload.traced(i)
                layers.append(finish_layers(raw))
                overheads.append(traced_s - plain_s)
            else:
                wall, work, ok = workload.request(i)
                walls.append(wall)
                values.append(work)
            attempted += len(ok)
            failed += ok.count(False)
        except Failure as exc:
            if not args.trace:
                walls.append(time.perf_counter() - t0)  # failures still cost time
                values.append(0.0)
            attempted += 1
            failed += 1
            problems.append(str(exc))
            if isinstance(exc, WrongOutput):
                wrong.append(str(exc))
        i += 1

    result = {"problems": problems, "notes": workload.notes}
    if args.trace:
        metrics = {}
        for m in json.loads(SPEC.read_text())["per_layer"]:
            name, unit = m["name"], m["unit"]
            series = [lay.get(name, 0.0) for lay in layers] or [0.0]
            metrics[name] = {"value": statistics.median(series), "unit": unit}
        metrics["trace.overhead_s"]["value"] = statistics.median(overheads or [0.0])
    else:
        while len(setup) < setup_repeats:
            setup.append(measure_setup(child))
        ticks.append(host_tick())
        scale = REF_TICK_S / statistics.median(ticks)
        metrics = {
            "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
            "wall_s": {"value": statistics.median(walls) * scale, "unit": "s"},
            "peak_rss_mb": {"value": child.peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        result["samples"] = {"setup_s": spread(setup), "wall_s": spread(walls),
                             "peak_rss_mb": f"max of {child.processes} processes",
                             "ok_frac": f"{attempted - failed}/{attempted} requests"}
        result["extra"] = {
            "fail_frac": failed / attempted,
            "mode_Mvals_per_s": sum(values) / sum(walls) if any(values) else None,
            "unscaled_setup_s": statistics.median(setup),
            "unscaled_wall_s": statistics.median(walls),
            "host_tick_s": statistics.median(ticks),
        }
    result.update(correct=not wrong, attempted=attempted, failed=failed, metrics=metrics)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="request sizes; 'tiny' is for the smoke test only")
    args = p.parse_args(argv)
    if not (SRC / "fracwave" / "__init__.py").is_file():
        print(f"error: no fracwave package under {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    for key in ("problems", "notes", "env", "extra"):
        if key in result:
            print(f"{key}: {json.dumps(result.pop(key), sort_keys=True)}")
    samples = result.pop("samples", {})
    for name, m in result["metrics"].items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
