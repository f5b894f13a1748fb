"""sha256 of every file the reference commands write, one line per file.

    python tests/output_digests.py [--check LISTING] [WORKDIR]

Runs each command of ``COMMANDS`` as ``python -m fracwave.cli ...`` in a
fresh process, inside ``WORKDIR`` (a new temporary directory when none is
given, removed afterwards), on the package next to this file.  Then, in this
process, writes the alpha-sweep fields of each seed of ``SWEEP_SEEDS`` (see
``write_sweep``).  Prints ``<sha256>  <file>`` per output, as ``sha256sum``
does, so a change that claims to keep every output byte can show it by
comparing this listing before and after: ``--check LISTING`` compares it
with a listing saved from an earlier run and names each file whose digest
differs (or that only one listing holds) on standard error.  Each command's
wall seconds and peak resident set size, as ``wait4`` reports it, and each
sweep's wall seconds go to standard error.  Exits 1 if a command fails or a
checked digest differs, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (arguments of ``fracwave``, files the command writes): the acceptance
# reports of three seeds, the two large solves of the benchmark and the
# interval boundary trace of the trace-energy study
COMMANDS = tuple(
    [(["verify", "all", "--seed", str(seed), "--out", f"verify_seed{seed}.json"],
      [f"verify_seed{seed}.json"]) for seed in (7, 11, 23)]
    + [(["solve", "--preset", "random-decay", "--seed", "7", "--out-prefix", prefix] + opts,
        [f"{prefix}_snapshots.csv", f"{prefix}_manifest.json"])
       for prefix, opts in (
           ("interval", ["--modes", "512", "--steps", "512", "--points", "513"]),
           ("rectangle", ["--domain", "rectangle:1.0,1.5", "--modes", "16384",
                          "--steps", "16", "--points", "9"]))]
    + [(["hidden", "--seed", "7", "--out", "hidden.json", "--trace-out", "trace.csv"],
        ["hidden.json", "trace.csv"])]
)


# the benchmark's alpha sweep: 30 alphas over (1, 2) on the golden-offset
# grid, each one solve_field of the value, the velocity and the Caputo
# derivative in turn, with the data that ``bench/worker.py sweep --seed S``
# draws
SWEEP_SEEDS = (7000,)
SWEEP = {"modes": 256, "steps": 32, "points": 65, "per_bin": 3}


def sweep_fields(seed: int, sizes: dict | None = None):
    """Yield ``(seconds, field)`` for each solve of the alpha sweep of
    ``seed`` at ``sizes`` (``SWEEP`` by default), in alpha order: the wall
    seconds of its ``solve_field`` call alone, and the field it returned.
    Imports ``fracwave`` from the package next to this file unless it is
    imported already."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    from fracwave import FracOrder, SolutionQuery, TimeGrid, build_interval
    from fracwave.presets import random_decay
    from fracwave.solver import solve_field

    sizes = SWEEP if sizes is None else sizes
    n, per_bin = sizes["modes"], sizes["per_bin"]
    domain = build_interval(1.0, n)
    points = np.linspace(0.0, 1.0, sizes["points"])
    grid = TimeGrid(1.0, sizes["steps"])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    alphas = 1.0 + (np.arange(10 * per_bin) + golden) / (10 * per_bin)
    data_rng = np.random.default_rng([seed, 0])
    for j, alpha in enumerate(alphas):
        data = random_decay(n, 2.0, int(data_rng.integers(2**31)))
        which = ("value", "velocity", "caputo")[j % 3]
        query = SolutionQuery(FracOrder(float(alpha)), domain, data, grid, which)
        t0 = time.perf_counter()
        field = solve_field(query, points)
        yield time.perf_counter() - t0, field


def write_sweep(path: Path, seed: int) -> None:
    """Write the ``SWEEP`` fields of ``seed``, one after another in alpha
    order, as raw float64 bytes."""
    import numpy as np

    with open(path, "wb") as fh:
        for _, field in sweep_fields(seed):
            fh.write(np.ascontiguousarray(field, dtype=np.float64).tobytes())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv: list[str], **popen) -> tuple[float, float]:
    """Run ``argv`` to completion and return its wall seconds and its peak
    resident set size in MB; raises ``CalledProcessError`` if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_maxrss / 1024.0


def digests(workdir: Path) -> list[tuple[str, str]]:
    """``(sha256, file name)`` of every output of ``COMMANDS`` and of the
    sweeps, written in ``workdir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for args, files in COMMANDS:
        wall, rss = run([sys.executable, "-m", "fracwave.cli", *args], cwd=workdir, env=env,
                        stdout=subprocess.DEVNULL)
        print(f"wall {wall:6.2f} s  peak RSS {rss:6.1f} MB  fracwave {' '.join(args)}",
              file=sys.stderr)
        out += [(sha256(workdir / name), name) for name in files]
    for seed in SWEEP_SEEDS:
        name = f"sweep_seed{seed}.f64"
        t0 = time.perf_counter()
        write_sweep(workdir / name, seed)
        print(f"wall {time.perf_counter() - t0:6.2f} s  alpha sweep, seed {seed}", file=sys.stderr)
        out.append((sha256(workdir / name), name))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="output_digests.py", description=__doc__.strip(),
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workdir", nargs="?", type=Path)
    parser.add_argument("--check", metavar="LISTING", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.workdir:
            found = digests(args.workdir)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                found = digests(Path(tmp))
    except subprocess.CalledProcessError as exc:
        print(f"failed: fracwave {' '.join(exc.cmd[3:])}", file=sys.stderr)
        return 1
    print("\n".join(f"{digest}  {name}" for digest, name in found))
    if args.check is None:
        return 0
    saved = dict(line.split("  ", 1)[::-1] for line in args.check.read_text().splitlines()
                 if line.strip())
    now = {name: digest for digest, name in found}
    differ = sorted(name for name in saved.keys() | now.keys() if saved.get(name) != now.get(name))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
