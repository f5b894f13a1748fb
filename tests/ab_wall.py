"""Interleaved wall-time pairs of one ``fracwave`` command, or of the alpha
sweep, on two source trees.

    python tests/ab_wall.py OLD_SRC NEW_SRC [--pairs N] -- <fracwave args>
    python tests/ab_wall.py OLD_SRC NEW_SRC [--pairs N] --sweep SEED

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories, each holding a
``fracwave`` package (for example ``src`` of a ``git archive`` of the parent
commit, and ``src`` of the working tree).  Each side runs from a copy of its
package without ``__pycache__``, as a fresh checkout does: a tree with valid
bytecode skips compiling the package (about 50 ms a run where
``PYTHONDONTWRITEBYTECODE`` is set), which would favour it.  Each pair runs
once on each copy, each run in a fresh process with that copy first on
``PYTHONPATH``, inside that side's own temporary directory (so ``--out``
files do not clash); the side that runs first alternates from pair to pair,
so a drift in the host's load falls on both alike.  A run is ``python -m
fracwave.cli <fracwave args>``, timed as a whole, or with ``--sweep`` the
solves of ``output_digests.write_sweep`` for that seed, at the sizes of
``output_digests.SWEEP``, timed as the summed seconds of their
``solve_field`` calls.  Prints per side the median and quartiles of those
seconds, the number of pairs that side was faster in, and the peak resident
set size ``wait4`` reports, both the largest over its runs and their median
(a largest over processes reads higher when more of them run), then the
change of the median.  Exits 1 if a run fails, 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import output_digests
from output_digests import run

# one sweep run: imports the side's copy of fracwave (first on PYTHONPATH)
# before output_digests can put the tree next to it on the path, then prints
# the summed solve seconds of the sweep of seed argv[2] at sizes argv[3]
_SWEEP_RUN = """
import json, sys
import fracwave
sys.path.insert(0, sys.argv[1])
from output_digests import sweep_fields
print(repr(sum(s for s, _ in sweep_fields(int(sys.argv[2]), json.loads(sys.argv[3])))))
"""


def _usage(message: str) -> int:
    print(f"error: {message}\n\n{__doc__.strip()}", file=sys.stderr)
    return 2


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure(srcs: dict, args: list[str], pairs: int, sweep: int | None = None) -> dict:
    """``{side: [(seconds, peak_rss_mb), ...]}``, one entry per pair: the
    wall seconds of ``fracwave <args>``, or where ``sweep`` is a seed the
    summed solve seconds of that sweep."""
    runs = {side: [] for side in srcs}
    sides = list(srcs)
    with tempfile.TemporaryDirectory() as tmp:
        for side in sides:
            (Path(tmp) / side / "run").mkdir(parents=True)
            shutil.copytree(srcs[side] / "fracwave", Path(tmp) / side / "src" / "fracwave",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                cwd, env = Path(tmp) / side / "run", _env(Path(tmp) / side / "src")
                if sweep is None:
                    runs[side].append(run([sys.executable, "-m", "fracwave.cli", *args], cwd=cwd,
                                          env=env, stdout=subprocess.DEVNULL))
                    continue
                with open(cwd / "sweep_s", "w+") as out:
                    _, rss = run([sys.executable, "-c", _SWEEP_RUN, str(Path(__file__).parent),
                                  str(sweep), json.dumps(output_digests.SWEEP)],
                                 cwd=cwd, env=env, stdout=out)
                    out.seek(0)
                    runs[side].append((float(out.read()), rss))
    return runs


def report(runs: dict) -> list[str]:
    old, new = (np.array([wall for wall, _ in runs[side]]) for side in ("old", "new"))
    wins = {"old": int(np.sum(old < new)), "new": int(np.sum(new < old))}
    lines = [f"{'side':4}  {'median_s':>8}  {'q1_s':>6}  {'q3_s':>6}  {'wins':>7}  "
             "peak_rss_mb  median_rss_mb"]
    for side, walls in (("old", old), ("new", new)):
        q1, med, q3 = np.percentile(walls, [25, 50, 75])
        rss = [mb for _, mb in runs[side]]
        lines.append(f"{side:4}  {med:8.3f}  {q1:6.3f}  {q3:6.3f}  "
                     f"{wins[side]:>3}/{walls.size:<3}  {max(rss):11.1f}  {np.median(rss):13.1f}")
    change = np.median(new) / np.median(old) - 1.0
    lines.append(f"median wall change: {change:+.1%} ({wins['new']} of {new.size} pairs faster)")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    sweep = None
    if "--" in argv:
        cut = argv.index("--")
        head, args = argv[:cut], argv[cut + 1 :]
    elif len(argv) >= 4 and argv[-2] == "--sweep":
        head, args = argv[:-2], []
        try:
            sweep = int(argv[-1])
        except ValueError:
            return _usage(f"--sweep: expected an integer seed, got {argv[-1]!r}")
    else:
        return _usage("missing '--' before the fracwave arguments, or '--sweep SEED'")
    pairs = 10
    if len(head) == 4 and head[2] == "--pairs":
        try:
            pairs = int(head[3])
        except ValueError:
            return _usage(f"--pairs: expected an integer, got {head[3]!r}")
        head = head[:2]
    if len(head) != 2 or pairs < 1 or not (args or sweep is not None):
        return _usage("expected OLD_SRC NEW_SRC [--pairs N >= 1] -- <fracwave args> "
                      "or --sweep SEED")
    srcs = {side: Path(src).resolve() for side, src in zip(("old", "new"), head)}
    for side, src in srcs.items():
        if not (src / "fracwave" / "__init__.py").is_file():
            return _usage(f"{side} source {src} holds no fracwave package")
    try:
        runs = measure(srcs, args, pairs, sweep)
    except subprocess.CalledProcessError as exc:
        what = f"fracwave {' '.join(exc.cmd[3:])}"
        print(f"failed: {what if sweep is None else f'alpha sweep, seed {sweep}'}", file=sys.stderr)
        return 1
    print("\n".join(report(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
