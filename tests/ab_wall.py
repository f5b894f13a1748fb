"""Interleaved wall-time pairs of one ``fracwave`` command on two source trees.

    python tests/ab_wall.py OLD_SRC NEW_SRC [--pairs N] -- <fracwave args>

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories, each holding a
``fracwave`` package (for example ``src`` of a ``git archive`` of the parent
commit, and ``src`` of the working tree).  Each side runs from a copy of its
package without ``__pycache__``, as a fresh checkout does: a tree with valid
bytecode skips compiling the package (about 50 ms a run where
``PYTHONDONTWRITEBYTECODE`` is set), which would favour it.  Each pair runs
``python -m fracwave.cli <fracwave args>`` once on each copy, each in a
fresh process with that copy first on ``PYTHONPATH``, inside that side's own
temporary directory (so ``--out`` files do not clash); the side that runs
first alternates from pair to pair, so a drift in the host's load falls on
both alike.  Prints per side the median and quartiles of the wall seconds,
the number of pairs that side was faster in, and the peak resident set size
``wait4`` reports, both the largest over its runs and their median (a
largest over processes reads higher when more of them run), then the change
of the median.  Exits 1 if a run fails, 2 on a usage error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from output_digests import run


def _usage(message: str) -> int:
    print(f"error: {message}\n\n{__doc__.strip()}", file=sys.stderr)
    return 2


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure(srcs: dict, args: list[str], pairs: int) -> dict:
    """``{side: [(wall_s, peak_rss_mb), ...]}``, one entry per pair."""
    runs = {side: [] for side in srcs}
    sides = list(srcs)
    with tempfile.TemporaryDirectory() as tmp:
        for side in sides:
            (Path(tmp) / side / "run").mkdir(parents=True)
            shutil.copytree(srcs[side] / "fracwave", Path(tmp) / side / "src" / "fracwave",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(pairs):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                runs[side].append(run([sys.executable, "-m", "fracwave.cli", *args],
                                      cwd=Path(tmp) / side / "run",
                                      env=_env(Path(tmp) / side / "src"),
                                      stdout=subprocess.DEVNULL))
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
    if "--" not in argv:
        return _usage("missing '--' before the fracwave arguments")
    cut = argv.index("--")
    head, args = argv[:cut], argv[cut + 1 :]
    pairs = 10
    if len(head) == 4 and head[2] == "--pairs":
        try:
            pairs = int(head[3])
        except ValueError:
            return _usage(f"--pairs: expected an integer, got {head[3]!r}")
        head = head[:2]
    if len(head) != 2 or pairs < 1 or not args:
        return _usage("expected OLD_SRC NEW_SRC [--pairs N >= 1] -- <fracwave args>")
    srcs = {side: Path(src).resolve() for side, src in zip(("old", "new"), head)}
    for side, src in srcs.items():
        if not (src / "fracwave" / "__init__.py").is_file():
            return _usage(f"{side} source {src} holds no fracwave package")
    try:
        runs = measure(srcs, args, pairs)
    except subprocess.CalledProcessError as exc:
        print(f"failed: fracwave {' '.join(exc.cmd[3:])}", file=sys.stderr)
        return 1
    print("\n".join(report(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
