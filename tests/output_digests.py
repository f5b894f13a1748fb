"""sha256 of every file the reference commands write, one line per file.

    python tests/output_digests.py [WORKDIR]

Runs each command of ``COMMANDS`` as ``python -m fracwave.cli ...`` in a
fresh process, inside ``WORKDIR`` (a new temporary directory when none is
given, removed afterwards), on the package next to this file.  Prints
``<sha256>  <file>`` per output, as ``sha256sum`` does, so a change that
claims to keep every output byte can show it by comparing this listing
before and after.  Each command's wall seconds and peak resident set size,
as ``wait4`` reports it, go to standard error.  Exits 1 if a command fails.
"""

from __future__ import annotations

import hashlib
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
    """``(sha256, file name)`` of every output of ``COMMANDS`` run in ``workdir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for args, files in COMMANDS:
        wall, rss = run([sys.executable, "-m", "fracwave.cli", *args], cwd=workdir, env=env,
                        stdout=subprocess.DEVNULL)
        print(f"wall {wall:6.2f} s  peak RSS {rss:6.1f} MB  fracwave {' '.join(args)}",
              file=sys.stderr)
        out += [(sha256(workdir / name), name) for name in files]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if args:
            found = digests(Path(args[0]))
        else:
            with tempfile.TemporaryDirectory() as tmp:
                found = digests(Path(tmp))
    except subprocess.CalledProcessError as exc:
        print(f"failed: fracwave {' '.join(exc.cmd[3:])}", file=sys.stderr)
        return 1
    print("\n".join(f"{digest}  {name}" for digest, name in found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
