"""Record the benchmark's baseline in ``bench/baseline.json``.

    python3 bench/baseline.py [--seed 7] [--seconds N]

Runs every workload of ``BENCHMARK.json`` once untraced and once traced and
writes each run's metrics, its ``extra`` and ``notes`` lines and the run
environment.  Takes about four minutes on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        key, sep, rest = line.partition(": ")
        if sep and key in ("problems", "notes", "env", "extra"):
            out[key] = json.loads(rest)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args(argv)
    record = {"recorded": time.strftime("%Y-%m-%d"), "seed": args.seed,
              "run_seconds": args.seconds, "workloads": {}}
    for w in spec["workloads"]:
        runs = {}
        for trace in (0, 1):
            print(f"{w['name']} trace={trace} ...", file=sys.stderr, flush=True)
            runs["traced" if trace else "untraced"] = run_once(
                spec, w["name"], args.seed, args.seconds, trace)
        record["env"] = runs["untraced"].pop("env", None)
        runs["traced"].pop("env", None)
        record["workloads"][w["name"]] = runs
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
