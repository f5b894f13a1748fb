"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/tests

Runs every workload once untraced and once traced with ``--size tiny``
(``verify`` has no smaller size and runs in full), and checks the result
line against the metric lists in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                              "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    elif workload == "verify":
        assert result["metrics"]["verify.check_trace_energy_bound.busy_s"]["value"] > 0
        assert result["metrics"]["fracops.gagliardo_seminorm.calls"]["value"] == 175


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("alpha-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_and_busy_time():
    t = Tracer()
    # outer [0, 10] holds two children [1, 3] and [4, 8]; the second nests
    # a same-name call [5, 6] that busy time must not count twice
    t.spans = [["solver.solve_field", 0.0, 10.0, -1, False],
               ["mittag_leffler.ml", 1.0, 3.0, 0, False],
               ["spectral.pairwise_sum", 4.0, 8.0, 0, False],
               ["spectral.pairwise_sum", 5.0, 6.0, 2, True]]
    m = t.layer_metrics()
    assert m["solver.solve_field.self_s"] == 4.0
    assert m["spectral.pairwise_sum.self_s"] == 3.0 + 1.0
    assert m["spectral.pairwise_sum.busy_s"] == 4.0
    assert m["spectral.pairwise_sum.calls"] == 2.0
    assert m["spectral.pairwise_sum.errors"] == 1.0
    assert m["spectral.busy_s"] == 4.0
    assert m["solver.busy_s"] == 10.0
