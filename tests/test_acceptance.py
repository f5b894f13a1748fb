"""Acceptance suite: every advertised criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the details dict carries the numbers
the verdict was based on.  Criterion 12 additionally runs the CLI twice in
subprocesses and requires bit-identical reports, with the sha256 listed for
``verify_seed7.json`` in ``tests/output_digests.txt``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracwave.verify import (
    _run_check,
    check_decay_envelope,
    check_frac_integral_suite,
    check_initial_data_continuity,
    check_integrated_identity,
    check_kernel_peak,
    check_ml_identities,
    check_mode_ode_residual,
    check_multiplier_identity,
    check_norm_equivalence,
    check_trace_energy_bound,
    check_velocity_blowup,
)

SEED = 7

CRITERIA = [
    (1, check_ml_identities),
    (2, check_decay_envelope),
    (3, check_kernel_peak),
    (4, check_frac_integral_suite),
    (5, check_norm_equivalence),
    (6, check_mode_ode_residual),
    (7, check_initial_data_continuity),
    (8, check_velocity_blowup),
    (9, check_multiplier_identity),
    (10, check_trace_energy_bound),
    (11, check_integrated_identity),
]


@pytest.mark.parametrize("number,check", CRITERIA, ids=[c[1].__name__ for c in CRITERIA])
def test_criterion(number, check):
    result = _run_check(check, SEED)
    print(f"criterion {number:02d} {'PASS' if result.passed else 'FAIL'}  {result.name}")
    assert result.passed, json.dumps(result.details, default=str)


def test_criterion_12_determinism(tmp_path):
    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fracwave.cli", "verify", "all", "--seed", str(SEED),
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "11/11 criteria passed" in proc.stdout
        reports.append(out.read_bytes())
    identical = reports[0] == reports[1]
    print(f"criterion 12 {'PASS' if identical else 'FAIL'}  verify-determinism")
    assert identical
    listing = Path(__file__).with_name("output_digests.txt")
    listed = dict(line.split("  ", 1)[::-1] for line in listing.read_text().splitlines())
    digest = hashlib.sha256(reports[0]).hexdigest()
    assert digest == listed[f"verify_seed{SEED}.json"], (
        f"the seed-{SEED} report's sha256 {digest} is not the one {listing.name} lists: a change "
        "that moves report bytes updates that listing (python tests/output_digests.py) and says "
        "so in CHANGES.md")
