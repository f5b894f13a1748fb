import json
import math

import numpy as np

from report_diff import main, relative_change, report_lines

OLD = {
    "criteria": [
        {"name": "ml-identities", "passed": True,
         "details": {"worst": {"near": 2.0e-13, "oracle": 1.0e-13}, "tol_near": 1e-10}},
        {"name": "frac-integral-suite", "passed": True,
         "details": {"semigroup": {"discrepancies": [4.0e-4, 1.0e-4]}, "caputo_linear_max": 0.0}},
    ],
    "seed": 7,
}


def _new():
    new = json.loads(json.dumps(OLD))
    ml, frac = new["criteria"]
    ml["details"]["worst"]["near"] = 3.0e-13
    frac["details"]["semigroup"]["discrepancies"] = [4.0e-4, 1.5e-4]
    frac["details"]["caputo_linear_max"] = 1e-17
    frac["passed"] = False
    return new


def test_relative_change():
    assert relative_change(2.0, 2.0) == 0.0
    assert relative_change(0.0, 0.0) == 0.0
    assert relative_change(4.0, 5.0) == 0.25
    assert relative_change(-4.0, -3.0) == 0.25
    assert math.isinf(relative_change(0.0, 1e-300))


def test_identical_reports_change_nothing():
    lines = report_lines(OLD, OLD)
    assert lines[:-1] == [
        "0  ml-identities.details.worst.near",
        "0  ml-identities.details.worst.oracle",
        "0  ml-identities.details.tol_near",
        "0  frac-integral-suite.details.semigroup.discrepancies",
        "0  frac-integral-suite.details.caputo_linear_max",
        "0  seed",
    ]
    assert lines[-1].startswith("largest: 0  ")


def test_one_line_per_field_lists_by_their_largest_entry(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps(_new()))
    assert main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0.5  ml-identities.details.worst.near",
        "0  ml-identities.details.worst.oracle",
        "0  ml-identities.details.tol_near",
        "0.5  frac-integral-suite.details.semigroup.discrepancies",
        "inf  frac-integral-suite.details.caputo_linear_max",
        "0  seed",
        "changed: frac-integral-suite.passed: True -> False",
        "largest: inf  frac-integral-suite.details.caputo_linear_max",
    ]


def test_fields_in_one_report_only_are_named():
    new = _new()
    new["criteria"][0]["details"]["worst"]["far"] = 1e-12
    del new["criteria"][1]["details"]["semigroup"]["discrepancies"][1]
    lines = report_lines(OLD, new)
    assert "only in new: ml-identities.details.worst.far" in lines
    assert "only in old: frac-integral-suite.details.semigroup.discrepancies[1]" in lines


def test_usage(capsys):
    assert main(["one.json"]) == 2
    assert "report_diff.py OLD.json NEW.json" in capsys.readouterr().err


def _write(tmp_path, old, new):
    paths = tmp_path / "old.json", tmp_path / "new.json"
    for path, report in zip(paths, (old, new)):
        path.write_text(json.dumps(report))
    return [str(p) for p in paths]


def test_max_rel_passes_changes_within_the_bound(tmp_path, capsys):
    new = json.loads(json.dumps(OLD))
    new["criteria"][0]["details"]["worst"]["near"] = 2.0e-13 * (1.0 + 1e-14)
    assert main(_write(tmp_path, OLD, new) + ["--max-rel", "1e-13"]) == 0
    assert main(["--max-rel", "0"] + _write(tmp_path, OLD, OLD)) == 0
    assert "over" not in capsys.readouterr().out


def test_max_rel_fails_a_numeric_change_over_the_bound(tmp_path, capsys):
    new = json.loads(json.dumps(OLD))
    new["criteria"][1]["details"]["semigroup"]["discrepancies"][1] = 1.0e-4 * (1.0 + 1e-12)
    assert main(_write(tmp_path, OLD, new) + ["--max-rel", "1e-13"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "over --max-rel 1e-13: frac-integral-suite.details.semigroup.discrepancies")
    assert main(_write(tmp_path, OLD, new) + ["--max-rel", "1e-11"]) == 0


def test_max_rel_fails_a_non_numeric_change_and_a_missing_field(tmp_path):
    flag = json.loads(json.dumps(OLD))
    flag["criteria"][0]["passed"] = False
    assert main(_write(tmp_path, OLD, flag) + ["--max-rel", "1"]) == 1
    extra = json.loads(json.dumps(OLD))
    extra["criteria"][0]["details"]["worst"]["far"] = 1e-12
    assert main(_write(tmp_path, OLD, extra) + ["--max-rel", "1"]) == 1


def test_max_rel_fails_a_change_from_zero(tmp_path):
    new = json.loads(json.dumps(OLD))
    new["criteria"][1]["details"]["caputo_linear_max"] = 1e-300
    assert main(_write(tmp_path, OLD, new) + ["--max-rel", "1e300"]) == 1


def test_max_rel_needs_a_number(tmp_path, capsys):
    paths = _write(tmp_path, OLD, OLD)
    assert main(paths + ["--max-rel"]) == 2
    assert main(paths + ["--max-rel", "small"]) == 2
    assert "--max-rel X" in capsys.readouterr().err


def test_snapshot_csvs_by_entry(tmp_path, capsys):
    header = "t,x=0.0,x=0.5\n"
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(header + "0.0,0.0,2.0\n0.5,0.0,-4.0\n")
    new.write_text(header + "0.0,0.0,2.0\n0.5,0.0,-4.0000000000000018\n")
    assert main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "entries: 6, changed: 1",
        "largest absolute change / largest |old|: 4.44e-16",
        "largest: 4.44e-16  x=0.5 at row 2",
    ]
    assert main([str(old), str(new), "--max-rel", "1e-15"]) == 0
    assert main([str(old), str(new), "--max-rel", "1e-16"]) == 1
    other = tmp_path / "other.csv"
    other.write_text("t,x=0.0,x=0.25\n0.0,0.0,2.0\n0.5,0.0,-4.0\n")
    assert main([str(old), str(other), "--max-rel", "1"]) == 1
    assert "header differs" in capsys.readouterr().out


def test_raw_float64_files_by_entry(tmp_path, capsys):
    old, new = tmp_path / "old.f64", tmp_path / "new.f64"
    a = np.array([1.0, 0.0, -3.0, 8.0])
    a.tofile(old)
    b = a.copy()
    b[1] = 1e-300
    b.tofile(new)
    assert main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "entries: 4, changed: 1",
        "largest absolute change / largest |old|: 1.25e-301",
        "largest: inf  entry 1",
    ]
    assert main([str(old), str(old), "--max-rel", "0"]) == 0
    a[:3].tofile(new)
    assert main([str(old), str(new), "--max-rel", "1"]) == 1
    assert "shape differs: (4,) -> (3,)" in capsys.readouterr().out
