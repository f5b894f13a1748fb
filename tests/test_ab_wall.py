import os
import shutil
from pathlib import Path

import ab_wall
import output_digests
from output_digests import SRC

TINY = ["solve", "--modes", "8", "--steps", "8", "--points", "5", "--out-prefix", "tiny"]


def test_one_pair_on_a_tiny_solve(capsys):
    assert ab_wall.main([str(SRC), str(SRC), "--pairs", "1", "--"] + TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["side", "median_s", "q1_s", "q3_s", "wins", "peak_rss_mb",
                                "median_rss_mb"]
    for line, side in zip(lines[1:3], ("old", "new")):
        fields = line.split()
        assert fields[0] == side and len(fields) == 7
        assert fields[4].endswith("/1")
        assert all(float(v) > 0.0 for v in fields[1:4] + fields[5:])
        assert fields[5] == fields[6]  # one run: its peak is the largest and the median
    assert lines[3].startswith("median wall change: ")


def test_usage_errors_exit_2(capsys, tmp_path):
    assert ab_wall.main([str(SRC), str(SRC)] + TINY) == 2
    assert ab_wall.main([str(SRC), str(SRC), "--pairs", "0", "--"] + TINY) == 2
    assert ab_wall.main([str(SRC), str(tmp_path), "--"] + TINY) == 2
    assert "holds no fracwave package" in capsys.readouterr().err


def test_failing_command_exits_1(capsys):
    assert ab_wall.main([str(SRC), str(SRC), "--pairs", "1", "--", "solve", "--points", "1"]) == 1
    assert "failed: fracwave solve --points 1" in capsys.readouterr().err


def test_sides_run_from_copies_without_bytecode(tmp_path, monkeypatch):
    src = tmp_path / "src"
    shutil.copytree(SRC / "fracwave", src / "fracwave",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (src / "fracwave" / "__pycache__").mkdir()
    (src / "fracwave" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"stale")
    package = sorted(p.name for p in (SRC / "fracwave").glob("*.py"))
    trees = []

    def fake_run(argv, cwd, env, stdout):
        tree = Path(env["PYTHONPATH"].split(os.pathsep)[0])
        trees.append(tree)
        assert sorted(p.name for p in (tree / "fracwave").iterdir()) == package
        assert tree != src and cwd.parent == tree.parent
        return 1.0, 40.0

    monkeypatch.setattr(ab_wall, "run", fake_run)
    runs = ab_wall.measure({"old": src, "new": src}, TINY, 2)
    assert runs == {"old": [(1.0, 40.0)] * 2, "new": [(1.0, 40.0)] * 2}
    assert len(trees) == 4 and len(set(trees)) == 2


def test_one_pair_of_a_tiny_sweep(capsys, monkeypatch):
    monkeypatch.setattr(output_digests, "SWEEP", {"modes": 8, "steps": 4, "points": 5,
                                                  "per_bin": 1})
    assert ab_wall.main([str(SRC), str(SRC), "--pairs", "1", "--sweep", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line, side in zip(lines[1:3], ("old", "new")):
        fields = line.split()
        assert fields[0] == side and fields[4].endswith("/1")
        assert all(float(v) > 0.0 for v in fields[1:4] + fields[5:])
    assert lines[3].startswith("median wall change: ")


def test_sweep_runs_time_the_solves_of_the_copy(tmp_path, monkeypatch):
    # each sweep run imports fracwave from its side's copy, and reports the
    # summed seconds its solves printed
    src = tmp_path / "src"
    shutil.copytree(SRC / "fracwave", src / "fracwave",
                    ignore=shutil.ignore_patterns("__pycache__"))
    seen = []

    def fake_run(argv, cwd, env, stdout):
        assert argv[1] == "-c" and argv[3:5] == [str(Path(ab_wall.__file__).parent), "11"]
        seen.append(Path(env["PYTHONPATH"].split(os.pathsep)[0]))
        stdout.write("0.25\n")
        stdout.flush()
        return 9.0, 40.0

    monkeypatch.setattr(ab_wall, "run", fake_run)
    runs = ab_wall.measure({"old": src, "new": src}, [], 1, sweep=11)
    assert runs == {"old": [(0.25, 40.0)], "new": [(0.25, 40.0)]}
    assert len(set(seen)) == 2 and src not in seen


def test_sweep_usage_errors_exit_2(capsys):
    assert ab_wall.main([str(SRC), str(SRC), "--sweep", "seven"]) == 2
    assert ab_wall.main([str(SRC), "--sweep", "7"]) == 2
    assert "--sweep: expected an integer seed" in capsys.readouterr().err
