import argparse
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from fracwave import cli
from fracwave.cli import main
from fracwave.fracops import TimeGrid
from fracwave.params import FracOrder
from fracwave.presets import build_preset
from fracwave.solver import SolutionQuery, solve_field
from fracwave.spectral import build_interval, build_rectangle
from fracwave.verify import CheckResult


def test_ml_evaluation(capsys, tmp_path):
    out = tmp_path / "ml.json"
    assert main(["ml", "--alpha", "1.5", "--beta", "1.0", "--z=-1,-10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["z"] == [-1.0, -10.0]
    assert len(report["E"]) == 2


def test_ml_at_zero_past_the_gamma_range(tmp_path):
    # Gamma(200) overflows a double; E_{1.5,200}(0) = 1/Gamma(200) rounds to 0
    out = tmp_path / "ml.json"
    assert main(["ml", "--alpha", "1.5", "--beta", "200", "--z", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["E"] == [0.0]


def test_ml_decay_check(tmp_path):
    out = tmp_path / "decay.json"
    assert main(["ml", "--alpha", "1.25", "--decay-check", "--z=-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["decay_check"]["max_violation"] == 0.0


def test_frac_checks(tmp_path):
    assert main(["frac", "--check", "young", "--steps", "128"]) == 0
    assert main(["frac", "--check", "semigroup", "--beta", "0.4", "--gamma", "0.3", "--steps", "128"]) == 0
    out = tmp_path / "eq.json"
    assert main(["frac", "--check", "equivalence", "--steps", "128", "--draws", "10",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["equivalence"]["ratio_min"] > 0


def test_solve_outputs(tmp_path):
    prefix = str(tmp_path / "run")
    assert main(["solve", "--alpha", "1.5", "--modes", "16", "--steps", "16",
                 "--points", "9", "--out-prefix", prefix]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["alpha"] == 1.5
    lines = (tmp_path / "run_snapshots.csv").read_text().strip().splitlines()
    assert len(lines) == 18


@pytest.mark.parametrize("domain,opts", [
    (build_interval(1.0, 40), ["--modes", "40", "--points", "9"]),
    (build_rectangle(1.0, 1.5, 120), ["--domain", "rectangle:1.0,1.5", "--modes", "120",
                                      "--points", "7"]),
])
def test_solve_csv_matches_solve_field(tmp_path, domain, opts):
    prefix = str(tmp_path / "run")
    assert main(["solve", "--alpha", "1.3", "--preset", "random-decay", "--seed", "4",
                 "--steps", "6", "--which", "velocity", "--out-prefix", prefix] + opts) == 0
    with open(f"{prefix}_snapshots.csv") as fh:
        header = fh.readline().strip().split(",")[1:]
    table = np.loadtxt(f"{prefix}_snapshots.csv", delimiter=",", skiprows=1)
    # the header names the points: x=<x> or x=<x>;y=<y>
    points = np.array([[float(c.split("=")[1]) for c in h.split(";")] for h in header])
    data = build_preset("random-decay", domain, seed=4)
    query = SolutionQuery(FracOrder(1.3), domain, data, TimeGrid(1.0, 6), "velocity")
    ref = solve_field(query, points[:, 0] if domain.is_interval else points)
    assert np.array_equal(table[:, 0], query.tgrid.nodes)
    assert np.max(np.abs(table[:, 1:] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("points", ["0", "1", "-4"])
def test_solve_rejects_degenerate_grid(tmp_path, capsys, points):
    prefix = tmp_path / "run"
    assert main(["solve", "--modes", "8", "--points", points, "--out-prefix", str(prefix)]) == 2
    assert "at least 2 points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("domain", ["rectangle:1.0", "rectangle:1.0,1.5,2.0", "interval:x"])
def test_solve_rejects_malformed_domain(tmp_path, capsys, domain):
    prefix = tmp_path / "run"
    assert main(["solve", "--domain", domain, "--modes", "8", "--out-prefix", str(prefix)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def _limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("domain", ["rectangle:1.0,inf", "rectangle:1e308,1e308",
                                    "rectangle:1.0,1e200", "rectangle:1.0,1e-100", "interval:inf",
                                    "interval:1e-300"])
def test_solve_rejects_lengths_out_of_range(tmp_path, domain):
    # run apart, under a 1 GB address space and a timeout: a mode search that
    # never ends fails this test instead of exhausting the machine
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "fracwave.cli", "solve", "--domain", domain,
                           "--modes", "16", "--steps", "4", "--points", "3", "--out-prefix", "run"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limited_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: domain lengths ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_theta(tmp_path, capsys, theta):
    argv = ["solve", "--modes", "8", "--steps", "4", "--points", "5", f"--theta={theta}",
            "--out-prefix", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: theta must be finite")
    assert not list(tmp_path.iterdir())


def test_solve_failing_at_late_rows_leaves_no_file(tmp_path, capsys):
    # -lambda t^a passes Z_MAX only in the last tenth of the time rows, long
    # after the first rows of the snapshot table are written
    argv = ["solve", "--modes", "2048", "--t-end", "2.0", "--steps", "128", "--points", "5",
            "--out-prefix", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "exceeds the supported range" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["ml", "--z-range=1:2"], "--z-range: expected lo:hi:count, got '1:2'"),
    (["ml", "--z-range=1:2:x"], "--z-range: expected lo:hi:count, got '1:2:x'"),
    (["ml", "--z=abc"], "--z: expected comma-separated arguments (use --z=-1,-2), got 'abc'"),
    (["ml", "--z=-1,,2"], "--z: expected comma-separated arguments (use --z=-1,-2), got '-1,,2'"),
    (["solve", "--domain", "rectangle:1.0,x"],
     "--domain: expected interval:L or rectangle:L1,L2, got 'rectangle:1.0,x'"),
    (["solve", "--domain", "interval:1.0,2.0"],
     "--domain: expected interval:L or rectangle:L1,L2, got 'interval:1.0,2.0'"),
    (["solve", "--domain", "disk:1.0"],
     "--domain: expected interval:L or rectangle:L1,L2, got 'disk:1.0'"),
])
def test_unreadable_value_names_its_flag(tmp_path, capsys, argv, message):
    if argv[0] == "solve":
        argv = argv + ["--modes", "8", "--out-prefix", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


# Every subcommand but verify (the slowest, with the modules hidden and
# regularity load), solve_field, the ML tiers that use reciprocal gammas (the
# expansion on both axes and the contour) and frac_integral: none of them may
# load scipy.
NO_SCIPY = """
import sys
from fracwave import MLParams, SolutionQuery, TimeGrid, FracOrder, build_interval, ml, solve_field
from fracwave.fracops import SampledPath, frac_integral
from fracwave.cli import main
from fracwave.presets import build_preset
ml(MLParams(1.5, 1.5), -5000.0)
ml(MLParams(1.5, 1.0), 1000.0)
ml(MLParams(1.05, 1.05), -40.0)
prefix = sys.argv[1]
assert main(["ml", "--z=-1,-5000", "--decay-check"]) == 0
assert main(["frac", "--check", "semigroup", "--steps", "64"]) == 0
assert main(["solve", "--modes", "8", "--steps", "4", "--points", "5", "--out-prefix", prefix]) == 0
assert main(["solve", "--domain", "rectangle:1.0,1.5", "--modes", "20", "--steps", "4",
             "--points", "5", "--out-prefix", prefix]) == 0
assert main(["hidden", "--draws", "2", "--modes", "8", "--steps", "16"]) == 0
assert main(["regularity", "--task", "blowup", "--modes", "16"]) == 0
domain = build_interval(1.0, 16)
query = SolutionQuery(FracOrder(1.3), domain, build_preset("random-decay", domain, seed=3),
                      TimeGrid(1.0, 8), "velocity")
solve_field(query, [0.25, 0.5])
path = SampledPath(TimeGrid(1.0, 16), TimeGrid(1.0, 16).nodes ** 2)
frac_integral(path, 0.5)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_cli_and_solve_paths_never_import_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path / "run")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ml, frac and solve run without the modules only hidden, regularity and
# verify need, and without the multiprocessing verify's pool starts from
LEAN_COMMANDS = """
import sys
from fracwave.cli import main
prefix = sys.argv[1]
assert main(["ml", "--z=-1,-5000"]) == 0
assert main(["frac", "--check", "equivalence", "--steps", "64", "--draws", "4"]) == 0
assert main(["solve", "--modes", "8", "--steps", "4", "--points", "5", "--out-prefix", prefix]) == 0
print(sorted(name for name in sys.modules
             if name in ("fracwave.boundary", "fracwave.regularity", "fracwave.verify")
             or name.split(".")[0] == "multiprocessing"))
"""


def test_ml_frac_and_solve_load_no_study_module(tmp_path):
    proc = subprocess.run([sys.executable, "-c", LEAN_COMMANDS, str(tmp_path / "run")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("opts,columns", [([], 3), (["--domain", "rectangle:1.0,1.5"], 5)])
def test_solve_two_points_is_boundary_only(tmp_path, opts, columns):
    prefix = str(tmp_path / "run")
    assert main(["solve", "--modes", "8", "--steps", "4", "--points", "2",
                 "--out-prefix", prefix] + opts) == 0
    table = np.loadtxt(f"{prefix}_snapshots.csv", delimiter=",", skiprows=1)
    assert table.shape == (5, columns)
    assert np.all(table[:, 1:] == 0.0)


def test_regularity_tasks(tmp_path):
    for task in ("initial", "uniform", "l2norms", "blowup"):
        out = tmp_path / f"{task}.json"
        code = main(["regularity", "--task", task, "--modes", "16", "--out", str(out)])
        assert code == 0
        assert out.exists()
    out = tmp_path / "smooth.json"
    assert main(["regularity", "--task", "smooth", "--modes", "64",
                 "--preset", "poly-bump", "--out", str(out)]) == 0


def test_hidden_study(tmp_path):
    out = tmp_path / "h.json"
    trace = tmp_path / "trace.csv"
    assert main(["hidden", "--alpha", "1.5", "--draws", "5", "--seed", "7",
                 "--modes", "16", "--steps", "64", "--out", str(out),
                 "--trace-out", str(trace)]) == 0
    rep = json.loads(out.read_text())
    assert rep["max_ratio"] > 0
    assert len(rep["table"]) == 5
    assert trace.exists()


def test_hidden_rerun_is_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["hidden", "--draws", "5", "--seed", "11", "--modes", "16",
            "--steps", "64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hidden_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the traces are a NumPy einsum, not a BLAS product, so the study and the
    # trace file keep their bytes under any OpenBLAS thread count
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        out.mkdir()
        proc = subprocess.run([sys.executable, "-m", "fracwave.cli", "hidden", "--seed", "7",
                               "--out", "hidden.json", "--trace-out", "trace.csv"],
                              cwd=out, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append([(out / name).read_bytes() for name in ("hidden.json", "trace.csv")])
    assert outs[0] == outs[1]


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.75, "modes": 4}))
    out1 = tmp_path / "o1.json"
    assert main(["--config", str(cfg), "regularity", "--task", "blowup",
                 "--out", str(out1)]) == 0
    assert json.loads(out1.read_text())["fit"]["expected"] == 0.75
    out2 = tmp_path / "o2.json"
    assert main(["--config", str(cfg), "regularity", "--task", "blowup",
                 "--alpha", "1.25", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["fit"]["expected"] == 0.25


def test_validation_failure_names_field(capsys):
    code = main(["ml", "--alpha", "3.0", "--z=-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "ml", "--z=-1"]) == 2


def _config(tmp_path, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    return str(cfg)


@pytest.mark.parametrize("command,config,flag", [
    ("frac", {"check": "bogus"}, "--check"),
    ("regularity", {"task": "nope"}, "--task"),
    ("frac", {"steps": "x"}, "--steps"),
    ("ml", {"decay_check": "yes"}, "--decay-check"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, command, config, flag):
    with pytest.raises(SystemExit) as exc:
        main(["--config", _config(tmp_path, config), command])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_config_value_is_parsed_like_its_flag(tmp_path):
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(["frac", "--steps", "16", "--out", str(by_flag)]) == 0
    assert main(["--config", _config(tmp_path, {"steps": "16", "out": str(by_config)}),
                 "frac"]) == 0
    assert json.loads(by_config.read_text())["steps"] == 16
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_config_must_be_an_object(tmp_path, capsys):
    assert main(["--config", _config(tmp_path, [1, 2]), "ml", "--z=-1"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_true_sets_a_switch_and_false_leaves_it(tmp_path):
    out = tmp_path / "ml.json"
    cfg = {"decay_check": True, "alpha": 1.25, "out": str(out), "check": "ignored-by-ml"}
    assert main(["--config", _config(tmp_path, cfg), "ml", "--z=-1"]) == 0
    assert json.loads(out.read_text())["decay_check"]["max_violation"] == 0.0
    cfg.update(decay_check=False, z=None)
    assert main(["--config", _config(tmp_path, cfg), "ml", "--z=-1"]) == 0
    assert "decay_check" not in json.loads(out.read_text())


@pytest.mark.parametrize("argv", [["verify", "--seed", "5"], ["verify", "all", "--seed", "5"]])
def test_verify_scope_is_optional(tmp_path, monkeypatch, argv):
    seeds = []

    def fake_run_all(seed):
        seeds.append(seed)
        return [CheckResult("stub", True)]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert seeds == [5]
    assert json.loads(out.read_text())["seed"] == 5


# Every subcommand's flags as (flag, default, choices); a flag's parsed type
# is its default's type (str where the default is None).
PRESETS = ("single-mode", "poly-bump", "random-decay", "h1-saturating")
CLI_SURFACE = {
    "ml": [("--alpha", 1.5, None), ("--beta", 1.0, None), ("--z", None, None),
           ("--z-range", "-10:0:11", None), ("--decay-check", False, None), ("--out", None, None)],
    "frac": [("--check", "young", ("young", "semigroup", "equivalence")), ("--beta", 0.5, None),
             ("--gamma", 0.5, None), ("--t-end", 1.0, None), ("--steps", 512, None),
             ("--seed", 7, None), ("--draws", 50, None), ("--out", None, None)],
    "solve": [("--alpha", 1.5, None), ("--domain", "interval:1.0", None), ("--modes", 64, None),
              ("--preset", "single-mode", PRESETS), ("--mode-k", 1, None),
              ("--decay-p", 2.0, None), ("--seed", 7, None), ("--t-end", 1.0, None),
              ("--steps", 128, None), ("--points", 65, None),
              ("--which", "value", ("value", "velocity", "caputo")), ("--theta", 0.0, None),
              ("--out-prefix", "fracwave_run", None)],
    "regularity": [("--task", "initial", ("initial", "uniform", "l2norms", "smooth", "blowup")),
                   ("--alpha", 1.5, None), ("--theta", 0.4, None), ("--theta-grad", 0.2, None),
                   ("--theta-cap", 0.3, None), ("--epsilon", 0.3, None), ("--length", 1.0, None),
                   ("--modes", 256, None), ("--preset", "single-mode", PRESETS),
                   ("--mode-k", 1, None), ("--decay-p", 2.0, None), ("--delta", 0.05, None),
                   ("--seed", 7, None), ("--t-end", 1.0, None), ("--out", None, None)],
    "hidden": [("--alpha", 1.5, None), ("--draws", 100, None), ("--seed", 7, None),
               ("--modes", 64, None), ("--length", 1.0, None), ("--t-end", 1.0, None),
               ("--steps", 192, None), ("--decay-p", 2.0, None), ("--trace-out", None, None),
               ("--out", None, None)],
    "verify": [("scope", "all", ("all",)), ("--seed", 7, None), ("--out", None, None)],
}


def test_cli_surface_is_frozen():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(CLI_SURFACE)
    for command, expected in CLI_SURFACE.items():
        defaults = vars(cli._resolve(parser, [command]))
        actual = [
            (a.option_strings[0] if a.option_strings else a.dest, defaults[a.dest],
             tuple(a.choices) if a.choices else None,
             "bool" if a.const is True else a.type.__name__)
            for a in subparsers.choices[command]._actions if a.dest != "help"
        ]
        typed = [(flag, default, choices, type(default).__name__ if default is not None else "str")
                 for flag, default, choices in expected]
        assert actual == typed, command


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


# Solves whose whole-array assembly used to dominate memory: a 305 MB
# mode x time x point product on the interval, and a 400 MB boundary
# normal-derivative matrix that no solve reads on the rectangle.
MEMORY_SOLVES = [
    ["--modes", "256", "--steps", "384", "--points", "385"],
    ["--domain", "rectangle:1.0,1.5", "--modes", "16384", "--steps", "2", "--points", "3"],
]
MAX_RSS_MB = 250  # bounded solves peak near 100 MB, whole-array ones above 570 MB


# Starts each solve and prints ``[exit code, peak RSS in MB, stderr]`` per
# solve as JSON (``ru_maxrss`` is in kilobytes on Linux).  A child's ``ru_maxrss`` starts from the resident size of
# the process it is forked from, so the solves start from this small
# interpreter, not from the test process, which may hold gigabytes by now.
LAUNCHER = """
import json, os, subprocess, sys
procs = [subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
         for argv in json.loads(sys.argv[1])]
out = []
for proc in procs:
    _, status, usage = os.wait4(proc.pid, 0)
    with proc.stderr:
        out.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, proc.stderr.read()])
print(json.dumps(out))
"""


def test_solve_memory_is_bounded(tmp_path):
    argvs = [[sys.executable, "-m", "fracwave.cli", "solve", "--out-prefix",
              str(tmp_path / f"run{k}")] + opts for k, opts in enumerate(MEMORY_SOLVES)]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for code, _, err in runs:
        assert code == 0, err
    peaks = [peak for _, peak, _ in runs]
    assert max(peaks) < MAX_RSS_MB, f"solves peaked at {peaks} MB"
