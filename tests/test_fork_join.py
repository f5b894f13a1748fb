"""A large ``fracwave solve`` forks twice for its snapshot CSV, one child
per half, and the parent only joins: the rows children format give the
serial bytes, a half whose child failed is solved here, array solves run in
the calling process, the fork rule keeps small, threaded or already forked
work serial, and no child outlives the call that started it."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from fracwave import solver, verify
from fracwave.cli import main
from fracwave.fracops import TimeGrid
from fracwave.params import FracOrder
from fracwave.presets import random_decay
from fracwave.solver import SolutionQuery, solve_field, solve_grid, write_grid_snapshots_csv
from fracwave.spectral import _fork_width, _forked, build_interval
from test_verify import _count_forks, _cpus, _fake_checks, _forbid_fork

# (modes, steps, points): 256 modes take 128 time rows per block; the later
# child takes the last 129 of 257 rows, 66,306 values and CSV cells, just
# above the fork threshold; then 512 rows, 256 per child
GRIDS = [("256", "256", "257"), ("256", "511", "257")]


def _solve(tmp_path, prefix, which, grid):
    modes, steps, points = grid
    argv = ["solve", "--preset", "random-decay", "--seed", "7", "--which", which,
            "--modes", modes, "--steps", steps, "--points", points,
            "--out-prefix", str(tmp_path / prefix)]
    assert main(argv) == 0
    return [(tmp_path / f"{prefix}_{name}").read_bytes()
            for name in ("snapshots.csv", "manifest.json")]


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("which", ["value", "velocity"])
def test_pinned_and_unpinned_solves_write_the_same_bytes(tmp_path, monkeypatch, which, grid):
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with monkeypatch.context() as m:
            _forbid_fork(m)
            pinned = _solve(tmp_path, "pinned", which, grid)
    finally:
        os.sched_setaffinity(0, cpus)
    forks = _count_forks(monkeypatch)
    assert _solve(tmp_path, "free", which, grid) == pinned
    assert len(forks) == 2 * (len(cpus) > 1)
    _no_children_left()


def test_large_solve_forks_twice_whatever_the_cpu_count(tmp_path, monkeypatch):
    grid = ("512", "512", "513")
    with monkeypatch.context() as m:
        _cpus(m, 1)
        _forbid_fork(m)
        serial = _solve(tmp_path, "serial", "value", grid)
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    assert _solve(tmp_path, "forked", "value", grid) == serial
    assert len(forks) == 2
    _no_children_left()


def _query(modes, steps, which="value"):
    domain = build_interval(1.0, modes)
    return SolutionQuery(FracOrder(1.5), domain, random_decay(modes, 2.0, 5),
                         TimeGrid(1.0, steps), which)


def _serial(query, tmp_path):
    """The streamed snapshot bytes of ``query`` on one CPU."""
    with pytest.MonkeyPatch.context() as m:
        _cpus(m, 1)
        _forbid_fork(m)
        write_grid_snapshots_csv(query, 257, str(tmp_path / "serial.csv"))
        return (tmp_path / "serial.csv").read_bytes()


def test_sweep_sized_solves_never_fork(monkeypatch):
    _cpus(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    for which in ("value", "velocity", "caputo"):
        field = solve_field(_query(256, 32, which), np.linspace(0.0, 1.0, 65))
        assert field.shape == (33, 65)


def test_other_thread_keeps_a_large_solve_serial(tmp_path, monkeypatch):
    query = _query(256, 511)
    _cpus(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        assert solve_grid(query, 257).shape == (512, 257)
        write_grid_snapshots_csv(query, 257, str(tmp_path / "rows.csv"))
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()


def test_large_array_solve_runs_here(tmp_path, monkeypatch):
    # with two CPUs to fork onto, a large solve_grid returns the rows of the
    # serial CSV (each entry's repr reads back as its float)
    query = _query(256, 511)
    _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    expected = np.loadtxt(tmp_path / "serial.csv", delimiter=",", skiprows=1)[:, 1:]
    assert np.array_equal(solve_grid(query, 257), expected)


def test_forked_child_runs_serially(tmp_path, monkeypatch):
    # a large CSV solve inside a job: forking there would fail the job
    query = _query(256, 511)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    assert _fork_width() == 2

    def job(fh):
        width = _fork_width()
        _forbid_fork(pytest.MonkeyPatch())
        write_grid_snapshots_csv(query, 257, str(tmp_path / "child.csv"))
        fh.write(np.array([width], dtype=float).data)

    with _forked([job]) as join:
        done = join(0)
        assert done is not None
        out = np.empty((1,))
        assert done.readinto(out) == out.nbytes
    assert out[0] == 1.0
    assert (tmp_path / "child.csv").read_bytes() == csv
    assert _fork_width() == 2
    _no_children_left()


def _in_children(monkeypatch, module, name, act):
    """Replace ``module.name`` by a wrapper that calls ``act()`` first in
    any process but this one."""
    original = getattr(module, name)
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _fail():
    raise RuntimeError("a child that fails")


def _ml_calls_here(monkeypatch):
    """The betas of the ``solver.ml`` calls this process makes from now on."""
    parent, calls, original = os.getpid(), [], solver.ml

    def counting_ml(params, z):
        if os.getpid() == parent:
            calls.append(params.beta)
        return original(params, z)

    monkeypatch.setattr(solver, "ml", counting_ml)
    return calls


@pytest.mark.parametrize("which", ["value", "velocity"])
def test_child_rows_are_read_back(tmp_path, monkeypatch, which):
    # 512 rows in four blocks of 128: a child solves and formats each half,
    # and this process only copies their files in
    query = _query(256, 511, which)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    calls = _ml_calls_here(monkeypatch)
    forks = _count_forks(monkeypatch)
    write_grid_snapshots_csv(query, 257, str(tmp_path / "forked.csv"))
    assert (tmp_path / "forked.csv").read_bytes() == csv
    assert len(forks) == 2
    assert calls == []
    _no_children_left()


@pytest.mark.parametrize("failing", [(0,), (256,), (0, 256)])
def test_each_failed_half_is_solved_here(tmp_path, monkeypatch, failing):
    # the halves start at rows 0 and 256, two blocks of 128 rows each: a half
    # whose child fails is solved and formatted here, two kernels per block
    query = _query(256, 511)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    parent, original = os.getpid(), solver._row_blocks

    def row_blocks(query, synth, start, stop):
        if os.getpid() != parent and start in failing:
            _fail()
        return original(query, synth, start, stop)

    monkeypatch.setattr(solver, "_row_blocks", row_blocks)
    calls = _ml_calls_here(monkeypatch)
    forks = _count_forks(monkeypatch)
    write_grid_snapshots_csv(query, 257, str(tmp_path / "forked.csv"))
    assert (tmp_path / "forked.csv").read_bytes() == csv
    assert len(forks) == 2
    assert len(calls) == 2 * 2 * len(failing)
    _no_children_left()


def test_join_of_a_job_with_no_child_returns_none():
    with _forked([]) as join:
        assert join(0) is None and join(1) is None
    with _forked([lambda fh: fh.write(b"rows")]) as join:
        assert join(1) is None
        assert join(0).read() == b"rows"
    _no_children_left()


def test_fork_that_fails_runs_the_job_here(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    query = _query(256, 511)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    write_grid_snapshots_csv(query, 257, str(tmp_path / "forked.csv"))
    assert (tmp_path / "forked.csv").read_bytes() == csv


@pytest.mark.parametrize("which", ["value", "velocity"])
def test_failed_kernel_child_is_recomputed_here(tmp_path, monkeypatch, which):
    query = _query(256, 511, which)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    _in_children(monkeypatch, solver, "ml", _fail)
    forks = _count_forks(monkeypatch)
    write_grid_snapshots_csv(query, 257, str(tmp_path / "forked.csv"))
    assert len(forks) == 2
    assert (tmp_path / "forked.csv").read_bytes() == csv
    _no_children_left()


def test_failed_row_child_is_formatted_here(tmp_path, monkeypatch):
    query = _query(256, 511)
    csv = _serial(query, tmp_path)
    _cpus(monkeypatch, 2)
    _in_children(monkeypatch, solver, "_table_lines", _fail)
    forks = _count_forks(monkeypatch)
    write_grid_snapshots_csv(query, 257, str(tmp_path / "forked.csv"))
    assert len(forks) == 2
    assert (tmp_path / "forked.csv").read_bytes() == csv
    _no_children_left()


class Interrupted(BaseException):
    pass


def test_interrupted_wait_kills_and_reaps_the_child(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    _in_children(monkeypatch, solver, "ml", lambda: time.sleep(60.0))
    query = _query(256, 511)
    out = tmp_path / "rows.csv"

    def expire(signum, frame):
        raise Interrupted()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.perf_counter()
    try:
        with pytest.raises(Interrupted):
            write_grid_snapshots_csv(query, 257, str(out))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30.0
    assert not out.exists()  # no partial table is left
    _no_children_left()


def test_interrupted_run_all_kills_and_reaps_its_children(monkeypatch):
    parent, fakes = os.getpid(), list(_fake_checks())
    quick = fakes[0]

    def slow_in_a_child(seed):
        if os.getpid() != parent:
            time.sleep(60.0)
        return quick(seed)

    monkeypatch.setattr(verify, "ALL_CHECKS", (slow_in_a_child, *fakes[1:]))
    _cpus(monkeypatch, 2)

    def expire(signum, frame):
        raise Interrupted()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.perf_counter()
    try:
        with pytest.raises(Interrupted):
            verify.run_all(3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30.0
    _no_children_left()


def test_run_all_in_a_pool_worker_runs_serially(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks())
    _cpus(monkeypatch, 2)
    with mp.get_context("fork").Pool(1) as pool:
        results = pool.apply(verify.run_all, (4,))
    assert [r.name for r in results] == [f"fake-{i}" for i in range(len(verify.ALL_CHECKS))]
    pids = {r.details["pid"] for r in results}
    assert len(pids) == 1 and os.getpid() not in pids


def test_import_loads_neither_multiprocessing_nor_signal():
    code = ("import sys, fracwave.cli; "
            "print(sorted({'multiprocessing', 'signal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ``verify all`` on two usable CPUs forks its check shares without ever
# loading ``multiprocessing``
FORKED_VERIFY = """
import os, sys
from fracwave.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
forks, real_fork = [], os.fork
os.fork = lambda: forks.append(1) or real_fork()
assert main(["verify", "all", "--seed", "7"]) == 0
print(len(forks), "multiprocessing" in sys.modules)
"""


def test_forked_verify_loads_no_multiprocessing():
    proc = subprocess.run([sys.executable, "-c", FORKED_VERIFY], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 False"
