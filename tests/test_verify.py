"""``verify.run_all``: the forked worker pool and the serial path agree."""

import os
import threading

import pytest

from fracwave import verify
from fracwave.cli import main
from fracwave.verify import ALL_CHECKS, CheckResult, run_all


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("the serial path must not start a process")

    monkeypatch.setattr(os, "fork", no_fork)


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_one_cpu_runs_in_process_with_the_pool_bytes(tmp_path, monkeypatch, capsys):
    with monkeypatch.context() as m:
        _cpus(m, 1)
        _forbid_fork(m)
        assert main(["verify", "all", "--seed", "11", "--out", str(tmp_path / "serial.json")]) == 0

    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert main(["verify", "all", "--seed", "11", "--out", str(tmp_path / "pool.json")]) == 0
    assert len(forks) == 2
    assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "pool.json").read_bytes()
    assert capsys.readouterr().out.count("11/11 criteria passed") == 2


def test_other_thread_runs_in_process(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks())
    _cpus(monkeypatch, 2)
    _forbid_fork(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        results = run_all(3)
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert {r.details["pid"] for r in results} == {os.getpid()}


def _fake_checks(raise_at=None):
    def make(i):
        def check(seed):
            if i == raise_at:
                raise ValueError(f"check {i} failed at seed {seed}")
            return CheckResult(f"fake-{i}", True, {"seed": seed, "pid": os.getpid()})
        return check

    return tuple(make(i) for i in range(len(ALL_CHECKS)))


def test_pool_returns_results_in_check_order(monkeypatch):
    fakes = _fake_checks()
    monkeypatch.setattr(verify, "ALL_CHECKS", fakes)
    monkeypatch.setattr(verify, "_LONGEST_FIRST", (fakes[7], fakes[2]))
    _cpus(monkeypatch, 2)
    results = run_all(5)
    assert [r.name for r in results] == [f"fake-{i}" for i in range(len(ALL_CHECKS))]
    assert {r.details["seed"] for r in results} == {5}
    assert os.getpid() not in {r.details["pid"] for r in results}


def test_pool_reraises_a_check_error(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks(raise_at=3))
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"^check 3 failed at seed 9$"):
        run_all(9)

