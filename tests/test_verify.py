"""``verify``: the forked check shares and the serial path agree, and the
draws it shares keep their bits."""

import math
import os
import threading

import numpy as np
import pytest

from fracwave import verify
from fracwave.cli import main
from fracwave.fracops import TimeGrid
from fracwave.presets import _random_trig_paths
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
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks())
    _cpus(monkeypatch, 2)
    results = run_all(5)
    assert [r.name for r in results] == [f"fake-{i}" for i in range(len(ALL_CHECKS))]
    assert {r.details["seed"] for r in results} == {5}
    assert os.getpid() not in {r.details["pid"] for r in results}


@pytest.mark.parametrize("width", [1, 2, 3, 16])
def test_shares_deal_each_check_once(width):
    shares = verify._shares(width)
    assert sorted(i for share in shares for i in share) == list(range(len(ALL_CHECKS)))
    assert len(shares) == min(width, len(ALL_CHECKS)) and all(shares)
    assert verify._shares(width) == shares


def test_every_check_has_a_cold_cost():
    # a check missing from the table would cost 0 and be dealt last
    assert set(verify._COLD_MS) == {fn.__name__ for fn in ALL_CHECKS}


def test_shares_split_the_two_longest_checks():
    names = [fn.__name__ for fn in ALL_CHECKS]
    first, second = verify._shares(2)
    longest = {names.index("check_trace_energy_bound"), names.index("check_ml_identities")}
    assert len(longest & set(first)) == len(longest & set(second)) == 1


def test_shares_spread_checks_of_no_cost(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks())
    assert [len(share) for share in verify._shares(2)] == [6, 5]


def test_pool_reraises_a_check_error(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", _fake_checks(raise_at=3))
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"^check 3 failed at seed 9$"):
        run_all(9)


def test_random_trig_paths_keep_the_per_path_bits():
    # the shared sine rows add up in the order each path used to form them
    grid = TimeGrid(1.0, 256)
    for i, vals in enumerate(_random_trig_paths(grid, 5, 7)):
        c = np.random.default_rng(7 + i).standard_normal(8)
        ref = np.zeros_like(grid.nodes)
        for k in range(8):
            ref += c[k] * np.sin((k + 1) * math.pi * grid.nodes / grid.t_end)
        assert np.array_equal(vals, ref)

