import hashlib

import numpy as np

import output_digests

TINY = (["solve", "--modes", "8", "--steps", "8", "--points", "5", "--out-prefix", "tiny"],
        ["tiny_snapshots.csv", "tiny_manifest.json"])


def test_prints_the_sha256_of_each_output(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(output_digests, "COMMANDS", (TINY,))
    monkeypatch.setattr(output_digests, "SWEEP_SEEDS", ())
    assert output_digests.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}"
                     for name in TINY[1]]


def test_failing_command_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(output_digests, "COMMANDS", ((["solve", "--points", "1"], []),))
    assert output_digests.main([str(tmp_path)]) == 1
    assert "failed: fracwave solve --points 1" in capsys.readouterr().err


def test_sweep_fields_are_raw_float64(monkeypatch, capsys, tmp_path):
    # a small sweep: 10 alphas, each field (steps + 1) x points doubles
    monkeypatch.setattr(output_digests, "COMMANDS", ())
    monkeypatch.setattr(output_digests, "SWEEP", {"modes": 8, "steps": 4, "points": 5, "per_bin": 1})
    assert output_digests.main([str(tmp_path)]) == 0
    path = tmp_path / "sweep_seed7000.f64"
    assert path.stat().st_size == 10 * 5 * 5 * 8
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert capsys.readouterr().out.splitlines() == [f"{digest}  sweep_seed7000.f64"]
    first = np.frombuffer(path.read_bytes(), dtype=np.float64)[:25].reshape(5, 5)
    assert np.all(np.isfinite(first)) and np.any(first != 0.0)


def test_check_names_each_file_that_differs(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(output_digests, "COMMANDS", (TINY,))
    monkeypatch.setattr(output_digests, "SWEEP_SEEDS", ())
    assert output_digests.main([str(tmp_path)]) == 0
    listing = tmp_path / "listing.txt"
    listing.write_text(capsys.readouterr().out)
    assert output_digests.main(["--check", str(listing), str(tmp_path)]) == 0
    assert "differs" not in capsys.readouterr().err

    # the same command, now writing one byte of its CSV differently
    run = output_digests.run

    def one_byte_off(argv, **popen):
        out = run(argv, **popen)
        path = popen["cwd"] / "tiny_snapshots.csv"
        data = bytearray(path.read_bytes())
        data[-3] ^= 1
        path.write_bytes(data)
        return out

    monkeypatch.setattr(output_digests, "run", one_byte_off)
    assert output_digests.main(["--check", str(listing), str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("differs")] == [
        "differs: tiny_snapshots.csv"]
