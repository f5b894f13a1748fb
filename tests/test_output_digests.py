import hashlib

import output_digests

TINY = (["solve", "--modes", "8", "--steps", "8", "--points", "5", "--out-prefix", "tiny"],
        ["tiny_snapshots.csv", "tiny_manifest.json"])


def test_prints_the_sha256_of_each_output(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(output_digests, "COMMANDS", (TINY,))
    assert output_digests.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}"
                     for name in TINY[1]]


def test_failing_command_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(output_digests, "COMMANDS", ((["solve", "--points", "1"], []),))
    assert output_digests.main([str(tmp_path)]) == 1
    assert "failed: fracwave solve --points 1" in capsys.readouterr().err
