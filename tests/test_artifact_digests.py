"""The byte-identity gate ``scripts/artifact_digests.py``, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_table_round_trips_digest_table(digests, tmp_path):
    base = tmp_path / "runs"
    (base / "a" / "deep").mkdir(parents=True)
    (base / "a" / "trajectory.csv").write_text("t,i\n")
    (base / "a" / "deep" / "snapshots.bin").write_bytes(b"\x00\x01")
    (base / "a" / "manifest.json").write_text("{}")
    table = digests.digest_table(base)
    assert sorted(table) == ["a/deep/snapshots.bin", "a/trajectory.csv"]
    listing = tmp_path / "table.txt"
    listing.write_text("".join(f"{name} {digest}\n" for name, digest in table.items()))
    assert digests.read_table(listing) == table


def test_differences_report_changed_missing_and_extra_paths(digests):
    ours = {"same": "1", "changed": "2", "extra": "3"}
    theirs = {"same": "1", "changed": "9", "missing": "4"}
    assert digests.differences(ours, theirs) == ["changed", "extra", "missing"]
    assert digests.differences(ours, dict(ours)) == []


def test_compare_exits_zero_on_its_own_table_and_one_on_a_changed_digest(
        digests, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PARAPOS_OUT", raising=False)
    assert digests.main(["S5_cauchy_nested"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("S5_cauchy_nested/") for line in lines)
    own = tmp_path / "own.txt"
    own.write_text("\n".join(lines) + "\n")
    assert digests.main(["S5_cauchy_nested", "--compare", str(own)]) == 0
    assert "0 of" in capsys.readouterr().err

    name, digest = lines[0].rsplit(" ", 1)
    lines[0] = f"{name} {'0' * len(digest)}"
    changed = tmp_path / "changed.txt"
    changed.write_text("\n".join(lines) + "\n")
    assert digests.main(["S5_cauchy_nested", "--compare", str(changed)]) == 1
    assert f"differs: {name}" in capsys.readouterr().err


def test_keep_leaves_the_runs_that_the_table_lists(digests, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.delenv("PARAPOS_OUT", raising=False)
    kept = tmp_path / "runs"
    assert digests.main(["S5_cauchy_nested", "--keep", str(kept)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        name, digest = line.rsplit(" ", 1)
        assert digests.sha256_file(kept / name) == digest
    assert (kept / "S5_cauchy_nested" / "manifest.json").is_file()
    # a second run into the same directory would mix in stale files
    with pytest.raises(SystemExit) as exit_info:
        digests.main(["S5_cauchy_nested", "--keep", str(kept)])
    assert exit_info.value.code == 2
    assert "not empty" in capsys.readouterr().err
