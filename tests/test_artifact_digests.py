"""The byte-identity gate ``scripts/artifact_digests.py``, loaded by path."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from parapos.checker import ASSUMPTION_IDS
from parapos.config import load_config

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
    assert sorted(table) == ["a/deep/snapshots.bin",
                             "a/manifest.json[status,verdicts,files,error]",
                             "a/trajectory.csv"]
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
    manifest = kept / "S5_cauchy_nested" / "manifest.json"
    for line in lines:
        name, digest = line.rsplit(" ", 1)
        if name.endswith(digests.MANIFEST_KEY):
            assert digests.manifest_digest(manifest) == digest
        else:
            assert digests.sha256_file(kept / name) == digest
    assert manifest.is_file()
    # a second run into the same directory would mix in stale files
    with pytest.raises(SystemExit) as exit_info:
        digests.main(["S5_cauchy_nested", "--keep", str(kept)])
    assert exit_info.value.code == 2
    assert "not empty" in capsys.readouterr().err


def test_two_runs_of_one_tree_print_the_same_table_with_its_manifest(
        digests, tmp_path, capsys, monkeypatch):
    # S7 runs the kernel route, so its verdicts carry the Picard counters
    monkeypatch.delenv("PARAPOS_OUT", raising=False)
    tables = []
    for run in ("first", "second"):
        assert digests.main(["S7_logistic_flat", "--keep", str(tmp_path / run)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert f"S7_logistic_flat/{digests.MANIFEST_KEY} " in tables[0]
    stamps = [json.loads((tmp_path / run / "S7_logistic_flat" / "manifest.json").read_text())
              for run in ("first", "second")]
    assert (stamps[0]["started"], stamps[0]["finished"]) != (
        stamps[1]["started"], stamps[1]["finished"])


def test_the_manifest_digest_skips_timestamps_and_sees_every_verdict_datum(
        digests, tmp_path):
    manifest = {"status": "ok", "error": None, "started": "a", "finished": "b",
                "files": [{"path": "checks.json", "sha256": "0" * 64}],
                "verdicts": [{"name": "dual-route-match",
                              "data": {"sweeps": [6, 5], "sweep_ratios": [[0.1, 0.2]]}}]}
    path = tmp_path / "manifest.json"

    def digest(**changes):
        path.write_text(json.dumps({**manifest, **changes}))
        return digests.manifest_digest(path)

    base = digest()
    assert digest(started="c", finished="d") == base
    moved = json.loads(json.dumps(manifest["verdicts"]))
    moved[0]["data"]["sweep_ratios"][0][1] = 0.2000000000000001
    assert digest(verdicts=moved) != base
    assert digest(status="error") != base
    assert digest(error="SolverError: x") != base
    assert digest(files=[]) != base


def test_standard_lists_the_twenty_scenarios_of_the_gate(digests, tmp_path):
    targets = digests.standard_targets(tmp_path)
    configs = digests.PERFBENCH / "configs"
    assert targets == [
        "S1_positivity", "S2_maxbound", "S3_extinction", "S4_asymptotics",
        "S5_cauchy_nested", "S6_oracle_crosscheck", "S7_logistic_flat",
        "S8_competition_2d", "N1_negative_source", "N2_decaying_growth",
        str(configs / "S4_asymptotics_fine.json"),
        str(configs / "S6_oracle_crosscheck_fine.json"),
        str(configs / "S7_logistic_flat_fine.json"),
        str(tmp_path / "competition_2d.json"),
        str(tmp_path / "S2_maxbound_component_bound.json"),
        str(tmp_path / "S4_asymptotics_default_limits.json"),
        str(tmp_path / "S1_positivity_every_check.json"),
        str(tmp_path / "S1_positivity_majorants.json"),
        str(tmp_path / "S8_competition_2d_weak_residuals.json"),
        str(tmp_path / "S8_competition_2d_one_species.json"),
    ]
    # the variants validate, and reach the carrying bound, the limit
    # coefficients and battery taken from the problem, every check, the
    # dominance test of given dissipativity constants, the 2D steady state
    # and weak residuals, and a 2D direct solve with one species zero
    s2, s4 = (load_config(path).analysis_data for path in targets[-6:-4])
    assert s2["ops"] == ["max_principle", "component_bound"]
    assert (s2["t_split"], s2["bound_component"]) == (0.5, 1)
    assert "weak_residuals" in s4["ops"]
    assert "limits" not in s4 and "battery" not in s4
    every, majorants = (load_config(path) for path in targets[-4:-2])
    for config in (every, majorants):
        assert config.assumptions() == ASSUMPTION_IDS
    assert every.majorants() is None
    assert (majorants.majorants().d1, majorants.majorants().d2) == (0.5, 1.0)
    s8 = load_config(targets[-2])
    assert s8.analysis_data["ops"] == ["max_principle", "steady_state", "weak_residuals"]
    assert s8.grid().dimension == 2
    one = load_config(targets[-1]).build_problem()
    assert one.dimension == 2 and one.coefficients.constant_diffusion
    assert np.any(one.initial.values[0]) and not np.any(one.initial.values[1])
    # the generated config is the perfbench one for generator seed 7
    spec = importlib.util.spec_from_file_location(
        "workloads", digests.PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (tmp_path / "seed7").mkdir()
    workloads.generate("competition_2d", 7, tmp_path / "seed7")
    generated = (tmp_path / "competition_2d.json").read_bytes()
    assert generated == (tmp_path / "seed7" / "competition_2d.json").read_bytes()
    assert json.loads(generated)["problem"]["grid"]["nodes"] == [201, 201]


def test_no_target_and_no_standard_is_a_usage_error(digests, capsys):
    with pytest.raises(SystemExit) as exit_info:
        digests.main([])
    assert exit_info.value.code == 2
    assert "--standard" in capsys.readouterr().err
