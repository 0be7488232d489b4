import copy
import importlib.util
import json
import os
import signal
from importlib import resources
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import trajectory_csv_reference
from parapos import io
from parapos.cli import main
from parapos.checker import DEFAULT_ASSUMPTIONS
from parapos.config import load_config, load_config_data
from parapos.duhamel import PicardConfig, picard_solve
from parapos.errors import ConfigError
from parapos.fdm import MONITORS, Trajectory
from parapos.io import read_snapshots, sha256_file
from parapos.model import Grid, SpatialDomain
from parapos.runner import (
    BOUND_SLACK,
    OPS,
    _positivity_verdict,
    _sup_bound_verdict,
    run_scenario,
)
from parapos.scenarios import REGISTRY, get_scenario, list_scenarios


def tiny_config():
    """The smallest scenario that passes validation and runs in milliseconds."""
    return {
        "name": "tiny",
        "problem": {
            "domain": {"bounds": [[0.0, 1.0]]},
            "grid": {"nodes": [21]},
            "horizon": 0.05,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.01],
                "growth": [1.0],
                "interaction": [[1.0]],
            },
            "initial": [{"kind": "zero"}],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01},
        "checks": {"assumptions": ["A1"]},
        "analysis": {"ops": []},
    }


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: (block, key) -> where a setting the schema does not have sits, and a value
#: for it: a deleted option's former default, where it had one, or a list
#: that requests a deleted check
REMOVED_KEYS = {
    ("assumptions", "A5"): (("checks", "assumptions"), ["A1", "A5"]),
    ("majorants", "kappa"): (("checks", "majorants", "kappa"), 1.0),
    ("majorants", "c1"): (("checks", "majorants", "c1"), 1.0),
    ("majorants", "c2"): (("checks", "majorants", "c2"), 1.0),
    ("outputs", "directory"): (("outputs", "directory"), "elsewhere"),
    ("scheme", "positivity"): (("scheme", "positivity"), "monitor_only"),
    ("scheme", "imex_cn"): (("scheme", "scheme"), "imex_cn"),
    ("domain", "boundary"): (("problem", "domain", "boundary"), "dirichlet_zero"),
    ("tolerances", "tol_zero"): (("checks", "tolerances", "tol_zero"), 1e-12),
    ("tolerances", "tol_sign"): (("checks", "tolerances", "tol_sign"), 1e-10),
    ("tolerances", "fd_dt_factor"): (("checks", "tolerances", "fd_dt_factor"), 1e-4),
    ("tolerances", "growth_flag_ratio"): (("checks", "tolerances", "growth_flag_ratio"),
                                          1.25),
    ("picard", "burn_in"): (("analysis", "picard", "burn_in"), 2),
    ("nested", "compare_radius"): (("analysis", "nested", "compare_radius"), 0.05),
}


def reject(data, pointer, base_dir="."):
    with pytest.raises(ConfigError) as err:
        load_config_data(data, base_dir=base_dir)
    assert err.value.pointer == pointer, str(err.value)
    return err.value


class TestSchemaValidation:
    def test_missing_horizon(self):
        data = tiny_config()
        del data["problem"]["horizon"]
        reject(data, "/problem/horizon")

    def test_missing_dt(self):
        data = tiny_config()
        del data["scheme"]["dt"]
        reject(data, "/scheme/dt")

    def test_unknown_keys_are_rejected(self):
        data = tiny_config()
        data["extra_block"] = {}
        err = reject(data, "/")
        assert "extra_block" in str(err)

    def test_unknown_scheme_name(self):
        data = tiny_config()
        data["scheme"]["scheme"] = "leapfrog"
        reject(data, "/scheme/scheme")

    def test_scenario_must_be_an_object(self):
        with pytest.raises(ConfigError):
            load_config_data([tiny_config()])


class TestCrossRules:
    def test_decreasing_bounds(self):
        data = tiny_config()
        data["problem"]["domain"]["bounds"] = [[1.0, 0.0]]
        reject(data, "/problem/domain/bounds/0")

    def test_grid_axis_count(self):
        data = tiny_config()
        data["problem"]["grid"]["nodes"] = [21, 21]
        reject(data, "/problem/grid/nodes")

    def test_growth_count_must_match_diffusion(self):
        data = tiny_config()
        data["problem"]["coefficients"]["growth"] = [1.0, 1.0]
        reject(data, "/problem/coefficients/growth")

    def test_interaction_row_length(self):
        data = tiny_config()
        data["problem"]["coefficients"]["interaction"] = [[1.0, 2.0]]
        reject(data, "/problem/coefficients/interaction/0")

    def test_initial_profile_count(self):
        data = tiny_config()
        data["problem"]["initial"] = [{"kind": "zero"}, {"kind": "zero"}]
        reject(data, "/problem/initial")

    def test_center_dimension(self):
        data = tiny_config()
        data["problem"]["initial"] = [
            {"kind": "plateau", "amplitude": 1.0, "center": [0.5, 0.5],
             "radius": 0.2, "width": 0.1}]
        reject(data, "/problem/initial/0/center")

    def test_source_shift_length(self):
        data = tiny_config()
        data["problem"]["coefficients"]["source_shift"] = [0.0, -1.0]
        reject(data, "/problem/coefficients/source_shift")

    def test_missing_table_file(self, tmp_path):
        data = tiny_config()
        data["problem"]["coefficients"]["growth"] = [
            {"family": "table", "path": "gone.csv"}]
        reject(data, "/problem/coefficients/growth/0/path", base_dir=tmp_path)

    def test_coefficient_table_axes_must_match_the_domain(self, tmp_path):
        # a one-axis table on a 2D domain, caught before any run
        (tmp_path / "growth.csv").write_text("t,x,value\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
        data = tiny_config()
        data["problem"]["domain"]["bounds"] = [[0.0, 1.0], [0.0, 1.0]]
        data["problem"]["grid"]["nodes"] = [5, 5]
        data["problem"]["coefficients"]["growth"] = [
            {"family": "table", "path": "growth.csv"}]
        reject(data, "/problem/coefficients/growth/0/path", base_dir=tmp_path)
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1\n0,1,2\n1,0,3\n", "complete lattice"),
        ("0,0,1\n0,1,two\n1,0,3\n1,1,4\n", "not a number"),
    ])
    def test_a_bad_coefficient_table_fails_validate_not_run(self, tmp_path, capsys,
                                                            rows, message):
        # before the lattice was read at validation, both passed validate (exit
        # 0) and the run ended in an error manifest with exit 3
        (tmp_path / "growth.csv").write_text("t,x,value\n" + rows)
        data = get_scenario("S1_positivity").data
        data["problem"]["coefficients"]["growth"][0] = {"family": "table",
                                                         "path": "growth.csv"}
        err = reject(data, "/problem/coefficients/growth/0/path", base_dir=tmp_path)
        assert message in str(err)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(path)]) == 2
        assert "/problem/coefficients/growth/0/path" in capsys.readouterr().err

    def test_initial_table_must_hold_one_value_per_node(self, tmp_path):
        (tmp_path / "initial.csv").write_text(",".join(["0.0"] * 10))
        data = tiny_config()
        data["problem"]["grid"]["nodes"] = [11]
        data["problem"]["initial"] = [{"kind": "table", "path": "initial.csv"}]
        reject(data, "/problem/initial/0/path", base_dir=tmp_path)
        path = tmp_path / "count.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    def test_component_bound_needs_t_split(self):
        data = tiny_config()
        data["analysis"] = {"ops": ["component_bound"]}
        reject(data, "/analysis/t_split")

    def test_weak_residuals_need_two_species(self):
        data = tiny_config()
        data["analysis"] = {"ops": ["weak_residuals"]}
        reject(data, "/analysis/ops")

    @pytest.mark.parametrize("ops, code", [
        pytest.param(["max_principle", "gronwall", "extinction"], 2, id="both"),
        pytest.param(["max_principle", "extinction"], 0, id="max_principle"),
        pytest.param(["gronwall", "extinction"], 0, id="gronwall"),
        pytest.param(["max_principle", "max_principle", "extinction"], 0, id="repeated"),
    ])
    def test_one_sup_bound_barrier_per_file(self, tmp_path, capsys, ops, code):
        # both barrier ops write the one sup-bound verdict, and a run that
        # requested both kept only the last one's; one op named twice is
        # still one writer
        data = get_scenario("S3_extinction").data
        data["analysis"]["ops"] = ops
        path = tmp_path / "barriers.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        assert ("/analysis/ops" in err) == (code == 2)
        if code == 2:
            assert "max_principle and gronwall both write the sup-bound verdict" in err

    def test_the_ops_table_is_the_schemas_op_list(self):
        schema = json.loads(resources.files("parapos").joinpath(
            "data/scenario.schema.json").read_text())
        enum = schema["properties"]["analysis"]["properties"]["ops"]["items"]["enum"]
        assert sorted(enum) == sorted(OPS)
        tags = [tag for tag, _ in OPS.values()]
        shared = {tag for tag in tags if tags.count(tag) > 1}
        assert shared == {"sup-bound"}
        assert [op for op, (tag, _) in OPS.items() if tag == "sup-bound"] == [
            "max_principle", "gronwall"]

    @pytest.mark.parametrize("t_split, code", [
        pytest.param(100.0, 2, id="past"),
        pytest.param(1.0, 0, id="at"),
        pytest.param(0.5, 0, id="inside"),
    ])
    def test_t_split_lies_inside_the_horizon(self, tmp_path, capsys, t_split, code):
        # past the horizon the run used to march, then end with exit 3
        data = get_scenario("S2_maxbound").data
        assert data["problem"]["horizon"] == 1.0
        data["analysis"] = {"ops": ["component_bound"], "t_split": t_split}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(path)]) == code
        assert ("/analysis/t_split" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("store_every, code", [
        pytest.param(100, 2, id="two snapshots"),
        pytest.param(99, 0, id="three snapshots"),
    ])
    def test_monotone_needs_three_stored_snapshots(self, tmp_path, capsys,
                                                   store_every, code):
        # 100 steps stored every 100 give the initial state and the last;
        # the run used to march, then end with exit 3 in detect_monotone
        data = get_scenario("S4_asymptotics").data
        assert "monotone" in data["analysis"]["ops"]
        data["problem"]["horizon"] = 1.0
        data["scheme"]["store_every"] = store_every
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(path)]) == code
        assert ("/scheme/store_every" in capsys.readouterr().err) == (code == 2)
        if code == 2:
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
            assert not (tmp_path / "out").exists()

    def test_limits_list_six_entries(self, tmp_path):
        data = get_scenario("S4_asymptotics").data
        data["analysis"]["limits"] = data["analysis"]["limits"][:5]
        reject(data, "/analysis/limits")
        path = tmp_path / "limits.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    def test_nested_op_needs_its_block(self):
        data = tiny_config()
        data["analysis"] = {"ops": ["nested"]}
        reject(data, "/analysis/nested")

    def test_monotone_signs_length(self):
        data = tiny_config()
        data["analysis"] = {"ops": ["monotone"], "monotone_signs": [1, -1]}
        reject(data, "/analysis/monotone_signs")

    def test_component_indices_in_range(self):
        data = tiny_config()
        data["analysis"] = {"ops": ["extinction"], "extinction_component": 1}
        reject(data, "/analysis/extinction_component")

    def test_battery_support_inside_domain(self):
        data = tiny_config()
        data["analysis"] = {"battery": {"centers": [[0.1]], "radius": 0.3}}
        reject(data, "/analysis/battery/centers/0")

    def test_limit_coefficients_need_two_species(self):
        data = tiny_config()
        data["analysis"] = {"limits": [1, 1, 0, 1, 0, 1]}
        reject(data, "/analysis/limits")


class TestScenarioConfig:
    def test_default_assumption_expansion(self):
        data = tiny_config()
        del data["checks"]
        config = load_config_data(data)
        assert config.assumptions() == (
            "A1", "A2'", "A4a", "A4b", "A6", "A7a", "A7b")
        assert config.assumptions() == tuple(
            e for label in DEFAULT_ASSUMPTIONS
            for e in {"A4": ("A4a", "A4b"), "A7": ("A7a", "A7b")}.get(label, (label,)))

    def test_explicit_shorthand_expansion(self):
        data = tiny_config()
        data["checks"]["assumptions"] = ["A7", "A1"]
        config = load_config_data(data)
        assert config.assumptions() == ("A7a", "A7b", "A1")

    def test_budget_seed_override(self):
        config = load_config_data(tiny_config())
        assert config.budget().seed == 0
        assert config.budget(seed_override=11).seed == 11

    def test_config_hash_tracks_content(self):
        a = load_config_data(tiny_config())
        changed = tiny_config()
        changed["problem"]["horizon"] = 0.06
        b = load_config_data(changed)
        assert a.config_hash() == load_config_data(tiny_config()).config_hash()
        assert a.config_hash() != b.config_hash()

    def test_source_shift_is_applied(self):
        data = tiny_config()
        data["problem"]["coefficients"]["source_shift"] = [-1.0]
        problem = load_config_data(data).build_problem()
        grid = problem.initial.grid
        zero = np.zeros(grid.shape + (1,))  # state axis comes last here
        src = problem.coefficients.source(0.0, grid.points, zero, None)
        assert np.allclose(src, -1.0)

    def test_a_source_shift_keeps_the_tabulated_block(self):
        # N1 shifts its source; the march still reads block tables, with the
        # bits of the unshifted source plus the shift at every time
        problem = get_scenario("N1_negative_source").build_problem()
        coeffs, x = problem.coefficients, problem.initial.grid.points
        assert coeffs.source is problem.lv
        unshifted = replace(problem.lv, shift=None)
        u = np.random.default_rng(3).uniform(0.0, 1.0, x.shape[:-1] + (2,))
        ts = np.arange(5) * 0.01
        at = coeffs.source_block(ts, x)
        assert problem.lv.block(ts, x) is not None
        for j, t in enumerate(ts.tolist()):
            want = unshifted(t, x, u) + np.array([-1.0, 0.0])
            assert at(j, u, None).tobytes() == want.tobytes()
            assert coeffs.source(t, x, u, None).tobytes() == want.tobytes()

    def test_battery_block_builds_bumps(self):
        config = load_config_data(tiny_config())
        assert config.battery() is None
        data = tiny_config()
        data["analysis"] = {"battery": {"centers": [[0.4], [0.6]], "radius": 0.2}}
        battery = load_config_data(data).battery()
        assert [b.center for b in battery] == [(0.4,), (0.6,)]


class TestRegistry:
    def test_library_names_and_descriptions(self):
        listed = list_scenarios()
        names = [n for n, _ in listed]
        assert len(names) >= 9
        assert names == list(REGISTRY)
        assert all(desc.strip() for _, desc in listed)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_builtin_validates_and_builds(self, name):
        config = get_scenario(name)
        assert config.name == name
        problem = config.build_problem()
        assert problem.horizon > 0
        config.scheme()


@pytest.fixture(scope="module")
def cli_s5(tmp_path_factory):
    """One CLI run of the cheapest all-verified scenario, out dir via env."""
    base = tmp_path_factory.mktemp("cli_s5")
    old = os.environ.get("PARAPOS_OUT")
    os.environ["PARAPOS_OUT"] = str(base)
    try:
        code = main(["run", "S5_cauchy_nested", "--out", str(base / "ignored")])
    finally:
        if old is None:
            os.environ.pop("PARAPOS_OUT", None)
        else:
            os.environ["PARAPOS_OUT"] = old
    return code, base


class TestCli:
    def test_run_exit_zero_and_env_precedence(self, cli_s5):
        code, base = cli_s5
        assert code == 0
        assert (base / "S5_cauchy_nested" / "manifest.json").is_file()
        assert not (base / "ignored").exists()

    def test_manifest_lists_every_artifact_with_checksums(self, cli_s5):
        _, base = cli_s5
        out = base / "S5_cauchy_nested"
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = sorted(str(p.relative_to(out))
                         for p in out.rglob("*") if p.is_file())
        assert sorted(row["path"] for row in manifest["files"]) == on_disk
        for row in manifest["files"]:
            if row["path"] == "manifest.json":
                assert row["sha256"] is None
            else:
                assert row["sha256"] == sha256_file(out / row["path"])

    def test_a_rerun_lists_only_the_files_it_wrote(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", "S1_positivity", "--out", str(tmp_path)]) == 0
        data = copy.deepcopy(REGISTRY["S1_positivity"][1]())
        data["outputs"] = {"formats": ["json"]}
        path = tmp_path / "s1_json.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        out = tmp_path / "S1_positivity"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == [
            {"path": "checks.json", "sha256": sha256_file(out / "checks.json")},
            {"path": "manifest.json", "sha256": None}]
        # the first run's files are still on disk, but they are not this run's
        for stale in ("diagnostics.csv", "snapshots.bin", "trajectory.csv"):
            assert (out / stale).is_file()

    def test_list_names_the_library(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_validate_good_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["validate", str(path)]) == 0
        assert "tiny: valid" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path):
        bad = tiny_config()
        del bad["problem"]["horizon"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", str(path)]) == 2

    def test_validate_rejects_unparseable_json(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_run_unknown_target_is_a_config_error(self, tmp_path):
        os.environ["PARAPOS_OUT"] = str(tmp_path)
        try:
            assert main(["run", "no_such_scenario"]) == 2
        finally:
            os.environ.pop("PARAPOS_OUT", None)

    def test_run_violated_scenario_exits_one(self, tmp_path):
        os.environ["PARAPOS_OUT"] = str(tmp_path)
        try:
            assert main(["run", "N1_negative_source"]) == 1
        finally:
            os.environ.pop("PARAPOS_OUT", None)
        manifest = json.loads(
            (tmp_path / "N1_negative_source" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert any(v["status"] == "violated" for v in manifest["verdicts"].values())

    def test_runtime_failure_exits_three(self, tmp_path):
        # nested comparison demands a centered box; [0, 1] fails at run time
        data = tiny_config()
        data["name"] = "broken_nested"
        data["analysis"] = {
            "ops": ["nested"],
            "nested": {"radii": [0.1, 0.2, 0.3]},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        os.environ["PARAPOS_OUT"] = str(tmp_path)
        try:
            assert main(["run", str(path)]) == 3
        finally:
            os.environ.pop("PARAPOS_OUT", None)
        manifest = json.loads(
            (tmp_path / "broken_nested" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]

    def test_picard_non_contraction_exits_three(self, tmp_path, monkeypatch):
        # a tolerance no sweep can reach within three sweeps
        data = copy.deepcopy(REGISTRY["S7_logistic_flat"][1]())
        data["analysis"]["picard"] = {"tol": 1e-300, "max_iter": 3}
        path = tmp_path / "stalled.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        manifest = json.loads(
            (tmp_path / "S7_logistic_flat" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("NonContraction")
        assert manifest["verdicts"]["hypotheses"]["status"] == "verified"
        assert manifest["verdicts"]["positivity"]["status"] == "verified"
        assert "dual-route-match" not in manifest["verdicts"]
        # the kernel route now runs before the march; its failure still ends
        # the run where the cross-check is made, with the march's files
        out = tmp_path / "S7_logistic_flat"
        assert [row["path"] for row in manifest["files"]] == [
            "checks.json", "diagnostics.csv", "snapshots.bin", "trajectory.csv",
            "manifest.json"]
        assert not (out / "trajectory_duhamel.csv").exists()
        _assert_no_child_left()

    def test_non_finite_source_slope_exits_three(self, tmp_path, monkeypatch):
        # the growth table is NaN for x > 0.5; A1 never evaluates the source,
        # so the first reader is the positivity step bound of the march
        table = tmp_path / "growth.csv"
        table.write_text(
            "t,x,value\n0,0,1\n0,0.5,1\n0,1,nan\n1,0,1\n1,0.5,1\n1,1,nan\n")
        data = tiny_config()
        data["name"] = "nan_slope"
        data["problem"]["coefficients"]["growth"] = [
            {"family": "table", "path": str(table)}]
        path = tmp_path / "nan_slope.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        manifest = json.loads(
            (tmp_path / "nan_slope" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("CoefficientError: source slope is not finite")
        x = float(manifest["error"].split("x=[")[1].split("]")[0])
        assert x > 0.5
        assert [row["path"] for row in manifest["files"]] == ["checks.json", "manifest.json"]
        assert not (tmp_path / "nan_slope" / "trajectory.csv").exists()
        _assert_no_child_left()

    def test_relative_table_paths_resolve_against_the_config_file(self, tmp_path,
                                                                  monkeypatch):
        # validation resolves a table path against the file's directory, and
        # so must the run, from whatever directory it is started in
        scenario = tmp_path / "scenario"
        scenario.mkdir()
        (scenario / "growth.csv").write_text("t,x,value\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
        profile = 0.3 * np.sin(np.pi * np.linspace(0.0, 1.0, 21))
        profile[[0, -1]] = 0.0
        (scenario / "initial.csv").write_text(",".join(repr(float(v)) for v in profile))
        data = tiny_config()
        data["name"] = "relative_tables"
        data["problem"]["coefficients"]["growth"] = [
            {"family": "table", "path": "growth.csv"}]
        data["problem"]["initial"] = [{"kind": "table", "path": "initial.csv"}]
        path = scenario / "relative_tables.json"
        path.write_text(json.dumps(data))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "relative_tables" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        (scenario / "growth.csv").unlink()
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--out", str(out)]) == 2

    def test_manifest_carries_the_picard_counters(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", "S7_logistic_flat", "--out", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / "S7_logistic_flat" / "manifest.json").read_text())
        data = manifest["verdicts"]["dual-route-match"]["data"]
        edges, sweeps, ratios = data["window_edges"], data["sweeps"], data["sweep_ratios"]
        assert len(sweeps) == len(edges) - 1
        assert len(ratios) == len(sweeps)
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(1.0)
        assert all(n >= 1 for n in sweeps)
        assert max(r for window in ratios for r in window) == data["sweep_ratios_max"]
        assert data.keys() == {
            "rel_sup_diff", "tolerance", "crosscheck_time", "contracting",
            "sweep_ratios_max", "jacobian_sup", "window_edges", "sweeps",
            "sweep_ratios"}

    def test_validate_rejects_the_removed_linear_solver_options(self, tmp_path):
        data = tiny_config()
        data["scheme"]["linear_rtol"] = 1e-8
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("block,key", list(REMOVED_KEYS))
    def test_validate_rejects_the_removed_unread_keys(self, tmp_path, block, key):
        (*parents, name), value = REMOVED_KEYS[block, key]
        data = tiny_config()
        data["analysis"]["nested"] = {"radii": [0.1, 0.2, 0.3]}
        node = data
        for part in parents:
            node = node.setdefault(part, {})
        path = tmp_path / "unread.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 0
        node[name] = value
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2

    def test_validate_accepts_every_benchmark_input(self, tmp_path):
        # the built-ins, the perfbench configs and the generated 2D config
        # must stay valid under any schema change; perfbench is only read
        spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paths = []
        for name, (_, builder) in REGISTRY.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(builder()))
        configs = sorted((PERFBENCH / "configs").glob("*.json"))
        generated, _, _ = workloads.generate("competition_2d", 7, tmp_path)
        assert len(configs) >= 3 and len(generated) == 1
        for path in paths + configs + generated:
            assert main(["validate", str(path)]) == 0, path


class TestSupBoundVerdict:
    def test_the_slack_is_the_line_between_verified_and_violated(self):
        assert _sup_bound_verdict(1.0 + BOUND_SLACK, 1.0).status == "verified"
        assert _sup_bound_verdict(1.0 + 2.0 * BOUND_SLACK, 1.0).status == "violated"

    def test_note_and_data_are_carried(self):
        verdict = _sup_bound_verdict(0.5, 2.0, note="integrated-growth barrier")
        assert verdict.note == "integrated-growth barrier"
        assert verdict.data == {"bound": 2.0, "observed_sup": 0.5}


class TestPositivityVerdict:
    @staticmethod
    def trajectory(adjusted):
        grid = Grid(SpatialDomain(((0.0, 1.0),)), (5,))
        return Trajectory(grid, "imex_be", 0.1, np.array([0.0]), np.zeros((1, 1, 5)),
                          np.zeros((0, len(MONITORS))), dt_adjusted=adjusted)

    def test_finite_step_bound_is_reported(self):
        data = _positivity_verdict(self.trajectory(False), 0.25).data
        assert data["dt_bound"] == 0.25
        assert data["dt_ok"] is True
        assert data["dt_adjusted"] is False

    def test_unbounded_step_is_null_in_strict_json(self):
        data = _positivity_verdict(self.trajectory(True), np.inf).data
        assert data["dt_bound"] is None
        assert data["dt_adjusted"] is True
        json.dumps(data, allow_nan=False)

    def test_the_step_bound_is_sampled_once_per_run(self, tmp_path, monkeypatch):
        # S5 marches three nested boxes besides its own march; only the run's
        # own march has a positivity verdict, so only it samples the bound
        import parapos.fdm
        calls = []
        original = parapos.fdm.source_jacobians

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(parapos.fdm, "source_jacobians", counted)
        data = get_scenario("S5_cauchy_nested").data
        data["problem"]["horizon"] = 0.05
        manifest = run_scenario(load_config_data(data), out_dir=tmp_path)
        assert manifest.status == "ok"
        assert set(manifest.verdicts) == {"hypotheses", "positivity", "nested-boxes"}
        assert len(calls) == 1

    def test_manifest_carries_the_step_diagnostics(self, cli_s5):
        _, base = cli_s5
        manifest = json.loads((base / "S5_cauchy_nested" / "manifest.json").read_text())
        data = manifest["verdicts"]["positivity"]["data"]
        assert {"dt_bound", "dt_ok", "dt_adjusted"} <= data.keys()
        assert "witness" not in data

    def test_explicit_step_over_the_bound_violates_positivity_under_the_hypotheses(
            self, tmp_path, monkeypatch):
        # S2 with Heun at a step over the positivity bound and the stability
        # gate off: every hypothesis holds, so the violation is the scheme's
        data = copy.deepcopy(REGISTRY["S2_maxbound"][1]())
        data["scheme"].update(scheme="erk2", dt=0.3, check_stability=False)
        path = tmp_path / "s2_erk2.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        out = tmp_path / "S2_maxbound"
        verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
        assert verdicts["hypotheses"]["status"] == "verified"
        assert verdicts["sup-bound"]["status"] == "violated"
        positivity = verdicts["positivity"]
        assert positivity["status"] == "violated"
        assert positivity["data"]["dt_ok"] is False
        assert positivity["data"]["dt_bound"] < 0.3
        witness = positivity["data"]["witness"]
        rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True,
                             dtype=None, encoding=None)
        at_node = rows[(rows["t"] == witness["t"]) & (rows["i"] == witness["node"][0])
                       & (rows["component"] == witness["component"])]
        assert at_node["value"].tolist() == [witness["value"]]
        assert witness["value"] < 0.0
        assert witness["value"] == rows["value"].min()
        assert witness["x"] == [pytest.approx(witness["node"][0] / 200, abs=1e-15)]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestStreamedTrajectory:
    """trajectory.csv is formatted by a forked formatter while the march runs."""

    def test_the_2d_trajectory_has_the_rows_of_the_snapshots(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", "S8_competition_2d", "--out", str(tmp_path)]) == 0
        out = tmp_path / "S8_competition_2d"
        times, values, _ = read_snapshots(out / "snapshots.bin")
        assert values.shape[1:] == (2, 61, 61)
        expected = trajectory_csv_reference(times, values)
        assert (out / "trajectory.csv").read_bytes() == expected.encode("utf-8")
        _assert_no_child_left()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_march_leaves_no_writer_and_no_partial_file(self, tmp_path,
                                                                monkeypatch):
        # Heun over the stability bound, with the gate off, overflows
        data = copy.deepcopy(REGISTRY["S4_asymptotics"][1]())
        data["scheme"].update(scheme="erk2", dt=0.01, check_stability=False)
        path = tmp_path / "s4_erk2.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        out = tmp_path / "S4_asymptotics"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith(
            "SolverError: solution lost finiteness at step 7")
        assert [row["path"] for row in manifest["files"]] == [
            "checks.json", "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == ["checks.json", "manifest.json"]
        _assert_no_child_left()

    def test_a_writer_failure_exits_three_with_its_cause(self, tmp_path, monkeypatch):
        out = tmp_path / "S1_positivity"
        (out / "trajectory.csv").mkdir(parents=True)
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        assert main(["run", "S1_positivity", "--out", str(tmp_path)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("WriterError: ")
        assert "IsADirectoryError" in manifest["error"]
        assert [row["path"] for row in manifest["files"]] == [
            "checks.json", "manifest.json"]
        assert "positivity" not in manifest["verdicts"]
        _assert_no_child_left()


class TestKernelRouteWriter:
    """trajectory_duhamel.csv is formatted by a forked formatter during the march."""

    @staticmethod
    def run(tmp_path, monkeypatch, data):
        path = tmp_path / "s6.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        code = main(["run", str(path), "--out", str(tmp_path)])
        out = tmp_path / "S6_oracle_crosscheck"
        return code, json.loads((out / "manifest.json").read_text()), out

    def test_the_kernel_csv_has_the_rows_of_the_picard_solution(self, tmp_path,
                                                                monkeypatch):
        data = REGISTRY["S6_oracle_crosscheck"][1]()
        code, manifest, out = self.run(tmp_path, monkeypatch, data)
        assert code == 0
        assert "trajectory_duhamel.csv" in [row["path"] for row in manifest["files"]]
        config = load_config_data(data)
        analysis = config.analysis_data
        result = picard_solve(config.build_problem(),
                              PicardConfig(**analysis["picard"]))
        expected = trajectory_csv_reference(result.times, result.values,
                                            source="duhamel")
        assert (out / "trajectory_duhamel.csv").read_bytes() == expected.encode()
        _assert_no_child_left()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_march_kills_the_kernel_writer(self, tmp_path, monkeypatch):
        # Heun at ten times its step, with the stability gate off, overflows
        data = copy.deepcopy(REGISTRY["S6_oracle_crosscheck"][1]())
        data["scheme"].update(dt=0.025, check_stability=False)
        code, manifest, out = self.run(tmp_path, monkeypatch, data)
        assert code == 3
        assert manifest["error"].startswith(
            "SolverError: solution lost finiteness at step 9")
        assert [row["path"] for row in manifest["files"]] == [
            "checks.json", "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == ["checks.json", "manifest.json"]
        _assert_no_child_left()

    @pytest.mark.parametrize("ops, before", [
        pytest.param(["dual_route"], [], id="dual_route"),
        pytest.param(["steady_state", "dual_route"], ["steady_state.json"],
                     id="steady_state"),
    ])
    def test_a_crosscheck_time_off_the_lattices_kills_the_kernel_writer(
            self, tmp_path, monkeypatch, ops, before):
        # the Picard step is 0.005, and the march stores every 0.05; an op
        # taken before the cross-check keeps its verdict and its file
        data = copy.deepcopy(REGISTRY["S6_oracle_crosscheck"][1]())
        data["analysis"]["crosscheck_time"] = 0.2525
        data["analysis"]["ops"] = ops
        code, manifest, out = self.run(tmp_path, monkeypatch, data)
        assert code == 3
        assert manifest["error"].startswith(
            "SpecError: crosscheck time 0.2525 is not on both stored time lattices")
        assert [row["path"] for row in manifest["files"]] == sorted(
            ["checks.json", "diagnostics.csv", "snapshots.bin", "trajectory.csv",
             *before]) + ["manifest.json"]
        assert ("steady-state" in manifest["verdicts"]) == bool(before)
        assert "dual-route-match" not in manifest["verdicts"]
        assert not (out / "trajectory_duhamel.csv").exists()
        _assert_no_child_left()

    def test_a_kernel_writer_failure_exits_three_with_its_cause(self, tmp_path,
                                                                monkeypatch):
        out = tmp_path / "S6_oracle_crosscheck"
        (out / "trajectory_duhamel.csv").mkdir(parents=True)
        data = REGISTRY["S6_oracle_crosscheck"][1]()
        code, manifest, out = self.run(tmp_path, monkeypatch, data)
        assert code == 3
        assert manifest["error"].startswith("WriterError: ")
        assert "IsADirectoryError" in manifest["error"]
        assert [row["path"] for row in manifest["files"]] == [
            "checks.json", "diagnostics.csv", "snapshots.bin", "trajectory.csv",
            "manifest.json"]
        assert "dual-route-match" not in manifest["verdicts"]
        assert (out / "trajectory_duhamel.csv").is_dir()
        _assert_no_child_left()


class TestManifestDigests:
    """Each trajectory CSV's digest comes from its formatter, every other file's from a read."""

    @pytest.mark.parametrize("name", ["S1_positivity", "S6_oracle_crosscheck"])
    def test_every_listed_digest_is_the_files_sha256(self, tmp_path, monkeypatch,
                                                     name):
        read_back = []

        def recording(path):
            read_back.append(Path(path).name)
            return sha256_file(path)

        monkeypatch.setattr("parapos.runner.sha256_file", recording)
        manifest = run_scenario(get_scenario(name), out_dir=tmp_path)
        assert manifest.status == "ok"
        listed = {row["path"]: row["sha256"] for row in manifest.files}
        streams = {"trajectory.csv"} | ({"trajectory_duhamel.csv"}
                                        if name.startswith("S6") else set())
        assert streams <= set(listed)
        assert sorted(read_back) == sorted(set(listed) - streams - {"manifest.json"})
        assert listed.pop("manifest.json") is None
        assert listed == {path: sha256_file(tmp_path / path) for path in listed}
        _assert_no_child_left()

    @pytest.mark.parametrize("name", ["S1_positivity", "S6_oracle_crosscheck"])
    def test_a_formatter_killed_mid_file_records_no_digest(self, tmp_path, monkeypatch,
                                                          name):
        # every formatter writes its first snapshot, then dies on its second
        real = io._format_snapshots

        def dying(own, parents, header, rows, times, values):
            def rows_then_die(t, snapshot):
                if t > 0.0:
                    os.kill(os.getpid(), signal.SIGKILL)
                return rows(t, snapshot)
            real(own, parents, header, rows_then_die, times, values)

        monkeypatch.setattr(io, "_format_snapshots", dying)
        manifest = run_scenario(get_scenario(name), out_dir=tmp_path)
        assert manifest.status == "error"
        assert manifest.error == ("WriterError: trajectory writer for trajectory.csv "
                                  "failed: exit code -9")
        assert [row["path"] for row in manifest.files] == ["checks.json", "manifest.json"]
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "trajectory_duhamel.csv").exists()
        _assert_no_child_left()


def test_both_trajectory_csvs_are_written_where_the_cpu_set_is_unknown(
        tmp_path, monkeypatch):
    # S7 streams trajectory.csv and trajectory_duhamel.csv, one formatter
    # each, whatever the platform can tell of its CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv("PARAPOS_OUT", raising=False)
    assert main(["run", "S7_logistic_flat", "--out", str(tmp_path)]) == 0
    out = tmp_path / "S7_logistic_flat"
    times, values, _ = read_snapshots(out / "snapshots.bin")
    expected = trajectory_csv_reference(times, values)
    assert (out / "trajectory.csv").read_bytes() == expected.encode()
    config = load_config_data(REGISTRY["S7_logistic_flat"][1]())
    result = picard_solve(config.build_problem(),
                          PicardConfig(**config.analysis_data["picard"]))
    expected = trajectory_csv_reference(result.times, result.values, source="duhamel")
    assert (out / "trajectory_duhamel.csv").read_bytes() == expected.encode()
    _assert_no_child_left()


def _csv_rows(path):
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding=None)


class TestDualRouteVerdict:
    @staticmethod
    def run(tmp_path, monkeypatch, data):
        path = tmp_path / "s6_variant.json"
        path.write_text(json.dumps(data))
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        code = main(["run", str(path), "--out", str(tmp_path)])
        out = tmp_path / "S6_oracle_crosscheck"
        return code, json.loads((out / "manifest.json").read_text())["verdicts"], out

    def test_bumps_near_the_face_match_under_the_hypotheses(self, tmp_path,
                                                            monkeypatch):
        # S6 with both bumps centred at x = 0.35, so they reach to 0.05 of
        # the Dirichlet face at 0; the kernel route's images keep u = 0
        # there, so the routes agree to well inside the tolerance
        data = copy.deepcopy(REGISTRY["S6_oracle_crosscheck"][1]())
        for bump in data["problem"]["initial"]:
            bump["center"] = [0.35]
        code, verdicts, _ = self.run(tmp_path, monkeypatch, data)
        assert code == 0
        assert verdicts["hypotheses"]["status"] == "verified"
        assert verdicts["positivity"]["status"] == "verified"
        match = verdicts["dual-route-match"]
        assert match["status"] == "verified"
        assert match["data"]["contracting"] is True
        assert match["data"]["rel_sup_diff"] < 0.1 * match["data"]["tolerance"]
        assert "witness" not in match["data"]

    @pytest.mark.parametrize("name, horizon", [
        ("S1_positivity", 1.0), ("S2_maxbound", None), ("S3_extinction", 2.0),
        ("S4_asymptotics", 2.0), ("S8_competition_2d", None)])
    def test_the_bounded_builtins_match_the_grid_route(self, tmp_path, name, horizon):
        # states that fill the box, on the paper's zero-Dirichlet domains, in
        # 1D and 2D; the kernel route takes the march's step.  With zero
        # extension S1 and S8 gave 0.108 and 0.020 against 0.020, and the
        # kernels of S2-S4 reached past the box
        data = copy.deepcopy(REGISTRY[name][1]())
        if horizon is not None:
            data["problem"]["horizon"] = horizon
        analysis = data["analysis"]
        analysis["ops"] = analysis["ops"] + ["dual_route"]
        analysis["crosscheck_time"] = data["problem"]["horizon"]
        analysis["picard"] = {"dt": data["scheme"]["dt"]}
        result = run_scenario(load_config_data(data), out_dir=tmp_path)
        match = result.verdicts["dual-route-match"]
        assert match.status == "verified"
        assert match.data["contracting"] is True
        assert match.data["rel_sup_diff"] < 0.5 * match.data["tolerance"]

    def test_bumps_the_grid_cannot_resolve_violate_the_match_under_the_hypotheses(
            self, tmp_path, monkeypatch):
        # S6 with both bumps of radius 0.02, two grid spacings, at x = 1.0,
        # cross-checked at t = 0.025: every hypothesis holds, but the march
        # and the kernel route resolve the bumps differently at the centre
        data = copy.deepcopy(REGISTRY["S6_oracle_crosscheck"][1]())
        for bump in data["problem"]["initial"]:
            bump["radius"] = 0.02
        data["problem"]["horizon"] = 0.025
        data["analysis"]["crosscheck_time"] = 0.025
        data["scheme"]["store_every"] = 10
        code, verdicts, out = self.run(tmp_path, monkeypatch, data)
        assert code == 1
        assert verdicts["hypotheses"]["status"] == "verified"
        assert verdicts["positivity"]["status"] == "verified"
        match = verdicts["dual-route-match"]
        assert match["status"] == "violated"
        assert match["note"] == "kernel route disagrees"
        data = match["data"]
        assert data["contracting"] is True
        assert data["rel_sup_diff"] > 5 * data["tolerance"]

        witness = data["witness"]
        assert witness["component"] == 1
        assert witness["node"] == [100]
        assert witness["x"] == [1.0]
        tc = data["crosscheck_time"]
        # each route's stored time nearest the cross-check time, as the runner picks
        grid_rows, kernel_rows = (
            rows[np.abs(rows["t"] - tc) <= 1e-9]
            for rows in (_csv_rows(out / "trajectory.csv"),
                         _csv_rows(out / "trajectory_duhamel.csv")))
        for column in ("i", "component"):
            assert np.array_equal(grid_rows[column], kernel_rows[column])
        gap = np.abs(grid_rows["value"] - kernel_rows["value"])
        at = int(np.argmax(gap))
        assert grid_rows["i"][at] == witness["node"][0]
        assert grid_rows["component"][at] == witness["component"]
        assert grid_rows["value"][at] == witness["grid_value"] > 0.0
        assert kernel_rows["value"][at] == witness["kernel_value"] > 0.0
        scale = np.abs(grid_rows["value"]).max()
        assert gap[at] / scale == data["rel_sup_diff"]


class TestDeterminism:
    def test_batch_writes_the_bytes_of_single_runs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARAPOS_OUT", raising=False)
        # S6 and S7 fork a kernel-route writer each, back to back
        names = ["S2_maxbound", "S5_cauchy_nested", "S6_oracle_crosscheck",
                 "S7_logistic_flat"]
        assert main(["run", *names, "--out", str(tmp_path / "batch")]) == 0
        for name in names:
            assert main(["run", name, "--out", str(tmp_path / name)]) == 0
        for name in names:
            batch, single = tmp_path / "batch" / name, tmp_path / name / name
            files = sorted(str(p.relative_to(batch)) for p in batch.rglob("*")
                           if p.is_file() and p.name != "manifest.json")
            assert files == sorted(str(p.relative_to(single)) for p in single.rglob("*")
                                   if p.is_file() and p.name != "manifest.json")
            assert len(files) >= 3
            for rel in files:
                assert (batch / rel).read_bytes() == (single / rel).read_bytes(), rel

    def test_repeat_runs_are_bitwise_identical(self, tmp_path):
        config = get_scenario("S5_cauchy_nested")
        first = run_scenario(config, out_dir=tmp_path / "a")
        second = run_scenario(config, out_dir=tmp_path / "b")
        for row in first.files:
            if row["path"] == "manifest.json":
                continue
            a = (tmp_path / "a" / row["path"]).read_bytes()
            b = (tmp_path / "b" / row["path"]).read_bytes()
            assert a == b, row["path"]
        ja, jb = first.to_json(), second.to_json()
        for volatile in ("started", "finished"):
            ja.pop(volatile), jb.pop(volatile)
        assert ja == jb
