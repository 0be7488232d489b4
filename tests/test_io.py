from types import SimpleNamespace

import numpy as np
import pytest

from oracles import trajectory_csv_reference
from parapos.errors import SpecError
from parapos.fdm import StepReport, Trajectory
from parapos.io import (
    MAGIC,
    read_snapshots,
    sha256_file,
    write_diagnostics_csv,
    write_json,
    write_residuals_csv,
    write_snapshots,
    write_trajectory_csv,
)
from parapos.model import Grid, SpatialDomain


def small_trajectory(dim=1):
    if dim == 1:
        grid = Grid(SpatialDomain(((0.0, 1.0),)), (4,))
        shape = (4,)
    else:
        grid = Grid(SpatialDomain(((0.0, 1.0), (-1.0, 2.0))), (3, 4))
        shape = (3, 4)
    times = np.array([0.0, 0.5, 1.0])
    rng = np.random.default_rng(3)
    values = rng.normal(size=(3, 2) + shape)
    reports = [
        StepReport(step=i, t=float(t), min_value=-0.1 * i, sup_norm=1.0 + i,
                   negpart_norm=0.01 * i, dudt_min=-1e-9, dvdt_max=1e-9)
        for i, t in enumerate(times[1:], start=1)
    ]
    return Trajectory(grid, "imex_be", 0.5, times, values, reports,
                      positivity_dt_bound=np.inf, positivity_dt_ok=True)


class TestTrajectoryCsv:
    def test_long_format_shape_and_values(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,i,component,value,source"
        assert len(lines) == 1 + 3 * 2 * 4
        first = lines[1].split(",")
        assert first == ["0.0", "0", "0", repr(float(traj.values[0, 0, 0])), "fdm"]

    def test_source_field_tags_the_route(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, source="duhamel")
        assert all(line.endswith(",duhamel")
                   for line in path.read_text().splitlines()[1:])

    def test_two_dimensional_index_columns(self, tmp_path):
        traj = small_trajectory(dim=2)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,i,j,component,value,source"
        assert len(lines) == 1 + 3 * 2 * 12
        # the last node of the first snapshot/component carries indices (2, 3)
        row = lines[12].split(",")
        assert row[1:3] == ["2", "3"]
        assert row[4] == repr(float(traj.values[0, 0, 2, 3]))

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, small_trajectory())
        assert path.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("source", ["fdm", "duhamel"])
    def test_bytes_match_the_row_by_row_reference(self, tmp_path, shape, m, source):
        rng = np.random.default_rng(len(shape) * 10 + m)
        times = np.array([0.0, 1.0 / 3.0, 0.5, 1e16])
        values = rng.normal(size=(len(times), m) + shape)
        flat = values.reshape(-1)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 1.0 / 3.0]
        flat[:len(special)] = special
        flat[-len(special):] = special[::-1]
        traj = SimpleNamespace(times=times, values=values)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, source=source)
        expected = trajectory_csv_reference(times, values, source=source)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_more_than_three_dimensions_rejected(self, tmp_path):
        traj = SimpleNamespace(times=np.zeros(1), values=np.zeros((1, 1, 2, 2, 2, 2)))
        with pytest.raises(SpecError):
            write_trajectory_csv(tmp_path / "traj.csv", traj)


class TestDiagnosticsCsv:
    def test_one_row_per_step_report(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,min_value,sup_norm,negpart_norm,dudt_min,dvdt_max"
        assert len(lines) == 1 + len(traj.reports)
        assert lines[1].split(",")[1] == "-0.1"


class TestResidualsCsv:
    def test_default_ids_and_equation_numbering(self, tmp_path):
        path = tmp_path / "residuals.csv"
        write_residuals_csv(path, [[1e-5, -2e-5], [3e-5, 4e-5]])
        lines = path.read_text().splitlines()
        assert lines[0] == "test_id,equation,residual"
        assert lines[1] == "bump0,1,1e-05"
        assert lines[2] == "bump0,2,-2e-05"
        assert lines[3].startswith("bump1,1,")

    def test_explicit_ids(self, tmp_path):
        path = tmp_path / "residuals.csv"
        write_residuals_csv(path, [[0.0, 0.0]], test_ids=["center"])
        assert path.read_text().splitlines()[1].startswith("center,")

    def test_matrix_shape_enforced(self, tmp_path):
        with pytest.raises(SpecError):
            write_residuals_csv(tmp_path / "bad.csv", [1e-5, 2e-5])


class TestSnapshots:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_round_trip_is_bitwise(self, tmp_path, dim):
        traj = small_trajectory(dim=dim)
        path = tmp_path / "snap.bin"
        write_snapshots(path, traj)
        times, values, bounds = read_snapshots(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(values, traj.values)
        assert bounds == traj.grid.domain.bounds

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshots(path, small_trajectory())
        blob = bytearray(path.read_bytes())
        assert blob[:5] == MAGIC
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecError):
            read_snapshots(path)


class TestJsonAndHashing:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("}\n")

    def test_sha256_matches_content(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"parapos")
        import hashlib

        assert sha256_file(path) == hashlib.sha256(b"parapos").hexdigest()
