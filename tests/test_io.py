import os
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import trajectory_csv_reference
from parapos.errors import SpecError, WriterError
from parapos.fdm import StepReport, Trajectory
from parapos.io import (
    MAGIC,
    TrajectoryCsvStream,
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


def special_values_case(shape, m):
    """Times and values with every float repr corner at both ends."""
    rng = np.random.default_rng(len(shape) * 10 + m)
    times = np.array([0.0, 1.0 / 3.0, 0.5, 1e16])
    values = rng.normal(size=(len(times), m) + shape)
    flat = values.reshape(-1)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 1.0 / 3.0]
    flat[:len(special)] = special
    flat[-len(special):] = special[::-1]
    return times, values


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        times, values = special_values_case(shape, m)
        traj = SimpleNamespace(times=times, values=values)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, source=source)
        expected = trajectory_csv_reference(times, values, source=source)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_more_than_three_dimensions_rejected(self, tmp_path):
        traj = SimpleNamespace(times=np.zeros(1), values=np.zeros((1, 1, 2, 2, 2, 2)))
        with pytest.raises(SpecError):
            write_trajectory_csv(tmp_path / "traj.csv", traj)


class TestTrajectoryCsvStream:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bytes_match_the_row_by_row_reference(self, tmp_path, shape, m):
        times, values = special_values_case(shape, m)
        path = tmp_path / "traj.csv"
        with TrajectoryCsvStream(path, values.shape[1:]) as stream:
            for t, snapshot in zip(times, values):
                stream.send(t, snapshot)
        assert_no_child_left()
        expected = trajectory_csv_reference(times, values)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_frames_larger_than_the_pipe_buffer(self, tmp_path):
        # 2 x 80 x 60 doubles: each 76.8 kB frame overflows a 64 KiB pipe,
        # so the child reads every frame in more than one piece
        times, values = special_values_case((80, 60), 2)
        path = tmp_path / "traj.csv"
        with TrajectoryCsvStream(path, values.shape[1:]) as stream:
            for t, snapshot in zip(times, values):
                stream.send(t, snapshot)
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        # a pipe write may take only part of a frame; the rest must follow
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:1000]))
        times, values = special_values_case((3, 4), 2)
        path = tmp_path / "traj.csv"
        with TrajectoryCsvStream(path, values.shape[1:]) as stream:
            for t, snapshot in zip(times, values):
                stream.send(t, snapshot)
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()

    def test_a_stream_with_no_frame_writes_the_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        with TrajectoryCsvStream(path, (2, 3, 4)):
            pass
        assert path.read_text() == "t,i,j,component,value,source\n"

    def test_an_exception_kills_the_child_and_removes_the_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(RuntimeError, match="march failed"):
            with TrajectoryCsvStream(path, (2, 50)) as stream:
                for t in range(100):
                    stream.send(float(t), np.ones((2, 50)))
                raise RuntimeError("march failed")
        assert not path.exists()
        assert_no_child_left()

    def test_a_snapshot_of_another_shape_is_refused(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError):
            with TrajectoryCsvStream(path, (2, 5)) as stream:
                stream.send(0.0, np.ones((2, 6)))
        assert not path.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("frames", [1, 500])
    def test_a_child_failure_names_its_cause(self, tmp_path, frames):
        # one frame fits the pipe, so the clean exit sees the failure; 500
        # frames of 8 kB do not, so a send meets the closed pipe first
        path = tmp_path / "traj.csv"
        path.mkdir()
        with pytest.raises(WriterError, match="IsADirectoryError"):
            with TrajectoryCsvStream(path, (1, 1000)) as stream:
                for t in range(frames):
                    stream.send(float(t), np.zeros((1, 1000)))
        assert path.is_dir()
        assert_no_child_left()

    def test_more_than_three_dimensions_rejected_before_forking(self, tmp_path):
        with pytest.raises(SpecError):
            TrajectoryCsvStream(tmp_path / "traj.csv", (1, 2, 2, 2, 2))
        assert not (tmp_path / "traj.csv").exists()
        assert_no_child_left()


class TestTrajectoryCsvStreamHeld:
    """The stream's child formats a finished trajectory it holds from the fork."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bytes_match_the_row_by_row_reference(self, tmp_path, shape, m):
        times, values = special_values_case(shape, m)
        path = tmp_path / "traj.csv"
        held = SimpleNamespace(times=times, values=values)
        with TrajectoryCsvStream(path, values.shape[1:], source="duhamel", held=held):
            pass
        assert_no_child_left()
        expected = trajectory_csv_reference(times, values, source="duhamel")
        assert path.read_bytes() == expected.encode("utf-8")

    def test_the_caller_may_overwrite_its_values_after_the_fork(self, tmp_path):
        times, values = special_values_case((3, 4), 2)
        expected = trajectory_csv_reference(times, values, source="duhamel")
        path = tmp_path / "traj.csv"
        held = SimpleNamespace(times=times, values=values)
        with TrajectoryCsvStream(path, values.shape[1:], source="duhamel", held=held):
            values[:] = 0.0
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("snapshots", [1, 400])
    def test_an_exception_kills_the_child_and_removes_the_file(self, tmp_path,
                                                               snapshots):
        # 400 snapshots of 2 x 500 values keep the child formatting for a
        # while; one is written before the exception is raised
        path = tmp_path / "traj.csv"
        held = SimpleNamespace(times=np.arange(float(snapshots)),
                               values=np.ones((snapshots, 2, 500)))
        with pytest.raises(RuntimeError, match="march failed"):
            with TrajectoryCsvStream(path, (2, 500), source="duhamel", held=held):
                raise RuntimeError("march failed")
        assert not path.exists()
        assert_no_child_left()

    def test_an_exception_after_close_keeps_the_complete_file(self, tmp_path):
        times, values = special_values_case((7,), 2)
        path = tmp_path / "traj.csv"
        held = SimpleNamespace(times=times, values=values)
        with pytest.raises(RuntimeError, match="later stage failed"):
            with TrajectoryCsvStream(path, values.shape[1:], held=held) as stream:
                stream.close()
                stream.close()
                raise RuntimeError("later stage failed")
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()
        assert_no_child_left()

    def test_a_child_failure_names_its_cause(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.mkdir()
        held = SimpleNamespace(times=np.zeros(1), values=np.zeros((1, 1, 3)))
        with pytest.raises(WriterError, match="IsADirectoryError"):
            with TrajectoryCsvStream(path, (1, 3), held=held):
                pass
        assert path.is_dir()
        assert_no_child_left()


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
