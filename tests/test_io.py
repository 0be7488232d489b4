import hashlib
import os
import signal
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import trajectory_csv_reference
from parapos import io
from parapos.errors import SpecError, WriterError
from parapos.fdm import MONITORS, SchemeConfig, Trajectory, solve
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
from parapos.model import SPAN_BYTES, Grid, SpatialDomain, stored_count
from parapos.scenarios import get_scenario


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
    # t, min_value, sup_norm, negpart_norm, dudt_min, dvdt_max, solve_iterations
    monitors = np.array([(t, -0.1 * i, 1.0 + i, 0.01 * i, -1e-9, 1e-9, 0)
                         for i, t in enumerate(times[1:].tolist(), start=1)])
    return Trajectory(grid, "imex_be", 0.5, times, values, monitors)


def monitored(fields):
    """A trajectory whose steps have the six diagnostics ``fields`` per row."""
    monitors = np.zeros((len(fields), len(MONITORS)))
    monitors[:, :6] = fields
    return Trajectory(Grid(SpatialDomain(((0.0, 1.0),)), (3,)), "imex_be", 0.5,
                      np.zeros(1), np.zeros((1, 1, 3)), monitors)


def special_values_case(shape, m, count=4):
    """``count`` times and values, every float repr corner at both ends."""
    rng = np.random.default_rng(len(shape) * 10 + m)
    times = np.array([0.0, 1.0 / 3.0, 0.5, 1e16, 2.5, 1e-300, 7.0])[:count]
    values = rng.normal(size=(count, m) + shape)
    flat = values.reshape(-1)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 1.0 / 3.0,
               1e-9, 1.5e-5, 9.999999999999999e-05, 1e17]
    special = special[:flat.size]
    flat[:len(special)] = special
    flat[-len(special):] = special[::-1]
    return times, values


def repr_tokens(a):
    return [repr(float(v)).encode() for v in np.asarray(a, dtype=float).ravel()]


def with_neighbours(centres, count=3):
    """``centres`` of both signs, each with its ``count`` nearest doubles either side."""
    centres = np.concatenate([centres, -centres])
    out = [centres]
    for direction in (np.inf, -np.inf):
        x = centres
        for _ in range(count):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


class TestTokens:
    """Every CSV token is the ``repr`` of its double, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=40))
    def test_any_floats(self, xs):
        assert io._tokens(np.array(xs, dtype=float)) == repr_tokens(xs)

    def test_the_neighbours_of_every_power_of_ten_and_of_two(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        values = with_neighbours(np.concatenate([tens, twos]))
        assert io._tokens(values) == repr_tokens(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        # raw patterns are mostly far outside [1e-12, 1e17]; these are not
        spread = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.uniform(-12, 17, 100_000)
        for values in (bits.view(np.float64), spread):
            assert io._tokens(values) == repr_tokens(values)

    def test_the_mask_edges(self):
        edges = np.array([1e-10, 1e-9, 1e-5, 9.999999999999999e-05, 1e-4,
                          9.999999999999998e15, 1e15, 1e16, 0.9e-10, 1.1e-4])
        values = with_neighbours(edges)
        assert io._tokens(values) == repr_tokens(values)

    def test_any_shape_in_c_order(self):
        values = special_values_case((2, 3), 2, 2)[1]
        assert io._tokens(values) == repr_tokens(values)
        assert io._tokens(values[:, 1]) == repr_tokens(values[:, 1])
        assert io._tokens(2.5) == [b"2.5"]
        assert io._tokens(np.zeros((0, 6))) == []


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


@pytest.fixture(params=[1, 2, 3])
def cpus(request, monkeypatch):
    """The CPU count the platform reports; the stream must not depend on it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def store_all(stream, times, values):
    """Write every snapshot into the stream's buffer and post it, as the march does."""
    for i, (t, snapshot) in enumerate(zip(times, values)):
        stream.times[i], stream.values[i] = t, snapshot
        stream.post()


def write_stream(path, times, values, held, source="fdm"):
    """The stream's file for ``(times, values)``, stored or held.

    The digest the formatter hands back must be the sha256 of the file.
    """
    if held:
        trajectory = SimpleNamespace(times=times, values=values)
        with TrajectoryCsvStream(path, values.shape, source=source,
                                 held=trajectory) as stream:
            pass
    else:
        with TrajectoryCsvStream(path, values.shape, source=source) as stream:
            store_all(stream, times, values)
    assert_no_child_left()
    assert stream.digest == sha256_file(path)
    return path.read_bytes()


class TestTrajectoryCsvStream:
    """One forked formatter writes the bytes of the in-process writer."""

    @pytest.mark.parametrize("held", [False, True], ids=["stored", "held"])
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bytes_match_the_row_by_row_reference(self, tmp_path, cpus, shape, m,
                                                  held):
        for count in (1, 2, 3, 7):
            times, values = special_values_case(shape, m, count)
            source = "duhamel" if held else "fdm"
            expected = trajectory_csv_reference(times, values, source=source)
            got = write_stream(tmp_path / f"traj{count}.csv", times, values, held,
                               source=source)
            assert got == expected.encode("utf-8"), count

    def test_the_trajectory_is_the_stream_buffer(self, tmp_path, cpus):
        spec = get_scenario("S7_logistic_flat").build_problem()
        scheme = SchemeConfig(dt=0.01, store_every=7)
        shape = (stored_count(spec.horizon, scheme.dt, scheme.store_every),
                 *spec.initial.values.shape)
        with TrajectoryCsvStream(tmp_path / "traj.csv", shape) as stream:
            trajectory = solve(spec, scheme, sink=stream)
        assert np.shares_memory(trajectory.values, stream.values)
        assert np.shares_memory(trajectory.times, stream.times)
        assert np.array_equal(trajectory.values, solve(spec, scheme).values)
        expected = trajectory_csv_reference(trajectory.times, trajectory.values)
        assert (tmp_path / "traj.csv").read_bytes() == expected.encode("utf-8")

    def test_the_formatter_reads_no_snapshot_before_its_post(self, tmp_path):
        # the formatter has time to run ahead of the stores; it must wait
        times, values = special_values_case((3, 4), 2)
        path = tmp_path / "traj.csv"
        with TrajectoryCsvStream(path, values.shape) as stream:
            time.sleep(0.2)
            store_all(stream, times, values)
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()
        assert_no_child_left()

    def test_the_march_never_waits_for_a_stopped_formatter(self, tmp_path, cpus):
        # the formatter is stopped, so it never reads its pipe: storing must
        # still finish, well inside the alarm
        times = np.arange(2000.0)
        values = np.random.default_rng(5).normal(size=(2000, 2, 3))

        def too_slow(signum, frame):
            raise TimeoutError("post waited for a stopped formatter")

        path = tmp_path / "traj.csv"
        previous = signal.signal(signal.SIGALRM, too_slow)
        try:
            with TrajectoryCsvStream(path, values.shape) as stream:
                os.kill(stream._pid, signal.SIGSTOP)
                signal.setitimer(signal.ITIMER_REAL, 10.0)
                try:
                    store_all(stream, times, values)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                os.kill(stream._pid, signal.SIGCONT)
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()
        assert_no_child_left()

    def test_short_writes_are_completed(self, tmp_path, monkeypatch, cpus):
        # a write may take only part of the rows; the rest must follow
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:1000]))
        times, values = special_values_case((3, 4), 2)
        for held in (False, True):
            got = write_stream(tmp_path / f"traj{held}.csv", times, values, held)
            assert got == trajectory_csv_reference(times, values).encode()

    def test_a_stream_without_snapshots_writes_the_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_stream(path, np.zeros(0), np.zeros((0, 2, 3, 4)), held=True)
        assert path.read_text() == "t,i,j,component,value,source\n"

    @pytest.mark.parametrize("held", [False, True], ids=["stored", "held"])
    def test_one_formatter_is_forked_whatever_the_cpu_count(self, tmp_path,
                                                            monkeypatch, cpus,
                                                            held):
        forked = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        times, values = special_values_case((3, 4), 2, count=7)
        got = write_stream(tmp_path / "traj.csv", times, values, held)
        assert len(forked) == 1
        assert got == trajectory_csv_reference(times, values).encode()

    @pytest.mark.parametrize("held", [False, True], ids=["stored", "held"])
    def test_an_exception_kills_the_formatter_and_removes_the_file(self, tmp_path,
                                                                   cpus, held):
        # 400 snapshots of 2 x 500 values keep the formatter busy; half are
        # stored when the exception is raised
        path = tmp_path / "traj.csv"
        times, values = np.arange(400.0), np.ones((400, 2, 500))
        trajectory = SimpleNamespace(times=times, values=values) if held else None
        with pytest.raises(RuntimeError, match="march failed"):
            with TrajectoryCsvStream(path, values.shape, held=trajectory) as stream:
                if not held:
                    store_all(stream, times[:200], values[:200])
                raise RuntimeError("march failed")
        assert not path.exists()
        assert_no_child_left()

    def test_a_killed_formatter_is_a_writer_error(self, tmp_path, cpus):
        path = tmp_path / "traj.csv"
        times, values = np.arange(60.0), np.ones((60, 2, 50))
        with pytest.raises(WriterError, match="exit code -9"):
            with TrajectoryCsvStream(path, values.shape) as stream:
                os.kill(stream._pid, signal.SIGKILL)
                store_all(stream, times, values)
        assert stream.digest is None
        assert not path.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("held", [False, True], ids=["stored", "held"])
    def test_a_formatter_failure_names_its_cause(self, tmp_path, monkeypatch, cpus,
                                                 held):
        # the formatter fails on snapshot 4, whatever has been posted by then
        def failing_rows(shape, m, source):
            header, rows = real_rows(shape, m, source)

            def broken(t, values):
                if t == 4.0:
                    raise RuntimeError("cannot format snapshot 4")
                return rows(t, values)
            return header, broken

        real_rows = io._snapshot_rows
        monkeypatch.setattr(io, "_snapshot_rows", failing_rows)
        path = tmp_path / "traj.csv"
        times, values = np.arange(9.0), np.ones((9, 2, 5))
        with pytest.raises(WriterError, match="RuntimeError: cannot format snapshot 4"):
            write_stream(path, times, values, held)
        assert not path.exists()
        assert_no_child_left()

    def test_an_exception_after_close_keeps_the_complete_file(self, tmp_path, cpus):
        times, values = special_values_case((7,), 2)
        path = tmp_path / "traj.csv"
        with pytest.raises(RuntimeError, match="later stage failed"):
            with TrajectoryCsvStream(path, values.shape) as stream:
                store_all(stream, times, values)
                stream.close()
                stream.close()
                raise RuntimeError("later stage failed")
        assert path.read_bytes() == trajectory_csv_reference(times, values).encode()
        assert_no_child_left()

    @pytest.mark.parametrize("held", [False, True], ids=["stored", "held"])
    def test_a_file_that_cannot_be_created_names_its_cause(self, tmp_path, held):
        # the first post raises, or the close when nothing is posted; no
        # formatter was forked
        path = tmp_path / "traj.csv"
        path.mkdir()
        times, values = np.arange(3.0), np.ones((3, 1, 3))
        with pytest.raises(WriterError, match="IsADirectoryError"):
            write_stream(path, times, values, held)
        assert path.is_dir()
        assert_no_child_left()

    def test_a_sink_of_another_shape_is_refused(self, tmp_path):
        spec = get_scenario("S7_logistic_flat").build_problem()
        scheme = SchemeConfig(dt=0.01, store_every=7)
        shape = (stored_count(spec.horizon, scheme.dt, scheme.store_every) + 1,
                 *spec.initial.values.shape)
        path = tmp_path / "traj.csv"
        with pytest.raises(SpecError, match="the sink holds snapshots of shape"):
            with TrajectoryCsvStream(path, shape) as stream:
                solve(spec, scheme, sink=stream)
        assert not path.exists()
        assert_no_child_left()

    def test_more_than_three_dimensions_rejected_before_forking(self, tmp_path):
        with pytest.raises(SpecError):
            TrajectoryCsvStream(tmp_path / "traj.csv", (1, 1, 2, 2, 2, 2))
        assert not (tmp_path / "traj.csv").exists()
        assert_no_child_left()

    def test_the_caller_may_overwrite_held_values_after_the_fork(self, tmp_path,
                                                                 cpus):
        times, values = special_values_case((3, 4), 2)
        expected = trajectory_csv_reference(times, values, source="duhamel")
        path = tmp_path / "traj.csv"
        held = SimpleNamespace(times=times, values=values)
        with TrajectoryCsvStream(path, values.shape, source="duhamel", held=held):
            values[:] = 0.0
        assert path.read_bytes() == expected.encode("utf-8")


class TestDiagnosticsCsv:
    def test_one_row_per_step(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,min_value,sup_norm,negpart_norm,dudt_min,dvdt_max"
        assert len(lines) == 1 + len(traj.reports)
        assert lines[1].split(",")[1] == "-0.1"

    def test_bytes_match_the_row_by_row_reference(self, tmp_path):
        # more reports than one write takes, every token corner among them
        corners = special_values_case((7,), 2)[1].ravel()
        rng = np.random.default_rng(7)
        fields = rng.normal(size=(1100, 6))
        fields.ravel()[:corners.size] = corners
        fields.ravel()[-corners.size:] = corners
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, monitored(fields))
        expected = ["t,min_value,sup_norm,negpart_norm,dudt_min,dvdt_max"]
        expected += [",".join(repr(v) for v in row) for row in fields.tolist()]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_no_step_writes_the_header(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, monitored(np.zeros((0, 6))))
        assert path.read_text() == "t,min_value,sup_norm,negpart_norm,dudt_min,dvdt_max\n"

    def test_the_tokens_of_a_long_run_are_never_all_held(self, tmp_path):
        # formatting all 10 000 steps at once peaks near 15 MB
        steps = np.arange(10_000.0)
        fields = np.column_stack([0.005 * steps, np.full_like(steps, -0.1), 1.0 + steps,
                                  np.full_like(steps, 0.1), np.full_like(steps, -1e-9),
                                  np.full_like(steps, 1e-9)])
        trajectory = monitored(fields)
        tracemalloc.start()
        try:
            write_diagnostics_csv(tmp_path / "diag.csv", trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestResidualsCsv:
    def test_default_ids_and_equation_numbering(self, tmp_path):
        path = tmp_path / "residuals.csv"
        write_residuals_csv(path, [[1e-5, -2e-5], [3e-5, 4e-5]])
        lines = path.read_text().splitlines()
        assert lines[0] == "test_id,equation,residual"
        assert lines[1] == "bump0,1,1e-05"
        assert lines[2] == "bump0,2,-2e-05"
        assert lines[3].startswith("bump1,1,")

    def test_bytes_match_the_row_by_row_reference(self, tmp_path):
        residuals = special_values_case((3,), 2)[1].reshape(6, 4)
        path = tmp_path / "residuals.csv"
        write_residuals_csv(path, residuals)
        expected = ["test_id,equation,residual"]
        expected += [f"bump{j},{eq + 1},{v!r}" for j, row in enumerate(residuals.tolist())
                     for eq, v in enumerate(row)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

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

    def test_the_values_are_written_without_a_copy(self, tmp_path):
        # a bytes copy of the stored values would be a second copy of the
        # whole trajectory at the run's memory peak
        traj = small_trajectory()
        traj.values = np.random.default_rng(0).normal(size=(50, 2, 2000))
        traj.times = np.arange(50.0)
        path = tmp_path / "snap.bin"
        tracemalloc.start()
        try:
            write_snapshots(path, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.values.nbytes / 10
        assert np.array_equal(read_snapshots(path)[1], traj.values)

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
        assert sha256_file(path) == hashlib.sha256(b"parapos").hexdigest()

    @pytest.mark.parametrize("size", [0, 1, SPAN_BYTES, SPAN_BYTES + 1])
    def test_sha256_reads_every_byte_through_its_buffer(self, tmp_path, size):
        # an empty file, one byte, exactly one buffer and one byte over it
        path = tmp_path / "blob.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_sha256_holds_one_buffer_not_the_file(self, tmp_path):
        # 4 MB read back in 1 MiB pieces held a piece at a time
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(1 << 22))
        sha256_file(path)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            sha256_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * SPAN_BYTES
