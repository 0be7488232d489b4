"""Readers and writers for run artifacts.

Three CSV tables (trajectory, diagnostics, residuals), a little-endian binary
snapshot container, and JSON helpers.  All writers format floats with
``repr``, which round-trips doubles exactly and keeps repeated runs bitwise
identical, and end the file with a trailing newline.

The trajectory CSV has one row formatter, ``_snapshot_rows``, and two
writers that run it.  ``write_trajectory_csv`` formats a finished trajectory
in-process.  ``TrajectoryCsvStream`` forks a child (POSIX only) that formats
the file on another CPU, fed one of two ways: frame by frame, each snapshot
sent through a pipe as the grid route's march stores it; or from a finished
trajectory the child holds from the fork, as the kernel route's CSV is
written while the march runs.  All three write the same bytes.

Binary snapshot layout (all integers unsigned 32-bit little-endian, all
floats 64-bit little-endian):

    magic   5 bytes  b"PPOS1"
    dims    u32      spatial dimension n
    m       u32      number of components
    counts  u32 x (1 + n)   snapshot count, then nodes per axis
    bounds  f64 x (2 n)     low/high per axis
    times   f64 x counts[0]
    payload f64, row-major, shape (counts[0], m, *counts[1:])
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import struct
from pathlib import Path

import numpy as np

from .errors import SpecError, WriterError

MAGIC = b"PPOS1"

_INDEX_NAMES = ("i", "j", "k")


def _fmt(value):
    return repr(float(value))


def _snapshot_rows(shape, m, source):
    """The trajectory CSV's header line and the formatter of one snapshot.

    ``rows(t, values)`` yields the rows of one stored time, ``values`` of
    shape ``(m, *shape)``, one component block per string: the index columns
    are built once per node and component, and only that block's values
    become Python floats, so neither the whole array as Python objects nor
    the whole file as text is ever held.
    """
    if len(shape) > len(_INDEX_NAMES):
        raise SpecError("trajectory export supports up to three dimensions")
    header = ["t", *_INDEX_NAMES[:len(shape)], "component", "value", "source"]
    nodes = [",".join(map(str, ix)) for ix in np.ndindex(shape)]
    middles = [[f",{node},{k}," for node in nodes] for k in range(m)]
    tail = f",{source}\n"

    def rows(t, values):
        t_str = _fmt(t)
        for k in range(m):
            block = np.asarray(values[k], dtype=float).ravel().tolist()
            yield "".join([f"{t_str}{mid}{v!r}{tail}"
                           for mid, v in zip(middles[k], block)])

    return ",".join(header) + "\n", rows


def write_trajectory_csv(path, trajectory, source="fdm"):
    """Long-format snapshot table: one row per (time, node, component).

    Formats in-process with the row formatter that ``TrajectoryCsvStream``'s
    child runs, so both write the same bytes for the same snapshots.
    """
    values = np.asarray(trajectory.values)
    header, rows = _snapshot_rows(values.shape[2:], values.shape[1], source)
    _write_rows(path, header, rows, zip(np.asarray(trajectory.times), values))


def _write_rows(path, header, rows, snapshots):
    """Write ``header``, then the rows of each ``(t, values)`` of ``snapshots``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for t, values in snapshots:
            fh.writelines(rows(t, values))


def _close(*fds):
    for fd in fds:
        if fd is not None:
            os.close(fd)


class TrajectoryCsvStream:
    """A trajectory CSV, formatted by a forked child.

    The constructor forks a child that owns ``path`` and formats snapshots
    of ``shape = (m, *grid)`` with the row formatter of
    ``write_trajectory_csv``, so the file has the same bytes, on another
    CPU.  The child gets its snapshots one of two ways:

    - by frames: each ``send(t, values)`` writes one fixed-size frame to a
      pipe, ``t`` and then the snapshot's doubles;
    - held: ``held``, a finished trajectory (``times`` and ``values``), is
      the child's own copy from the fork, and no frame is sent.  The caller
      may drop its reference to the values at once.

    Used as a context manager, or closed by ``close``:

    - ``close`` (or a clean exit) ends the frames, lets the child write the
      last rows and reaps it; the file is then complete, and a later
      exception leaves it in place;
    - an exception before that kills and reaps the child and removes the
      partial file;
    - a failure in the child (it exits with status 1 and writes
      ``Type: message`` to a second pipe) is raised as ``WriterError``,
      from ``send`` or from ``close``, whichever sees it first.

    Needs POSIX ``fork``.  The child does no logging and leaves by
    ``os._exit``, so it never flushes the parent's stdio buffers.
    """

    def __init__(self, path, shape, source="fdm", held=None):
        self._path = Path(path)
        self._closed = False
        header, rows = _snapshot_rows(shape[1:], shape[0], source)
        frames_r = self._frames = None
        if held is None:
            self._frame = np.empty(1 + math.prod(shape))
            frames_r, self._frames = os.pipe()
        self._status, status_w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            _close(frames_r, self._frames, self._status, status_w)
            raise
        if self._pid == 0:
            _close(self._frames, self._status)
            snapshots = (_read_frames(frames_r, shape) if held is None
                         else zip(np.asarray(held.times), np.asarray(held.values)))
            _format_in_child(status_w, self._path, header, rows, snapshots)
        _close(frames_r, status_w)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        elif not self._closed:
            self._discard()

    def send(self, t, values):
        """Send the snapshot ``values`` (of the stream's shape) at time ``t``.

        Blocks while the pipe is full, that is while the child is a pipe's
        worth of frames behind.
        """
        self._frame[0] = t
        self._frame[1:] = np.ravel(values)
        view = memoryview(self._frame).cast("B")
        try:
            while view:
                view = view[os.write(self._frames, view):]
        except BrokenPipeError:
            self._reap()
            raise

    def close(self):
        """Wait for the child to finish the file; ``WriterError`` if it failed.

        Does nothing once the file is complete.
        """
        if self._closed:
            return
        try:
            _close(self._frames)
            self._frames = None
            self._reap()
        except BaseException:
            self._discard()
            raise
        self._closed = True

    def _reap(self):
        """Wait for the child; raise ``WriterError`` unless it exited with 0."""
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        with open(self._status, "rb") as fh:
            self._status = None
            cause = fh.read().decode("utf-8", "replace")
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise WriterError(f"trajectory writer for {self._path.name} failed: "
                              + (cause or f"exit code {code}"))

    def _discard(self):
        """Kill and reap the child if it still runs; remove the partial file."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        _close(self._frames, self._status)
        self._frames = self._status = None
        if self._path.is_file():
            self._path.unlink()


def _read_frames(frames_fd, shape):
    """Yield ``(t, values)`` from each frame of the pipe, up to its end of file."""
    size = 8 * (1 + math.prod(shape))
    with open(frames_fd, "rb") as frames:
        while frame := frames.read(size):
            data = np.frombuffer(frame)
            yield data[0], data[1:].reshape(shape)


def _format_in_child(status_fd, path, header, rows, snapshots):
    """Child side of ``TrajectoryCsvStream``: write ``snapshots`` into ``path``.

    Never returns: it leaves by ``os._exit``, with status 0 once every
    snapshot is written, or status 1 after writing the cause of a failure
    to ``status_fd``.
    """
    code = 1
    try:
        _write_rows(path, header, rows, snapshots)
        code = 0
    except Exception as exc:  # noqa: BLE001 - the parent reports the cause
        os.write(status_fd, f"{type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(code)


def write_diagnostics_csv(path, trajectory):
    """Per-step monitor table from the trajectory's step reports."""
    header = ["t", "min_value", "sup_norm", "negpart_norm", "dudt_min", "dvdt_max"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r in trajectory.reports:
            fh.write(",".join(_fmt(v) for v in (
                r.t, r.min_value, r.sup_norm, r.negpart_norm,
                r.dudt_min, r.dvdt_max)) + "\n")


def write_residuals_csv(path, residuals, test_ids=None):
    """Weak-residual table with one row per (test function, equation)."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise SpecError("residuals must form a (test, equation) matrix")
    if test_ids is None:
        test_ids = [f"bump{j}" for j in range(residuals.shape[0])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("test_id,equation,residual\n")
        for j, row in enumerate(residuals):
            for eq, val in enumerate(row, start=1):
                fh.write(f"{test_ids[j]},{eq},{_fmt(val)}\n")


def write_snapshots(path, trajectory):
    """Binary dump of all stored snapshots of a run."""
    values = np.ascontiguousarray(np.asarray(trajectory.values, dtype="<f8"))
    times = np.asarray(trajectory.times, dtype="<f8")
    grid = trajectory.grid
    n = grid.dimension
    m = values.shape[1]
    counts = (len(times),) + tuple(int(s) for s in values.shape[2:])
    bounds = [float(v) for pair in grid.domain.bounds for v in pair]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", n, m))
        fh.write(struct.pack(f"<{1 + n}I", *counts))
        fh.write(struct.pack(f"<{2 * n}d", *bounds))
        fh.write(times.tobytes())
        fh.write(values.tobytes())


def read_snapshots(path):
    """Read a binary snapshot file back: (times, values, bounds)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != MAGIC:
        raise SpecError(f"{path} is not a snapshot file (bad magic)")
    off = 5
    n, m = struct.unpack_from("<II", blob, off)
    off += 8
    counts = struct.unpack_from(f"<{1 + n}I", blob, off)
    off += 4 * (1 + n)
    flat_bounds = struct.unpack_from(f"<{2 * n}d", blob, off)
    off += 16 * n
    bounds = tuple((flat_bounds[2 * i], flat_bounds[2 * i + 1]) for i in range(n))
    nt = counts[0]
    times = np.frombuffer(blob, dtype="<f8", count=nt, offset=off).copy()
    off += 8 * nt
    size = nt * m * int(np.prod(counts[1:], dtype=np.int64))
    values = np.frombuffer(blob, dtype="<f8", count=size, offset=off).copy()
    values = values.reshape((nt, m) + tuple(counts[1:]))
    return times, values, bounds


def write_json(path, payload):
    """Deterministically formatted JSON (sorted keys, two-space indent)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
