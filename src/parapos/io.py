"""Readers and writers for run artifacts.

Three CSV tables (trajectory, diagnostics, residuals), a little-endian binary
snapshot container, and JSON helpers.  Every CSV float is byte-identical to
its ``repr``, which round-trips doubles exactly and keeps repeated runs
bitwise identical, and every text file ends in a newline.  The CSV
writers take the tokens of a whole array from ``_tokens``: orjson's
shortest digits, with ``repr`` itself for the non-finite values and the two
magnitude bands where orjson's notation differs.  orjson is imported on
that path only, so a run that writes no CSV never loads it.

The trajectory CSV has one row formatter, ``_snapshot_rows``, and two
writers that run it.  ``write_trajectory_csv`` formats a finished trajectory
in-process.  ``TrajectoryCsvStream`` forks one formatter (POSIX only), which
formats and writes the snapshots in order beside the process that makes
them.  The snapshots come one of two ways.  The grid route's march writes
them, as it stores them, into one anonymous shared mapping that is also its
trajectory's only copy, and posts one byte to the formatter per snapshot.
The kernel route's solution is finished before the fork, so the formatter
holds it from the start.  Both write the same bytes.  The formatter hashes
the header and each chunk of rows as it writes them, and hands the file's
sha256 back through its status pipe, so the file is never read back to be
hashed.

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
import mmap
import os
import signal
import struct
from pathlib import Path

import numpy as np

from .errors import SpecError, WriterError
from .fdm import MONITORS
from .model import SPAN_BYTES

MAGIC = b"PPOS1"

_INDEX_NAMES = ("i", "j")


def _tokens(a):
    """The ``repr`` of every double of ``a``, in C order, as ASCII bytes.

    orjson writes the shortest round-trip digits of a float64 array in one
    call, and its digits are ``repr``'s.  Only its notation differs, on
    values a mask selects with a margin: non-finite ones (``null``), those
    from 1e16 on (``1e16``, not ``1e+16``) and those in [1e-9, 1e-4)
    (``0.00001`` and ``1e-9``, not ``1e-05`` and ``1e-09``).  Those go
    through ``repr`` itself.
    """
    import orjson  # deferred: only a CSV write needs it

    a = np.ascontiguousarray(a, dtype=float).ravel()
    if not a.size:
        return []
    tokens = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    magnitude = np.abs(a)
    # NaN compares false, so it falls out of ``magnitude < 1e15`` with the infinities
    odd = ~(magnitude < 1e15) | ((magnitude > 0.9e-10) & (magnitude < 1.1e-4))
    for i in np.flatnonzero(odd).tolist():
        tokens[i] = repr(float(a[i])).encode()
    return tokens


def _snapshot_rows(shape, m, source):
    """The trajectory CSV's header line and the formatter of one snapshot.

    ``rows(t, values)`` returns the rows of one stored time, ``values`` of
    shape ``(m, *shape)``, as bytes.  The rows are one template built here,
    ``[t, ",<node>,<k>,", value, ",<source>\\n"]`` per value, whose time and
    value slots each snapshot fills before one join, so neither the whole
    array as Python objects nor the whole file as text is ever held.
    """
    import orjson  # noqa: F401 - loaded here, before a stream forks its formatter

    header = ["t", *_INDEX_NAMES[:len(shape)], "component", "value", "source"]
    nodes = [",".join(map(str, ix)) for ix in np.ndindex(shape)]
    tail = f",{source}\n".encode()
    template = [part for k in range(m) for node in nodes
                for part in (None, f",{node},{k},".encode(), None, tail)]
    count = m * len(nodes)

    def rows(t, values):
        template[0::4] = _tokens(t) * count
        template[2::4] = _tokens(values)
        return b"".join(template)

    return (",".join(header) + "\n").encode(), rows


def write_trajectory_csv(path, trajectory, source="fdm"):
    """Long-format snapshot table: one row per (time, node, component).

    Formats in-process with the row formatter that ``TrajectoryCsvStream``'s
    formatter runs, so both write the same bytes for the same snapshots.
    """
    values = np.asarray(trajectory.values)
    header, rows = _snapshot_rows(values.shape[2:], values.shape[1], source)
    with open(path, "wb") as fh:
        fh.write(header)
        for t, snapshot in zip(np.asarray(trajectory.times), values):
            fh.write(rows(t, snapshot))


def _close(*fds):
    for fd in fds:
        if fd is not None:
            os.close(fd)


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _create(path, header):
    """Open ``path`` for the formatter and write the header into it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, header)
    except BaseException:
        os.close(fd)
        raise
    return fd


class TrajectoryCsvStream:
    """A trajectory CSV, formatted by one forked formatter beside its producer.

    ``shape`` is ``(snapshots, m, *grid)``.  The constructor writes the
    header, then forks one formatter.  It formats the snapshots in order
    with the row formatter of ``write_trajectory_csv`` and writes them
    through the file description opened here, so the file has the bytes of
    ``write_trajectory_csv``.  The snapshots come one of two ways:

    - stored: ``times`` and ``values``, of shapes ``(snapshots,)`` and
      ``shape``, live in one anonymous shared mapping and outlive the
      stream.  The caller writes each snapshot into them in order, then
      calls ``post()``, which writes one byte to the formatter's pipe.  A
      pipe holds 64 KiB, so ``post`` waits only when the formatter is
      65 536 snapshots behind;
    - held: ``held``, a finished trajectory (``times`` and ``values``), is
      the formatter's own copy from the fork, and nothing is posted.  The
      caller may drop its reference to the values at once.

    Used as a context manager, or closed by ``close``:

    - ``close`` (or a clean exit) waits for the formatter to write the last
      rows and reaps it; the file is then complete, ``digest`` holds the
      hex sha256 of its bytes, which the formatter computed as it wrote
      them, and a later exception leaves the file in place;
    - an exception before that kills and reaps the formatter and removes
      the partial file;
    - a formatter that fails (it exits with status 1 and writes
      ``Type: message`` to its status pipe) or dies is raised as
      ``WriterError``, from ``post`` or from ``close``, whichever sees it
      first, once it has ended, and ``digest`` stays ``None``.  So is a
      failure to create the file, after which no formatter is forked.

    Needs POSIX ``fork``.  The formatter does no logging and leaves by
    ``os._exit``, so it never flushes the parent's stdio buffers.
    """

    def __init__(self, path, shape, source="fdm", held=None):
        self._path = Path(path)
        self._closed = False
        self.digest = None
        header, rows = _snapshot_rows(shape[2:], shape[1], source)
        if held is None:
            buffer = mmap.mmap(-1, 8 * shape[0] * (1 + math.prod(shape[1:])))
            self.times = np.frombuffer(buffer, count=shape[0])
            self.values = np.frombuffer(buffer, offset=8 * shape[0]).reshape(shape)
            times, values = self.times, self.values
        else:
            times, values = np.asarray(held.times), np.asarray(held.values)
        self._pid = self._status = self._ready = self._cause = None
        try:
            given = [_create(self._path, header)]  # ends only the formatter keeps
        except OSError as exc:
            self._cause = f"{type(exc).__name__}: {exc}"
            return
        try:
            self._status, status = os.pipe()
            given.append(status)
            ready = None
            if held is None:
                ready, self._ready = os.pipe()
                given.append(ready)
            self._pid = os.fork()
            if self._pid == 0:
                _format_snapshots((status, ready, given[0]), (self._status, self._ready),
                                  header, rows, times, values)
        except BaseException:
            self._discard()
            raise
        finally:
            _close(*given)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        elif not self._closed:
            self._discard()

    def post(self):
        """Hand the next stored snapshot to the formatter."""
        if self._cause is not None:
            self._reap()
        try:
            os.write(self._ready, b"\0")
        except BrokenPipeError:
            self._reap()
            raise

    def close(self):
        """Wait for the formatter to finish the file; ``WriterError`` if it failed.

        Sets ``digest``.  Does nothing once the file is complete.
        """
        if self._closed:
            return
        try:
            self._reap()
        except BaseException:
            self._discard()
            raise
        self._closed = True

    def _reap(self):
        """Let the formatter end and reap it; ``WriterError`` unless it exits 0.

        Closing the snapshot pipe ends a formatter that waits for a snapshot
        never posted, so the wait finishes even after a failure.  The status
        pipe holds the file's digest after an exit 0, the cause otherwise.
        """
        _close(self._ready)
        self._ready = None
        if self._pid is not None:
            _, status = os.waitpid(self._pid, 0)
            self._pid = None
            with open(self._status, "rb") as fh:
                self._status = None
                said = fh.read().decode("utf-8", "replace")
            code = os.waitstatus_to_exitcode(status)
            if code == 0:
                self.digest = said
            else:
                self._cause = said or f"exit code {code}"
        if self._cause is not None:
            raise WriterError(f"trajectory writer for {self._path.name} failed: "
                              + self._cause)

    def _discard(self):
        """Kill and reap the formatter if it still runs; remove the partial file."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        _close(self._ready, self._status)
        self._ready = self._status = None
        if self._path.is_file():
            self._path.unlink()


def _format_snapshots(own, parents, header, rows, times, values):
    """Formatter side of ``TrajectoryCsvStream``: write every snapshot in order.

    ``own`` holds the formatter's descriptors, ``(status_fd, ready_fd,
    out_fd)``; it first closes ``parents``, the parent's ends of its pipes.
    For each snapshot: wait for its byte on ``ready_fd`` (``None`` when the
    snapshots are held), then format it, write the rows to ``out_fd`` and
    add them to the sha256 of the file, which ``header`` (already written)
    starts.  Never returns: it leaves by ``os._exit``, with status 0 after
    writing the file's hex digest to ``status_fd`` once every snapshot is
    written, or 1 after writing the cause of a failure there.
    """
    status_fd, ready_fd, out_fd = own
    code = 1
    try:
        _close(*parents)
        digest = hashlib.sha256(header)
        for i in range(len(times)):
            if ready_fd is not None and not os.read(ready_fd, 1):
                raise EOFError(f"snapshot {i} was never stored")
            chunk = rows(times[i], values[i])
            _write_all(out_fd, chunk)
            digest.update(chunk)
        os.write(status_fd, digest.hexdigest().encode())
        code = 0
    except Exception as exc:  # noqa: BLE001 - the parent reports the cause
        os.write(status_fd, f"{type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(code)


#: steps formatted per write of ``write_diagnostics_csv``, so its tokens
#: stay near 0.2 MB however long the run
_STEPS_PER_WRITE = 128


def write_diagnostics_csv(path, trajectory):
    """Per-step monitor table, the first six monitor columns of the trajectory."""
    header = MONITORS[:6]
    width = len(header)
    monitors = trajectory.monitors
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(monitors), _STEPS_PER_WRITE):
            chunk = monitors[start:start + _STEPS_PER_WRITE, :width]
            tokens = _tokens(chunk)
            # one separator after each token: a comma, or a newline after a row's last
            parts = [b","] * (2 * len(tokens))
            parts[0::2] = tokens
            parts[2 * width - 1::2 * width] = [b"\n"] * len(chunk)
            fh.write(b"".join(parts))


def write_residuals_csv(path, residuals):
    """Weak-residual table with one row per (test function ``bump<j>``, equation)."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise SpecError("residuals must form a (test, equation) matrix")
    prefixes = [f"bump{j},{eq},".encode() for j in range(residuals.shape[0])
                for eq in range(1, residuals.shape[1] + 1)]
    with open(path, "wb") as fh:
        fh.write(b"test_id,equation,residual\n")
        fh.write(b"".join([p + t + b"\n" for p, t in zip(prefixes, _tokens(residuals))]))


def write_snapshots(path, trajectory):
    """Binary dump of all stored snapshots of a run."""
    values = np.ascontiguousarray(np.asarray(trajectory.values, dtype="<f8"))
    times = np.ascontiguousarray(np.asarray(trajectory.times, dtype="<f8"))
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
        # the arrays are written through their buffers, never copied to bytes
        fh.write(times)
        fh.write(values)


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
    """The file's sha256, read into one buffer of ``SPAN_BYTES``."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(SPAN_BYTES))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()
