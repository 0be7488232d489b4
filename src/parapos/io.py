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
in-process.  ``TrajectoryCsvStream`` forks one formatter per CPU (POSIX
only).  Formatter ``j`` of ``K`` formats snapshots ``j, j + K, ...``, all of
them at once, and writes each in turn: a token passed round a ring of pipes
keeps the rows in snapshot order.  The snapshots come one of two ways.  The
grid route's march writes them, as it stores them, into one anonymous
shared mapping that is also its trajectory's only copy, and posts one byte
to the owning formatter per snapshot.  The kernel route's solution is
finished before the fork, so every formatter holds it from the start.  All
of these write the same bytes.

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

MAGIC = b"PPOS1"

_INDEX_NAMES = ("i", "j", "k")


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
    if len(shape) > len(_INDEX_NAMES):
        raise SpecError("trajectory export supports up to three dimensions")
    import orjson  # noqa: F401 - loaded here, before a stream forks its formatters

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
    formatters run, so both write the same bytes for the same snapshots.
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


def _pipe(read_ends, write_ends):
    """A new pipe; its read end joins ``read_ends`` and its write end ``write_ends``."""
    r, w = os.pipe()
    read_ends.append(r)
    write_ends.append(w)
    return r, w


def _create(path, header):
    """Open ``path`` for the formatters and write the header into it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, header)
    except BaseException:
        os.close(fd)
        raise
    return fd


#: exit status of a formatter whose snapshot or turn can no longer come,
#: because another process of the stream failed first
_CUT_OFF = 2


class _CutOff(Exception):
    pass


class TrajectoryCsvStream:
    """A trajectory CSV, formatted on every CPU by forked formatters.

    ``shape`` is ``(snapshots, m, *grid)``.  The constructor writes the
    header, then forks ``K`` formatters, one per CPU the process may run on
    (``os.sched_getaffinity``) and at most one per snapshot.  Formatter
    ``j`` formats snapshots ``j, j + K, ...`` with the row formatter of
    ``write_trajectory_csv``, each while the others format theirs.  It
    writes a snapshot once it holds the turn token, then passes the token
    to the formatter of the next snapshot, round a ring of pipes.  All write
    through the one file description opened here, so the file has the bytes
    of ``write_trajectory_csv``.  The snapshots come one of two ways:

    - stored: ``times`` and ``values``, of shapes ``(snapshots,)`` and
      ``shape``, live in one anonymous shared mapping and outlive the
      stream.  The caller writes snapshot ``i`` into them, then calls
      ``post(i)``, which writes one byte to the pipe of its formatter.  A
      pipe holds 64 KiB, so ``post`` waits only when a formatter is 65 536
      snapshots behind;
    - held: ``held``, a finished trajectory (``times`` and ``values``), is
      every formatter's own copy from the fork, and nothing is posted.  The
      caller may drop its reference to the values at once.

    Used as a context manager, or closed by ``close``:

    - ``close`` (or a clean exit) waits for the formatters to write the last
      rows and reaps them; the file is then complete, and a later exception
      leaves it in place;
    - an exception before that kills and reaps every formatter and removes
      the partial file;
    - a formatter that fails (it exits with status 1 and writes
      ``Type: message`` to its status pipe) or dies is raised as
      ``WriterError``, from ``post`` or from ``close``, whichever sees it
      first, once every formatter has ended.  So is a failure to create the
      file, after which no formatter is forked.

    Needs POSIX ``fork``.  A formatter does no logging and leaves by
    ``os._exit``, so it never flushes the parent's stdio buffers.
    """

    def __init__(self, path, shape, source="fdm", held=None):
        self._path = Path(path)
        self._closed = False
        header, rows = _snapshot_rows(shape[2:], shape[1], source)
        if held is None:
            buffer = mmap.mmap(-1, 8 * shape[0] * (1 + math.prod(shape[1:])))
            self.times = np.frombuffer(buffer, count=shape[0])
            self.values = np.frombuffer(buffer, offset=8 * shape[0]).reshape(shape)
            times, values = self.times, self.values
        else:
            times, values = np.asarray(held.times), np.asarray(held.values)
        k = min(len(os.sched_getaffinity(0)), len(times))
        self._pids, self._status, self._ready = [], [], []
        self._cause = None
        try:
            given = [_create(self._path, header)]  # ends only the formatters keep
        except OSError as exc:
            self._cause = f"{type(exc).__name__}: {exc}"
            return
        try:
            status = [_pipe(self._status, given) for _ in range(k)]
            turns = [_pipe(given, given) for _ in range(k)]
            ready = [_pipe(given, self._ready) if held is None else (None, None)
                     for _ in range(k)]
            if k:
                os.write(turns[0][1], b"\0")     # snapshot 0 may be written first
            for j in range(k):
                pid = os.fork()
                if pid == 0:
                    own = (status[j][1], ready[j][0], turns[j][0],
                           turns[(j + 1) % k][1], given[0])
                    _format_stripe(own, given + self._status + self._ready,
                                   rows, times, values, range(j, len(times), k))
                self._pids.append(pid)
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

    def post(self, i):
        """Hand the stored snapshot ``i`` to its formatter."""
        if self._cause is not None:
            self._reap()
        try:
            os.write(self._ready[i % len(self._ready)], b"\0")
        except BrokenPipeError:
            self._reap()
            raise

    def close(self):
        """Wait for the formatters to finish the file; ``WriterError`` if one failed.

        Does nothing once the file is complete.
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
        """Let every formatter end and reap it; ``WriterError`` unless all exit 0.

        Closing the snapshot pipes ends a formatter that waits for a snapshot
        never posted, and a formatter whose turn can never come ends too, so
        the waits finish even after a failure.  The error names the first
        formatter that failed on its own, not one that was cut off by it.
        """
        _close(*self._ready)
        self._ready = []
        failures = [] if self._cause is None else [(False, self._cause)]
        for j, pid in enumerate(self._pids):
            _, status = os.waitpid(pid, 0)
            self._pids[j] = None
            with open(self._status[j], "rb") as fh:
                self._status[j] = None
                cause = fh.read().decode("utf-8", "replace")
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                failures.append((code == _CUT_OFF, cause or f"exit code {code}"))
        if failures:
            raise WriterError(f"trajectory writer for {self._path.name} failed: "
                              + min(failures, key=lambda f: f[0])[1])

    def _discard(self):
        """Kill and reap every formatter still running; remove the partial file."""
        for j, pid in enumerate(self._pids):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                self._pids[j] = None
        _close(*self._ready, *self._status)
        self._ready, self._status = [], []
        if self._path.is_file():
            self._path.unlink()


def _format_stripe(own, inherited, rows, times, values, stripe):
    """Formatter side of ``TrajectoryCsvStream``: write the snapshots ``stripe``.

    ``own`` holds the formatter's descriptors, ``(status_fd, ready_fd,
    turn_fd, next_fd, out_fd)``; it closes every other one of
    ``inherited``.  For each snapshot: wait for its byte on ``ready_fd``
    (``None`` when the snapshots are held), format it, wait for the token
    on ``turn_fd``, write the rows to ``out_fd`` and pass the token on
    ``next_fd``.  Never returns: it leaves by ``os._exit``, with status 0
    once the stripe is written, or after writing the cause of a failure to
    ``status_fd`` with status ``_CUT_OFF`` when another process failed
    first, 1 otherwise.
    """
    status_fd, ready_fd, turn_fd, next_fd, out_fd = own
    code = 1
    try:
        _close(*(fd for fd in inherited if fd not in own))
        for i in stripe:
            if ready_fd is not None and not os.read(ready_fd, 1):
                raise _CutOff(f"snapshot {i} was never stored")
            text = rows(times[i], values[i])
            if not os.read(turn_fd, 1):
                raise _CutOff(f"the rows before snapshot {i} were never written")
            _write_all(out_fd, text)
            if i + 1 < stripe.stop:
                try:
                    os.write(next_fd, b"\0")
                except BrokenPipeError:
                    gone = f"the formatter of snapshot {i + 1} is gone"
                    raise _CutOff(gone) from None
        code = 0
    except Exception as exc:  # noqa: BLE001 - the parent reports the cause
        code = _CUT_OFF if isinstance(exc, _CutOff) else 1
        os.write(status_fd, f"{type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(code)


#: step reports formatted per write of ``write_diagnostics_csv``, so its
#: tokens stay near 0.2 MB however long the run
_REPORTS_PER_WRITE = 128


def write_diagnostics_csv(path, trajectory):
    """Per-step monitor table from the trajectory's step reports."""
    header = ["t", "min_value", "sup_norm", "negpart_norm", "dudt_min", "dvdt_max"]
    width = len(header)
    reports = trajectory.reports
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(reports), _REPORTS_PER_WRITE):
            chunk = reports[start:start + _REPORTS_PER_WRITE]
            tokens = _tokens([(r.t, r.min_value, r.sup_norm, r.negpart_norm,
                               r.dudt_min, r.dvdt_max) for r in chunk])
            # one separator after each token: a comma, or a newline after a row's last
            parts = [b","] * (2 * len(tokens))
            parts[0::2] = tokens
            parts[2 * width - 1::2 * width] = [b"\n"] * len(chunk)
            fh.write(b"".join(parts))


def write_residuals_csv(path, residuals, test_ids=None):
    """Weak-residual table with one row per (test function, equation)."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise SpecError("residuals must form a (test, equation) matrix")
    if test_ids is None:
        test_ids = [f"bump{j}" for j in range(residuals.shape[0])]
    prefixes = [f"{test_ids[j]},{eq},".encode() for j in range(residuals.shape[0])
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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
