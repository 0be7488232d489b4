"""Readers and writers for run artifacts.

Three CSV tables (trajectory, diagnostics, residuals), a little-endian binary
snapshot container, and JSON helpers.  All writers format floats with
``repr``, which round-trips doubles exactly and keeps repeated runs bitwise
identical, and end the file with a trailing newline.

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
import struct

import numpy as np

from .errors import SpecError

MAGIC = b"PPOS1"

_INDEX_NAMES = ("i", "j", "k")


def _fmt(value):
    return repr(float(value))


def write_trajectory_csv(path, trajectory, source="fdm"):
    """Long-format snapshot table: one row per (time, node, component).

    Rows are formatted one (time, component) block at a time: the index
    columns are built once per node and component, and only that block's
    values become Python floats, so the writer never holds the whole array
    as Python objects nor the whole file as text.
    """
    values = np.asarray(trajectory.values)
    times = np.asarray(trajectory.times)
    nt, m = values.shape[0], values.shape[1]
    shape = values.shape[2:]
    n = len(shape)
    if n > len(_INDEX_NAMES):
        raise SpecError("trajectory export supports up to three dimensions")
    header = ["t", *_INDEX_NAMES[:n], "component", "value", "source"]
    nodes = [",".join(map(str, ix)) for ix in np.ndindex(shape)]
    middles = [[f",{node},{k}," for node in nodes] for k in range(m)]
    tail = f",{source}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for it in range(nt):
            t_str = _fmt(times[it])
            for k in range(m):
                block = np.asarray(values[it, k], dtype=float).ravel().tolist()
                fh.write("".join([f"{t_str}{mid}{v!r}{tail}"
                                  for mid, v in zip(middles[k], block)]))


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
