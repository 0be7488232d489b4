"""Config-constructible coefficient families and initial-data profiles.

Every family is a small pure callable with a declared long-time limit, so
scenario files can both drive the solvers and hand analytic limits to the
steady-state checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SpecError
from .model import Field, build_cutoff


# ---------------------------------------------------------------- time parts

@dataclass(frozen=True)
class ConstantInTime:
    value: float

    def __call__(self, t):
        return float(self.value)

    @property
    def limit(self):
        return float(self.value)


@dataclass(frozen=True)
class ExpInTime:
    """base + amplitude * exp(-rate * t); limit is ``base`` for rate > 0."""

    base: float
    amplitude: float
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise SpecError("exp family needs rate >= 0")

    def __call__(self, t):
        return self.base + self.amplitude * np.exp(-self.rate * t)

    @property
    def limit(self):
        return float(self.base) if self.rate > 0 else float(self.base + self.amplitude)


@dataclass(frozen=True)
class PowerInTime:
    """scale / (1 + t) ** exponent; integrable over [0, inf) when exponent > 1."""

    scale: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise SpecError("power family needs exponent > 0")

    def __call__(self, t):
        # np.power, not ``**``: a Python float power can differ in the last
        # bit from numpy's, and scalar and array ``t`` must give the same bits
        return self.scale / np.power(1.0 + t, self.exponent)

    @property
    def limit(self):
        return 0.0


# --------------------------------------------------------------- space parts

@dataclass(frozen=True)
class ConstantInSpace:
    value: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], float(self.value))


@dataclass(frozen=True)
class BumpInSpace:
    """1 + amplitude * plateau(|x - center|); stays positive for amplitude > -1."""

    center: tuple
    radius: float
    width: float
    amplitude: float

    def __post_init__(self):
        if self.amplitude <= -1.0:
            raise SpecError("bump amplitude must exceed -1 to keep the profile positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        cut = build_cutoff(self.radius, self.width)
        offset = x - np.asarray(self.center, dtype=float)
        return 1.0 + self.amplitude * cut(offset)


@dataclass(frozen=True)
class Coefficient:
    """Separable coefficient value(t, x) = time_part(t) * space_part(x).

    ``t`` is a scalar or an array that broadcasts to ``x``'s batch shape.
    """

    time_part: object
    space_part: object

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        return self.time_part(t) * np.asarray(self.space_part(x), dtype=float)

    @property
    def limit(self):
        return getattr(self.time_part, "limit", None)

    def limit_profile(self, x):
        lim = self.limit
        if lim is None:
            raise SpecError("coefficient family has no declared time limit")
        return lim * np.asarray(self.space_part(x), dtype=float)


class TabulatedCoefficient:
    """Multilinear interpolation of a (t, x) lattice loaded from CSV.

    The file carries columns ``t, x1[, x2], value`` covering a full lattice.
    Queries are clamped to the lattice hull, each row's ``t`` on its own;
    the declared limit is the value row at the largest tabulated time.
    """

    def __init__(self, t_values, axes, table):
        from scipy.interpolate import RegularGridInterpolator  # deferred: README "Set-up cost"
        self.t_values = np.asarray(t_values, dtype=float)
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.table = np.asarray(table, dtype=float)
        pts = (self.t_values,) + self.axes
        self._interp = RegularGridInterpolator(pts, self.table, method="linear",
                                               bounds_error=False, fill_value=None)

    @classmethod
    def from_csv(cls, path, pointer=""):
        return cls(*read_table_lattice(path, pointer))

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        rows = np.broadcast_to(np.asarray(t, dtype=float), batch).ravel()
        t_clamped = np.clip(rows, self.t_values[0], self.t_values[-1])
        q = np.column_stack([t_clamped, x.reshape(-1, x.shape[-1])])
        return self._interp(q).reshape(batch)

    @property
    def limit(self):
        return None

    def limit_profile(self, x):
        return self.__call__(self.t_values[-1], x)


def table_dimension(header, pointer=""):
    """Space dimension of a coefficient table from its header row alone."""
    names = [h.strip().lower() for h in header]
    if len(names) < 3 or names[0] != "t" or names[-1] != "value":
        raise ConfigError("table header must be t, x1[, x2], value", pointer)
    return len(names) - 2


def read_table_lattice(path, pointer=""):
    """A coefficient table's ``(t_values, axes, table)`` from its CSV file.

    Every cell must parse as a float, the ``t`` and ``x`` cells must be
    finite, and the rows must cover the product of their distinct ``t`` and
    ``x`` values once each, in any order.  Faults raise ConfigError at
    ``pointer``.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError("empty coefficient table", pointer)
    dim = table_dimension(rows[0], pointer)
    for j, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 2:
            raise ConfigError(f"table line {j} has {len(row)} cells, not {dim + 2}", pointer)
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]]).reshape(-1, dim + 2)
    except ValueError as exc:
        raise ConfigError(f"table cell is not a number: {exc}", pointer) from exc
    coords = data[:, :-1]
    if not np.isfinite(coords).all():
        raise ConfigError("table t and x cells must be finite", pointer)
    t_values, *axes = (np.unique(c) for c in coords.T)
    shape = (len(t_values),) + tuple(len(a) for a in axes)
    if not data.size or len(np.unique(coords, axis=0)) != len(data) \
            or int(np.prod(shape)) != len(data):
        raise ConfigError("table rows do not form a complete lattice", pointer)
    order = np.lexsort(coords.T[::-1])
    return t_values, tuple(axes), data[order, -1].reshape(shape)


def read_profile_table(path):
    """The values of an initial ``table`` profile, flattened in file order."""
    return np.loadtxt(path, delimiter=",", ndmin=1).ravel()


# --------------------------------------------------------------- parsing

_TIME_FAMILIES = {"constant", "exp", "power"}


def _parse_time(spec, pointer):
    fam = spec.get("family")
    if fam == "constant":
        return ConstantInTime(spec["value"])
    if fam == "exp":
        return ExpInTime(spec["base"], spec["amplitude"], spec["rate"])
    if fam == "power":
        return PowerInTime(spec["scale"], spec["exponent"])
    raise ConfigError(f"unknown time family {fam!r}", pointer)


def parse_coefficient(spec, pointer="", base_dir="."):
    """Build a coefficient evaluator from its JSON description.

    A table's ``path`` is resolved against ``base_dir``.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Coefficient(ConstantInTime(float(spec)), ConstantInSpace())
    if not isinstance(spec, dict):
        raise ConfigError("coefficient must be a number or an object", pointer)
    fam = spec.get("family")
    if fam in _TIME_FAMILIES:
        return Coefficient(_parse_time(spec, pointer), ConstantInSpace())
    if fam == "separable":
        time_part = _parse_time(spec["time"], pointer + "/time")
        sp = spec["space"]
        kind = sp.get("kind")
        if kind == "constant":
            space = ConstantInSpace(sp.get("value", 1.0))
        elif kind == "bump":
            space = BumpInSpace(tuple(sp["center"]), sp["radius"], sp["width"], sp["amplitude"])
        else:
            raise ConfigError(f"unknown space kind {kind!r}", pointer + "/space")
        return Coefficient(time_part, space)
    if fam == "table":
        return TabulatedCoefficient.from_csv(Path(base_dir) / spec["path"], pointer + "/path")
    raise ConfigError(f"unknown coefficient family {fam!r}", pointer)


# --------------------------------------------------------- initial profiles

def _profile_values(grid, spec, pointer, base_dir):
    pts = grid.points
    kind = spec.get("kind")
    if kind == "zero":
        return np.zeros(grid.shape)
    if kind == "sine":
        amp = spec["amplitude"]
        mode = int(spec.get("mode", 1))
        out = np.full(grid.shape, amp)
        for axis, (lo, hi) in enumerate(grid.domain.bounds):
            out = out * np.sin(mode * np.pi * (pts[..., axis] - lo) / (hi - lo))
        return out
    if kind == "plateau":
        cut = build_cutoff(spec["radius"], spec["width"])
        offset = pts - np.asarray(spec["center"], dtype=float)
        return spec["amplitude"] * cut(offset)
    if kind == "bump":
        center = np.asarray(spec["center"], dtype=float)
        r = float(spec["radius"])
        q = ((pts - center) ** 2).sum(axis=-1)
        prof = np.where(q < r * r, (1.0 - q / (r * r)) ** 2, 0.0)
        return spec["amplitude"] * prof
    if kind == "gaussian":
        center = np.asarray(spec["center"], dtype=float)
        w = float(spec["width"])
        q = ((pts - center) ** 2).sum(axis=-1)
        return spec["amplitude"] * np.exp(-q / (2.0 * w * w))
    if kind == "hat":
        if grid.dimension != 1:
            raise ConfigError("hat profile is one-dimensional", pointer)
        lo, hi = grid.domain.bounds[0]
        xi = (pts[..., 0] - lo) / (hi - lo)
        return 2.0 * spec["amplitude"] * np.minimum(xi, 1.0 - xi)
    if kind == "table":
        return read_profile_table(Path(base_dir) / spec["path"]).reshape(grid.shape)
    if kind == "product":
        out = np.ones(grid.shape)
        for j, sub in enumerate(spec["profiles"]):
            out = out * _profile_values(grid, sub, f"{pointer}/profiles/{j}", base_dir)
        return out
    raise ConfigError(f"unknown initial profile {kind!r}", pointer)


def build_initial_field(grid, specs, pointer="/problem/initial", base_dir="."):
    """Stack one profile per component; table paths resolve against ``base_dir``."""
    arrays = [
        _profile_values(grid, spec, f"{pointer}/{k}", base_dir)
        for k, spec in enumerate(specs)
    ]
    return Field.from_arrays(grid, np.stack(arrays))
