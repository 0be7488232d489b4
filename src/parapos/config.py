"""Scenario configuration: schema validation and object construction.

A scenario file is one JSON object with blocks for the problem, the scheme,
the assumption checks, the analysis pipeline, and the outputs.  Validation
runs in two stages: the published JSON schema first (structure, types,
enums, unknown-key rejection), then cross-field rules the schema language
cannot express (matching species counts, table files, battery supports).
Both stages report a JSON-pointer to the offending element.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import jsonschema

from .analysis import bump_battery
from .checker import DEFAULT_ASSUMPTIONS, GROUPS, SampleBudget
from .coefficients import (build_initial_field, parse_coefficient,
                           read_profile_table, read_table_lattice)
from .errors import ConfigError
from .fdm import SchemeConfig
from .model import (Grid, LVCoefficients, Majorants, SpatialDomain,
                    build_lv_problem, stored_count)
from .runner import OPS


def _schema():
    text = resources.files("parapos").joinpath("data/scenario.schema.json").read_text()
    return json.loads(text)


def _pointer(err):
    parts = [str(p) for p in err.absolute_path]
    if err.validator == "required":
        # anchor missing-key errors at the key itself, not its parent
        msg = err.message
        if msg.startswith("'"):
            missing = msg[1:msg.index("'", 1)]
            parts.append(missing)
    return "/" + "/".join(parts)


def validate_data(data):
    """Schema-validate a raw scenario object; raises ConfigError on violation."""
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(data), key=jsonschema.exceptions.relevance)
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ConfigError(best.message, _pointer(best))


def _expand_assumptions(labels):
    out = []
    for label in labels:
        for expanded in GROUPS.get(label, (label,)):
            if expanded not in out:
                out.append(expanded)
    return tuple(out)


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: raw data plus constructors for the run objects."""

    name: str
    data: dict
    base_dir: Path

    @property
    def problem_data(self):
        return self.data["problem"]

    @property
    def analysis_data(self):
        return self.data.get("analysis", {})

    @property
    def outputs_data(self):
        return self.data.get("outputs", {})

    def canonical_json(self):
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def grid(self):
        dom = self.problem_data["domain"]
        domain = SpatialDomain(bounds=tuple(tuple(b) for b in dom["bounds"]))
        return Grid(domain, tuple(self.problem_data["grid"]["nodes"]))

    def lv(self):
        coeffs = self.problem_data["coefficients"]
        growth = tuple(
            parse_coefficient(raw, f"/problem/coefficients/growth/{k}", self.base_dir)
            for k, raw in enumerate(coeffs["growth"]))
        interaction = tuple(
            tuple(parse_coefficient(raw, f"/problem/coefficients/interaction/{k}/{i}",
                                    self.base_dir)
                  for i, raw in enumerate(row))
            for k, row in enumerate(coeffs["interaction"]))
        shift = coeffs.get("source_shift")
        return LVCoefficients(
            diffusion=np.asarray(coeffs["diffusion"], dtype=float),
            growth=growth,
            interaction=interaction,
            # an all-zero shift adds nothing, and would turn -0.0 into +0.0
            shift=shift if shift and any(s != 0 for s in shift) else None,
        )

    def build_problem(self):
        initial = build_initial_field(self.grid(), self.problem_data["initial"],
                                      base_dir=self.base_dir)
        return build_lv_problem(self.lv(), initial, float(self.problem_data["horizon"]))

    def scheme(self):
        return SchemeConfig(**self.data["scheme"])

    def assumptions(self):
        raw = self.data.get("checks", {}).get("assumptions", DEFAULT_ASSUMPTIONS)
        return _expand_assumptions(raw)

    def budget(self, seed_override=None):
        raw = dict(self.data.get("checks", {}).get("budget", {}))
        if seed_override is not None:
            raw["seed"] = int(seed_override)
        return SampleBudget(**raw)

    def compat_factor(self):
        """The file's A6 factor; None leaves the checker's default."""
        return self.data.get("checks", {}).get("tolerances", {}).get("compat_factor")

    def majorants(self):
        raw = self.data.get("checks", {}).get("majorants")
        return Majorants(**raw) if raw else None

    def battery(self):
        """The configured test-function battery, or None to use the default."""
        raw = self.analysis_data.get("battery")
        if raw is None:
            return None
        return bump_battery([tuple(c) for c in raw["centers"]], raw["radius"])


def _check_cross_rules(data, base_dir):
    problem = data["problem"]
    n = len(problem["domain"]["bounds"])
    for axis, (lo, hi) in enumerate(problem["domain"]["bounds"]):
        if not hi > lo:
            raise ConfigError("domain bounds must be increasing",
                              f"/problem/domain/bounds/{axis}")
    if len(problem["grid"]["nodes"]) != n:
        raise ConfigError(
            f"grid lists {len(problem['grid']['nodes'])} axes for a "
            f"{n}-dimensional domain", "/problem/grid/nodes")

    coeffs = problem["coefficients"]
    m = len(coeffs["diffusion"])
    if len(coeffs["growth"]) != m:
        raise ConfigError(f"expected {m} growth coefficients",
                          "/problem/coefficients/growth")
    if len(coeffs["interaction"]) != m:
        raise ConfigError(f"expected {m} interaction rows",
                          "/problem/coefficients/interaction")
    for k, row in enumerate(coeffs["interaction"]):
        if len(row) != m:
            raise ConfigError(f"interaction row {k} must have {m} entries",
                              f"/problem/coefficients/interaction/{k}")
    shift = coeffs.get("source_shift")
    if shift is not None and len(shift) != m:
        raise ConfigError(f"source_shift must list {m} entries",
                          "/problem/coefficients/source_shift")
    if len(problem["initial"]) != m:
        raise ConfigError(f"expected {m} initial profiles", "/problem/initial")

    n_nodes = int(np.prod(problem["grid"]["nodes"]))

    def check_tables(node, pointer):
        # the lattice of a coefficient table, the value count of a profile table
        if isinstance(node, dict):
            if node.get("family") == "table" or node.get("kind") == "table":
                path = (base_dir / node["path"]).resolve()
                where = pointer + "/path"
                if not path.is_file():
                    raise ConfigError(f"table file {node['path']!r} not found", where)
                if node.get("family") == "table":
                    dim = len(read_table_lattice(path, where)[1])
                    if dim != n:
                        raise ConfigError(f"table {node['path']!r} has {dim} space "
                                          f"axes for a {n}-dimensional domain", where)
                else:
                    try:
                        count = read_profile_table(path).size
                    except ValueError as exc:
                        raise ConfigError(f"table {node['path']!r} is not a list of "
                                          f"numbers: {exc}", where) from exc
                    if count != n_nodes:
                        raise ConfigError(f"table {node['path']!r} holds {count} values "
                                          f"for a grid of {n_nodes} nodes", where)
            for key, sub in node.items():
                check_tables(sub, f"{pointer}/{key}")
        elif isinstance(node, list):
            for j, sub in enumerate(node):
                check_tables(sub, f"{pointer}/{j}")

    check_tables(problem, "/problem")

    for j, prof in enumerate(problem["initial"]):
        center = prof.get("center")
        if center is not None and len(center) != n:
            raise ConfigError(f"center must have {n} entries",
                              f"/problem/initial/{j}/center")

    analysis = data.get("analysis", {})
    ops = analysis.get("ops", [])
    signs = analysis.get("monotone_signs")
    if signs is not None and len(signs) != m:
        raise ConfigError(f"monotone_signs must list {m} entries",
                          "/analysis/monotone_signs")
    writers = {}
    for op, (tag, _) in OPS.items():
        if op in ops and writers.setdefault(tag, op) != op:
            raise ConfigError(f"{writers[tag]} and {op} both write the {tag} verdict; "
                              "request one op per tag", "/analysis/ops")
    if "component_bound" in ops and "t_split" not in analysis:
        raise ConfigError("component_bound needs t_split", "/analysis/t_split")
    if analysis.get("t_split", 0.0) > problem["horizon"]:
        raise ConfigError(f"t_split {analysis['t_split']} lies past the horizon "
                          f"{problem['horizon']}", "/analysis/t_split")
    scheme = data["scheme"]
    every = scheme.get("store_every", SchemeConfig.store_every)
    # a step count that is not finite is the march's to reject
    if "monotone" in ops and math.isfinite(problem["horizon"] / scheme["dt"]):
        stored = stored_count(problem["horizon"], scheme["dt"], every)
        if stored < 3:
            raise ConfigError(f"monotone needs at least three snapshots; storing every "
                              f"{every} steps keeps {stored}", "/scheme/store_every")
    if "weak_residuals" in ops and m != 2:
        raise ConfigError("weak residuals are defined for two species",
                          "/analysis/ops")
    if "nested" in ops and "nested" not in analysis:
        raise ConfigError("the nested op needs its radii block", "/analysis/nested")
    for name in ("extinction_component", "gronwall_component", "bound_component"):
        idx = analysis.get(name)
        if idx is not None and idx >= m:
            raise ConfigError(f"component index {idx} out of range for {m} species",
                              f"/analysis/{name}")
    battery = analysis.get("battery")
    if battery is not None:
        radius = battery["radius"]
        for j, center in enumerate(battery["centers"]):
            if len(center) != n:
                raise ConfigError(f"battery center must have {n} entries",
                                  f"/analysis/battery/centers/{j}")
            for axis, (lo, hi) in enumerate(problem["domain"]["bounds"]):
                if not (center[axis] - radius > lo and center[axis] + radius < hi):
                    raise ConfigError(
                        "battery support must stay strictly inside the domain",
                        f"/analysis/battery/centers/{j}")
    limits = analysis.get("limits")
    if limits is not None and m != 2:
        raise ConfigError("limit coefficients describe a two-species system",
                          "/analysis/limits")


def load_config_data(data, base_dir="."):
    """Validate an in-memory scenario object into a ScenarioConfig."""
    if not isinstance(data, dict):
        raise ConfigError("a scenario must be one JSON object", "/")
    validate_data(data)
    base = Path(base_dir)
    _check_cross_rules(data, base)
    return ScenarioConfig(name=data["name"], data=data, base_dir=base)


def load_config(path):
    """Load and validate one scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path!r} does not exist", "/")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", "/") from exc
    return load_config_data(data, base_dir=p.parent)
