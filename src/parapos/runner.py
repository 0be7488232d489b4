"""Scenario execution: checks, solvers, analysis, and the run manifest.

A run works through its stages in this order: hypothesis checks; the
kernel route, when ``dual_route`` is requested; the positivity step bound;
the grid march; the requested analysis ops.  ``OPS`` is their table: it
maps each op to the verdict tag it writes and to the function that takes
the run's ``_Run`` context to that verdict, and the ops run in its order.
The kernel route runs before the march, while no other process of the run
is alive.  A formatter forked then inherits the finished solution but no
pipe of the grid route's writer, and formats the kernel CSV while the march
runs.  The march stores each snapshot into the grid route's
``TrajectoryCsvStream``, one shared buffer that is also the trajectory's
values, and that stream's formatter writes ``trajectory.csv`` beside it.
Each trajectory CSV's formatter hashes the file as it writes it, so the
manifest takes those digests and reads back only the other artifacts.
A kernel-route failure is raised at the ``dual_route`` op, so a failed run
has the verdicts, files and error it would have if the route ran there.
Verdicts are conditional in one direction only: when the hypothesis checks
fail, failing conclusion checks are reported "inconclusive" rather than
"violated", because nothing was promised for inputs outside the hypotheses.
"""

from __future__ import annotations

import contextlib
import logging
import math
import traceback
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (component_bound_mk, default_battery, detect_monotone,
                       elliptic_weak_residual, extinction_check,
                       extract_steady_state, gronwall_extinction_bound,
                       lv_limit_coefficients, max_principle_bound,
                       sup_norm_series)
from .checker import run_checks
from .duhamel import PicardConfig, picard_solve
from .errors import NonConvergence, ParaposError, SpecError
from .fdm import positivity_step_bound, solve, solve_cauchy_nested
from .io import (TrajectoryCsvStream, sha256_file, write_diagnostics_csv,
                 write_json, write_residuals_csv, write_snapshots)
from .model import stored_count

logger = logging.getLogger("parapos")

POSITIVITY_FACTOR = 1e-8     # negative part allowed per unit of sup norm
BOUND_SLACK = 1e-6           # additive slack on sup-norm barriers
RESIDUAL_TOL = 5e-4          # weak-residual magnitude at base resolution

_CONCLUSION_NOTE = "hypotheses unverified; conclusion cannot be falsified here"


@dataclass
class Verdict:
    status: str              # verified | violated | inconclusive
    note: str = ""
    data: dict = field(default_factory=dict)

    def to_json(self):
        return {"status": self.status, "note": self.note, "data": self.data}


@dataclass
class RunManifest:
    name: str
    status: str              # ok | error
    config_hash: str
    tool_version: str
    seed: int
    started: str
    finished: str
    verdicts: dict
    files: list
    error: str | None = None

    @property
    def all_verified(self):
        return self.status == "ok" and all(
            v.status == "verified" for v in self.verdicts.values())

    @property
    def any_violated(self):
        return any(v.status == "violated" for v in self.verdicts.values())

    def to_json(self):
        return {
            "name": self.name,
            "status": self.status,
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "started": self.started,
            "finished": self.finished,
            "verdicts": {k: v.to_json() for k, v in sorted(self.verdicts.items())},
            "files": self.files,
            "error": self.error,
        }


class _Artifacts:
    """A run's output directory and the artifacts this run wrote into it.

    The manifest lists only these: a file an earlier run left in the
    directory is not this run's, even when it has an artifact's name.
    """

    def __init__(self, root):
        self.root = root
        self._digests = {}   # name -> the sha256 its writer gave, or None

    def write(self, name, writer, *args, **kwargs):
        """Write artifact ``name`` with ``writer(path, *args, **kwargs)``."""
        writer(self.root / name, *args, **kwargs)
        self._digests[name] = None

    def add(self, name, digest):
        """Record artifact ``name``, written completely by other means, with its sha256."""
        self._digests[name] = digest

    def listing(self):
        """The manifest's ``files``: every artifact with its sha256, by path.

        An artifact recorded without its digest is read back and hashed.
        """
        entries = [{"path": name, "sha256": digest or sha256_file(self.root / name)}
                   for name, digest in sorted(self._digests.items())]
        entries.append({"path": "manifest.json", "sha256": None})
        return entries


def _now():
    return datetime.now(timezone.utc).isoformat()


def _positivity_verdict(trajectory, bound):
    """The positivity verdict of a march whose step bound is ``bound``."""
    slack = POSITIVITY_FACTOR * (1.0 + trajectory.monitor("sup_norm"))
    worst = float(np.max(trajectory.monitor("negpart_norm") - slack, initial=0.0))
    status = "verified" if worst <= 0.0 else "violated"
    data = {
        "worst_excess": worst,
        "steps": len(trajectory.monitors),
        # strict JSON has no Infinity: an unbounded step is written as null
        "dt_bound": float(bound) if math.isfinite(bound) else None,
        "dt_ok": bool(trajectory.dt <= bound),
        "dt_adjusted": bool(trajectory.dt_adjusted),
    }
    if status == "violated":
        data["witness"] = _lowest_stored_value(trajectory)
    return Verdict(status, data=data)


def _lowest_stored_value(trajectory):
    """Time, component, node and value of the trajectory's lowest stored value."""
    values = trajectory.values
    at = np.unravel_index(int(np.argmin(values)), values.shape)
    node = at[2:]
    return {"t": float(trajectory.times[at[0]]), "component": int(at[1]),
            "node": [int(i) for i in node],
            "x": [float(c) for c in trajectory.grid.points[node]],
            "value": float(values[at])}


def _sup_bound_verdict(observed, bound, note=""):
    ok = observed <= bound + BOUND_SLACK
    return Verdict("verified" if ok else "violated", note=note,
                   data={"bound": bound, "observed_sup": observed})


class _KernelRoute:
    """The kernel route of a run that requests ``dual_route``, solved early.

    ``picard_solve`` runs while no other process of the run is alive.  Then,
    if ``csv_path`` is given, a ``TrajectoryCsvStream`` forks its
    formatter.  It holds the solution from the fork, so every snapshot is
    ready at once, and it writes that file in snapshot order while the
    parent marches.  The parent keeps only what the verdict reads: the
    result cut to its stored time nearest the cross-check time, with the
    counters.  A Picard failure is held in ``error`` for
    ``_dual_route`` to raise.  Used as a context manager: an exception
    before ``_dual_route`` closes the writer kills its formatter and
    removes its file.
    """

    def __init__(self, problem, analysis, csv_path):
        self.crosscheck_time = float(analysis.get("crosscheck_time", problem.horizon))
        self.result = self.error = self.writer = None
        try:
            result = picard_solve(problem, PicardConfig(**analysis.get("picard", {})))
        except Exception as exc:  # noqa: BLE001 - raised where the verdict is made
            self.error = exc
            return
        ip = int(np.argmin(np.abs(result.times - self.crosscheck_time)))
        self.result = replace(result, times=result.times[ip:ip + 1],
                              values=result.values[ip:ip + 1].copy())
        if csv_path is not None:
            self.writer = TrajectoryCsvStream(csv_path, result.values.shape,
                                              source="duhamel", held=result)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.writer is not None:
            self.writer.__exit__(*exc)


class _Run:
    """What the analysis ops of one run read, and the steady state they share."""

    def __init__(self, config, problem, scheme, trajectory, report, kernel, artifacts,
                 formats):
        self.config, self.problem, self.scheme = config, problem, scheme
        self.trajectory, self.report, self.kernel = trajectory, report, kernel
        self.artifacts, self.formats = artifacts, formats
        self.steady = None      # SteadyStateReport, extracted on first use

    @property
    def analysis(self):
        return self.config.analysis_data

    def steady_state(self):
        if self.steady is None:
            self.steady = extract_steady_state(
                self.trajectory,
                window_fraction=float(self.analysis.get("window_fraction", 0.1)),
                steady_tol=float(self.analysis.get("steady_tol", 1e-8)))
        return self.steady


def _max_principle(run):
    d1, d2 = run.report.d1_hat, run.report.d2_hat
    if d1 is None or d2 is None:
        return Verdict("inconclusive", note="no dissipativity constants; request A2'")
    bound = max_principle_bound(d1, d2, run.problem.horizon, run.problem.initial.values)
    return _sup_bound_verdict(float(run.trajectory.monitor("sup_norm").max()), bound,
                              "dissipativity barrier")


def _gronwall(run):
    k = int(run.analysis.get("gronwall_component", 0))
    bound = gronwall_extinction_bound(run.problem.initial.values[k],
                                      run.problem.lv.growth[k], run.problem.domain)
    return _sup_bound_verdict(float(sup_norm_series(run.trajectory, k)[1].max()), bound,
                              "integrated-growth barrier")


def _extinction(run):
    verdict = extinction_check(
        run.trajectory, int(run.analysis.get("extinction_component", 0)),
        tol_ext=float(run.analysis.get("tol_ext", 1e-3)),
        window_fraction=float(run.analysis.get("window_fraction", 0.1)))
    return Verdict("verified" if verdict.extinct else "violated",
                   data={"final_sup": verdict.final_sup, "peak_sup": verdict.peak_sup,
                         "tail_decreasing": verdict.tail_decreasing})


def _monotone(run):
    signs = run.analysis.get("monotone_signs") or [1] * run.problem.components
    results = [detect_monotone(run.trajectory, k, sign) for k, sign in enumerate(signs)]
    worst = min(results, key=lambda res: res.worst_margin)
    return Verdict("verified" if all(res.passed for res in results) else "violated",
                   data={"worst_margin": worst.worst_margin, "witness": worst.witness})


def _steady_state(run):
    steady = run.steady_state()
    return Verdict("verified" if steady.reached else "violated",
                   data={"tail_slope": steady.tail_slope, "window": steady.window})


def _weak_residuals(run):
    steady = run.steady_state()
    system = lv_limit_coefficients(run.problem.lv, run.problem.initial.grid,
                                   run.analysis.get("limits"))
    tests = run.config.battery() or default_battery(run.problem.domain)
    residuals = elliptic_weak_residual(system, steady.values[0], steady.values[1], tests)
    steady.attach_residuals(residuals)
    if "csv" in run.formats:
        run.artifacts.write("residuals.csv", write_residuals_csv, residuals)
    worst = float(np.abs(residuals).max())
    return Verdict("verified" if worst <= RESIDUAL_TOL else "violated",
                   data={"worst_residual": worst, "tolerance": RESIDUAL_TOL,
                         "battery_size": len(tests), "coverage": "finite battery only"})


def _component_bound(run):
    k = int(run.analysis.get("bound_component", 0))
    lv = run.problem.lv
    bound = component_bound_mk(run.trajectory, lv.growth[k], lv.interaction[k][k],
                               float(run.analysis["t_split"]), k)
    return _sup_bound_verdict(float(sup_norm_series(run.trajectory, k)[1].max()),
                              float(bound))


def _dual_route(run):
    trajectory, kernel = run.trajectory, run.kernel
    if kernel.error is not None:
        raise kernel.error
    result, tc = kernel.result, kernel.crosscheck_time
    c_const = float(run.analysis.get("crosscheck_constant", 2.0))
    it = int(np.argmin(np.abs(trajectory.times - tc)))
    if abs(trajectory.times[it] - tc) > 1e-9 or abs(result.times[0] - tc) > 1e-9:
        raise SpecError(f"crosscheck time {tc} is not on both stored time lattices")

    a = trajectory.values[it]
    b = result.values[0]
    scale = float(np.abs(a).max())
    diff = float(np.abs(a - b).max()) / (scale if scale > 0 else 1.0)
    h = max(trajectory.grid.spacing)
    tol = max(1e-3, c_const * (h * h + trajectory.dt))

    ratios = [r for window in result.contraction_ratios for r in window]
    contracting = all(r < 1.0 for r in ratios)

    if kernel.writer is not None:
        kernel.writer.close()
        run.artifacts.add("trajectory_duhamel.csv", kernel.writer.digest)

    ok = diff <= tol and contracting
    note = "" if ok else ("kernel route disagrees" if diff > tol
                          else "picard sweeps failed to contract")
    data = {"rel_sup_diff": diff, "tolerance": tol,
            "crosscheck_time": tc, "contracting": contracting,
            "sweep_ratios_max": max(ratios) if ratios else None,
            "jacobian_sup": result.jacobian_sup,
            "window_edges": result.window_edges,
            "sweeps": result.iterations,
            "sweep_ratios": result.contraction_ratios}
    if not ok:
        data["witness"] = _largest_gap(trajectory.grid, a, b)
    return Verdict("verified" if ok else "violated", note=note, data=data)


def _largest_gap(grid, grid_values, kernel_values):
    """Component, node and both routes' values where they differ the most."""
    at = np.unravel_index(int(np.argmax(np.abs(grid_values - kernel_values))),
                          grid_values.shape)
    node = at[1:]
    return {"component": int(at[0]), "node": [int(i) for i in node],
            "x": [float(c) for c in grid.points[node]],
            "grid_value": float(grid_values[at]),
            "kernel_value": float(kernel_values[at])}


def _nested(run):
    block = run.analysis["nested"]
    try:
        report = solve_cauchy_nested(
            run.problem, tuple(block["radii"]), run.scheme,
            cutoff_width=float(block.get("cutoff_width", 1.0)),
            tol_nested=float(block.get("tol_nested", 1e-6)),
        )
    except NonConvergence as exc:
        return Verdict("violated", note=str(exc))
    status = "verified" if report.converged else "violated"
    return Verdict(status,
                   note="" if report.converged else "final difference above tolerance",
                   data={"radii": list(report.radii),
                         "core_diffs": [float(d) for d in report.diffs],
                         "tolerance": report.tol})


#: each analysis op with the verdict tag it writes and the function that
#: takes a ``_Run`` to that verdict, in the order a run takes them
OPS = {
    "max_principle": ("sup-bound", _max_principle),
    "gronwall": ("sup-bound", _gronwall),
    "extinction": ("extinction", _extinction),
    "monotone": ("monotone-flow", _monotone),
    "steady_state": ("steady-state", _steady_state),
    "weak_residuals": ("weak-residuals", _weak_residuals),
    "component_bound": ("component-bound", _component_bound),
    "dual_route": ("dual-route-match", _dual_route),
    "nested": ("nested-boxes", _nested),
}


def _run_analysis(run, verdicts):
    ops = run.analysis.get("ops", [])
    for op, (tag, verdict_of) in OPS.items():
        if op in ops:
            verdicts[tag] = verdict_of(run)
        if op == "weak_residuals" and run.steady is not None and "json" in run.formats:
            # after the residuals are attached, before a later op can fail
            run.artifacts.write("steady_state.json", write_json, run.steady.to_json())


def _downgrade(verdicts):
    hyp = verdicts.get("hypotheses")
    if hyp is None or hyp.status == "verified":
        return
    for tag, verdict in verdicts.items():
        if tag == "hypotheses" or verdict.status != "violated":
            continue
        verdict.status = "inconclusive"
        verdict.note = (verdict.note + "; " if verdict.note else "") + _CONCLUSION_NOTE


def run_scenario(config, out_dir=None, seed=None):
    """Execute one validated scenario and write its artifacts.

    Returns the RunManifest; ``manifest.json`` and every other artifact land
    in ``out_dir`` (default ``parapos_out/<name>``).  Module errors are
    captured into a manifest with status "error" instead of propagating.
    """
    started = _now()
    out = Path(out_dir) if out_dir is not None else Path("parapos_out") / config.name
    out.mkdir(parents=True, exist_ok=True)
    artifacts = _Artifacts(out)
    formats = tuple(config.outputs_data.get("formats", ("csv", "binary", "json")))

    verdicts = {}
    status, error = "ok", None

    try:
        problem = config.build_problem()
        scheme = config.scheme()
        budget = config.budget(seed_override=seed)

        logger.info("%s: running %d hypothesis checks", config.name,
                    len(config.assumptions()))
        report = run_checks(problem, budget, config.assumptions(),
                            majorants=config.majorants(),
                            compat_factor=config.compat_factor())
        if "json" in formats:
            artifacts.write("checks.json", write_json, report.to_json())
        failed = [e.assumption for e in report.entries if e.status == "fail"]
        verdicts["hypotheses"] = Verdict(
            "verified" if not failed else "violated",
            note="" if not failed else "failed: " + ", ".join(failed),
            data={"requested": list(config.assumptions()),
                  "kappa_hat": report.kappa_hat,
                  "d1_hat": report.d1_hat, "d2_hat": report.d2_hat})

        kernel = None
        if "dual_route" in config.analysis_data.get("ops", []):
            logger.info("%s: solving the kernel route", config.name)
            csv_path = out / "trajectory_duhamel.csv" if "csv" in formats else None
            kernel = _KernelRoute(problem, config.analysis_data, csv_path)

        with kernel or contextlib.nullcontext():
            # sampled before the trajectory stream opens: a non-finite source
            # slope ends the run with no formatter forked
            dt_bound = positivity_step_bound(problem, reference=problem.initial.values)
            logger.info("%s: solving (%s, dt=%g)", config.name, scheme.scheme,
                        scheme.dt)
            if "csv" in formats:
                # the march stores into the stream's shared buffer, and a
                # forked formatter writes trajectory.csv while it runs
                shape = (stored_count(problem.horizon, scheme.dt, scheme.store_every),
                         *problem.initial.values.shape)
                with TrajectoryCsvStream(out / "trajectory.csv", shape) as stream:
                    trajectory = solve(problem, scheme, sink=stream)
                artifacts.add("trajectory.csv", stream.digest)
            else:
                trajectory = solve(problem, scheme)
            verdicts["positivity"] = _positivity_verdict(trajectory, dt_bound)

            if "csv" in formats:
                artifacts.write("diagnostics.csv", write_diagnostics_csv, trajectory)
            if "binary" in formats:
                artifacts.write("snapshots.bin", write_snapshots, trajectory)

            _run_analysis(_Run(config, problem, scheme, trajectory, report, kernel,
                               artifacts, formats), verdicts)
    except ParaposError as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
        logger.error("%s: %s", config.name, error)
    except Exception as exc:  # noqa: BLE001 - the manifest must always land
        status, error = "error", f"{type(exc).__name__}: {exc}"
        logger.error("%s: unexpected failure\n%s", config.name,
                     traceback.format_exc())

    _downgrade(verdicts)

    manifest = RunManifest(
        name=config.name,
        status=status,
        config_hash=config.config_hash(),
        tool_version=__version__,
        seed=seed if seed is not None else config.budget().seed,
        started=started,
        finished=_now(),
        verdicts=verdicts,
        files=artifacts.listing(),
        error=error,
    )
    write_json(out / "manifest.json", manifest.to_json())
    for tag, verdict in sorted(verdicts.items()):
        logger.info("%s: %s -> %s", config.name, tag, verdict.status)
    return manifest


def manifest_exit_code(manifest):
    """Exit-code contract: 0 all verified, 1 violated or unproven, 3 error."""
    if manifest.status == "error":
        return 3
    if manifest.all_verified:
        return 0
    return 1
