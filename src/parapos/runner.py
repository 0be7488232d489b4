"""Scenario execution: checks, solvers, analysis, and the run manifest.

A run works through its stages in this order: hypothesis checks; the
kernel route, when ``dual_route`` is requested; the grid march; the
requested analysis operations, the kernel-route cross-check among them.
The kernel route runs before the march and alone, because its BLAS products
take both CPUs; a forked child then formats its CSV while the march runs.
A kernel-route failure is raised at the cross-check, so a failed run has
the verdicts, files and error it would have if the route ran there.  Every
stage contributes a verdict under a named tag.  Verdicts are
conditional in one direction only: when the hypothesis checks fail, failing
conclusion checks are reported "inconclusive" rather than "violated",
because nothing was promised for inputs outside the hypotheses.
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
from .fdm import solve, solve_cauchy_nested
from .io import (TrajectoryCsvStream, sha256_file, write_diagnostics_csv,
                 write_json, write_residuals_csv, write_snapshots)

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
        self._names = set()

    def write(self, name, writer, *args, **kwargs):
        """Write artifact ``name`` with ``writer(path, *args, **kwargs)``."""
        writer(self.root / name, *args, **kwargs)
        self._names.add(name)

    def add(self, name):
        """Record artifact ``name``, written completely by other means."""
        self._names.add(name)

    def listing(self):
        """The manifest's ``files``: every artifact with its sha256, by path."""
        entries = [{"path": name, "sha256": sha256_file(self.root / name)}
                   for name in sorted(self._names)]
        entries.append({"path": "manifest.json", "sha256": None})
        return entries


def _now():
    return datetime.now(timezone.utc).isoformat()


def _positivity_verdict(trajectory):
    worst = 0.0
    for rep in trajectory.reports:
        slack = POSITIVITY_FACTOR * (1.0 + rep.sup_norm)
        worst = max(worst, rep.negpart_norm - slack)
    status = "verified" if worst <= 0.0 else "violated"
    bound = trajectory.positivity_dt_bound
    data = {
        "worst_excess": worst,
        "steps": len(trajectory.reports),
        # strict JSON has no Infinity: an unbounded step is written as null
        "dt_bound": float(bound) if math.isfinite(bound) else None,
        "dt_ok": bool(trajectory.positivity_dt_ok),
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


def _sup_bound_verdict(trajectory, bound, label):
    sups = [rep.sup_norm for rep in trajectory.reports]
    observed = max(sups) if sups else float(np.abs(trajectory.values[0]).max())
    ok = observed <= bound + BOUND_SLACK
    return Verdict("verified" if ok else "violated",
                   note=label,
                   data={"bound": bound, "observed_sup": observed})


class _KernelRoute:
    """The kernel route of a run that requests ``dual_route``, solved early.

    ``picard_solve`` runs while no other process of the run is alive.  Then,
    if ``csv_path`` is given, a forked ``TrajectoryCsvStream`` formats the
    solution it holds from the fork into that file while the parent
    marches.  The parent keeps only what the verdict reads: the result cut
    to its stored time nearest the cross-check time, with the counters.  A
    Picard failure is held in ``error`` for ``_dual_route`` to raise.  Used
    as a context manager: an exception before ``_dual_route`` closes the
    writer kills it and removes its file.
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
            self.writer = TrajectoryCsvStream(csv_path, result.values.shape[1:],
                                              source="duhamel", held=result)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.writer is not None:
            self.writer.__exit__(*exc)


def _dual_route(trajectory, analysis, kernel, artifacts):
    if kernel.error is not None:
        raise kernel.error
    result = kernel.result
    tc = kernel.crosscheck_time
    c_const = float(analysis.get("crosscheck_constant", 2.0))
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
        artifacts.add("trajectory_duhamel.csv")

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


def _nested(problem, scheme, analysis):
    block = analysis["nested"]
    try:
        _, report = solve_cauchy_nested(
            problem, tuple(block["radii"]), scheme,
            cutoff_width=float(block.get("cutoff_width", 1.0)),
            tol_nested=float(block.get("tol_nested", 1e-6)),
            compare_radius=block.get("compare_radius"),
        )
    except NonConvergence as exc:
        return Verdict("violated", note=str(exc))
    status = "verified" if report.converged else "violated"
    return Verdict(status,
                   note="" if report.converged else "final difference above tolerance",
                   data={"radii": list(report.radii),
                         "core_diffs": [float(d) for d in report.diffs],
                         "tolerance": report.tol})


def _weak_residuals(config, problem, steady, artifacts, formats):
    analysis = config.analysis_data
    limits = analysis.get("limits")
    if limits is None:
        limits = lv_limit_coefficients(problem.lv)
    tests = config.battery() or default_battery(problem.domain)
    grid = problem.initial.grid
    residuals = elliptic_weak_residual(
        steady.values[0], steady.values[1], tuple(limits), tests,
        tuple(problem.lv.diffusion), grid=grid)
    steady.attach_residuals(residuals)
    if "csv" in formats:
        artifacts.write("residuals.csv", write_residuals_csv, residuals)
    worst = float(np.abs(residuals).max())
    ok = worst <= RESIDUAL_TOL
    return Verdict("verified" if ok else "violated",
                   data={"worst_residual": worst, "tolerance": RESIDUAL_TOL,
                         "battery_size": len(tests),
                         "coverage": "finite battery only"})


def _run_analysis(config, problem, scheme, trajectory, verdicts, artifacts,
                  formats, d_hats, kernel):
    analysis = config.analysis_data
    ops = analysis.get("ops", [])
    steady = None

    if "max_principle" in ops:
        d1, d2 = d_hats
        if d1 is None or d2 is None:
            verdicts["sup-bound"] = Verdict(
                "inconclusive", note="no dissipativity constants; request A2'")
        else:
            bound = max_principle_bound(d1, d2, problem.horizon, problem.initial)
            verdicts["sup-bound"] = _sup_bound_verdict(
                trajectory, bound, "dissipativity barrier")

    if "gronwall" in ops:
        k = int(analysis.get("gronwall_component", 0))
        beta = problem.lv.growth[k]
        bound = gronwall_extinction_bound(problem.initial.values[k], beta,
                                          domain=problem.domain)
        _, sups = sup_norm_series(trajectory, k)
        ok = bool(np.all(sups <= bound + BOUND_SLACK))
        verdicts["sup-bound"] = Verdict(
            "verified" if ok else "violated",
            note="integrated-growth barrier",
            data={"bound": bound, "observed_sup": float(sups.max())})

    if "extinction" in ops:
        k = int(analysis.get("extinction_component", 0))
        verdict = extinction_check(
            trajectory, k,
            tol_ext=float(analysis.get("tol_ext", 1e-3)),
            window_fraction=float(analysis.get("window_fraction", 0.1)))
        verdicts["extinction"] = Verdict(
            "verified" if verdict.extinct else "violated",
            data={"final_sup": verdict.final_sup, "peak_sup": verdict.peak_sup,
                  "tail_decreasing": verdict.tail_decreasing})

    if "monotone" in ops:
        signs = analysis.get("monotone_signs")
        if signs is None:
            signs = [1] * problem.components
        worst = None
        witness = None
        passed = True
        for k, sign in enumerate(signs):
            res = detect_monotone(trajectory, k, sign)
            if worst is None or res.worst_margin < worst:
                worst, witness = res.worst_margin, res.witness
            passed = passed and res.passed
        verdicts["monotone-flow"] = Verdict(
            "verified" if passed else "violated",
            data={"worst_margin": worst, "witness": witness})

    if "steady_state" in ops or "weak_residuals" in ops:
        steady = extract_steady_state(
            trajectory,
            window_fraction=float(analysis.get("window_fraction", 0.1)),
            steady_tol=float(analysis.get("steady_tol", 1e-8)))
        if "steady_state" in ops:
            verdicts["steady-state"] = Verdict(
                "verified" if steady.reached else "violated",
                data={"tail_slope": steady.tail_slope, "window": steady.window})

    if "weak_residuals" in ops:
        verdicts["weak-residuals"] = _weak_residuals(
            config, problem, steady, artifacts, formats)

    if steady is not None and "json" in formats:
        artifacts.write("steady_state.json", write_json, steady.to_json())

    if "component_bound" in ops:
        k = int(analysis.get("bound_component", 0))
        beta = problem.lv.growth[k]
        gamma = problem.lv.interaction[k][k]
        bound = component_bound_mk(trajectory, beta, gamma,
                                   float(analysis["t_split"]), component=k)
        _, sups = sup_norm_series(trajectory, k)
        ok = bool(np.all(sups <= bound + BOUND_SLACK))
        verdicts["component-bound"] = Verdict(
            "verified" if ok else "violated",
            data={"bound": float(bound), "observed_sup": float(sups.max())})

    if "dual_route" in ops:
        verdicts["dual-route-match"] = _dual_route(
            trajectory, analysis, kernel, artifacts)

    if "nested" in ops:
        verdicts["nested-boxes"] = _nested(problem, scheme, analysis)


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
                            tolerances=config.tolerances())
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
            logger.info("%s: solving (%s, dt=%g)", config.name, scheme.scheme,
                        scheme.dt)
            if "csv" in formats:
                # a forked child formats trajectory.csv while the march runs
                with TrajectoryCsvStream(out / "trajectory.csv",
                                         problem.initial.values.shape) as stream:
                    trajectory = solve(problem, scheme, on_store=stream.send)
                artifacts.add("trajectory.csv")
            else:
                trajectory = solve(problem, scheme)
            verdicts["positivity"] = _positivity_verdict(trajectory)

            if "csv" in formats:
                artifacts.write("diagnostics.csv", write_diagnostics_csv, trajectory)
            if "binary" in formats:
                artifacts.write("snapshots.bin", write_snapshots, trajectory)

            _run_analysis(config, problem, scheme, trajectory, verdicts, artifacts,
                          formats, d_hats=(report.d1_hat, report.d2_hat),
                          kernel=kernel)
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
