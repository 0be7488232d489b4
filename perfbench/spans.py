"""Layer spans recorded from outside the program, and their time arithmetic.

``Tracer`` wraps the public functions the runner calls into, in the module
that defines each one and in every ``parapos.*`` namespace that imported the
same object, so calls through either name are seen.  Each call becomes a
span with its name, layer, parent, thread, wall interval and thread CPU time.
``KernelOperator.apply`` runs thousands of times per scenario, so it is only
counted and timed in aggregate.  Spans stay in memory; ``layer_metrics``
turns them into the benchmark's per-layer numbers afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("config", "model", "checker", "fdm", "duhamel", "analysis", "io",
          "runner", "cli")

ANALYSIS_OPS = ("component_bound_mk", "default_battery", "detect_monotone",
                "elliptic_weak_residual", "extinction_check",
                "extract_steady_state", "gronwall_extinction_bound",
                "lv_limit_coefficients", "max_principle_bound")


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0


def _record_checks(counts, report, args):
    counts["checker.entries"] += len(report.entries)


def _record_trajectory(counts, trajectory, args):
    counts["fdm.steps"] += len(trajectory.reports)
    counts["fdm.linear_iterations"] += sum(
        r.solve_iterations for r in trajectory.reports)


def _record_picard(counts, result, args):
    counts["duhamel.windows"] += len(result.iterations)
    counts["duhamel.sweeps"] += sum(result.iterations)


def _record_csv(counts, _result, args):
    counts["io.trajectory_csv_bytes"] += os.path.getsize(args[0])


def _scenario_name(args):
    return f"runner.scenario.{args[0].name}"


# (layer, module, attribute, span name or a function of the call arguments,
#  hook that reads counters from the result)
TARGETS = (
    ("cli", "parapos.cli", "main", "cli.batch", None),
    ("config", "parapos.config", "load_config", "config.load", None),
    ("config", "parapos.config", "load_config_data", "config.load", None),
    ("model", "parapos.config", "ScenarioConfig.build_problem",
     "model.build_problem", None),
    ("checker", "parapos.checker", "run_checks", "checker.run_checks",
     _record_checks),
    ("fdm", "parapos.fdm", "solve", "fdm.solve", _record_trajectory),
    ("fdm", "parapos.fdm", "positivity_step_bound", "fdm.positivity_bound",
     None),
    ("duhamel", "parapos.duhamel", "picard_solve", "duhamel.picard",
     _record_picard),
    *(("analysis", "parapos.analysis", op, f"analysis.{op}", None)
      for op in ANALYSIS_OPS),
    ("io", "parapos.io", "write_trajectory_csv", "io.trajectory_csv",
     _record_csv),
    ("io", "parapos.io", "write_diagnostics_csv", "io.diagnostics_csv", None),
    ("io", "parapos.io", "write_residuals_csv", "io.residuals_csv", None),
    ("io", "parapos.io", "write_snapshots", "io.snapshots", None),
    ("io", "parapos.io", "write_json", "io.json", None),
    ("io", "parapos.io", "sha256_file", "io.sha256", None),
    ("runner", "parapos.runner", "run_scenario", _scenario_name, None),
)


class Tracer:
    """Context manager that patches the targets and records their spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stacks = defaultdict(list)      # thread id -> open span indices
        self._lock = threading.Lock()
        self._owner = None
        self._patches = []

    def _open(self, name, layer):
        ident = threading.get_ident()
        stack = self._stacks[ident]
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span is caused by the span that is open
            # on the thread that installed the tracer
            owner = self._stacks.get(self._owner) if ident != self._owner else None
            parent = owner[-1] if owner else None
        span = Span(name, layer, parent, ident, time.perf_counter(),
                    cpu=time.thread_time())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stacks[threading.get_ident()].pop()

    def _span(self, fn, layer, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                with self._lock:
                    hook(self.counts, result, args)
            return result
        return wrapper

    def _aggregate(self, fn, calls, seconds):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts[calls] += 1
                    self.counts[seconds] += elapsed
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        self._owner = threading.get_ident()
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        for layer, module, attr, name, hook in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, method, self._span(
                    getattr(cls, method), layer, name, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._span(original, layer, name, hook)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "parapos" and not mod_name.startswith("parapos."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        kernel = importlib.import_module("parapos.duhamel").KernelOperator
        self._patch(kernel, "apply",
                    self._aggregate(kernel.apply, "duhamel.kernel_applies",
                                    "duhamel.apply_s"))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def wall_shares(spans):
    """Split the wall time the spans cover among the spans doing the work.

    At every instant each open span with no open child is working; a span
    whose children are open, on its own thread or on pool threads, is
    waiting for them.  The instant's wall time is divided evenly among the
    working spans.  Returns ``(self_share, inclusive_share)`` per span.  The
    self shares add up to the length of the union of all span intervals, so
    layer self times account for the traced wall time with no gap, even when
    a thread pool runs scenarios side by side.
    """
    self_share = [0.0] * len(spans)
    inclusive = [0.0] * len(spans)
    # at equal times, close spans before opening new ones; a span of zero
    # length takes no time and would otherwise never be closed
    timed = [(i, s) for i, s in enumerate(spans) if s.end > s.start]
    events = sorted([(s.start, 1, i) for i, s in timed]
                    + [(s.end, 0, i) for i, s in timed])
    active = set()
    previous = None
    for t, opens, index in events:
        if active and t > previous:
            parents = {spans[i].parent for i in active}
            leaves = [i for i in active if i not in parents]
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                self_share[leaf] += share
                node = leaf
                while node is not None:
                    inclusive[node] += share
                    node = spans[node].parent
        if opens:
            active.add(index)
        else:
            active.discard(index)
        previous = t
    return self_share, inclusive


def cpu_self(spans):
    """Thread CPU time of each span minus that of its children on its thread."""
    own = [s.cpu for s in spans]
    for s in spans:
        if s.parent is not None and spans[s.parent].thread == s.thread:
            own[s.parent] -= s.cpu
    return own


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced call, keyed by metric name."""
    self_share, inclusive = wall_shares(spans)
    cpu = cpu_self(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.cpu_s"] = 0.0
    by_name = defaultdict(float)
    scenario_wall = defaultdict(float)
    analysis_total = 0.0
    for i, s in enumerate(spans):
        out[f"{s.layer}.self_s"] += self_share[i]
        out[f"{s.layer}.cpu_s"] += cpu[i]
        by_name[s.name] += inclusive[i]
        if s.name.startswith("runner.scenario."):
            scenario_wall[s.name[len("runner.scenario."):]] += s.end - s.start
        parent_layer = spans[s.parent].layer if s.parent is not None else None
        if s.layer == "analysis" and parent_layer != "analysis":
            analysis_total += inclusive[i]

    for name in ("checker.run_checks", "fdm.solve", "fdm.positivity_bound",
                 "duhamel.picard", "io.trajectory_csv",
                 "io.diagnostics_csv", "io.residuals_csv", "io.snapshots",
                 "io.json", "io.sha256", "cli.batch"):
        out[f"{name}_s"] = by_name[name]
    out["analysis.s"] = analysis_total
    for name, wall in scenario_wall.items():
        out[f"runner.scenario_s.{name}"] = wall

    for name in ("checker.entries", "fdm.steps", "fdm.linear_iterations",
                 "duhamel.windows", "duhamel.sweeps", "duhamel.kernel_applies",
                 "duhamel.apply_s"):
        out[name] = counts.get(name, 0)
    steps = out["fdm.steps"]
    out["fdm.us_per_step"] = 1e6 * out["fdm.solve_s"] / steps if steps else 0.0
    csv_mb = counts.get("io.trajectory_csv_bytes", 0) / 1e6
    out["io.trajectory_csv_mb"] = csv_mb
    csv_s = out["io.trajectory_csv_s"]
    out["io.trajectory_csv_mb_per_s"] = csv_mb / csv_s if csv_s > 0 else 0.0

    batch = out["cli.batch_s"]
    out["cli.overlap"] = sum(scenario_wall.values()) / batch if batch > 0 else 0.0
    out["trace.self_sum_s"] = sum(self_share)
    return out
