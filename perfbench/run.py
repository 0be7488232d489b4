"""parapos benchmark: time to every verdict per workload, and where it goes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>
    python3 perfbench/run.py --describe

Run it from the root of a checkout; it measures the package under ``src/``
of that checkout and fails when there is none.  Each repeat is a fresh
interpreter (``repeat.py``) that times the set-up, then one in-process
``parapos.cli.main(["run", <targets>, "--out", <fresh dir>, "--seed", <n>])``
with the default worker count.  Repeats continue until about ``--seconds``
have passed and at least ``MIN_REPEATS`` are done; every metric is a median
over them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics;
layer spans come from wrapping the package's public functions (``spans.py``)
and are written to ``.perfbench/spans/<workload>-seed<n>.json`` at the end.

Every repeat is checked: each scenario must reach its expected verdicts
(``workloads.EXPECTED``), the call must exit 0, every digest in a
manifest must match its file, and digests must be identical across repeats
and across runs of the same sources, seed and inputs (kept under
``.perfbench/digests``).  A scenario that misses any of this counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (scenario runs) and ``metrics``.  The CLI's log and
progress lines go to a log file in the run's work directory.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_REPEATS = 3
TRACED_PAIRS = 2              # --trace 1: untraced and traced repeats, alternating
REPEAT_BUDGET_S = 110.0       # start no repeat after this, keeping under 180 s
REPEAT_TIMEOUT_S = 60.0


@dataclass
class Repeat:
    """One repeat's measurements and what checking its outputs found."""

    measured: dict          # repeat.py's result
    failed: set             # scenario names that missed a check
    digests: dict           # scenario name -> {artifact path: sha256}
    artifact_bytes: int

    @property
    def traced(self):
        return "spans" in self.measured


def _state_key(workload, seed, inputs):
    """Runs of the same package sources, workload, seed and inputs share it."""
    digest = hashlib.sha256(f"{workload}\0{seed}".encode())
    for base in (SRC / "parapos", inputs):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(base)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


def _sha256(path):
    """Digest of a file, or None when it is missing."""
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_once(refs, names, check_seed, out, log, traced):
    env = {k: v for k, v in os.environ.items() if k != "PARAPOS_OUT"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("repeat.py")), str(ROOT),
         str(out), str(check_seed), "1" if traced else "0", *refs],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        timeout=REPEAT_TIMEOUT_S)
    if proc.returncode != 0:
        log.flush()
        tail = Path(log.name).read_text()[-4000:]
        sys.exit(f"perfbench: repeat exited with {proc.returncode}:\n{tail}")
    measured = json.loads(proc.stdout.splitlines()[-1])

    manifests, digests = {}, {}
    for name in names:
        path = out / name / "manifest.json"
        manifests[name] = json.loads(path.read_text()) if path.is_file() else None
    failed = set(workloads.gate(names, manifests))
    # every expected verdict is "verified", so parapos run must exit 0
    if measured["exit_code"] != 0:
        failed.update(names)
    for name, manifest in manifests.items():
        if manifest is None:
            continue
        files = {f["path"]: f["sha256"] for f in manifest.get("files", [])
                 if f["sha256"] is not None}
        if {p: _sha256(out / name / p) for p in files} != files:
            failed.add(name)
        digests[name] = files
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    return Repeat(measured, failed, digests, size)


def _check_determinism(repeats, names, state_file):
    """Add to each repeat's failures the scenarios whose bytes changed."""
    reference = None
    if state_file.is_file():
        reference = json.loads(state_file.read_text())
    for rep in repeats:
        if reference is None and not rep.failed:
            reference = rep.digests
            state_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = state_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(reference, sort_keys=True))
            os.replace(tmp, state_file)
        if reference is None:
            continue
        for name in names:
            if rep.digests.get(name) != reference.get(name):
                rep.failed.add(name)


def run_workload(workload, seed, seconds, trace):
    if not (SRC / "parapos" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'parapos'}; run from the "
                 "root of a parapos checkout")
    # compile once, so no repeat's import time includes writing bytecode
    compileall.compile_dir(str(SRC / "parapos"), quiet=1)
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE / "work"))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        refs, names, check_seed = workloads.generate(workload, seed, inputs)
        repeats = []
        started = time.perf_counter()
        with open(work / "cli.log", "w", encoding="utf-8") as log:
            while True:
                elapsed = time.perf_counter() - started
                enough = len(repeats) >= (2 * TRACED_PAIRS if trace else MIN_REPEATS)
                # stop when one more repeat would end further past --seconds
                # than now is before it, so a run lasts about --seconds
                cycle = elapsed / len(repeats) if repeats else 0.0
                if (enough and elapsed + cycle / 2 >= seconds) or (
                        repeats and elapsed > REPEAT_BUDGET_S):
                    break
                traced = bool(trace) and len(repeats) % 2 == 1
                repeats.append(_run_once(refs, names, check_seed,
                                         work / f"out{len(repeats)}", log, traced))
        state = STATE / "digests" / f"{workload}-{_state_key(workload, seed, inputs)}.json"
        _check_determinism(repeats, names, state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(names) * len(repeats)
    failed = sum(len(rep.failed) for rep in repeats)
    for rep in repeats:
        for name in sorted(rep.failed):
            print(f"perfbench: {workload}: {name} failed its check", file=sys.stderr)
    plain = [rep for rep in repeats if not rep.traced]

    def median(key, reps=plain):
        return statistics.median(rep.measured[key] for rep in reps)

    setup = {key: median(key, repeats)
             for key in ("import_s", "load_s", "build_problem_s")}
    setup["setup_s"] = statistics.median(
        sum(rep.measured[key] for key in setup) for rep in repeats)
    if trace:
        traced = [rep for rep in repeats if rep.traced]
        metrics = _layer_metrics(traced, median("wall_s"), setup,
                                 STATE / "spans" / f"{workload}-seed{seed}.json")
    else:
        metrics = {
            "wall_s": median("wall_s"),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": median("peak_rss_mb"),
            "artifact_mb": statistics.median(rep.artifact_bytes for rep in plain) / 1e6,
        }
    walls = ", ".join(f"{rep.measured['wall_s']:.3f}" for rep in repeats)
    print(f"perfbench: {workload}: repeats took {walls} s; {failed}/{attempted} "
          f"scenario runs failed (fail_ratio {workloads.fail_ratio(failed, attempted):g})",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(traced, untraced_wall, setup, spans_file):
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(
        [{"spans": rep.measured["spans"], "counts": rep.measured["counts"]}
         for rep in traced]))
    per_repeat = []
    for rep in traced:
        m = spans.layer_metrics([spans.Span(**s) for s in rep.measured["spans"]],
                                rep.measured["counts"])
        m["trace.wall_s"] = rep.measured["wall_s"]
        m["trace.gap_s"] = m["trace.wall_s"] - m.pop("trace.self_sum_s")
        per_repeat.append(m)
    keys = set().union(*per_repeat)
    out = {k: statistics.median(m.get(k, 0.0) for m in per_repeat) for k in keys}
    out["trace.overhead"] = out["trace.wall_s"] / untraced_wall - 1.0
    out["setup.import_s"] = setup["import_s"]
    out["config.load_s"] = setup["load_s"]
    out["config.build_problem_s"] = setup["build_problem_s"]
    return out


def _with_units(metrics, declared):
    """Exactly the declared metrics, in order, each with its unit."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics and not name.startswith("runner.scenario_s."):
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": float(metrics.get(name, 0.0)), "unit": entry["unit"]}
    return out


def describe():
    """The machine the numbers come from."""
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    info["caches"] = caches
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ} or "library default (one per core)"
    return info


def run_all(seed, seconds):
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    print(f"{'workload':18s} {'metric':12s} {'value':>14s} unit")
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:18s} {name:12s} {metric['value']:14.6g} {metric['unit']}")
        ratio = workloads.fail_ratio(result["failed"], result["attempted"])
        print(f"{workload:18s} {'fail_ratio':12s} {ratio:14.6g} ratio")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the machine description and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = _with_units(result["metrics"], declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
