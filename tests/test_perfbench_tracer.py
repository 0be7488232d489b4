"""The benchmark's tracer still installs on the package.

``perfbench/spans.py`` wraps package functions by name.  A rename or a
deletion of one of them would otherwise show only in a traced benchmark run,
so this test installs the tracer around a short S7 run and reads its
counters.  ``perfbench/`` is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

from parapos import cli
from parapos.scenarios import get_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks its own module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _package_namespaces():
    """Every attribute of the loaded ``parapos`` modules and the patched classes."""
    namespaces = {name: mod for name, mod in sys.modules.items()
                  if name == "parapos" or name.startswith("parapos.")}
    namespaces["KernelOperator"] = sys.modules["parapos.duhamel"].KernelOperator
    namespaces["ScenarioConfig"] = sys.modules["parapos.config"].ScenarioConfig
    return {name: dict(vars(ns)) for name, ns in namespaces.items()}


def test_the_tracer_records_a_short_s7_run_and_restores_every_name(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    data = get_scenario("S7_logistic_flat").data
    data["problem"]["horizon"] = 0.1
    data["analysis"]["crosscheck_time"] = 0.1
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(data))
    solve = sys.modules["parapos.fdm"].solve
    before = _package_namespaces()

    with spans.Tracer() as tracer:
        assert sys.modules["parapos.runner"].solve is not solve
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])

    assert code == 0
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["fdm.steps"] == 10
    assert metrics["checker.entries"] == 7
    assert metrics["duhamel.windows"] == 1
    assert sys.modules["parapos.fdm"].solve is solve
    assert sys.modules["parapos.runner"].solve is solve
    after = _package_namespaces()
    for name, attrs in before.items():
        changed = [key for key, value in attrs.items() if after[name].get(key) is not value]
        assert changed == [], name
