"""Self-test of the benchmark's own arithmetic.

    python -m pytest perfbench/test_perfbench.py -q
"""

import pytest

import workloads
from spans import Span, cpu_self, layer_metrics, wall_shares


def _span(name, layer, parent, thread, start, end, cpu=0.0):
    return Span(name, layer, parent, thread, start, end, cpu)


def test_nested_spans_on_one_thread_split_into_self_times():
    spans = [
        _span("cli.batch", "cli", None, 1, 0.0, 10.0, cpu=10.0),
        _span("runner.scenario.A", "runner", 0, 1, 1.0, 9.0, cpu=8.0),
        _span("fdm.solve", "fdm", 1, 1, 2.0, 6.0, cpu=4.0),
        _span("fdm.positivity_bound", "fdm", 2, 1, 2.0, 3.0, cpu=1.0),
        _span("io.json", "io", 1, 1, 7.0, 8.0, cpu=1.0),
    ]
    self_share, inclusive = wall_shares(spans)
    assert self_share == pytest.approx([2.0, 3.0, 3.0, 1.0, 1.0])
    assert inclusive == pytest.approx([10.0, 8.0, 4.0, 1.0, 1.0])
    assert cpu_self(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 1.0])


def test_pool_threads_share_the_wall_time_they_overlap():
    # cli.batch waits on two pool threads; from 2 to 4 both scenarios run
    spans = [
        _span("cli.batch", "cli", None, 1, 0.0, 6.0),
        _span("runner.scenario.A", "runner", 0, 2, 1.0, 4.0),
        _span("runner.scenario.B", "runner", 0, 3, 2.0, 5.0),
    ]
    self_share, _ = wall_shares(spans)
    assert self_share == pytest.approx([2.0, 2.0, 2.0])
    metrics = layer_metrics(spans, {})
    assert metrics["cli.self_s"] + metrics["runner.self_s"] == pytest.approx(6.0)
    assert metrics["runner.scenario_s.A"] == pytest.approx(3.0)
    assert metrics["cli.overlap"] == pytest.approx(1.0)
    assert metrics["trace.self_sum_s"] == pytest.approx(6.0)


def test_layer_metrics_derive_rates_from_counters():
    spans = [
        _span("cli.batch", "cli", None, 1, 0.0, 4.0),
        _span("fdm.solve", "fdm", 0, 1, 0.0, 2.0),
        _span("io.trajectory_csv", "io", 0, 1, 2.0, 3.0),
        _span("analysis.detect_monotone", "analysis", 0, 1, 3.0, 3.5),
        _span("io.json", "io", 0, 1, 3.5, 3.5),
    ]
    counts = {"fdm.steps": 1000, "io.trajectory_csv_bytes": 5e6}
    m = layer_metrics(spans, counts)
    assert m["fdm.us_per_step"] == pytest.approx(2000.0)
    assert m["io.trajectory_csv_mb_per_s"] == pytest.approx(5.0)
    assert m["analysis.s"] == pytest.approx(0.5)
    assert m["duhamel.picard_s"] == 0.0
    assert sum(m[f"{layer}.self_s"] for layer in
               ("cli", "fdm", "io", "analysis")) == pytest.approx(4.0)


def _manifest(verdicts, status="ok"):
    return {"status": status,
            "verdicts": {tag: {"status": s} for tag, s in verdicts.items()}}


def test_gate_and_fail_ratio_count_failed_scenarios():
    names = ["S4_asymptotics_fine", "competition_2d",
             "S6_oracle_crosscheck_fine", "S7_logistic_flat_fine"]
    manifests = {
        "S4_asymptotics_fine": _manifest(workloads.EXPECTED["S4_asymptotics_fine"]),
        # a violated verdict where "verified" is expected
        "competition_2d": _manifest({**workloads.EXPECTED["competition_2d"],
                                     "sup-bound": "violated"}),
        # runtime error
        "S6_oracle_crosscheck_fine": _manifest({}, status="error"),
        # a verdict missing from the manifest
        "S7_logistic_flat_fine": _manifest({"hypotheses": "verified",
                                            "positivity": "verified"}),
    }
    failed = workloads.gate(names, manifests)
    assert failed == names[1:]
    assert workloads.fail_ratio(len(failed), len(names)) == 0.75

    del manifests["S4_asymptotics_fine"]                # no manifest written
    assert workloads.gate(names[:1], manifests) == names[:1]
    with pytest.raises(ValueError):
        workloads.fail_ratio(0, 0)
