"""Acceptance gate: eleven end-to-end criteria, one printed verdict line each.

Each test prints ``[acceptance] Cnn <label>: PASS/FAIL (<measurements>)`` on
the real terminal (bypassing capture) and then asserts, so a plain pytest run
shows the full scoreboard.  Scenario artifacts come from the session-scoped
``scenario_run`` cache; the refinement ladders and the determinism criterion
run their own fresh solves.
"""

import numpy as np
import pytest

from parapos.analysis import (elliptic_weak_residual, extract_steady_state,
                              lv_limit_coefficients)
from parapos.coefficients import build_initial_field
from parapos.config import load_config_data
from parapos.duhamel import PicardConfig, picard_solve
from parapos.fdm import Field, Grid, SchemeConfig, estimate_order, solve
from parapos.io import read_snapshots
from parapos.model import SpatialDomain
from parapos.runner import run_scenario
from parapos.scenarios import get_scenario, s4_asymptotics, s7_logistic_flat

LOGISTIC_AT_ONE = 0.7310585786300049   # e / (1 + e)
HALF_E = 1.3591409142295225            # 0.5 * e

UNIT = SpatialDomain(((0.0, 1.0),))


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] C{num:02d} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"C{num:02d} {label}: {detail}"


def diagnostics(out_dir):
    return np.genfromtxt(out_dir / "diagnostics.csv", delimiter=",", names=True)


def test_c01_negative_part_stays_at_noise(scenario_run, capsys):
    _, out = scenario_run("S1_positivity")
    diag = diagnostics(out)
    slack = 1e-8 * (1.0 + diag["sup_norm"])
    worst = float((diag["negpart_norm"] - slack).max())
    verdict(capsys, 1, "monitored positivity",
            worst <= 0.0,
            f"worst negpart excess {worst:.3e} over {diag.size} steps")


def test_c02_sup_norm_under_dissipativity_barrier(scenario_run, capsys):
    manifest, out = scenario_run("S2_maxbound")
    hyp = manifest.verdicts["hypotheses"].data
    d1, d2 = hyp["d1_hat"], hyp["d2_hat"]
    config = get_scenario("S2_maxbound")
    sup_phi = float(np.abs(config.build_problem().initial.values).max())
    horizon = float(config.problem_data["horizon"])
    bound = max(np.exp((d2 + 1.0) * horizon) * sup_phi, np.sqrt(d1)) + 1e-6
    observed = float(diagnostics(out)["sup_norm"].max())
    verdict(capsys, 2, "exponential sup-norm barrier",
            observed <= bound,
            f"sup {observed:.4f} vs barrier {bound:.4f} "
            f"(d1_hat {d1:.3g}, d2_hat {d2:.3g})")


def test_c03_decaying_growth_drives_extinction(scenario_run, capsys):
    _, out = scenario_run("S3_extinction")
    diag = diagnostics(out)
    barrier = HALF_E + 1e-6
    sup_ok = bool(np.all(diag["sup_norm"] <= barrier))
    final = float(diag["sup_norm"][-1])
    verdict(capsys, 3, "integrated-growth extinction",
            sup_ok and final <= 1e-3,
            f"max sup {diag['sup_norm'].max():.6f} vs {barrier:.6f}, "
            f"final sup {final:.2e} vs 1e-3")


def test_c04_monotone_flow_reaches_steady_state(scenario_run, capsys):
    manifest, out = scenario_run("S4_asymptotics")
    times, values, _ = read_snapshots(out / "snapshots.bin")
    rates = np.diff(values, axis=0) / np.diff(times)[:, None, None]
    up_worst = float(rates[:, 0].min())
    down_worst = float(rates[:, 1].max())
    slope = manifest.verdicts["steady-state"].data["tail_slope"]
    verdict(capsys, 4, "one species climbs, one falls, both settle",
            up_worst >= -1e-8 and down_worst <= 1e-8 and slope <= 1e-8,
            f"min du/dt {up_worst:.2e}, max dv/dt {down_worst:.2e}, "
            f"tail slope {slope:.2e}")


def test_c05_weak_residuals_shrink_under_refinement(capsys):
    worsts = []
    for nodes, dt in ((201, 0.01), (401, 0.005), (801, 0.0025)):
        data = s4_asymptotics()
        data["problem"]["grid"]["nodes"] = [nodes]
        data["scheme"]["dt"] = dt
        config = load_config_data(data)
        problem = config.build_problem()
        steady = extract_steady_state(solve(problem, config.scheme()))
        system = lv_limit_coefficients(problem.lv, problem.initial.grid,
                                       config.analysis_data["limits"])
        residuals = elliptic_weak_residual(system, steady.values[0], steady.values[1],
                                           config.battery())
        worsts.append(float(np.abs(residuals).max()))
    ok = worsts[0] <= 5e-4 and worsts[1] < worsts[0] and worsts[2] < worsts[1]
    verdict(capsys, 5, "steady-state residual ladder",
            ok, "max residuals " + " -> ".join(f"{w:.3e}" for w in worsts))


def test_c06_independent_routes_agree(scenario_run, capsys):
    manifest, _ = scenario_run("S6_oracle_crosscheck")
    data = manifest.verdicts["dual-route-match"].data
    config = get_scenario("S6_oracle_crosscheck")
    h = (config.problem_data["domain"]["bounds"][0][1]
         - config.problem_data["domain"]["bounds"][0][0]) / 200
    tol = max(1e-3, 2.0 * (h * h + config.data["scheme"]["dt"]))
    ok = (data["rel_sup_diff"] <= tol and data["contracting"]
          and data["sweep_ratios_max"] < 1.0)
    verdict(capsys, 6, "grid march vs kernel fixed point",
            ok,
            f"rel sup diff {data['rel_sup_diff']:.3e} vs {tol:.3e}, "
            f"max sweep ratio {data['sweep_ratios_max']:.3f}")


def test_c07_flat_core_tracks_the_logistic_value(capsys):
    errors = {}
    for nodes, dt in ((201, 0.01), (401, 0.005)):
        data = s7_logistic_flat()
        data["problem"]["grid"]["nodes"] = [nodes]
        data["scheme"]["dt"] = dt
        config = load_config_data(data)
        problem = config.build_problem()
        mid = nodes // 2
        fdm_val = solve(problem, config.scheme()).final_values[0, mid]
        pic_val = picard_solve(problem, PicardConfig(dt=dt)).final_values[0, mid]
        errors[nodes] = (abs(float(fdm_val) - LOGISTIC_AT_ONE),
                         abs(float(pic_val) - LOGISTIC_AT_ONE))
    ok = (all(e <= 1e-4 for pair in errors.values() for e in pair)
          and errors[401][0] < errors[201][0]
          and errors[401][1] < errors[201][1])
    verdict(capsys, 7, "logistic plateau value e/(1+e)",
            ok,
            f"grid-march errors {errors[201][0]:.2e} -> {errors[401][0]:.2e}, "
            f"kernel-route errors {errors[201][1]:.2e} -> {errors[401][1]:.2e}")


def test_c08_nested_boxes_converge(scenario_run, capsys):
    manifest, _ = scenario_run("S5_cauchy_nested")
    data = manifest.verdicts["nested-boxes"].data
    diffs = data["core_diffs"]
    ok = all(b < a for a, b in zip(diffs, diffs[1:])) and diffs[-1] <= 1e-6
    verdict(capsys, 8, "expanding-box stabilization",
            ok, "core diffs " + " -> ".join(f"{d:.3e}" for d in diffs))


def test_c09_schemes_show_second_order_on_smooth_data(capsys):
    from parapos.model import LVCoefficients, build_lv_problem

    grids = tuple(Grid(UNIT, (n,)) for n in (21, 41, 81))

    def problem(d, beta, gamma, amplitude, horizon, init=None):
        g = grids[0]
        lv = LVCoefficients(np.array([d]), (lambda t, x: beta,),
                            ((lambda t, x: gamma,),))
        initial = init(g) if init else build_initial_field(
            g, [{"kind": "sine", "amplitude": amplitude}])
        return build_lv_problem(lv, initial, horizon)

    sine = lambda amp: (lambda g: build_initial_field(
        g, [{"kind": "sine", "amplitude": amp}]))

    heat = estimate_order(problem(1.0, 0.0, 0.0, 1.0, 0.05),
                          SchemeConfig(scheme="imex_be", dt=1e-3), grids,
                          rebuild_initial=sine(1.0))
    competition = estimate_order(problem(0.01, 1.0, 1.0, 0.5, 1.0),
                                 SchemeConfig(scheme="erk2", dt=1e-2), grids,
                                 rebuild_initial=sine(0.5))

    xi = 1.0 / 3.0

    def kink(g):
        x = g.points[..., 0]
        return Field.from_arrays(
            g, (0.5 * np.minimum(x / xi, (1 - x) / (1 - xi)))[None])

    rough_spec = problem(0.01, 0.0, 0.0, 1.0, 0.01, init=kink)
    rough = estimate_order(rough_spec, SchemeConfig(scheme="imex_be", dt=2e-4),
                           grids, rebuild_initial=kink)

    ok = (abs(heat.order - 2.0) <= 0.3 and abs(competition.order - 2.0) <= 0.3
          and rough.order < 2.0)
    verdict(capsys, 9, "observed convergence orders",
            ok,
            f"heat {heat.order:.2f}, competition {competition.order:.2f}, "
            f"unresolved kink {rough.order:.2f} (degraded, no error)")


def test_c10_repeat_runs_are_bitwise_identical(tmp_path, capsys):
    names = ["S1_positivity", "S2_maxbound", "S3_extinction",
             "S4_asymptotics", "S5_cauchy_nested", "S6_oracle_crosscheck",
             "S8_competition_2d"]
    compared = 0
    clean = True
    for name in names:
        config = get_scenario(name)
        run_scenario(config, out_dir=tmp_path / "a" / name)
        run_scenario(config, out_dir=tmp_path / "b" / name)
        # every artifact but the manifest, whose timestamps differ by design
        files = sorted(p.name for p in (tmp_path / "a" / name).iterdir()
                       if p.name != "manifest.json")
        twins = sorted(p.name for p in (tmp_path / "b" / name).iterdir()
                       if p.name != "manifest.json")
        clean = clean and files == twins
        for fname in files:
            a = (tmp_path / "a" / name / fname).read_bytes()
            b = (tmp_path / "b" / name / fname).read_bytes()
            clean = clean and a == b
            compared += 1
    verdict(capsys, 10, "bitwise deterministic reruns",
            clean and compared >= 4 * len(names),
            f"{compared} artifacts compared across {len(names)} scenarios")


def test_c11_two_dimensional_competition_verdicts(scenario_run, capsys):
    manifest, out = scenario_run("S8_competition_2d")
    states = {tag: v.status for tag, v in manifest.verdicts.items()}
    want = {"hypotheses": "verified", "positivity": "verified",
            "sup-bound": "verified"}
    sup = manifest.verdicts["sup-bound"].data
    worst_min = float(diagnostics(out)["min_value"].min())
    verdict(capsys, 11, "two-dimensional competition",
            manifest.status == "ok" and states == want,
            f"verdicts {states}, min value {worst_min:.2e}, "
            f"sup {sup['observed_sup']:.4f} vs barrier {sup['bound']:.4f}")
