"""Benchmark workloads: the inputs each one runs and the verdicts it must reach.

Every workload is one ``parapos run`` call over a batch of scenario configs.
The benchmark seed picks the sampling seed handed to the program as
``--seed``; for ``competition_2d`` it also draws the scenario's coefficients
and initial plateaus.  The program only ever sees the generated config files
and that seed.

The nine built-ins as one batch (the ``library`` sweep) are not a workload:
on a 2-core shared machine its run medians spread past the 0.25 bound on
``wall_s`` in three of five sets of ten runs.  Their layers are all measured
here, except ``solve_cauchy_nested``, which only the S5 built-in runs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Scenarios per workload: the stem of a pinned config in configs/, or
# "competition_2d", which is generated from the seed.
WORKLOADS = {
    "asymptotics_fine": ("S4_asymptotics_fine",),
    "competition_2d": ("competition_2d",),
    "dual_route": ("S6_oracle_crosscheck_fine", "S7_logistic_flat_fine"),
}

_ALL_VERIFIED = {"hypotheses": "verified", "positivity": "verified"}

# Verdict tag -> status every scenario must report.
EXPECTED = {
    "S4_asymptotics_fine": {**_ALL_VERIFIED, "monotone-flow": "verified",
                            "steady-state": "verified",
                            "weak-residuals": "verified"},
    "competition_2d": {**_ALL_VERIFIED, "sup-bound": "verified"},
    "S6_oracle_crosscheck_fine": {**_ALL_VERIFIED,
                                  "dual-route-match": "verified"},
    "S7_logistic_flat_fine": {**_ALL_VERIFIED, "dual-route-match": "verified"},
}


def competition_2d(rng):
    """Two-species LV competition on the unit square at 201 x 201 nodes.

    Ranges are narrow so the linear-solve work is nearly the same for every
    seed, and inside the weak-competition regime where every verdict holds.
    """
    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    def plateau(amplitude):
        return {"kind": "plateau", "amplitude": amplitude,
                "center": [draw(0.4, 0.6), draw(0.4, 0.6)],
                "radius": 0.2, "width": 0.1}

    return {
        "name": "competition_2d",
        "problem": {
            "domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]]},
            "grid": {"nodes": [201, 201]},
            "horizon": 0.5,
            "coefficients": {
                "kind": "lv",
                "diffusion": [draw(0.0095, 0.0105), draw(0.019, 0.021)],
                "growth": [draw(0.9, 1.1), draw(0.7, 0.9)],
                "interaction": [[draw(0.9, 1.1), draw(0.3, 0.5)],
                                [draw(0.4, 0.6), draw(1.0, 1.2)]],
            },
            "initial": [plateau(draw(0.6, 0.8)), plateau(draw(0.4, 0.6))],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 10},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {"ops": ["max_principle"]},
        "outputs": {"formats": ["binary", "json"]},
    }


def generate(workload, seed, directory):
    """Write the workload's inputs under ``directory``.

    Returns ``(refs, names, check_seed)``: the run targets for the command
    line, the scenario names they produce, and the sampling seed.
    """
    rng = random.Random(seed)
    check_seed = rng.randrange(2**31)
    refs, names = [], []
    for name in WORKLOADS[workload]:
        if name == "competition_2d":
            config = competition_2d(rng)
        else:
            config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(config, indent=1))
        refs.append(str(path))
        names.append(name)
    return refs, names, check_seed


def gate(names, manifests):
    """Scenario names that missed their expected verdicts.

    ``manifests`` maps a scenario name to its parsed ``manifest.json`` (or
    None when the file is missing).  A scenario fails on a missing manifest,
    a status other than "ok", or any verdict set other than the expected one.
    """
    failed = []
    for name in names:
        manifest = manifests.get(name)
        if manifest is None or manifest.get("status") != "ok":
            failed.append(name)
            continue
        got = {tag: v.get("status")
               for tag, v in manifest.get("verdicts", {}).items()}
        if got != EXPECTED[name]:
            failed.append(name)
    return failed


def fail_ratio(failed, attempted):
    """Failed scenarios over attempted scenarios."""
    if attempted < 1:
        raise ValueError("no scenario was attempted")
    return failed / attempted
