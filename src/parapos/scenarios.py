"""Built-in scenario library.

Each builder returns a plain config dict that passes ``load_config_data``.
The S-prefixed entries exercise one guarantee each at desk scale; the
N-prefixed ones violate a hypothesis on purpose and are expected to come
back with a violated verdict.
"""

from __future__ import annotations

from .config import load_config_data

_UNIT = [[0.0, 1.0]]


def _plateau(amplitude, center, radius, width):
    return {"kind": "plateau", "amplitude": amplitude, "center": [center],
            "radius": radius, "width": width}


def _exp(base, amplitude, rate=1.0):
    return {"family": "exp", "base": base, "amplitude": amplitude, "rate": rate}


def s1_positivity():
    return {
        "name": "S1_positivity",
        "problem": {
            "domain": {"bounds": _UNIT},
            "grid": {"nodes": [201]},
            "horizon": 5.0,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.01, 0.02],
                "growth": [1.0, 0.8],
                "interaction": [[1.0, 0.5], [0.6, 1.2]],
            },
            "initial": [
                _plateau(0.8, 0.35, 0.25, 0.1),
                _plateau(0.6, 0.65, 0.25, 0.1),
            ],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 10},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {"ops": []},
    }


def s2_maxbound():
    return {
        "name": "S2_maxbound",
        "problem": {
            "domain": {"bounds": _UNIT},
            "grid": {"nodes": [201]},
            "horizon": 1.0,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.05, 0.05],
                "growth": [1.0, 0.9],
                "interaction": [[1.0, 0.3], [0.4, 1.0]],
            },
            "initial": [
                _plateau(1.0, 0.5, 0.3, 0.15),
                _plateau(0.8, 0.5, 0.3, 0.15),
            ],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 5},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {"ops": ["max_principle"]},
    }


def s3_extinction():
    return {
        "name": "S3_extinction",
        "problem": {
            "domain": {"bounds": _UNIT},
            "grid": {"nodes": [201]},
            "horizon": 30.0,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.05],
                "growth": [_exp(0.0, 1.0)],
                "interaction": [[1.0]],
            },
            "initial": [_plateau(0.5, 0.5, 0.4, 0.2)],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 25},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {
            "ops": ["gronwall", "extinction"],
            "gronwall_component": 0,
            "extinction_component": 0,
            "tol_ext": 1e-3,
        },
    }


def s4_asymptotics():
    return {
        "name": "S4_asymptotics",
        "problem": {
            "domain": {"bounds": _UNIT},
            "grid": {"nodes": [201]},
            "horizon": 50.0,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.05, 0.5],
                "growth": [_exp(2.0, -0.5), _exp(1.5, 0.5)],
                "interaction": [
                    [_exp(1.0, 0.5), _exp(0.5, 0.25)],
                    [_exp(1.0, -0.5), _exp(2.0, -0.5)],
                ],
            },
            "initial": [
                {"kind": "sine", "amplitude": 0.3, "mode": 1},
                {"kind": "sine", "amplitude": 0.3, "mode": 1},
            ],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 10},
        "checks": {
            "assumptions": ["A1", "A2'", "A4", "A6", "A7",
                            "MonotoneCoeffs", "InitMonotone"],
            # the sine data is compatible in the limit; the one-sided
            # boundary stencil leaves h^3-size truncation at 201 nodes
            "tolerances": {"compat_factor": 1e-4},
        },
        "analysis": {
            "ops": ["monotone", "steady_state", "weak_residuals"],
            "monotone_signs": [1, -1],
            "limits": [2.0, 1.0, 0.5, 1.5, 1.0, 2.0],
            "battery": {
                "centers": [[0.35], [0.425], [0.5], [0.575], [0.65]],
                "radius": 0.3,
            },
            "window_fraction": 0.1,
            "steady_tol": 1e-8,
        },
    }


def s5_cauchy_nested():
    return {
        "name": "S5_cauchy_nested",
        "problem": {
            "domain": {"bounds": [[-8.0, 8.0]]},
            "grid": {"nodes": [257]},
            "horizon": 0.25,
            "coefficients": {
                "kind": "lv",
                "diffusion": [1.0],
                "growth": [0.0],
                "interaction": [[0.0]],
            },
            "initial": [{
                "kind": "product",
                "profiles": [
                    {"kind": "gaussian", "amplitude": 1.0,
                     "center": [0.0], "width": 1.0},
                    _plateau(1.0, 0.0, 3.5, 1.0),
                ],
            }],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.005, "store_every": 10},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {
            "ops": ["nested"],
            "nested": {"radii": [4.0, 6.0, 8.0], "cutoff_width": 1.0,
                       "tol_nested": 1e-6},
        },
    }


def s6_oracle_crosscheck():
    return {
        "name": "S6_oracle_crosscheck",
        "problem": {
            "domain": {"bounds": [[0.0, 2.0]]},
            "grid": {"nodes": [201]},
            "horizon": 0.5,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.01, 0.005],
                "growth": [1.0, 0.8],
                "interaction": [[1.0, 0.5], [0.5, 1.0]],
            },
            "initial": [
                {"kind": "bump", "amplitude": 0.5, "center": [1.0], "radius": 0.3},
                {"kind": "bump", "amplitude": 0.3, "center": [1.0], "radius": 0.3},
            ],
        },
        "scheme": {"scheme": "erk2", "dt": 0.0025, "store_every": 20},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {
            "ops": ["dual_route"],
            "crosscheck_time": 0.5,
            "crosscheck_constant": 2.0,
            "picard": {"dt": 0.005},
        },
    }


def s7_logistic_flat():
    return {
        "name": "S7_logistic_flat",
        "problem": {
            "domain": {"bounds": _UNIT},
            "grid": {"nodes": [201]},
            "horizon": 1.0,
            "coefficients": {
                "kind": "lv",
                "diffusion": [1e-4],
                "growth": [1.0],
                "interaction": [[1.0]],
            },
            "initial": [_plateau(0.5, 0.5, 0.35, 0.15)],
        },
        "scheme": {"scheme": "erk2", "dt": 0.01, "store_every": 10},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {
            "ops": ["dual_route"],
            "crosscheck_time": 1.0,
            "crosscheck_constant": 2.0,
            "picard": {"dt": 0.01},
        },
    }


def s8_competition_2d():
    return {
        "name": "S8_competition_2d",
        "problem": {
            "domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]]},
            "grid": {"nodes": [61, 61]},
            "horizon": 0.5,
            "coefficients": {
                "kind": "lv",
                "diffusion": [0.01, 0.02],
                "growth": [1.0, 0.8],
                "interaction": [[1.0, 0.4], [0.5, 1.1]],
            },
            "initial": [
                {"kind": "plateau", "amplitude": 0.7, "center": [0.4, 0.45],
                 "radius": 0.2, "width": 0.1},
                {"kind": "plateau", "amplitude": 0.5, "center": [0.6, 0.55],
                 "radius": 0.2, "width": 0.1},
            ],
        },
        "scheme": {"scheme": "imex_be", "dt": 0.01, "store_every": 10},
        "checks": {"assumptions": ["A1", "A2'", "A4", "A6", "A7"]},
        "analysis": {"ops": ["max_principle"]},
    }


def n1_negative_source():
    cfg = s1_positivity()
    cfg["name"] = "N1_negative_source"
    cfg["problem"]["horizon"] = 1.0
    cfg["problem"]["coefficients"]["source_shift"] = [-1.0, 0.0]
    return cfg


def n2_decaying_growth():
    cfg = s4_asymptotics()
    cfg["name"] = "N2_decaying_growth"
    cfg["problem"]["horizon"] = 5.0
    # growth of species one collapses from 2 to 0.5: the flow overshoots the
    # shrinking carrying capacity and turns back down
    cfg["problem"]["coefficients"]["growth"][0] = _exp(0.5, 1.5)
    cfg["analysis"] = {"ops": ["monotone"], "monotone_signs": [1, -1]}
    return cfg


REGISTRY = {
    "S1_positivity": ("two competing species stay non-negative", s1_positivity),
    "S2_maxbound": ("sup norm stays under the dissipativity barrier",
                    s2_maxbound),
    "S3_extinction": ("integrable growth rate drives the species extinct",
                      s3_extinction),
    "S4_asymptotics": ("monotone flow to a steady state with weak-residual audit",
                       s4_asymptotics),
    "S5_cauchy_nested": ("whole-space heat run reproduced on nested boxes",
                         s5_cauchy_nested),
    "S6_oracle_crosscheck": ("grid march against the kernel fixed-point solver",
                             s6_oracle_crosscheck),
    "S7_logistic_flat": ("flat plateau tracks the logistic closed form",
                         s7_logistic_flat),
    "S8_competition_2d": ("two species compete on the unit square, "
                          "positive and under the barrier", s8_competition_2d),
    "N1_negative_source": ("negative source offset that breaks positivity",
                           n1_negative_source),
    "N2_decaying_growth": ("decaying growth rate that breaks monotonicity",
                           n2_decaying_growth),
}


def get_scenario(name):
    description, builder = REGISTRY[name]
    return load_config_data(builder())


def list_scenarios():
    """Names and one-line descriptions of the built-in library."""
    return [(name, description) for name, (description, _) in REGISTRY.items()]
