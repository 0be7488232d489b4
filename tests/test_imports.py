"""What ``import parapos.cli`` loads, and what loads only on the path that needs it.

Each test runs in a fresh interpreter, since this session has long since
imported every scipy subpackage.  The guard shows that the CLI loads none of
the deferred subpackages; the other tests show that each call site that
needs one still runs and imports it itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import parapos
from parapos.analysis import gronwall_extinction_bound
from parapos.scenarios import get_scenario

SRC = str(Path(parapos.__file__).resolve().parents[1])

DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
            "scipy.sparse", "scipy.ndimage", "scipy.signal", "orjson")


def after_cli_import(code, *args):
    """Run ``code`` after ``import parapos.cli`` in a fresh interpreter.

    ``sys.argv[2:]`` holds ``args``; the code prints one JSON value, which is
    returned.
    """
    prelude = "import json, sys; sys.path.insert(0, sys.argv[1]); import parapos.cli\n"
    run = subprocess.run([sys.executable, "-c", prelude + code, SRC, *args],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_importing_the_cli_leaves_the_deferred_subpackages_unloaded():
    loaded = after_cli_import(
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    assert loaded == []


def _run_s4_writing(tmp_path, formats):
    """The files a run of S4 with these output ``formats`` writes, and
    whether ``orjson`` got loaded."""
    data = get_scenario("S4_asymptotics").data
    data["outputs"] = {"formats": formats}
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(data))
    code, files, loaded = after_cli_import("""
import contextlib, os
with contextlib.redirect_stdout(sys.stderr):
    code = parapos.cli.main(['run', sys.argv[2], '--out', sys.argv[3]])
files = sorted(os.listdir(os.path.join(sys.argv[3], 'S4_asymptotics')))
print(json.dumps([code, files, 'orjson' in sys.modules]))
""", str(path), str(tmp_path / "out"))
    assert code == 0
    return files, loaded


def test_a_csv_write_loads_orjson(tmp_path):
    files, loaded = _run_s4_writing(tmp_path, ["csv"])
    assert {"trajectory.csv", "diagnostics.csv", "residuals.csv"} <= set(files)
    assert loaded


def test_a_binary_and_json_run_leaves_orjson_unloaded(tmp_path):
    files, loaded = _run_s4_writing(tmp_path, ["binary", "json"])
    assert "snapshots.bin" in files
    assert not any(name.endswith(".csv") for name in files)
    assert not loaded


def test_the_gronwall_bound_of_s3_loads_scipy_integrate(tmp_path):
    before, after, verdict = after_cli_import("""
from parapos.runner import run_scenario
from parapos.scenarios import get_scenario
before = 'scipy.integrate' in sys.modules
manifest = run_scenario(get_scenario('S3_extinction'), out_dir=sys.argv[2])
verdict = manifest.verdicts['sup-bound']
print(json.dumps([before, 'scipy.integrate' in sys.modules,
                  [verdict.status, verdict.note, verdict.data['bound']]]))
""", str(tmp_path / "S3_extinction"))
    assert (before, after) == (False, True)
    problem = get_scenario("S3_extinction").build_problem()
    bound = gronwall_extinction_bound(problem.initial.values[0], problem.lv.growth[0],
                                      domain=problem.domain)
    assert verdict == ["verified", "integrated-growth barrier", bound]


def test_a_table_coefficient_loads_scipy_interpolate(tmp_path):
    table = tmp_path / "growth.csv"
    table.write_text("t,x,value\n0,0,1\n0,1,3\n2,0,5\n2,1,7\n")
    before, after, value = after_cli_import("""
from parapos.coefficients import TabulatedCoefficient
before = 'scipy.interpolate' in sys.modules
coefficient = TabulatedCoefficient.from_csv(sys.argv[2])
print(json.dumps([before, 'scipy.interpolate' in sys.modules,
                  coefficient(1.0, [[0.25]]).tolist()]))
""", str(table))
    assert (before, after) == (False, True)
    # bilinear: 1.5 at t = 0 and 5.5 at t = 2, half-way between at t = 1
    assert value == [pytest.approx(3.5, rel=1e-15)]


def _validate_with_a_growth_table(tmp_path, body):
    """Exit code of ``parapos validate`` on S1 with a growth table, and
    whether ``scipy.interpolate`` got loaded."""
    (tmp_path / "growth.csv").write_text("t,x,value\n" + body)
    data = get_scenario("S1_positivity").data
    data["problem"]["coefficients"]["growth"][0] = {"family": "table", "path": "growth.csv"}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    return tuple(after_cli_import("""
import contextlib
with contextlib.redirect_stdout(sys.stderr):
    code = parapos.cli.main(['validate', sys.argv[2]])
print(json.dumps([code, 'scipy.interpolate' in sys.modules]))
""", str(path)))


def test_validating_a_table_coefficient_leaves_scipy_interpolate_unloaded(tmp_path):
    # validation reads a table's lattice with numpy; interpolating is the run's job
    assert _validate_with_a_growth_table(tmp_path, "0,0,1\n0,1,3\n2,0,5\n2,1,7\n") == (0, False)


def test_rejecting_an_incomplete_table_leaves_scipy_interpolate_unloaded(tmp_path):
    assert _validate_with_a_growth_table(tmp_path, "0,0,1\n0,1,3\n2,0,5\n") == (2, False)


def test_a_varying_diffusion_step_in_2d_loads_scipy_sparse_linalg():
    before, after, iterations, finite = after_cli_import("""
import numpy as np
from parapos.fdm import SchemeConfig, solve
from parapos.model import CoefficientSet, Field, Grid, ProblemSpec, SpatialDomain

domain = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))
grid = Grid(domain, (11, 13))

def diffusion(t, x, u):
    a = np.zeros(np.asarray(x).shape[:-1] + (2, 2))
    a[..., 0, 0] = 1.0 + x[..., 0]
    a[..., 1, 1] = 0.5
    return a

coefficients = CoefficientSet(
    diffusion=diffusion,
    drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (2,)),
    source=lambda t, x, u, p: np.zeros_like(u))
pts = grid.points
init = Field.from_arrays(grid, (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1]))[None])
spec = ProblemSpec(coefficients, init, horizon=1e-3)
before = 'scipy.sparse' in sys.modules
trajectory = solve(spec, SchemeConfig(scheme='imex_be', dt=1e-3))
print(json.dumps([before, 'scipy.sparse.linalg' in sys.modules,
                  trajectory.reports[0].solve_iterations,
                  bool(np.isfinite(trajectory.final_values).all())]))
""")
    assert (before, after) == (False, True)
    assert iterations >= 1
    assert finite
