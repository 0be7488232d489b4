import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import parapos
from oracles import (dirichlet_image_matrix, dirichlet_taylor_matrix,
                     duhamel_rows_reference, heat_gaussian, logistic_exact,
                     picard_source_reference)
from parapos.checker import source_jacobians
from parapos.coefficients import (BumpInSpace, Coefficient, ConstantInSpace,
                                  ConstantInTime, ExpInTime, PowerInTime,
                                  TabulatedCoefficient, build_initial_field)
from parapos.config import load_config_data
from parapos.duhamel import (
    _TAYLOR_THRESHOLD,
    _TRUNCATION_SIGMAS,
    KernelOperator,
    PicardConfig,
    _duhamel_quadrature,
    _lag_evolver,
    _source_at,
    picard_solve,
)
from parapos.errors import (CoefficientError, DomainError, NonContraction,
                            SolverError, SpecError)
from parapos.fdm import SchemeConfig, solve
from parapos.model import (
    CoefficientSet,
    Field,
    Grid,
    LVCoefficients,
    ProblemSpec,
    SpatialDomain,
    build_lv_problem,
    dst_modes,
    dst_nodes,
)
from parapos.scenarios import s6_oracle_crosscheck

WIDE = SpatialDomain(((-8.0, 8.0),))
UNIT = SpatialDomain(((0.0, 1.0),))
WIDE_SQUARE = SpatialDomain(((-8.0, 8.0), (-8.0, 8.0)))
UNIT_SQUARE = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))

# Operator families for the batched-quadrature tests.  "taylor": every lag of
# a 24-step window stays under the Taylor threshold.  "dense": long lags take
# the Toeplitz branch, so one window mixes both branches.
BRANCHES = {
    "taylor": {1: (UNIT, (101,)), 2: (UNIT_SQUARE, (41, 41)),
               "rates": (2e-4, 1e-4)},
    "dense": {1: (WIDE, (129,)), 2: (WIDE_SQUARE, (65, 65)),
              "rates": (1.0, 0.8)},
}


def wide_grid(n=513):
    return Grid(WIDE, (n,))


def flat_logistic(beta=1.0, gamma=1.0, d=1e-4, amplitude=0.5, horizon=1.0, n=201):
    g = Grid(UNIT, (n,))
    lv = LVCoefficients(np.array([d]), (lambda t, x: beta,), ((lambda t, x: gamma,),))
    init = build_initial_field(
        g, [{"kind": "plateau", "amplitude": amplitude, "center": [0.5],
             "radius": 0.35, "width": 0.15}]
    )
    return build_lv_problem(lv, init, horizon)


def to_nodes(modes, dim):
    """Node values of DST-I coefficients, with every wall node exactly 0."""
    out = np.zeros(modes.shape[:-dim] + tuple(k + 2 for k in modes.shape[-dim:]))
    return dst_nodes(modes, dim, out)


def evolve_nodes(op, values):
    """``op`` applied to node values ``(*batch, *grid.shape)`` through the DST-I."""
    dim = op.grid.dimension
    return to_nodes(op.apply(dst_modes(values, dim)), dim)


def reference_axis_matrix(n, h, variance):
    """One axis of the reference operator: the Taylor polynomial under the
    switch, the image sum of the truncated profile above it."""
    sigma = math.sqrt(variance)
    if sigma < _TAYLOR_THRESHOLD * h:
        return dirichlet_taylor_matrix(n, h, variance / 2.0)
    return dirichlet_image_matrix(n, h, variance, _TRUNCATION_SIGMAS * sigma)


class DenseOperator:
    """The evolution over one lag as dense matrices on the interior nodes."""

    def __init__(self, grid, rate, tau):
        self.dim = grid.dimension
        self.mats = [reference_axis_matrix(n, h, rate * tau)
                     for n, h in zip(grid.shape, grid.spacing)]

    def apply(self, values):
        inner = (Ellipsis,) + (slice(1, -1),) * self.dim
        moved = values[inner]
        for ax, mat in enumerate(self.mats):
            axis = ax - self.dim
            moved = np.moveaxis(np.moveaxis(moved, axis, -1) @ mat.T, -1, axis)
        out = np.zeros(values.shape)
        out[inner] = moved
        return out


def _assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _walls_are_zero(values, dim):
    for ax in range(dim):
        moved = np.moveaxis(values, ax - dim, 0)
        if np.any(moved[0] != 0.0) or np.any(moved[-1] != 0.0):
            return False
    return True


class TestKernelOperator:
    def test_zero_lag_is_the_identity(self):
        g = wide_grid(65)
        op = KernelOperator(g, 1.0, 0.0)
        v = dst_modes(np.sin(g.axes[0]), 1)
        out = op.apply(v)
        assert np.array_equal(out, v)
        assert out is not v

    def test_narrow_kernel_uses_the_expansion_branch(self):
        # sigma below the threshold: the operator reduces to
        # I + a L + a^2 L^2 / 2 with the discrete mode eigenvalue, on every
        # interior node, since sin(pi x) is a mode of the Dirichlet axis
        g = Grid(UNIT, (101,))
        h = g.spacing[0]
        rate, tau = 2e-5, 1.0
        op = KernelOperator(g, rate, tau)
        v = np.sin(np.pi * g.axes[0])
        v[[0, -1]] = 0.0
        out = evolve_nodes(op, v)
        lam = 2.0 * (1.0 - math.cos(math.pi * h)) / h**2
        a = rate * tau / 2.0
        factor = 1.0 - a * lam + 0.5 * (a * lam) ** 2
        assert_allclose(out, factor * v, rtol=0.0, atol=1e-14)
        assert out[0] == out[-1] == 0.0

    @pytest.mark.parametrize("constant, value, spacings", [
        # three standard deviations leave 0.27 % of the kernel's mass out
        ("_TRUNCATION_SIGMAS", 3.0, 6.0),
        # trapezoid quadrature of a kernel half a spacing wide aliases by 1.4 %
        ("_TAYLOR_THRESHOLD", 0.3, 0.5)])
    def test_the_mass_check_refuses_an_unresolved_profile(self, monkeypatch, constant,
                                                          value, spacings):
        monkeypatch.setattr(f"parapos.duhamel.{constant}", value)
        g = Grid(UNIT, (201,))
        sigma = spacings * g.spacing[0]
        with pytest.raises(SolverError) as err:
            KernelOperator(g, 1.0, sigma * sigma)
        assert "mass" in str(err.value)

    def test_a_kernel_wider_than_the_box_wraps_through_its_images(self):
        # sigma = 0.2 on the unit interval: the 7 sigma cutoff is 1.4 lengths
        g = Grid(UNIT, (201,))
        op = KernelOperator(g, 1.0, 0.04)
        mat = dirichlet_image_matrix(201, g.spacing[0], 0.04, _TRUNCATION_SIGMAS * 0.2)
        values = np.random.default_rng(4).random((3,) + g.shape)
        got = evolve_nodes(op, values)
        _assert_close(got[:, 1:-1], values[:, 1:-1] @ mat.T)
        assert _walls_are_zero(got, 1)

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            KernelOperator(wide_grid(65), 1.0, -0.1)

    def test_gaussian_widens_by_the_kernel_variance(self):
        g = wide_grid()
        x = g.axes[0]
        sigma0, rate, tau = 0.7, 1.0, 0.5
        out = evolve_nodes(KernelOperator(g, rate, tau), np.exp(-(x**2) / (2 * sigma0**2)))
        assert_allclose(out, heat_gaussian(x, tau, rate, sigma0), atol=1e-10)

    def test_semigroup_composition(self):
        g = wide_grid()
        modes = dst_modes(np.exp(-g.axes[0] ** 2), 1)
        half = KernelOperator(g, 1.0, 0.3)
        twice = to_nodes(half.apply(half.apply(modes)), 1)
        once = to_nodes(KernelOperator(g, 1.0, 0.6).apply(modes), 1)
        assert np.abs(twice - once).max() <= 1e-10

    def test_per_component_rates(self):
        # one lag of 0.25, a half panel of dt = 0.5; both states stay off
        # the walls at +-8, where the image terms are below 1e-11
        g = wide_grid()
        x = g.axes[0]
        init = np.stack([np.exp(-(x**2) / 0.5), np.exp(-(x**2) / 0.5)])
        evolve = _lag_evolver(g, np.array([1.0, 4.0]), 0.5)
        out = to_nodes(evolve(dst_modes(init, 1), 1), 1)
        assert_allclose(out[0], heat_gaussian(x, 0.25, 1.0, 0.5), atol=1e-10)
        assert_allclose(out[1], heat_gaussian(x, 0.25, 4.0, 0.5), atol=1e-10)

    def test_no_application_allocates_an_n_by_n_matrix(self):
        # 401 nodes and a batch of 11 slices: one float matrix over the axis
        # would take 8 n^2 = 1.29 MB
        n = 401
        g = Grid(SpatialDomain(((0.0, 2.0),)), (n,))
        values = np.random.default_rng(3).random((11, n))
        tracemalloc.start()
        try:
            evolve_nodes(KernelOperator(g, 1.0, 1e-4), values)
            evolve_nodes(KernelOperator(g, 1.0, 4.0), values)  # wider than the box
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4


OFF_TIE_SQUARE = SpatialDomain(((-8.0, 8.0), (-5.0, 5.0)))


class TestToeplitzAxes:
    @pytest.mark.parametrize("tau", [0.37, 0.8, 1.3])
    def test_one_dimensional_apply_matches_the_image_matrix(self, tau):
        g = wide_grid(129)
        assert math.sqrt(tau) >= _TAYLOR_THRESHOLD * g.spacing[0]
        values = np.random.default_rng(11).random((3,) + g.shape)
        got = evolve_nodes(KernelOperator(g, 1.0, tau), values)
        _assert_close(got, DenseOperator(g, 1.0, tau).apply(values))
        assert _walls_are_zero(got, 1)

    @pytest.mark.parametrize("tau", [0.37, 0.5])
    def test_two_dimensional_apply_matches_the_image_matrices(self, tau):
        # hx = 1/8 and hy = 1/6 on 129 x 61 nodes
        g = Grid(OFF_TIE_SQUARE, (129, 61))
        op = KernelOperator(g, 1.0, tau)
        assert op.multiplier.shape == (127, 59)
        values = np.random.default_rng(12).random((2, 3) + g.shape)
        got = evolve_nodes(op, values)
        _assert_close(got, DenseOperator(g, 1.0, tau).apply(values))
        assert _walls_are_zero(got, 2)

    def test_a_tie_at_the_cutoff_is_in_on_both_sides(self):
        # variance 1e-4 on 401 nodes of [0, 2]: 7 sigma = 14 h, and the
        # offsets z h put z = +-14 on the same side of the cutoff
        n = 401
        g = Grid(SpatialDomain(((0.0, 2.0),)), (n,))
        op = KernelOperator(g, 1.0, 1e-4)
        mat = evolve_nodes(op, np.eye(n)).T[1:-1, 1:-1]
        want = dirichlet_image_matrix(n, g.spacing[0], 1e-4, _TRUNCATION_SIGMAS * 0.01)
        assert np.abs(mat - want).max() <= 1e-13
        assert np.abs(mat - mat.T).max() <= 1e-13
        assert np.count_nonzero(np.abs(want[200]) > 0) == 29

    def test_picard_caches_one_multiplier_per_lag(self, monkeypatch):
        # S6 at 401 nodes: the evolver keeps one table per half-panel lag,
        # every component's multiplier over the 399 interior modes
        evolvers = []

        def recording(*args):
            evolvers.append(_lag_evolver(*args))
            return evolvers[-1]

        monkeypatch.setattr("parapos.duhamel._lag_evolver", recording)
        data = s6_oracle_crosscheck()
        data["problem"]["grid"]["nodes"] = [401]
        config = load_config_data(data)
        res = picard_solve(config.build_problem(),
                           PicardConfig(**config.analysis_data["picard"]))
        [evolve] = evolvers
        cells = dict(zip(evolve.__code__.co_freevars,
                         (c.cell_contents for c in evolve.__closure__)))
        # the midpoint panel's half lag, then every whole lag of the longest
        # window, each once
        window = round(max(np.diff(res.window_edges)) / (res.times[1] - res.times[0]))
        assert window >= 12
        assert sorted(cells["table"]) == [1, *range(2, 2 * window + 1, 2)]
        tables = list(cells["table"].values())
        m = config.build_problem().components
        assert m == 2
        assert all(table.shape == (m, 399) for table in tables)
        assert sum(table.nbytes for table in tables) < 1_000_000


def _rounding_floor(values, grid):
    """The documented sign floor of each slice of ``values``: ``20 u (sum of
    log2(2 (n - 1)) + 1)`` times its 2-norm plus ``N`` smallest normals."""
    logs = sum(math.log2(2 * (n - 1)) for n in grid.shape)
    axes = tuple(range(-grid.dimension, 0))
    # the 2-norm, scaled so that squaring cannot underflow
    peak = np.abs(values).max(axis=axes, keepdims=True)
    scaled = np.divide(values, peak, out=np.zeros(values.shape), where=peak > 0)
    norm = peak * np.sqrt((scaled * scaled).sum(axis=axes, keepdims=True))
    info = np.finfo(float)
    return 20.0 * info.eps / 2.0 * (logs + 1.0) * (norm + math.prod(grid.shape) * info.smallest_normal)


def _toeplitz_case(data, grid):
    """A Toeplitz-branch operator, with its cutoff at most half of every
    axis, and a stack of non-negative data."""
    lo = _TAYLOR_THRESHOLD * max(grid.spacing)
    hi = min(((n - 1) // 2) * h for n, h in zip(grid.shape, grid.spacing)) / 7.0
    sigma = data.draw(st.floats(lo, hi), label="sigma")
    op = KernelOperator(grid, 1.0, sigma * sigma)
    batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    values = data.draw(arrays(float, batch + grid.shape,
                              elements=st.floats(0.0, 1e6), fill=st.just(0.0)),
                       label="values")
    return op, values


class TestToeplitzSign:
    """Non-negative data evolve to values no lower than the rounding floor
    the module docstring derives, with every wall node exactly zero."""

    @staticmethod
    def check(op, values):
        out = evolve_nodes(op, values)
        assert np.all(out >= -_rounding_floor(values, op.grid))
        assert _walls_are_zero(out, op.grid.dimension)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), nodes=st.integers(21, 81))
    def test_one_dimensional(self, data, nodes):
        self.check(*_toeplitz_case(data, Grid(UNIT, (nodes,))))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), nx=st.integers(21, 41), ny=st.integers(21, 41))
    def test_two_dimensional(self, data, nx, ny):
        self.check(*_toeplitz_case(data, Grid(UNIT_SQUARE, (nx, ny))))


def test_importing_the_cli_leaves_scipy_ndimage_and_signal_unloaded():
    src = str(Path(parapos.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import parapos.cli; "
            "print([m for m in ('scipy.ndimage', 'scipy.signal') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def _branch_case(branch, dim, comps, span):
    domain, nodes = BRANCHES[branch][dim]
    grid = Grid(domain, nodes)
    rates = np.asarray(BRANCHES[branch]["rates"][:comps])
    dt = 0.01 if branch == "taylor" else min(0.2, 0.96 / span)
    history = np.random.default_rng(5).random((span + 1, comps) + grid.shape)
    return grid, rates, dt, history


class TestBatchedQuadrature:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("comps", [1, 2])
    @pytest.mark.parametrize("span", [1, 2, 3, 24])
    def test_all_rows_match_the_row_by_row_reference(self, branch, dim, comps, span):
        grid, rates, dt, history = _branch_case(branch, dim, comps, span)

        def operator(k, half_steps):
            return DenseOperator(grid, float(rates[k]), half_steps * dt / 2.0)

        want = duhamel_rows_reference(history, operator)
        got = _duhamel_quadrature(history, _lag_evolver(grid, rates, dt),
                                  np.zeros(history[1:].shape))
        _assert_close(got, want)
        assert _walls_are_zero(got, dim)

    def test_the_families_reach_their_branches(self):
        # the longest lag of a 24-step window: each family's multiplier holds
        # its own branch's eigenvalues on the DST-I modes, not the other's
        def eigenvalues(mat):
            n = len(mat) + 2
            k = np.arange(1, n - 1)
            modes = np.sin(np.pi * np.outer(k, k) / (n - 1))
            return np.diag(modes @ mat @ modes) / np.diag(modes @ modes)

        def axis_matrices(grid, variance, taylor):
            if taylor:
                return [dirichlet_taylor_matrix(n, h, variance / 2.0)
                        for n, h in zip(grid.shape, grid.spacing)]
            cutoff = _TRUNCATION_SIGMAS * math.sqrt(variance)
            return [dirichlet_image_matrix(n, h, variance, cutoff)
                    for n, h in zip(grid.shape, grid.spacing)]

        for branch in ("dense", "taylor"):
            grid, rates, dt, _ = _branch_case(branch, 2, 2, 24)
            variance = float(rates[0]) * 24 * dt
            op = KernelOperator(grid, float(rates[0]), 24 * dt)
            for taylor in (False, True):
                mats = axis_matrices(grid, variance, taylor)
                want = np.multiply.outer(*[eigenvalues(m) for m in mats])
                gap = np.abs(op.multiplier - want).max()
                if taylor == (branch == "taylor"):
                    assert gap <= 1e-13 * np.abs(want).max()
                else:
                    assert gap > 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_stack_matches_slice_by_slice_application(self, branch, dim):
        grid, rates, dt, history = _branch_case(branch, dim, 2, 3)
        op = KernelOperator(grid, float(rates[0]), 3 * dt)
        got = evolve_nodes(op, history)
        want = np.empty_like(history)
        for idx in np.ndindex(history.shape[:2]):
            want[idx] = evolve_nodes(op, history[idx])
        assert np.array_equal(got, want)

    def test_each_sweep_applies_each_lag_once_per_component(self, monkeypatch):
        # per window of J steps: J homogeneous rows, then per sweep the
        # midpoint panel and J lags, each applied once to the one species
        calls = []

        def counting(*args):
            evolve = _lag_evolver(*args)

            def counted(modes, half_steps):
                calls.append(half_steps)
                return evolve(modes, half_steps)
            return counted

        monkeypatch.setattr("parapos.duhamel._lag_evolver", counting)
        res = picard_solve(flat_logistic(horizon=0.3), PicardConfig(dt=0.01))
        assert res.final_values.shape[0] == 1
        spans = np.round(np.diff(res.window_edges) / 0.01).astype(int)
        assert len(calls) == sum(j + s * (j + 1) for j, s in zip(spans, res.iterations))

    def test_constant_source_accumulates_linearly(self):
        # far from the walls a unit source integrates to the lag
        g = wide_grid()
        steps, tau = 50, 0.5
        rows = _duhamel_quadrature(np.ones((steps + 1, 1) + g.shape),
                                   _lag_evolver(g, np.array([1.0]), tau / steps),
                                   np.zeros((steps, 1) + g.shape))
        interior = np.abs(g.axes[0]) < 2.0
        assert_allclose(tau / steps * rows[-1, 0, interior], tau, atol=1e-10)


class TestPicard:
    def test_both_routes_round_dt_to_the_same_whole_steps(self):
        # 0.3 does not divide the horizon 1.0: three whole steps of 1/3 fill it
        spec = flat_logistic(horizon=1.0, n=21)
        trajectory = solve(spec, SchemeConfig(dt=0.3))
        res = picard_solve(spec, PicardConfig(dt=0.3))
        assert trajectory.dt == res.times[1] == 1.0 / 3.0
        assert trajectory.dt_adjusted
        assert len(trajectory.monitors) == len(res.times) - 1 == 3

    def test_flat_plateau_tracks_the_logistic_closed_form(self):
        spec = flat_logistic()
        res = picard_solve(spec, PicardConfig(dt=0.01))
        center = res.final_values[0, 100]
        assert center == pytest.approx(logistic_exact(1.0, 0.5), abs=1e-4)

    def test_refining_dt_tightens_the_match(self):
        spec = flat_logistic()
        exact = logistic_exact(1.0, 0.5)
        err_coarse = abs(picard_solve(spec, PicardConfig(dt=0.02)).final_values[0, 100] - exact)
        err_fine = abs(picard_solve(spec, PicardConfig(dt=0.005)).final_values[0, 100] - exact)
        assert err_fine < err_coarse

    def test_sweeps_contract_after_burn_in(self):
        spec = flat_logistic()
        res = picard_solve(spec, PicardConfig(dt=0.01))
        ratios = [r for window in res.contraction_ratios for r in window]
        assert ratios, "expected at least one recorded ratio"
        assert max(ratios) < 1.0

    def test_fixed_point_stays_non_negative(self):
        spec = flat_logistic()
        res = picard_solve(spec, PicardConfig(dt=0.01))
        assert res.values.min() >= -1e-12

    def test_without_a_source_one_sweep_reproduces_the_kernel_map(self):
        g = Grid(UNIT, (201,))
        lv = LVCoefficients(np.array([0.01]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
        init = build_initial_field(
            g, [{"kind": "plateau", "amplitude": 0.5, "center": [0.5],
                 "radius": 0.35, "width": 0.15}]
        )
        spec = build_lv_problem(lv, init, horizon=0.2)
        res = picard_solve(spec, PicardConfig(dt=0.01))
        assert res.iterations == [1]
        hom = evolve_nodes(KernelOperator(g, 0.02, 0.2), init.values[0])
        assert np.array_equal(res.final_values[0], hom)

    def test_wall_nodes_of_every_stored_state_are_zero(self):
        # a bump that reaches the wall at 0
        g = Grid(UNIT, (201,))
        lv = LVCoefficients(np.array([1e-3]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        init = build_initial_field(g, [{"kind": "bump", "amplitude": 0.5,
                                        "center": [0.05], "radius": 0.1}])
        spec = build_lv_problem(lv, init, horizon=0.3)
        res = picard_solve(spec, PicardConfig(dt=0.01))
        assert np.abs(res.values[:, 0, 1]).min() > 1e-3
        assert np.all(res.values[:, :, [0, -1]] == 0.0)

    def test_time_lattice_and_windows_cover_the_horizon(self):
        spec = flat_logistic(horizon=0.5)
        res = picard_solve(spec, PicardConfig(dt=0.01))
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(0.5)
        assert_allclose(np.diff(res.times), 0.01, rtol=1e-9)
        assert res.window_edges[0] == 0.0
        assert res.window_edges[-1] == pytest.approx(0.5)
        assert res.jacobian_sup > 0.0
        assert len(res.iterations) == len(res.window_edges) - 1

    def test_runaway_feedback_raises_noncontraction(self):
        # gamma < 0 turns the competition term into positive feedback; the
        # state blows up in finite time and the sweep changes run away
        g = Grid(UNIT, (201,))
        lv = LVCoefficients(np.array([1e-4]), (lambda t, x: 1.0,), ((lambda t, x: -10.0,),))
        init = build_initial_field(
            g, [{"kind": "plateau", "amplitude": 2.0, "center": [0.5],
                 "radius": 0.35, "width": 0.15}]
        )
        spec = build_lv_problem(lv, init, horizon=0.5)
        with pytest.raises(NonContraction):
            picard_solve(spec, PicardConfig(dt=0.001))

    def test_exhausting_the_sweep_budget_raises(self):
        spec = flat_logistic(horizon=0.3)
        with pytest.raises(NonContraction) as err:
            picard_solve(spec, PicardConfig(dt=0.01, tol=0.0, max_iter=4))
        assert "4 sweeps" in str(err.value)

    def test_drift_terms_rejected(self):
        g = Grid(UNIT, (101,))
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: np.broadcast_to(
                0.01 * np.eye(1), np.asarray(x).shape[:-1] + (1, 1)),
            drift=lambda t, x, u, p: np.full(np.asarray(x).shape[:-1] + (1,), 0.5),
            source=lambda t, x, u, p: np.zeros_like(u),
        )
        spec = ProblemSpec(coeffs, Field.zeros(g, 1), horizon=0.1)
        with pytest.raises(SpecError):
            picard_solve(spec)

    def test_a_source_that_reads_the_gradient_is_rejected(self):
        # the route hands every source a zero gradient, so it would solve a
        # different problem than the grid march it is compared with
        spec = flat_logistic()
        inner = spec.coefficients.source

        def source(t, x, u, p):
            return inner(t, x, u, p) + 0.5 * np.asarray(p).sum(axis=-1)

        coeffs = replace(spec.coefficients, source=source, depends_on_gradient=True)
        with pytest.raises(SpecError, match="does not read the gradient"):
            picard_solve(replace(spec, coefficients=coeffs), PicardConfig(dt=0.01))

    @pytest.mark.parametrize("matrix, dim, message", [
        (lambda t: (0.01 + np.asarray(t))[..., None, None] * np.eye(1), 1,
         "constant in time and state"),
        (lambda t: np.array([[0.01, 0.003], [0.003, 0.01]]), 2, "axis-aligned"),
        (lambda t: np.diag([0.01, 0.02]), 2, "isotropic"),
        (lambda t: np.zeros((1, 1)), 1, "positive diffusion"),
    ], ids=["time-dependent", "off-diagonal", "anisotropic", "non-positive"])
    def test_diffusion_the_kernel_route_cannot_use_is_rejected(self, matrix, dim, message):
        g = Grid(UNIT if dim == 1 else UNIT_SQUARE, (21,) * dim)
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: np.broadcast_to(
                matrix(t), np.asarray(x).shape[:-1] + (dim, dim)),
            drift=None,
            source=lambda t, x, u, p: np.zeros_like(u),
        )
        spec = ProblemSpec(coeffs, Field.zeros(g, 1), horizon=0.1)
        with pytest.raises(SpecError, match=message):
            picard_solve(spec)

    def test_non_finite_source_slopes_are_an_error(self, nan_above):
        # a NaN Jacobian sup would fail j_hat > 0 and make one window of
        # the whole horizon
        spec = nan_above(flat_logistic(), 1.5)
        with pytest.raises(CoefficientError):
            picard_solve(spec, PicardConfig(dt=0.01))

    def test_windows_are_sized_from_the_step_actually_used(self):
        # dt = 0.099 / j_hat and a horizon of 10.4 dt: the step is rounded
        # up by 4 %, so windows sized from the requested dt (5 steps) would
        # give j_hat * window = 0.515
        spec = flat_logistic(horizon=1.0)
        amp = 2.0 * max(1.0, float(np.abs(spec.initial.values).max()))
        j_hat = float(np.abs(source_jacobians(spec, amp)).max())
        dt = 0.099 / j_hat
        spec = flat_logistic(horizon=10.4 * dt)
        res = picard_solve(spec, PicardConfig(dt=dt))
        used = res.times[1] - res.times[0]
        assert used == pytest.approx(1.04 * dt)
        assert res.jacobian_sup == j_hat
        lengths = np.diff(res.window_edges)
        multi = lengths[lengths > 1.5 * used]
        assert len(multi) >= 2
        assert (res.jacobian_sup * multi).max() <= 0.5
        assert lengths.max() == pytest.approx(4 * used)

    def test_config_validation(self):
        with pytest.raises(SpecError):
            PicardConfig(dt=0.0)
        with pytest.raises(SpecError):
            PicardConfig(max_iter=2)


def _family_entries(family, dim, count):
    """``count`` coefficients of one family, each with its own parameters."""
    bump = BumpInSpace(center=(0.45,) * dim, radius=0.3, width=0.1, amplitude=0.5)
    t_values = np.array([0.0, 0.35, 2.0])
    axes = tuple(np.linspace(0.0, 1.0, 4 + ax) for ax in range(dim))
    out = []
    for j in range(count):
        if family == "constant":
            out.append(Coefficient(ConstantInTime(0.7 + j), ConstantInSpace(1.0 / (3.0 + j))))
        elif family == "exp":
            out.append(Coefficient(ExpInTime(1.0 + 0.1 * j, 0.5 - 0.2 * j, 0.3 + 0.4 * j),
                                   ConstantInSpace()))
        elif family == "power":
            out.append(Coefficient(PowerInTime(1.0 + j, 1.3 + 0.2 * j), ConstantInSpace()))
        elif family == "bump":
            out.append(Coefficient(ExpInTime(1.0, -0.5, 1.3 + j), bump))
        else:
            grids = np.meshgrid(t_values, *axes, indexing="ij")
            table = np.sin(1.0 + j + sum((k + 1.0) * g for k, g in enumerate(grids)))
            out.append(TabulatedCoefficient(t_values, axes, table))
    return out


def _window_case(family, m, dim, span=4):
    """An LV problem of one coefficient family, and a window of signed states."""
    domain = UNIT if dim == 1 else UNIT_SQUARE
    grid = Grid(domain, (21,) if dim == 1 else (9, 7))
    entries = _family_entries(family, dim, m + m * m)
    lv = LVCoefficients(np.full(m, 0.01), tuple(entries[:m]),
                        tuple(tuple(entries[m + k * m:m + (k + 1) * m]) for k in range(m)))
    spec = build_lv_problem(lv, Field.zeros(grid, m), horizon=1.0)
    window = np.random.default_rng(7 * m + dim).uniform(-2.0, 3.0, (span + 1, m) + grid.shape)
    window.flat[:3] = [-0.0, 5e-324, -5e-324]
    return spec, grid, window


def _window_points(grid, t0, dt, span):
    """The broadcast ``t`` and ``x`` ``picard_solve`` builds for one window."""
    t = (t0 + np.arange(span + 1) * dt).reshape((span + 1,) + (1,) * grid.dimension)
    return t, np.broadcast_to(grid.points, (span + 1,) + grid.points.shape)


class TestWindowSource:
    """One source call covers a whole Picard window."""

    @pytest.mark.parametrize("family", ["constant", "exp", "power", "bump", "table"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_call_gives_the_bits_of_one_call_per_slice(self, family, m, dim):
        spec, grid, window = _window_case(family, m, dim)
        t0, dt, span = 0.3, 0.05, window.shape[0] - 1
        t, x = _window_points(grid, t0, dt, span)
        want = picard_source_reference(spec.coefficients.source,
                                       [t0 + j * dt for j in range(span + 1)],
                                       grid.points, window)
        for _ in range(2):  # the second call reads the memoised space profiles
            got = _source_at(spec, t, x, window)
            assert got.shape == window.shape
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dt", [0.01, 0.004])
    def test_one_source_call_per_sweep_whatever_the_window(self, dt):
        spec = flat_logistic(horizon=0.3)
        inner = spec.coefficients.source
        calls = []

        def source(t, x, u, p):
            calls.append(np.shape(u))
            assert not np.any(p)
            return inner(t, x, u, p)

        spec = replace(spec, coefficients=replace(spec.coefficients, source=source))
        res = picard_solve(spec, PicardConfig(dt=dt))
        steps = np.diff(res.window_edges) / (res.times[1] - res.times[0])
        assert steps.max() > 5
        # source_jacobians makes two calls, one on each side of its differences
        assert len(calls) == sum(res.iterations) + 2
        assert sorted({shape[0] for shape in calls[2:]}) == sorted(
            {int(round(n)) + 1 for n in steps})

    def test_a_space_constant_window_call_holds_less_than_one_full_table(self):
        # (span + 1, *grid, m, m) tables would take 3.8 MB here
        m, span = 3, 8
        grid = Grid(UNIT_SQUARE, (81, 81))
        entries = _family_entries("exp", 2, m + m * m)
        lv = LVCoefficients(np.full(m, 0.01), tuple(entries[:m]),
                            tuple(tuple(entries[m + k * m:m + (k + 1) * m]) for k in range(m)))
        spec = build_lv_problem(lv, Field.zeros(grid, m), horizon=1.0)
        window = np.random.default_rng(1).uniform(0.0, 2.0, (span + 1, m) + grid.shape)
        t, x = _window_points(grid, 0.0, 0.01, span)
        _source_at(spec, t, x, window)  # build the memoised profiles outside the trace
        tracemalloc.start()
        try:
            _source_at(spec, t, x, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (span + 1) * math.prod(grid.shape) * m * m
