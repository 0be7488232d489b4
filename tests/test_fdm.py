import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dgttrf
from scipy.sparse.linalg import spsolve

import parapos
from oracles import (
    backward_euler_heat_factor,
    banded_implicit_solve,
    dirichlet_laplacian_eigenvalue,
    heun_scalar,
    step_report_reference,
)
from parapos.coefficients import build_initial_field
from parapos.errors import (CoefficientError, DegenerateRefinement, NonConvergence,
                            SolverError, SpecError)
from parapos import fdm
from parapos.fdm import (
    BLOCK_STEPS,
    MONITORS,
    SPAN_BYTES,
    SchemeConfig,
    _assemble_2d,
    _implicit_solve,
    _monitor_rows,
    estimate_order,
    positivity_step_bound,
    solve,
    solve_cauchy_nested,
)
from parapos.model import (
    CoefficientSet,
    Field,
    Grid,
    LVCoefficients,
    ProblemSpec,
    SpatialDomain,
    build_lv_problem,
)
from parapos.scenarios import get_scenario

UNIT = SpatialDomain(((0.0, 1.0),))


def one_step(state, dt, spec, config):
    """One step of length ``dt`` from ``state`` at t = 0, as a one-step ``solve``.

    Returns the new state as a :class:`Field` and the step's report.
    """
    traj = solve(replace(spec, initial=state, horizon=dt), replace(config, dt=dt))
    return Field(state.grid, traj.final_values), traj.reports[0]


def heat_problem(n=101, d=1.0, amplitude=1.0, horizon=1.0):
    g = Grid(UNIT, (n,))
    lv = LVCoefficients(np.array([d]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
    init = Field.from_arrays(g, (amplitude * np.sin(np.pi * g.axes[0]))[None])
    return build_lv_problem(lv, init, horizon)


def logistic_problem(n=101, d=0.01, beta=1.0, gamma=1.0, amplitude=0.5, horizon=5.0):
    g = Grid(UNIT, (n,))
    lv = LVCoefficients(np.array([d]), (lambda t, x: beta,), ((lambda t, x: gamma,),))
    init = Field.from_arrays(g, (amplitude * np.sin(np.pi * g.axes[0]))[None])
    return build_lv_problem(lv, init, horizon)


def logistic_problem_2d(n, horizon, species=1):
    """Logistic competition on the unit square, each species a sine bump."""
    dom = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))
    g = Grid(dom, (n, n))
    pts = g.points
    bump = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
    lv = LVCoefficients(
        np.linspace(0.01, 0.02, species),
        tuple((lambda t, x, b=1.0 + 0.5 * k: b) for k in range(species)),
        tuple(tuple((lambda t, x, c=1.0 if i == k else 0.3: c) for i in range(species))
              for k in range(species)))
    init = Field.from_arrays(g, np.stack([(0.5 + 0.2 * k) * bump for k in range(species)]))
    return build_lv_problem(lv, init, horizon)


def varying_diffusion_2d():
    """Heat flow with space-varying diagonal diffusion, which BiCGSTAB solves."""
    dom = SpatialDomain(((0.0, 1.0), (0.0, 1.5)))
    g = Grid(dom, (21, 25))
    pts = g.points

    def diffusion(t, x, u):
        a = np.zeros(np.asarray(x).shape[:-1] + (2, 2))
        a[..., 0, 0] = 1.0 + x[..., 0]
        a[..., 1, 1] = 0.5 + 0.25 * np.sin(np.pi * x[..., 1])
        return a

    coeffs = CoefficientSet(
        diffusion=diffusion,
        drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (2,)),
        source=lambda t, x, u, p: np.zeros_like(u),
    )
    init = Field.from_arrays(
        g, (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1] / 1.5))[None])
    return ProblemSpec(coeffs, init, horizon=1.0)


class TestSingleStep:
    def test_implicit_euler_damps_the_sine_mode_exactly(self):
        spec = heat_problem()
        g = spec.initial.grid
        dt = 0.01
        new, report = one_step(spec.initial, dt, spec, SchemeConfig(scheme="imex_be", dt=dt))
        factor = backward_euler_heat_factor(g.spacing[0], dt)
        assert_allclose(new.values[0], factor * spec.initial.values[0], atol=1e-12)
        assert report.solve_iterations >= 0
        assert report.source_evaluations == 1

    def test_heun_on_a_flat_state_reduces_to_the_scalar_update(self):
        # far from the boundary the diffusion term vanishes on a constant
        # state, so one Heun step must agree with the scalar ODE stepper
        g = Grid(UNIT, (101,))
        lv = LVCoefficients(np.array([0.05]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        init = Field.from_arrays(g, np.full((1, 101), 0.4))
        spec = build_lv_problem(lv, init, horizon=1.0)
        dt = 1e-3
        new, report = one_step(init, dt, spec, SchemeConfig(scheme="erk2", dt=dt))
        oracle = heun_scalar(lambda t, y: y * (1.0 - y), 0.4, dt, 1)
        assert_allclose(new.values[0, 3:-3], oracle, rtol=0, atol=1e-14)
        assert report.source_evaluations == 2

    def test_two_dimensional_mode_damped_with_the_summed_eigenvalue(self):
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (33, 33))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
        pts = g.points
        init = Field.from_arrays(
            g, (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1]))[None]
        )
        spec = build_lv_problem(lv, init, horizon=1.0)
        dt = 1e-3
        new, report = one_step(init, dt, spec, SchemeConfig(scheme="imex_be", dt=dt))
        lam = 2.0 * dirichlet_laplacian_eigenvalue(g.spacing[0])
        assert_allclose(new.values[0], init.values[0] / (1.0 + dt * lam), atol=1e-12)
        # constant diffusion is solved directly, with no iterations
        assert report.solve_iterations == 0

    def test_two_dimensional_varying_diffusion_solves_the_discrete_equation(self):
        # space-varying diffusion keeps the iterative solve; its answer must
        # satisfy the backward Euler equation written out stencil by stencil
        spec = varying_diffusion_2d()
        init, g = spec.initial, spec.initial.grid
        pts = g.points
        axx = 1.0 + pts[..., 0]
        ayy = 0.5 + 0.25 * np.sin(np.pi * pts[..., 1])
        dt = 1e-3
        new, report = one_step(init, dt, spec, SchemeConfig(scheme="imex_be", dt=dt))
        assert report.solve_iterations >= 1
        w = new.values[0]
        hx, hy = g.spacing
        core = (slice(1, -1), slice(1, -1))
        lap = (axx[core] * (w[2:, 1:-1] - 2.0 * w[core] + w[:-2, 1:-1]) / hx**2
               + ayy[core] * (w[1:-1, 2:] - 2.0 * w[core] + w[1:-1, :-2]) / hy**2)
        residual = w[core] - dt * lap - init.values[0][core]
        assert np.abs(residual).max() <= 1e-8

    def test_iterative_solve_out_of_iterations_raises(self, monkeypatch):
        monkeypatch.setattr("parapos.fdm.LINEAR_MAXITER", 1)
        with pytest.raises(SolverError, match="failed to converge"):
            solve(varying_diffusion_2d(), SchemeConfig(scheme="imex_be", dt=1e-3))

    def test_bad_dt_rejected(self):
        spec = heat_problem()
        with pytest.raises(SpecError):
            one_step(spec.initial, -0.1, spec, SchemeConfig())

    def test_step_keeps_the_boundary_pinned(self):
        spec = logistic_problem()
        new, _ = one_step(spec.initial, 0.01, spec, SchemeConfig(scheme="imex_be", dt=0.01))
        assert new.values[0, 0] == 0.0
        assert new.values[0, -1] == 0.0


class TestSolve:
    def test_zero_data_is_preserved_bitwise(self):
        g = Grid(UNIT, (101,))
        lv = LVCoefficients(np.array([0.01]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        spec = build_lv_problem(lv, Field.zeros(g, 1), horizon=1.0)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=0.01))
        assert np.all(traj.values == 0.0)
        assert all(r.negpart_norm == 0.0 for r in traj.reports)

    def test_logistic_competition_stays_positive_and_bounded(self):
        spec = logistic_problem(horizon=5.0)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=0.01))
        assert traj.values.min() >= -1e-10
        # carrying capacity 1 plus the barrier slack
        assert max(r.sup_norm for r in traj.reports) <= 1.0 + 1e-6

    def test_boundary_exact_across_schemes(self):
        for scheme, dt in (("imex_be", 0.01), ("erk2", 1e-5)):
            spec = heat_problem(n=51, horizon=0.001)
            traj = solve(spec, SchemeConfig(scheme=scheme, dt=dt))
            assert np.all(traj.values[:, :, 0] == 0.0)
            assert np.all(traj.values[:, :, -1] == 0.0)

    def test_explicit_scheme_rejects_unstable_dt(self):
        spec = heat_problem(n=101, horizon=0.002)
        # the sampled bound for unit diffusion on h = 0.01 is h^2 / 2 = 5e-5
        with pytest.raises(SolverError) as err:
            solve(spec, SchemeConfig(scheme="erk2", dt=1e-4))
        assert "unstable" in str(err.value)
        traj = solve(spec, SchemeConfig(scheme="erk2", dt=4.9e-5))
        assert np.isfinite(traj.values).all()

    @pytest.mark.parametrize("at", [3, BLOCK_STEPS, BLOCK_STEPS + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 50, -1])
    def test_a_non_finite_value_stops_the_march_at_its_step(self, monkeypatch,
                                                            bad, where, at):
        # step ``at`` leaves one value non-finite: the march raises there, with
        # no warning on the way; steps BLOCK_STEPS and BLOCK_STEPS + 1 end one
        # block and start the next
        real_stepper = fdm._stepper

        def stepper(*args):
            begin = real_stepper(*args)
            steps = []

            def spoilt_begin(ts):
                advance = begin(ts)

                def spoilt(j, values, out, counter):
                    advance(j, values, out, counter)
                    steps.append(ts[j])
                    if len(steps) == at:
                        out.flat[where] = bad
                return spoilt
            return spoilt_begin

        monkeypatch.setattr(fdm, "_stepper", stepper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"lost finiteness at step {at} "
                                                  rf"\(t={at / 100:g}\)"):
                solve(logistic_problem(horizon=1.0),
                      SchemeConfig(scheme="imex_be", dt=0.01))

    @pytest.mark.parametrize("constant, samples", [(True, 1), (False, 5)])
    def test_the_stability_bound_samples_constant_diffusion_once(self, monkeypatch,
                                                                 constant, samples):
        spec = heat_problem(n=101, horizon=0.002)
        spec = replace(spec, coefficients=replace(spec.coefficients,
                                                  constant_diffusion=constant))
        times = []
        real = fdm._frozen_diffusion

        def counting(spec, t, grid, values):
            times.append(t)
            return real(spec, t, grid, values)

        monkeypatch.setattr(fdm, "_frozen_diffusion", counting)
        bound = fdm._stability_bound(spec, spec.initial.grid, spec.initial.values)
        assert times == np.linspace(0.0, 0.002, samples).tolist()
        # unit diffusion on h = 0.01
        assert bound == pytest.approx(0.5 * 0.01**2, rel=1e-12)

    def test_stability_gate_can_be_disabled(self):
        spec = heat_problem(n=101, horizon=5.25e-5)
        config = SchemeConfig(scheme="erk2", dt=5.25e-5, check_stability=False)
        traj = solve(spec, config)  # one mildly amplified step still finishes
        assert np.isfinite(traj.values).all()

    def test_trajectory_bookkeeping(self):
        spec = logistic_problem(horizon=1.0)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=0.01, store_every=25))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.all(np.diff(traj.times) > 0)
        # 100 steps stored every 25 plus the initial slice
        assert len(traj.times) == 5
        assert len(traj.reports) == 100
        assert not traj.dt_adjusted

    @staticmethod
    def _held_bytes(spec, config):
        """The march's traced peak beyond the trajectory it returns, and that trajectory."""
        solve(spec, config)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            traj = solve(spec, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (traj.times.nbytes + traj.values.nbytes + traj.monitors.nbytes), traj

    def test_the_march_holds_one_span_of_states_not_one_per_step(self):
        # 4000 steps of 401 values: their states would take 12.8 MB; the
        # march keeps at most BLOCK_STEPS + 1 states and the monitors 0.2 MB,
        # and a step's temporaries, the monitor reducer's and the block's
        # time lattice come to a few dozen states more
        spec = logistic_problem(n=401, horizon=40.0)
        state, steps = 8 * 401, 4000
        held, traj = self._held_bytes(
            spec, SchemeConfig(scheme="imex_be", dt=0.01, store_every=2000))
        assert traj.monitors.shape == (steps, len(MONITORS))
        assert held < (BLOCK_STEPS + 1 + 32) * state

    def test_a_state_over_the_budget_is_held_twice_not_once_per_step(self):
        # one species on 129 x 129 nodes is over SPAN_BYTES, so each span is
        # one step and the march alternates between two states
        spec = logistic_problem_2d(n=129, horizon=0.8)
        state = spec.initial.values.nbytes
        assert state > SPAN_BYTES
        held, traj = self._held_bytes(
            spec, SchemeConfig(scheme="imex_be", dt=0.01, store_every=40))
        assert traj.monitors.shape == (80, len(MONITORS))
        assert held < 32 * state

    def test_dt_rounded_to_land_on_the_horizon(self):
        spec = logistic_problem(horizon=1.0)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=0.03))
        assert traj.dt_adjusted
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.dt == pytest.approx(1.0 / 33)

    def test_mixed_derivative_terms_consistent_between_schemes(self):
        # anisotropic 2D diffusion with a cross term: the implicit-explicit
        # and fully explicit paths must agree to the schemes' joint accuracy
        dom = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))
        g = Grid(dom, (21, 21))
        a = np.array([[1.0, 0.3], [0.3, 0.5]])

        def diffusion(t, x, u):
            return np.broadcast_to(a, np.asarray(x).shape[:-1] + (2, 2))

        coeffs = CoefficientSet(
            diffusion=diffusion,
            drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (2,)),
            source=lambda t, x, u, p: np.zeros_like(u),
        )
        pts = g.points
        init = Field.from_arrays(
            g, (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1]))[None]
        )
        spec = ProblemSpec(coeffs, init, horizon=2e-3)
        fine = SchemeConfig(scheme="erk2", dt=1e-5)
        traj_e = solve(spec, fine)
        traj_i = solve(spec, SchemeConfig(scheme="imex_be", dt=1e-5))
        assert np.abs(traj_e.final_values - traj_i.final_values).max() < 1e-5

    def test_mixed_derivative_terms_kept_with_constant_diffusion(self):
        # the direct solve takes the diagonal only; the cross term must still
        # enter explicitly, as it does on the iterative path
        dom = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))
        g = Grid(dom, (21, 21))
        a = np.array([[1.0, 0.3], [0.3, 0.5]])
        pts = g.points
        init = Field.from_arrays(
            g, (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1]))[None]
        )
        finals = []
        for constant in (False, True):
            coeffs = CoefficientSet(
                diffusion=lambda t, x, u: np.broadcast_to(
                    a, np.asarray(x).shape[:-1] + (2, 2)),
                drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (2,)),
                source=lambda t, x, u, p: np.zeros_like(u),
                constant_diffusion=constant,
            )
            spec = ProblemSpec(coeffs, init, horizon=0.02)
            finals.append(solve(spec, SchemeConfig(scheme="imex_be", dt=1e-3)).final_values)
        scale = np.abs(finals[0]).max()
        assert np.abs(finals[1] - finals[0]).max() <= 1e-8 * scale


def transport_problem(b, n, through_source, d=1e-4, width=0.04, horizon=0.2):
    """A narrow Gaussian bump at the centre of the unit box, carried by the constant drift ``b``.

    ``du/dt = d lap u + b . grad u`` carries the bump with velocity ``-b``.
    With ``through_source`` the transport term is a source that reads the
    gradient (``depends_on_gradient``) and there is no drift; otherwise it
    is the drift.
    """
    dim = len(b)
    g = Grid(SpatialDomain(((0.0, 1.0),) * dim), (n,) * dim)
    b = np.asarray(b, dtype=float)

    def drift(t, x, u, p):
        return np.broadcast_to(b, np.asarray(x).shape)

    def transport(t, x, u, p):
        return np.einsum("...i,...ki->...k", drift(t, x, u, p), p)

    coeffs = CoefficientSet(
        diffusion=lambda t, x, u: np.broadcast_to(
            d * np.eye(dim), np.asarray(x).shape[:-1] + (dim, dim)),
        drift=None if through_source else drift,
        source=transport if through_source else (lambda t, x, u, p: np.zeros_like(u)),
        depends_on_gradient=through_source,
        constant_diffusion=True,
    )
    r2 = ((g.points - 0.5) ** 2).sum(axis=-1)
    init = Field.from_arrays(g, np.exp(-r2 / (2.0 * width**2))[None])
    return ProblemSpec(coeffs, init, horizon)


def _centre_of_mass(values, grid):
    w = values[0]
    return np.array([(w * grid.points[..., axis]).sum() / w.sum()
                     for axis in range(grid.dimension)])


class TestTransport:
    """A non-zero drift, and the same transport as a gradient-reading source."""

    CASES = [((1.0,), 201, 1e-3), ((0.5, -0.75), 81, 2e-3)]

    @pytest.mark.parametrize("scheme", ["imex_be", "erk2"])
    @pytest.mark.parametrize("b, n, dt", CASES)
    def test_a_drift_marches_as_the_same_transport_through_the_source(self, b, n, dt, scheme):
        config = SchemeConfig(scheme=scheme, dt=dt)
        by_drift = solve(transport_problem(b, n, through_source=False), config)
        by_source = solve(transport_problem(b, n, through_source=True), config)
        assert np.array_equal(by_drift.final_values, by_source.final_values)

    @pytest.mark.parametrize("scheme", ["imex_be", "erk2"])
    @pytest.mark.parametrize("b, n, dt", CASES)
    def test_the_bump_centre_moves_by_minus_b_t(self, b, n, dt, scheme):
        # the central gradient and the second difference move the first
        # moment exactly while the bump stays clear of the walls, so the
        # centre of mass lands on x0 - b T to far below one cell
        spec = transport_problem(b, n, through_source=False)
        traj = solve(spec, SchemeConfig(scheme=scheme, dt=dt))
        grid = spec.initial.grid
        moved = (_centre_of_mass(traj.final_values, grid)
                 - _centre_of_mass(spec.initial.values, grid))
        assert_allclose(moved, -np.asarray(b) * traj.times[-1],
                        rtol=0.0, atol=1e-2 * grid.spacing[0])


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                    1e308, -1e308, 1.0, -0.3])


def _step_rows(states, dt):
    """The monitor rows of the steps ``states[j] -> states[j + 1]``, reduced at once.

    Each row's ``min_value`` is filled first, as the march fills it.
    """
    rows = np.full((len(states) - 1, len(MONITORS)), -1.0)
    rows[:, MONITORS.index("min_value")] = [new.min() for new in states[1:]]
    _monitor_rows(states[:-1], states[1:], dt, rows)
    return rows


def _column(rows, *names):
    return rows[:, [MONITORS.index(name) for name in names]]


class TestStepMonitors:
    """Each step's monitors reduce before they divide or take the root."""

    @pytest.mark.parametrize("dt", [0.01, 0.5, 1.9])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bitwise_the_mapped_grid_extremes_on_special_values(self, m, dt):
        rng = np.random.default_rng(100 * m)
        with np.errstate(all="ignore"):
            for _ in range(32):
                shape = (4, m, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
                states = rng.choice(SPECIAL, shape)
                rows = _step_rows(states, dt)
                got = _column(rows, "min_value", "dudt_min", "dvdt_max", "sup_norm")
                want = np.array([step_report_reference(old, new, dt)
                                 for old, new in zip(states[:-1], states[1:])])
                assert got.tobytes() == want.tobytes()
                negpart = [max(0.0, -low) for low in want[:, 0].tolist()]
                assert _column(rows, "negpart_norm").tobytes() == np.array(negpart).tobytes()

    def test_a_2d_march_reduces_each_span_as_its_steps_do(self):
        # two species on 29 x 29 nodes: spans of 9 steps, so 70 steps end in
        # a short span, and a block boundary falls inside a span
        spec = logistic_problem_2d(n=29, horizon=0.7, species=2)
        span = SPAN_BYTES // spec.initial.values.nbytes
        assert 1 < span < BLOCK_STEPS and 70 % span and BLOCK_STEPS % span
        dt = 0.01
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=dt, store_every=1))
        states = traj.values
        want = np.array([step_report_reference(old, new, dt)
                         for old, new in zip(states[:-1], states[1:])])
        got = _column(traj.monitors, "min_value", "dudt_min", "dvdt_max", "sup_norm")
        assert got.tobytes() == want.tobytes()
        negpart = np.array([max(0.0, -low) for low in want[:, 0].tolist()])
        assert _column(traj.monitors, "negpart_norm")[:, 0].tobytes() == negpart.tobytes()
        assert traj.monitor("t").tobytes() == traj.times[1:].tobytes()

    def test_the_caller_owns_time_and_iterations(self):
        states = np.random.default_rng(1).normal(size=(4, 2, 5))
        rows = _step_rows(states, 0.1)
        assert np.all(_column(rows, "t", "solve_iterations") == -1.0)

    def test_an_underflowing_rate_keeps_the_sign_of_the_true_extreme(self):
        # for dt >= 2 a least difference of -5e-324 rounds to -0.0, which ties
        # with the +0.0 of a zero difference; the monitors divide the true
        # minimum, so it reads -0.0, and +0.0 for the maximum
        old = np.zeros((2, 1, 2))
        new = np.array([[[-5e-324, 0.0]], [[0.0, -5e-324]]])
        dudt, dvdt = _column(_step_rows(np.stack([old, new]), 4.0), "dudt_min", "dvdt_max")[0]
        assert math.copysign(1.0, dudt) == -1.0
        assert math.copysign(1.0, dvdt) == 1.0


class TestStepReports:
    # sha256 of the reports' reprs, from the march that built one StepReport
    # a step; S4 marches imex_be, S6 erk2
    @pytest.mark.parametrize("name, digest", [
        ("S4_asymptotics", "1a7ebf6e40d9b89d1413255c5d1320b396c44735645550c020646d0568198f3c"),
        ("S6_oracle_crosscheck",
         "3d7d7d14afa672d1eebbe0306b4059e65c6e9538c728601718acd96c7a0b381f"),
    ])
    def test_reports_keep_every_field_of_the_per_step_march(self, name, digest):
        config = get_scenario(name)
        reports = solve(config.build_problem(), config.scheme()).reports
        text = "\n".join(repr(r) for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_reports_are_a_sequence_read_from_the_monitors(self):
        traj = solve(logistic_problem(horizon=0.05), SchemeConfig(scheme="imex_be", dt=0.01))
        reports = traj.reports
        assert len(reports) == 5
        assert [r.step for r in reports] == [1, 2, 3, 4, 5]
        # one species: dvdt_max is nan, so compare the reprs
        assert repr(reports[-1]) == repr(reports[4]) != repr(reports[3])
        assert list(map(repr, reports[1:3])) == [repr(reports[1]), repr(reports[2])]
        assert reports[2].t == traj.monitor("t")[2]
        with pytest.raises(IndexError):
            reports[5]


class TestDirectSolvers:
    def test_dst_solve_matches_a_sparse_direct_solve(self):
        # non-square grid, unequal spacings and unequal coefficients within
        # and across the two components, so an axis swap or a component
        # swap anywhere in the batched transform solve would show
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 2.5))), (17, 29))
        hx, hy = g.spacing
        lam = 0.013
        coefficients = ((0.7, 0.05), (0.02, 0.9))
        a = np.zeros(g.shape + (2, 2, 2))
        for k, (axx, ayy) in enumerate(coefficients):
            a[..., k, 0, 0] = axx
            a[..., k, 1, 1] = ayy
        rhs = np.random.default_rng(3).standard_normal((2, 15, 27))
        w = np.ones((2,) + g.shape)
        w[:, 1:-1, 1:-1] = rhs
        solve_both = _implicit_solve(g, a, lam, True)
        solve_both(w)
        for k, (axx, ayy) in enumerate(coefficients):
            mat, _ = _assemble_2d(np.full(rhs[k].shape, axx), np.full(rhs[k].shape, ayy),
                                  hx, hy, lam)
            ref = spsolve(mat.tocsc(), rhs[k].ravel()).reshape(rhs[k].shape)
            got = w[k, 1:-1, 1:-1]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        # the solve leaves the boundary zero, whatever the right-hand side held there
        assert not np.any(w[(slice(None),) + g.boundary])
        # a component whose data is all zero, of either sign, stays bitwise
        # +0.0 beside one that is not
        w = np.ones((2,) + g.shape)
        w[0, 1:-1, 1:-1] = rhs[0]
        w[1, 1:-1, 1:-1] = np.where(rhs[1] < 0.0, -0.0, 0.0)
        solve_both(w)
        assert not np.any(w[1].view(np.uint64))
        assert np.any(w[0])

    @pytest.mark.parametrize("nodes", (4, 5, 101))
    def test_factored_1d_solve_is_bitwise_the_banded_solve(self, nodes):
        # four nodes leave two unknowns, the smallest interior in which
        # neighbours couple; the joined factor takes it as it takes any size
        spec = logistic_problem(n=nodes, d=0.05, horizon=0.2)
        varying = replace(spec, coefficients=replace(spec.coefficients,
                                                     constant_diffusion=False))
        config = SchemeConfig(scheme="imex_be", dt=0.01)
        assert np.array_equal(solve(spec, config).values, solve(varying, config).values)

    @pytest.mark.parametrize("nodes", (4, 5, 101))
    def test_varying_1d_step_is_bitwise_the_banded_solve(self, nodes):
        # space-varying diffusion is rebuilt every step on the same LAPACK
        # factor as constant diffusion; four nodes leave two unknowns, the
        # smallest interior in which neighbours couple
        g = Grid(UNIT, (nodes,))
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: (0.05 * (1.0 + 3.0 * x[..., 0]))[..., None, None],
            drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape),
            source=lambda t, x, u, p: np.zeros_like(u),
        )
        values = np.random.default_rng(nodes).uniform(0.0, 1.0, (1, nodes))
        values[:, [0, -1]] = 0.0
        init = Field.from_arrays(g, values)
        spec = ProblemSpec(coeffs, init, horizon=1.0)
        dt = 0.01
        new, _ = one_step(init, dt, spec, SchemeConfig(scheme="imex_be", dt=dt))
        a_node = 0.05 * (1.0 + 3.0 * g.axes[0][1:-1])
        want = np.zeros_like(values)
        want[0, 1:-1] = banded_implicit_solve(a_node, g.spacing[0], dt, values[0, 1:-1])
        assert np.array_equal(new.values.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 3), nodes=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
    def test_the_joined_1d_solve_is_bitwise_the_banded_solve_per_component(self, m, nodes,
                                                                            seed):
        # one interior node upward, any diffusion jump, signed zeros and a
        # right-hand side whose boundary the solve must clear
        rng = np.random.default_rng(seed)
        g = Grid(UNIT, (nodes,))
        a = rng.uniform(0.01, 2.0, (nodes, m, 1, 1))
        lam = float(rng.uniform(1e-3, 1.0))
        w = rng.normal(size=(m, nodes))
        w[rng.uniform(size=w.shape) < 0.2] = -0.0
        want = np.zeros_like(w)
        for k in range(m):
            want[k, 1:-1] = banded_implicit_solve(a[1:-1, k, 0, 0], g.spacing[0], lam,
                                                  w[k, 1:-1])
        _implicit_solve(g, a, lam, False)(w)
        assert w.tobytes() == want.tobytes()

    def test_a_singular_1d_factor_names_the_row_within_its_component(self):
        # h = 1/4 and lam = 1/16 make r = 1, so a diffusion of -1/2 gives the
        # second component the singular interior operator
        # [[0, 1/2, 0], [1/2, 0, 1/2], [0, 1/2, 0]]
        g = Grid(UNIT, (5,))
        a = np.full((5, 2, 1, 1), 0.1)
        a[:, 1] = -0.5
        alone = dgttrf(np.full(2, 0.5), np.zeros(3), np.full(2, 0.5))[-1]
        assert alone > 0
        with pytest.raises(SolverError, match=rf"\(info={alone}\)$"):
            _implicit_solve(g, a, 1.0 / 16.0, False)

    def test_the_1d_solve_refuses_a_right_hand_side_it_cannot_overwrite(self):
        g = Grid(UNIT, (5,))
        solve_1d = _implicit_solve(g, np.full((5, 2, 1, 1), 0.1), 0.01, True)
        w = np.ones((5, 2)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            solve_1d(w)
        assert np.all(w == 1.0)

    def test_direct_and_iterative_2d_marches_agree(self):
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (25, 31))
        lv = LVCoefficients(np.array([0.02, 0.01]), (lambda t, x: 1.0, lambda t, x: 0.8),
                            ((lambda t, x: 1.0, lambda t, x: 0.5),
                             (lambda t, x: 0.4, lambda t, x: 1.0)))
        init = build_initial_field(g, [
            {"kind": "plateau", "amplitude": 0.7, "center": [0.4, 0.5], "radius": 0.2, "width": 0.1},
            {"kind": "sine", "amplitude": 0.5}])
        spec = build_lv_problem(lv, init, horizon=0.2)
        varying = replace(spec, coefficients=replace(spec.coefficients,
                                                     constant_diffusion=False))
        config = SchemeConfig(scheme="imex_be", dt=0.01)
        direct, iterative = solve(spec, config), solve(varying, config)
        assert all(r.solve_iterations == 0 for r in direct.reports)
        assert all(r.solve_iterations >= 1 for r in iterative.reports)
        scale = np.abs(iterative.final_values).max()
        assert np.abs(direct.final_values - iterative.final_values).max() <= 1e-8 * scale


class TestPositivityProperties:
    """imex_be is an M-matrix inverse after a non-negative explicit map.

    For LV sources with dt * (sum_i gamma_ki u_i - beta_k) <= 1 the explicit
    part keeps non-negative data non-negative, so the step must too, and a
    species that is identically zero must stay identically zero.
    """

    @staticmethod
    def check(grid, seed, diffusion, growth, interaction, zero_species, dt, steps):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, (2,) + grid.shape)
        values[rng.uniform(size=values.shape) < 0.3] = 0.0
        if zero_species is not None:
            values[zero_species] = 0.0
        lv = LVCoefficients(np.asarray(diffusion),
                            tuple((lambda t, x, _b=b: _b) for b in growth),
                            tuple(tuple((lambda t, x, _g=g: _g) for g in row)
                                  for row in interaction))
        spec = build_lv_problem(lv, Field.from_arrays(grid, values),
                                horizon=steps * dt)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=dt, store_every=1))
        assert traj.values.min() >= -1e-14 * traj.values.max()
        if zero_species is not None:
            assert not np.any(traj.values[:, zero_species].view(np.uint64))

    LV = dict(
        seed=st.integers(0, 2**32 - 1),
        diffusion=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2),
        growth=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
        interaction=st.lists(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
                             min_size=2, max_size=2),
        zero_species=st.sampled_from([None, 0, 1]),
        dt=st.floats(1e-4, 0.05),
        steps=st.integers(1, 3),
    )

    @settings(max_examples=25, deadline=None)
    @given(nodes=st.integers(5, 41), **LV)
    def test_one_dimensional_step_keeps_nonnegative_data_nonnegative(self, nodes, **lv):
        self.check(Grid(UNIT, (nodes,)), **lv)

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(5, 17), ny=st.integers(5, 17), **LV)
    def test_two_dimensional_step_keeps_nonnegative_data_nonnegative(self, nx, ny, **lv):
        self.check(Grid(SpatialDomain(((0.0, 1.0), (0.0, 2.0))), (nx, ny)), **lv)


class TestOrderProperties:
    """imex_be keeps ordered data of one species ordered.

    Under dt <= positivity_step_bound the explicit map w -> w + dt c(w) is
    non-decreasing over the sampled states, and the implicit solve is an
    M-matrix inverse, so u0 <= v0 gives step(u0) <= step(v0).  Competing
    species are not ordered componentwise, so the property has one species.
    """

    @staticmethod
    def check(grid, seed, diffusion, growth, interaction, dt):
        rng = np.random.default_rng(seed)
        low = rng.uniform(0.0, 1.0, (1,) + grid.shape)
        gap = rng.uniform(0.0, 1.0, low.shape)
        low[rng.uniform(size=low.shape) < 0.3] = 0.0
        gap[rng.uniform(size=gap.shape) < 0.3] = 0.0
        lower = Field.from_arrays(grid, low)
        upper = Field.from_arrays(grid, low + gap)
        lv = LVCoefficients(np.array([diffusion]), (lambda t, x: growth,),
                            ((lambda t, x: interaction,),))
        spec = build_lv_problem(lv, upper, horizon=1.0)
        dt = min(dt, positivity_step_bound(spec, reference=upper.values))
        config = SchemeConfig(scheme="imex_be", dt=dt)
        below, _ = one_step(lower, dt, spec, config)
        above, _ = one_step(upper, dt, spec, config)
        gap_after = above.values - below.values
        assert gap_after.min() >= -1e-14 * np.abs(above.values).max()

    LV = dict(
        seed=st.integers(0, 2**32 - 1),
        diffusion=st.floats(1e-3, 1.0),
        growth=st.floats(-1.0, 2.0),
        interaction=st.floats(0.0, 2.0),
        dt=st.floats(1e-4, 1.0),
    )

    @settings(max_examples=25, deadline=None)
    @given(nodes=st.integers(5, 41), **LV)
    def test_one_dimensional_step_keeps_ordered_data_ordered(self, nodes, **lv):
        self.check(Grid(UNIT, (nodes,)), **lv)

    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(5, 17), ny=st.integers(5, 17), **LV)
    def test_two_dimensional_step_keeps_ordered_data_ordered(self, nx, ny, **lv):
        self.check(Grid(SpatialDomain(((0.0, 1.0), (0.0, 2.0))), (nx, ny)), **lv)


def test_importing_fdm_leaves_scipy_interpolate_unloaded():
    src = str(Path(parapos.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import parapos.fdm; "
            "print('scipy.interpolate' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def test_positivity_step_bound_matches_the_logistic_slope():
    # slope of u(1-u) over [0, 2 amp] bottoms out at 1 - 2 * (2 amp) = -3;
    # the sampled extremum sits slightly inside the box, so the bound runs
    # a few percent above the analytic 1/6
    spec = logistic_problem(amplitude=1.0)
    bound = positivity_step_bound(spec, reference=spec.initial.values)
    assert bound == pytest.approx(1.0 / 6.0, rel=0.05)
    assert bound >= 1.0 / 6.0


def test_positivity_step_bound_infinite_without_negative_slopes():
    spec = heat_problem()
    assert positivity_step_bound(spec) == float("inf")


def test_positivity_step_bound_rejects_non_finite_slopes(nan_above):
    # a NaN slope is not "no negative slope": it must not read as dt = inf
    spec = nan_above(logistic_problem(), 1.5)
    with pytest.raises(CoefficientError):
        positivity_step_bound(spec, reference=spec.initial.values)


class TestEstimateOrder:
    GRIDS = tuple(Grid(UNIT, (n,)) for n in (21, 41, 81))

    @staticmethod
    def sine_initial(g):
        return build_initial_field(g, [{"kind": "sine", "amplitude": 1.0}])

    def test_smooth_heat_is_second_order(self):
        spec = heat_problem(n=21, horizon=0.05)
        est = estimate_order(
            spec, SchemeConfig(scheme="imex_be", dt=1e-3), self.GRIDS,
            rebuild_initial=self.sine_initial,
        )
        assert est.order == pytest.approx(2.0, abs=0.3)
        assert est.nodes == (21, 41, 81)

    def test_competition_with_heun_is_second_order(self):
        spec = logistic_problem(n=21, horizon=1.0)
        est = estimate_order(
            spec, SchemeConfig(scheme="erk2", dt=1e-2), self.GRIDS,
            rebuild_initial=lambda g: build_initial_field(g, [{"kind": "sine", "amplitude": 0.5}]),
        )
        assert est.order == pytest.approx(2.0, abs=0.3)

    def test_unresolved_kink_degrades_the_order_without_raising(self):
        # a piecewise-linear crest off the node lattice, observed before
        # diffusion has resolved it, cannot show second order
        xi = 1.0 / 3.0

        def kink(g):
            x = g.points[..., 0]
            return Field.from_arrays(g, (0.5 * np.minimum(x / xi, (1 - x) / (1 - xi)))[None])

        spec = heat_problem(n=21, d=0.01, horizon=0.01)
        spec = type(spec)(**{**spec.__dict__, "initial": kink(self.GRIDS[0])})
        est = estimate_order(
            spec, SchemeConfig(scheme="imex_be", dt=2e-4), self.GRIDS, rebuild_initial=kink
        )
        assert est.order < 1.5
        assert all(d > 0 for d in est.diffs)

    def test_zero_data_raises_degenerate_refinement(self):
        g = Grid(UNIT, (21,))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
        spec = build_lv_problem(lv, Field.zeros(g, 1), horizon=0.05)
        with pytest.raises(DegenerateRefinement):
            estimate_order(spec, SchemeConfig(dt=1e-3), self.GRIDS,
                           rebuild_initial=lambda grid: Field.zeros(grid, 1))

    def test_short_ladders_rejected(self):
        spec = heat_problem(n=21, horizon=0.05)
        with pytest.raises(SpecError):
            estimate_order(spec, SchemeConfig(dt=1e-3), self.GRIDS[:2],
                           rebuild_initial=self.sine_initial)

    def test_sloppy_refinement_rejected(self):
        spec = heat_problem(n=21, horizon=0.05)
        bad = (self.GRIDS[0], Grid(UNIT, (40,)), self.GRIDS[2])
        with pytest.raises(SpecError):
            estimate_order(spec, SchemeConfig(dt=1e-3), bad,
                           rebuild_initial=self.sine_initial)

    def test_foreign_domain_rejected(self):
        spec = heat_problem(n=21, horizon=0.05)
        other = SpatialDomain(((0.0, 2.0),))
        bad = (Grid(other, (21,)), Grid(other, (41,)), Grid(other, (81,)))
        with pytest.raises(SpecError):
            estimate_order(spec, SchemeConfig(dt=1e-3), bad,
                           rebuild_initial=self.sine_initial)


class TestNestedBoxes:
    DOMAIN = SpatialDomain(((-4.0, 4.0),))

    def cauchy_spec(self, initial_spec, d=1.0, horizon=0.1):
        g = Grid(self.DOMAIN, (129,))
        lv = LVCoefficients(np.array([d]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
        init = build_initial_field(g, [initial_spec])
        return build_lv_problem(lv, init, horizon)

    def test_decaying_data_converges_in_the_core(self):
        spec = self.cauchy_spec({"kind": "gaussian", "amplitude": 1.0, "center": [0.0], "width": 0.8})
        report = solve_cauchy_nested(
            spec, (2.0, 3.0, 4.0), SchemeConfig(scheme="imex_be", dt=5e-3),
            cutoff_width=1.0, tol_nested=1e-3,
        )
        assert report.diffs[1] < report.diffs[0]
        assert report.converged

    def test_zero_data_counts_as_converged(self):
        g = Grid(self.DOMAIN, (129,))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 0.0,), ((lambda t, x: 0.0,),))
        spec = build_lv_problem(lv, Field.zeros(g, 1), horizon=0.1)
        report = solve_cauchy_nested(spec, (2.0, 3.0, 4.0), SchemeConfig(dt=5e-3))
        assert report.diffs == (0.0, 0.0)
        assert report.converged

    def test_mass_near_the_cut_raises_nonconvergence(self):
        # a bump in the shoulder of the middle cutoff is kept by the largest
        # box, halved by the middle one, and erased by the smallest, so the
        # core differences grow with the radius
        spec = self.cauchy_spec(
            {"kind": "bump", "amplitude": 1.0, "center": [2.6], "radius": 0.5}, d=4.0, horizon=0.25
        )
        with pytest.raises(NonConvergence):
            solve_cauchy_nested(spec, (2.0, 3.0, 4.0), SchemeConfig(scheme="imex_be", dt=5e-3),
                                cutoff_width=1.0)

    def test_competition_with_compact_data_settles_early(self):
        g = Grid(self.DOMAIN, (129,))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        init = build_initial_field(
            g, [{"kind": "plateau", "amplitude": 0.5, "center": [0.0], "radius": 1.0, "width": 0.5}]
        )
        spec = build_lv_problem(lv, init, horizon=0.25)
        report = solve_cauchy_nested(
            spec, (2.0, 3.0, 4.0), SchemeConfig(scheme="imex_be", dt=5e-3), cutoff_width=1.0
        )
        # data supported well inside the smallest box: the outer pair of
        # boxes can no longer disagree above tolerance
        assert report.diffs[-1] <= 1e-6

    def test_radii_must_align_with_the_lattice(self):
        spec = self.cauchy_spec({"kind": "gaussian", "amplitude": 1.0, "center": [0.0], "width": 0.8})
        with pytest.raises(SpecError):
            solve_cauchy_nested(spec, (2.03, 3.0, 4.0), SchemeConfig(dt=5e-3))

    def test_domain_must_be_the_largest_centered_box(self):
        spec = heat_problem(n=101)  # lives on [0, 1]
        with pytest.raises(SpecError):
            solve_cauchy_nested(spec, (0.25, 0.35, 0.5), SchemeConfig(dt=1e-3))

    def test_a_boxed_subproblem_lives_on_its_box_and_carries_no_lv(self):
        # its source is the cut zeta * c, which the base lv no longer describes
        spec = self.cauchy_spec({"kind": "gaussian", "amplitude": 1.0, "center": [0.0], "width": 0.8})
        sub = fdm._boxed_subproblem(spec, 2.0, (32,), 1.0)
        assert sub.domain.bounds == ((-2.0, 2.0),)
        assert sub.initial.grid.shape == (65,)
        assert sub.lv is None and spec.lv is not None

    def test_needs_three_radii(self):
        spec = self.cauchy_spec({"kind": "gaussian", "amplitude": 1.0, "center": [0.0], "width": 0.8})
        with pytest.raises(SpecError):
            solve_cauchy_nested(spec, (3.0, 4.0), SchemeConfig(dt=5e-3))
