import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (bump_mass_1d, bump_mass_2d, monotone_reference,
                     steady_logistic_profile)
from parapos.analysis import (
    MONOTONE_TOL_FACTOR,
    RESIDUAL_FLOOR,
    bump_battery,
    component_bound_mk,
    default_battery,
    detect_monotone,
    elliptic_weak_residual,
    extinction_check,
    extract_steady_state,
    gronwall_extinction_bound,
    lv_limit_coefficients,
    max_principle_bound,
    sup_norm_series,
    weak_residual,
)
from parapos.analysis import TestFunction as QuarticBump
from parapos.coefficients import parse_coefficient
from parapos.errors import DivisionDomainError, IntegrabilityError, SpecError
from parapos.fdm import MONITORS, SchemeConfig, Trajectory, solve
from parapos.model import (SPAN_BYTES, Field, FrozenSystem, Grid, LVCoefficients,
                           SpatialDomain, build_lv_problem)

UNIT = SpatialDomain(((0.0, 1.0),))
LONG = SpatialDomain(((0.0, 8.0),))
SQUARE = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))

E = 2.718281828459045
E_SQUARED = 7.38905609893065


def make_trajectory(series, n_nodes=5, m=1, horizon=1.0):
    """A trajectory whose snapshots are spatially flat copies of ``series``."""
    series = np.asarray(series, dtype=float)
    times = np.linspace(0.0, horizon, len(series))
    values = np.broadcast_to(series[:, None, None],
                             (len(series), m, n_nodes)).copy()
    grid = Grid(UNIT, (n_nodes,))
    return Trajectory(grid, "imex_be", float(times[1] - times[0]), times, values,
                      np.zeros((0, len(MONITORS))))


class TestQuarticBump:
    def test_values_inside_and_outside(self):
        eta = QuarticBump((0.0,), 2.0)
        assert eta(np.array([[0.0]]))[0] == 1.0
        assert eta(np.array([[1.0]]))[0] == pytest.approx(0.5625, abs=1e-15)
        assert eta(np.array([[2.5]]))[0] == 0.0

    def test_laplacian_matches_finite_differences(self):
        eta = QuarticBump((0.3, -0.1), 0.9)
        pt = np.array([[0.5, 0.2]])
        h = 1e-5
        fd = 0.0
        for axis in range(2):
            e = np.zeros((1, 2))
            e[0, axis] = h
            fd += (eta(pt + e) + eta(pt - e) - 2.0 * eta(pt))[0] / h**2
        assert eta.laplacian(pt)[0] == pytest.approx(fd, rel=1e-5)

    def test_radius_must_be_positive(self):
        with pytest.raises(SpecError):
            QuarticBump((0.0,), 0.0)

    def test_default_battery_sits_inside_the_domain(self):
        for domain in (LONG, SpatialDomain(((0.0, 1.0), (0.0, 2.0)))):
            battery = default_battery(domain)
            assert len(battery) == 5
            for eta in battery:
                for (lo_s, hi_s), (lo, hi) in zip(eta.support_bounds(),
                                                  domain.bounds):
                    assert lo < lo_s and hi_s < hi

    def test_bump_battery_accepts_scalar_centers(self):
        battery = bump_battery([0.3, 0.7], radius=0.1)
        assert [eta.center for eta in battery] == [(0.3,), (0.7,)]


class TestMaxPrincipleBound:
    def test_exponential_branch(self):
        assert max_principle_bound(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            E_SQUARED, abs=1e-12)

    def test_zero_initial_data(self):
        assert max_principle_bound(0.0, 1.0, 1.0, 0.0) == 0.0

    def test_dissipation_floor_branch(self):
        assert max_principle_bound(4.0, 0.0, 0.01, 0.1) == 2.0

    def test_validation(self):
        with pytest.raises(SpecError):
            max_principle_bound(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(SpecError):
            max_principle_bound(-1.0, 1.0, 1.0, 1.0)


class TestComponentBound:
    def test_trajectory_sup_and_ratio_compete(self):
        traj = make_trajectory(np.full(4, 0.8))
        bound = component_bound_mk(traj, lambda t, x: 1.0, lambda t, x: 1.0,
                                   t_split=0.5, component=0)
        assert bound == pytest.approx(1.0, abs=1e-14)

    def test_vanishing_growth_leaves_the_trajectory_sup(self):
        traj = make_trajectory(np.full(4, 0.8))
        bound = component_bound_mk(traj, lambda t, x: 0.0, lambda t, x: 1.0,
                                   t_split=0.5, component=0)
        assert bound == pytest.approx(0.8, abs=1e-14)

    def test_ratio_branch_dominates(self):
        traj = make_trajectory(np.full(4, 0.5))
        bound = component_bound_mk(traj, lambda t, x: 2.0, lambda t, x: 1.0,
                                   t_split=0.5, component=0)
        assert bound == pytest.approx(2.0, abs=1e-14)

    def test_declared_limits_are_sampled_too(self):
        traj = make_trajectory(np.full(4, 0.1))
        beta = parse_coefficient({"family": "exp", "base": 2.0,
                                  "amplitude": -1.0, "rate": 1.0})
        gamma = parse_coefficient({"family": "exp", "base": 1.0,
                                   "amplitude": 1.0, "rate": 1.0})
        bound = component_bound_mk(traj, beta, gamma, t_split=0.5, component=0)
        assert bound == pytest.approx(2.0, abs=1e-12)

    def test_plain_callables_are_read_at_their_late_time_limit(self):
        # the ratio climbs to 1 + 1 / 1.1 only long after the last doubling
        # time, 0.5 * 2**20, where it is still below 1.006
        traj = make_trajectory(np.full(4, 0.1))
        bound = component_bound_mk(traj, lambda t, x: 1.0 + t / (t + 1e8),
                                   lambda t, x: 1.0, t_split=0.5, component=0)
        assert bound == pytest.approx(1.0 + 1.0 / 1.1, rel=1e-12)

    def test_nonpositive_self_limitation_rejected(self):
        traj = make_trajectory(np.full(4, 0.5))
        with pytest.raises(DivisionDomainError):
            component_bound_mk(traj, lambda t, x: 1.0, lambda t, x: 1.0 - t,
                               t_split=0.5, component=0)

    def test_validation(self):
        one = make_trajectory(np.full(4, 0.5))
        with pytest.raises(SpecError):
            component_bound_mk(one, lambda t, x: 1.0, lambda t, x: 1.0,
                               t_split=2.0, component=0)
        with pytest.raises(SpecError):
            component_bound_mk(one, lambda t, x: 1.0, lambda t, x: 1.0,
                               t_split=0.5, component=3)


class TestGronwallBound:
    def test_exponentially_decaying_growth(self):
        bound = gronwall_extinction_bound(1.0, lambda t, x: math.exp(-t),
                                          domain=UNIT)
        assert bound == pytest.approx(E, abs=1e-9)

    def test_zero_growth_returns_the_initial_sup(self):
        assert gronwall_extinction_bound(0.7, lambda t, x: 0.0,
                                         domain=UNIT) == 0.7

    def test_power_law_tail(self):
        bound = gronwall_extinction_bound(
            2.0, lambda t, x: 1.0 / (1.0 + t) ** 2, domain=UNIT)
        assert bound == pytest.approx(2.0 * E, abs=1e-9)

    def test_constant_growth_is_not_integrable(self):
        with pytest.raises(IntegrabilityError):
            gronwall_extinction_bound(1.0, lambda t, x: 1.0, domain=UNIT)


class TestDetectMonotone:
    def test_constant_trajectory_passes_with_zero_margin(self):
        traj = make_trajectory(np.full(4, 0.5))
        verdict = detect_monotone(traj, 0, "+")
        assert verdict.passed
        assert verdict.worst_margin == 0.0

    def test_increasing_and_decreasing_series(self):
        up = make_trajectory([0.0, 0.1, 0.2, 0.3])
        assert detect_monotone(up, 0, "+").passed
        assert not detect_monotone(up, 0, "-").passed
        down = make_trajectory([0.3, 0.2, 0.1, 0.0])
        assert detect_monotone(down, 0, "-").passed

    @pytest.mark.parametrize("sign", ["up", "down", "increasing", 0, 2])
    def test_signs_outside_the_schema_are_rejected(self, sign):
        # the schema's expected_sign is one of 1, -1, "+" and "-"
        up = make_trajectory([0.0, 0.1, 0.2, 0.3])
        with pytest.raises(SpecError):
            detect_monotone(up, 0, sign)

    def test_witness_points_at_the_offending_interval(self):
        hump = make_trajectory([0.0, 0.2, 0.1, 0.3])
        verdict = detect_monotone(hump, 0, "+")
        assert not verdict.passed
        assert verdict.worst_margin == pytest.approx(-0.3, abs=1e-12)
        assert verdict.witness["t_from"] == pytest.approx(1.0 / 3.0)
        assert verdict.witness["t_to"] == pytest.approx(2.0 / 3.0)
        assert verdict.witness["rate"] < 0

    def test_margin_and_witness_skip_the_zero_walls(self):
        # interior node j rises at rate j + 1; the walls stay at exactly 0
        times = np.linspace(0.0, 1.0, 4)
        values = np.zeros((4, 1, 6))
        rates = np.arange(1.0, 5.0)
        values[:, 0, 1:-1] = times[:, None] * rates[None, :]
        traj = Trajectory(Grid(UNIT, (6,)), "imex_be", float(times[1]), times,
                          values, np.zeros((0, len(MONITORS))))
        verdict = detect_monotone(traj, 0, "+")
        assert verdict.passed
        assert verdict.worst_margin == pytest.approx(1.0, rel=1e-12)
        assert verdict.witness["node"] == (1,)
        falling = detect_monotone(traj, 0, "-")
        assert not falling.passed
        assert falling.worst_margin == pytest.approx(-4.0, rel=1e-12)
        assert falling.witness["node"] == (4,)

    def test_validation(self):
        with pytest.raises(SpecError):
            detect_monotone(make_trajectory([0.0, 0.1]), 0, "+")
        traj = make_trajectory([0.0, 0.1, 0.2])
        with pytest.raises(SpecError):
            detect_monotone(traj, 0, "sideways")
        with pytest.raises(SpecError):
            detect_monotone(traj, 1, "+")


def bits(x):
    return np.float64(x).tobytes()


def spanned_case(kind):
    """``(grid, times, series, pair)``: one component's snapshots and the pair
    whose rate the earliest-wins rule picks under ``+``, or None.

    The 1D cases have 401 nodes, so a span holds ``SPAN_BYTES // 3208`` = 40
    snapshot pairs; integer values on a time step of 0.25 keep every rate
    exact, so two pairs in different spans can tie.
    """
    n = 129 if kind.startswith("2d") else 401
    grid = Grid(SQUARE, (n, n)) if kind.startswith("2d") else Grid(UNIT, (n,))
    per = max(1, SPAN_BYTES // (8 * n ** grid.dimension))
    count = 6 if kind.startswith("2d") else 3 * per + 7
    times = 0.25 * np.arange(count)
    steps = np.full((count - 1, *grid.shape), 10.0)
    pair = None
    if kind in ("tie", "2d tie"):
        # the same dip at the last pair of one span and the first of the next
        first, second = (per - 1, per) if kind == "tie" else (1, 3)
        a, b = ((7,), (3,)) if grid.dimension == 1 else ((5, 9), (2, 4))
        steps[(first, *a)] = steps[(second, *b)] = -3.0
        pair = first
    series = np.concatenate([np.full((1, *grid.shape), 100.0),
                             100.0 + np.cumsum(steps, axis=0)])
    if kind == "signed zero":
        # every rate is +0.0 but one in the second span, which is -0.0
        series[:] = 0.0
        series[per + 5, 11] = -0.0
        pair = 0
    elif kind == "negative infinity":
        # overflowing drops in the first and third spans
        for p in (5, 2 * per + 5):
            series[p, 11], series[p + 1, 11] = 1e308, -1e308
        pair = 5
    elif kind == "nan":
        # a NaN snapshot in the second span beats the first span's -inf
        series[5, 11], series[6, 11] = 1e308, -1e308
        series[per + 5] = np.nan
        pair = per + 4
    elif kind == "nan on a wall":
        series[per + 5, 0] = np.nan
    elif kind == "one span":
        series = series[:5]
        times = times[:5]
        series[3, 200] = series[2, 200]
        pair = 2
    elif kind == "2d random":
        series = np.random.default_rng(31).standard_normal(series.shape)
    return grid, times, series, pair


SPAN_CASES = ["tie", "signed zero", "negative infinity", "nan", "nan on a wall",
              "one span", "2d tie", "2d random"]


class TestSpans:
    """The span-by-span monotonicity check gives the bits of one ``argmin``."""

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("kind", SPAN_CASES)
    def test_monotone_matches_the_one_array_argmin(self, kind, sign):
        grid, times, series, pair = spanned_case(kind)
        traj = Trajectory(grid, "imex_be", 0.25, times, series[:, None].copy(),
                          np.zeros((0, len(MONITORS))))
        with np.errstate(over="ignore"):
            verdict = detect_monotone(traj, 0, sign)
            worst, at, node, passed = monotone_reference(
                times, series, 1.0 if sign == "+" else -1.0, MONOTONE_TOL_FACTOR)
        if sign == "+" and pair is not None:
            assert at == pair
        assert bits(verdict.worst_margin) == bits(worst)
        assert verdict.passed == passed
        witness = verdict.witness
        assert (witness["t_from"], witness["t_to"]) == (times[at], times[at + 1])
        assert witness["node"] == node
        assert bits(witness["rate"]) == bits(worst if sign == "+" else -worst)

    def test_the_cases_reach_across_spans(self):
        # a 1D span holds 40 pairs, so the tied pairs 39 and 40 lie in two
        # spans; a 2D state is over the budget, so each of its spans is one pair
        assert SPAN_BYTES // (8 * 401) == 40
        assert spanned_case("tie")[3] == 39
        assert 129 * 129 * 8 > SPAN_BYTES
        assert np.signbit(spanned_case("signed zero")[2][45, 11])

    def test_a_fine_trajectory_is_read_a_few_spans_at_a_time(self):
        # 1001 snapshots of two species on 401 nodes, as S4 fine stores:
        # one array of all rates of a species takes 3.2 MB, and the
        # one-array reduction peaked at 6.5 MB
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 5.0, 1001)
        values = rng.random((1001, 2, 401))
        traj = Trajectory(Grid(UNIT, (401,)), "imex_be", 0.005, times, values,
                          np.zeros((0, len(MONITORS))))
        detect_monotone(traj, 0, "+")  # imports and caches outside the trace
        tracemalloc.start()
        try:
            for k in (0, 1):
                detect_monotone(traj, k, "+")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * SPAN_BYTES


class TestSteadyState:
    def test_discrete_steady_profile_is_a_fixed_point(self):
        # the Newton profile solves the same three-point system the implicit
        # Euler step inverts, so the trajectory must not move at all
        n = 257
        g = Grid(LONG, (n,))
        _, profile = steady_logistic_profile(n, 1.0, 1.0, 1.0, length=8.0)
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,),
                            ((lambda t, x: 1.0,),))
        spec = build_lv_problem(lv, Field.from_arrays(g, profile[None]),
                                horizon=1.0)
        traj = solve(spec, SchemeConfig(scheme="imex_be", dt=0.01))
        report = extract_steady_state(traj)
        assert report.reached
        assert report.tail_slope <= 1e-12
        assert np.abs(traj.values[-1] - traj.values[0]).max() <= 1e-12

    def test_zero_data_is_steady(self):
        report = extract_steady_state(make_trajectory(np.zeros(5)))
        assert report.reached
        assert report.tail_slope == 0.0

    def test_transient_state_is_reported_not_raised(self):
        report = extract_steady_state(make_trajectory([1.0, 0.8, 0.6, 0.4, 0.2]))
        assert not report.reached
        assert report.tail_slope > report.steady_tol

    def test_residual_slot_enforces_the_pairing(self):
        report = extract_steady_state(make_trajectory(np.zeros(5)))
        report.attach_residuals([[1e-9, 0.0], [2e-9, 0.0]])
        assert report.residuals.shape == (2, 2)
        with pytest.raises(SpecError):
            report.attach_residuals(np.zeros((2, 3)))

    def test_json_round_trip_fields(self):
        report = extract_steady_state(make_trajectory(np.zeros(5)))
        payload = report.to_json()
        assert payload["reached"] is True
        assert payload["residuals"] is None
        assert payload["component_sup"] == [0.0]
        assert payload["max_drift"] == 0.0

    def test_max_drift_is_the_largest_change_over_the_window(self):
        # the window runs from t = 0.75 to 1, where the flat state falls by 0.2
        report = extract_steady_state(make_trajectory([1.0, 0.8, 0.6, 0.4, 0.2]))
        assert report.window == 0.25
        assert report.to_json()["max_drift"] == pytest.approx(0.8, rel=1e-12)

    def test_validation(self):
        traj = make_trajectory(np.zeros(5))
        with pytest.raises(SpecError):
            extract_steady_state(traj, window_fraction=0.0)


class TestExtinction:
    def test_geometric_decay_is_extinct(self):
        series = 1.0 * 0.4 ** np.arange(11)
        verdict = extinction_check(make_trajectory(series), 0)
        assert verdict.extinct
        assert verdict.final_sup == pytest.approx(0.4**10)
        assert verdict.peak_sup == 1.0
        assert verdict.tail_decreasing

    def test_small_but_rising_tail_is_not_extinct(self):
        series = np.concatenate([1.0 * 0.3 ** np.arange(9), [1e-5, 9e-4]])
        verdict = extinction_check(make_trajectory(series), 0)
        assert verdict.final_sup <= 1e-3
        assert not verdict.tail_decreasing
        assert not verdict.extinct

    def test_vanished_component(self):
        verdict = extinction_check(make_trajectory(np.zeros(11)), 0)
        assert verdict.extinct
        assert verdict.final_sup == 0.0

    def test_sup_norm_series_reduces_over_space(self):
        traj = make_trajectory([1.0, 0.5, 0.25])
        traj.values[1, 0, 2] = -0.9
        times, series = sup_norm_series(traj, 0)
        assert series[1] == 0.9
        assert len(times) == 3


class TestWeakResiduals:
    def test_vanished_system_has_exactly_zero_residuals(self):
        n = 257
        g = Grid(LONG, (n,))
        system = FrozenSystem(g, np.array([1.0, 1.0]), (1.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        res = elliptic_weak_residual(system, np.zeros(n), np.zeros(n),
                                     default_battery(LONG))
        assert res.shape == (5, 2)
        assert np.all(np.abs(res) <= RESIDUAL_FLOOR)

    def test_constant_state_matches_the_closed_form(self):
        # for constant u the diffusion term integrates to zero, leaving
        # (beta - gamma u) u times the bump mass 16 r / 15
        n, c0, radius = 257, 0.5, 1.0
        g = Grid(LONG, (n,))
        u = np.full(n, c0)
        eta = QuarticBump((4.0,), radius)
        res = weak_residual(g, u, 1.0, u * (1.0 - u), eta)
        expected = (1.0 - c0) * c0 * bump_mass_1d(radius)
        assert res == pytest.approx(expected, rel=0.02)
        assert res > 0

    def test_newton_steady_state_passes_the_battery(self):
        n = 385
        g = Grid(LONG, (n,))
        _, u = steady_logistic_profile(n, 1.0, 1.0, 1.0, length=8.0)
        system = FrozenSystem(g, np.array([1.0, 1.0]), (1.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        res = elliptic_weak_residual(system, u, np.zeros(n), default_battery(LONG))
        assert np.abs(res[:, 0]).max() <= 5e-4
        assert np.all(res[:, 1] == 0.0)

    def test_vanished_2d_system_has_exactly_zero_residuals(self):
        g = Grid(SQUARE, (41, 41))
        system = FrozenSystem(g, np.array([1.0, 1.0]), (1.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        zero = np.zeros(g.shape)
        res = elliptic_weak_residual(system, zero, zero, default_battery(SQUARE))
        assert res.shape == (5, 2)
        assert np.all(res == 0.0)

    @pytest.mark.parametrize("n, tol", [(41, 5e-6), (81, 5e-7), (161, 5e-8)])
    def test_a_2d_source_only_residual_is_the_bump_mass(self, n, tol):
        # u = 0 and c = 1 leave the integral of the bump, pi r^2 / 3; the
        # trapezoid sum over the nodes converges to it (2.9e-6, 2.5e-7 and
        # 2.2e-8 at these grids)
        g = Grid(SQUARE, (n, n))
        res = weak_residual(g, np.zeros(g.shape), 1.0, np.ones(g.shape),
                            QuarticBump((0.5, 0.5), 0.25))
        assert abs(res - bump_mass_2d(0.25)) <= tol

    def test_support_must_sit_strictly_inside(self):
        g = Grid(UNIT, (33,))
        with pytest.raises(SpecError):
            weak_residual(g, np.zeros(33), 1.0, np.zeros(33),
                          QuarticBump((0.1,), 0.5))

    def test_dimension_mismatch_rejected(self):
        g = Grid(UNIT, (33,))
        with pytest.raises(SpecError):
            weak_residual(g, np.zeros(33), 1.0, np.zeros(33),
                          QuarticBump((0.5, 0.5), 0.2))

    def test_six_limits_required(self):
        g = Grid(LONG, (33,))
        lv = LVCoefficients(np.array([1.0, 1.0]), (lambda t, x: 1.0,) * 2,
                            ((lambda t, x: 1.0,) * 2,) * 2)
        with pytest.raises(SpecError):
            lv_limit_coefficients(lv, g, declared=(1.0, 1.0))


class TestLimitSystem:
    def test_declared_limits_win_and_plain_callables_fall_back(self):
        g = Grid(UNIT, (9,))
        beta = parse_coefficient({"family": "exp", "base": 1.0,
                                  "amplitude": 1.0, "rate": 2.0})
        rho = parse_coefficient({"family": "power", "scale": 3.0,
                                 "exponent": 1.0})
        lv = LVCoefficients(
            np.array([1.0, 1.0]),
            (beta, rho),
            ((parse_coefficient(2.0), parse_coefficient(0.5)),
             (lambda t, x: 4.0 + 0.0 * np.asarray(x)[..., 0], parse_coefficient(3.0))),
        )
        system = lv_limit_coefficients(lv, g)
        assert all(c.shape == g.shape for c in system.coefficients)
        values = [c.max() for c in system.coefficients]
        assert_allclose(values, [1.0, 2.0, 0.5, 0.0, 4.0, 3.0], atol=1e-12)
        declared = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
        system = lv_limit_coefficients(lv, g, declared=declared)
        assert [c.max() for c in system.coefficients] == declared
        assert [c.min() for c in system.coefficients] == declared

    def test_needs_two_species(self):
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,),
                            ((lambda t, x: 1.0,),))
        with pytest.raises(SpecError):
            lv_limit_coefficients(lv, Grid(UNIT, (9,)))
