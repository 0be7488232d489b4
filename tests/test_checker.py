import copy
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from parapos.checker import (
    ASSUMPTION_IDS,
    CHECKS,
    DEFAULT_ASSUMPTIONS,
    GROUPS,
    CheckEntry,
    SampleBudget,
    check_initial_monotonicity,
    check_monotone_coefficients,
    halton_block,
    run_checks,
    source_jacobians,
)
from parapos.errors import CoefficientError, SpecError
from parapos.model import (
    CoefficientSet,
    Field,
    FrozenSystem,
    Grid,
    LVCoefficients,
    Majorants,
    ProblemSpec,
    SpatialDomain,
    build_lv_problem,
)
from parapos.config import load_config_data
from parapos.scenarios import get_scenario, list_scenarios

BUDGET = SampleBudget(t=3, x=3, u=3, p=2, seed=0)


def logistic_problem(beta=1.0, gamma=1.0, d=1.0, amplitude=0.5, n=41, horizon=1.0):
    g = Grid(SpatialDomain(((0.0, 1.0),)), (n,))
    lv = LVCoefficients(
        np.array([d]),
        (lambda t, x: beta,),
        ((lambda t, x: gamma,),),
    )
    initial = Field.from_functions(g, [lambda p: amplitude * np.sin(np.pi * p[..., 0])])
    return build_lv_problem(lv, initial, horizon)


def generic_problem(source, drift=None, diffusion=1.0, depends_on_gradient=False, n=21):
    """Scalar problem with hand-rolled evaluators, for off-family checks."""
    g = Grid(SpatialDomain(((0.0, 1.0),)), (n,))

    def diff(t, x, u):
        batch = np.asarray(x).shape[:-1]
        return np.broadcast_to(np.array([[diffusion]]), batch + (1, 1))

    def zero_drift(t, x, u, p):
        return np.zeros(np.asarray(x).shape[:-1] + (1,))

    coeffs = CoefficientSet(
        diffusion=diff,
        drift=drift or zero_drift,
        source=source,
        depends_on_gradient=depends_on_gradient,
    )
    return ProblemSpec(coeffs, Field.zeros(g, 1), horizon=1.0)


def lv_spec(lv, initial=None, n=21, horizon=2.0):
    """``lv`` on [0, 1] with ``n`` nodes; zero initial data unless given."""
    g = Grid(SpatialDomain(((0.0, 1.0),)), (n,))
    values = np.zeros((lv.species, n)) if initial is None else initial
    return build_lv_problem(lv, Field.from_arrays(g, values), horizon)


def check(assumption, spec, budget=BUDGET, majorants=None, compat_factor=None):
    """The ``CHECKS`` entry of ``assumption`` on ``spec``."""
    return CHECKS[assumption](spec, budget, majorants, compat_factor)


def counted(spec):
    """``spec`` with each of its evaluators wrapped in a call counter."""
    calls = {"diffusion": 0, "drift": 0, "source": 0}

    def wrap(name):
        evaluate = getattr(spec.coefficients, name)

        def counting(*args):
            calls[name] += 1
            return evaluate(*args)
        return counting

    coeffs = replace(spec.coefficients, **{name: wrap(name) for name in calls
                                           if getattr(spec.coefficients, name)})
    return replace(spec, coefficients=coeffs), calls


class TestHalton:
    def test_deterministic_for_a_seed(self):
        a = halton_block(16, 3, seed=5)
        b = halton_block(16, 3, seed=5)
        assert np.array_equal(a, b)
        c = halton_block(16, 3, seed=6)
        assert not np.array_equal(a, c)

    def test_prefix_nested(self):
        small = halton_block(8, 4, seed=1)
        big = halton_block(20, 4, seed=1)
        assert np.array_equal(big[:8], small)

    def test_covers_unit_cube(self):
        pts = halton_block(200, 2, seed=0)
        assert pts.min() >= 0.0 and pts.max() <= 1.0
        # equidistribution sanity: each quadrant gets a fair share
        quad = (pts[:, 0] > 0.5).astype(int) * 2 + (pts[:, 1] > 0.5).astype(int)
        counts = np.bincount(quad, minlength=4)
        assert counts.min() > 30


class TestParabolicity:
    def test_positive_diffusion_passes_with_its_smallest_eigenvalue(self):
        entry = check("A1", logistic_problem(d=0.7))
        assert entry.status == "pass"
        assert entry.details["kappa_hat"] == pytest.approx(0.7)

    def test_two_species_reports_smaller_constant(self):
        entry = check("A1", get_scenario("S1_positivity").build_problem())
        assert entry.status == "pass"
        assert entry.details["kappa_hat"] == pytest.approx(0.01)

    def test_degenerate_diffusion_fails(self):
        spec = generic_problem(
            source=lambda t, x, u, p: np.zeros_like(u),
            diffusion=0.0,
        )
        entry = check("A1", spec)
        assert entry.status == "fail"
        assert entry.details["kappa_hat"] == 0.0
        assert entry.witness is not None


class TestDissipativity:
    def test_logistic_fit_is_bounded_by_growth_rate(self):
        spec = logistic_problem(beta=1.0, gamma=1.0)
        entry = check("A2'", spec)
        d1, d2 = entry.details["d1_hat"], entry.details["d2_hat"]
        assert entry.status == "pass"
        # (c, u) = u^2 (1 - u) <= 1 * u^2 on the orthant, so the fit sits in [0, 1]
        assert 0.0 <= d2 <= 1.0
        assert d1 == pytest.approx(0.0, abs=1e-12)

    def test_signed_region_needs_a_larger_constant(self):
        spec = logistic_problem(beta=1.0, gamma=1.0)
        orthant, full = check("A2'", spec), check("A2", spec)
        # on u < 0 the logistic source pushes away from zero, so the signed
        # sample block dominates the orthant fit
        assert full.details["d2_hat"] >= orthant.details["d2_hat"]
        assert (full.assumption, full.details["mode"]) == ("A2", "A2")
        assert (orthant.assumption, orthant.details["mode"]) == ("A2'", "A2'")

    def test_user_constants_checked_for_dominance(self):
        spec = logistic_problem(beta=1.0, gamma=1.0)
        good = Majorants(d1=0.0, d2=1.0)
        entry = check("A2'", spec, majorants=good)
        assert entry.status == "pass"
        bad = Majorants(d1=0.0, d2=0.0)
        entry = check("A2'", spec, majorants=bad)
        assert entry.status == "fail"
        assert "violated" in entry.note

    def test_superquadratic_source_is_flagged(self):
        spec = generic_problem(source=lambda t, x, u, p: u**3)
        entry = check("A2'", spec)
        assert entry.status == "fail"
        assert "superquadratic" in entry.note


class TestGrowth:
    def test_no_envelopes_means_not_applicable(self):
        report = run_checks(logistic_problem(), BUDGET, ["A4a", "A4b"])
        assert [(e.assumption, e.status, e.note) for e in report.entries] == [
            ("A4a", "not_applicable", "no growth envelopes supplied"),
            ("A4b", "not_applicable", "no growth envelopes supplied"),
        ]

    @pytest.mark.parametrize("name", [name for name, _ in list_scenarios()])
    def test_a4_adds_two_not_applicable_entries_and_no_evaluator_call(self, name):
        with_a4 = get_scenario(name)
        data = copy.deepcopy(with_a4.data)
        data["checks"]["assumptions"].remove("A4")
        without = load_config_data(data)
        spec, calls = counted(with_a4.build_problem())

        def checks(config):
            before = dict(calls)
            report = run_checks(spec, config.budget(), config.assumptions(),
                                config.majorants(), config.compat_factor())
            return report.to_json()["assumptions"], {k: calls[k] - before[k] for k in calls}

        entries, used = checks(with_a4)
        entries_without, used_without = checks(without)
        assert used == used_without
        a4 = [e for e in entries if e["assumption"] in ("A4a", "A4b")]
        assert a4 == [CheckEntry(label, "not_applicable",
                                 note="no growth envelopes supplied").to_json()
                      for label in ("A4a", "A4b")]
        assert [e for e in entries if e not in a4] == entries_without


class TestCompatibility:
    def test_zero_data_passes_with_full_margin(self):
        spec = logistic_problem(amplitude=0.0)
        entry = check("A6", spec)
        assert entry.status == "pass"
        assert entry.details["worst_residual"] == pytest.approx(0.0, abs=1e-14)

    def test_curved_data_fails_with_the_boundary_curvature(self):
        # x^2 (1-x)^2 has second derivative 2 at both walls, so the residual
        # is d * 2 up to the one-sided stencil error on the quartic tail
        g = Grid(SpatialDomain(((0.0, 1.0),)), (101,))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        initial = Field.from_functions(g, [lambda p: p[..., 0] ** 2 * (1 - p[..., 0]) ** 2])
        spec = build_lv_problem(lv, initial, horizon=1.0)
        entry = check("A6", spec)
        assert entry.status == "fail"
        assert entry.details["worst_residual"] == pytest.approx(2.0, abs=0.01)

    def test_sine_data_fails_at_coarse_resolution(self):
        # analytically compatible, but the one-sided stencil leaves an h^3
        # truncation residual above the default threshold on a coarse grid
        spec = logistic_problem(amplitude=0.1, n=101)
        entry = check("A6", spec)
        assert entry.status == "fail"
        assert entry.details["worst_residual"] < 1e-3

    def test_threshold_scales_with_configured_factor(self):
        spec = logistic_problem(amplitude=0.1, n=101)
        entry = check("A6", spec, compat_factor=1e-3)
        assert entry.status == "pass"

    def test_nonzero_boundary_data_is_caught(self):
        g = Grid(SpatialDomain(((0.0, 1.0),)), (11,))
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        vals = np.full((1, 11), 0.3)
        initial = Field(g, vals)  # bypasses the zeroing constructor
        spec = build_lv_problem(lv, Field.zeros(g, 1), 1.0)
        spec.initial = initial  # after validate: we want the check to see it
        entry = check("A6", spec)
        assert entry.status == "fail"
        assert entry.details["boundary_value_max"] == pytest.approx(0.3)


class TestPositivitySource:
    def test_lv_data_and_source_pass_on_the_face(self):
        spec = logistic_problem()
        a7a, a7b = check("A7a", spec), check("A7b", spec)
        assert a7a.status == "pass"
        assert a7b.status == "pass"
        # u^k = 0 kills the competition source exactly
        assert a7b.margin == pytest.approx(0.0, abs=1e-15)

    def test_negative_initial_node_fails_a7a(self):
        g = Grid(SpatialDomain(((0.0, 1.0),)), (21,))
        vals = np.zeros((1, 21))
        vals[0, 10] = -0.2
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        spec = build_lv_problem(lv, Field(g, vals), horizon=1.0)
        a7a = check("A7a", spec)
        assert a7a.status == "fail"
        assert a7a.margin == pytest.approx(-0.2)
        assert a7a.witness["component"] == 0

    def test_negative_source_offset_fails_a7b(self):
        spec = generic_problem(source=lambda t, x, u, p: u * (1.0 - u) - 1.0)
        a7b = check("A7b", spec)
        assert a7b.status == "fail"
        assert a7b.margin == pytest.approx(-1.0)


TWO_SPECIES_D = np.array([0.1, 0.1])


def lv_two(beta, gamma, delta, rho, sigma, theta):
    return LVCoefficients(
        TWO_SPECIES_D,
        (beta, rho),
        ((gamma, delta), (sigma, theta)),
    )


class TestMonotoneCoefficients:
    def test_canonical_sign_pattern_passes(self):
        lv = lv_two(
            beta=lambda t, x: 1.0 - np.exp(-t),
            gamma=lambda t, x: 1.0 + np.exp(-t),
            delta=lambda t, x: 1.0 + np.exp(-t),
            rho=lambda t, x: np.exp(-t),
            sigma=lambda t, x: 1.0 - 0.5 * np.exp(-t),
            theta=lambda t, x: 1.0 - 0.5 * np.exp(-t),
        )
        entry = check("MonotoneCoeffs", lv_spec(lv))
        assert entry.status == "pass"
        assert entry.margin >= 0.0

    def test_decaying_growth_rate_fails_with_named_witness(self):
        lv = lv_two(
            beta=lambda t, x: np.exp(-t),  # must be non-decreasing
            gamma=lambda t, x: 1.0,
            delta=lambda t, x: 1.0,
            rho=lambda t, x: 1.0,
            sigma=lambda t, x: 1.0,
            theta=lambda t, x: 1.0,
        )
        entry = check("MonotoneCoeffs", lv_spec(lv))
        assert entry.status == "fail"
        assert entry.witness["coefficient"] == "beta"
        assert "t" in entry.witness

    def test_growing_self_limitation_fails_on_gamma(self):
        lv = lv_two(
            beta=lambda t, x: 1.0,
            gamma=lambda t, x: 1.0 + t,  # must be non-increasing
            delta=lambda t, x: 1.0,
            rho=lambda t, x: 1.0,
            sigma=lambda t, x: 1.0,
            theta=lambda t, x: 1.0,
        )
        entry = check("MonotoneCoeffs", lv_spec(lv))
        assert entry.status == "fail"
        assert entry.witness["coefficient"] == "gamma"

    def test_single_species_rejected(self):
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        with pytest.raises(SpecError):
            check_monotone_coefficients(lv_spec(lv), BUDGET, None, None)


class TestInitialMonotonicity:
    def test_zero_data_passes_with_zero_margin(self):
        lv = lv_two(*(lambda t, x: 1.0 for _ in range(6)))
        entry = check("InitMonotone", lv_spec(lv))
        assert entry.status == "pass"
        assert entry.margin == pytest.approx(0.0)

    def test_library_monotone_scenario_passes(self):
        spec = get_scenario("S4_asymptotics").build_problem()
        entry = check("InitMonotone", spec)
        assert entry.status == "pass"

    def test_concave_hump_with_weak_growth_fails(self):
        # d lap(phi) ~ -pi^2 at the crest overwhelms the logistic push
        lv = LVCoefficients(
            np.array([1.0, 1.0]),
            (lambda t, x: 0.5, lambda t, x: 1.0),
            ((lambda t, x: 1.0, lambda t, x: 0.0),
             (lambda t, x: 0.0, lambda t, x: 1.0)),
        )
        x = np.linspace(0.0, 1.0, 41)
        entry = check("InitMonotone", lv_spec(lv, [np.sin(np.pi * x), np.zeros(41)], n=41))
        assert entry.status == "fail"
        assert entry.witness["condition"] == "first species slope"

    def test_each_coefficient_enters_its_own_term(self):
        # six distinct constants, so a swapped growth or interaction entry
        # moves one of the two margins
        beta, gamma, delta, rho, sigma, theta = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0
        lv = lv_two(*(lambda t, x, c=c: c
                      for c in (beta, gamma, delta, rho, sigma, theta)))
        x = np.linspace(0.0, 1.0, 21)
        spec = lv_spec(lv, [0.5 * np.sin(np.pi * x), 0.25 * np.sin(np.pi * x) ** 2])
        g = spec.initial.grid
        h = g.spacing[0]
        phi, psi = spec.initial.values
        lap = np.zeros((2, 21))
        for k, w in enumerate((phi, psi)):
            lap[k, 1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
        r1 = TWO_SPECIES_D[0] * lap[0] + phi * (beta - gamma * phi - delta * psi)
        r2 = TWO_SPECIES_D[1] * lap[1] + psi * (rho - sigma * phi - theta * psi)
        system = FrozenSystem(g, lv.diffusion,
                              [f(0.0, g.points) for f in FrozenSystem.order(lv)])
        for got, want in zip(system.residual(phi, psi), (r1, r2)):
            assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        mask = g.interior_mask
        entry = check("InitMonotone", spec)
        assert entry.details["first_species_margin"] == pytest.approx(
            r1[mask].min(), rel=1e-12, abs=1e-15)
        assert entry.details["second_species_margin"] == pytest.approx(
            -r2[mask].max(), rel=1e-12, abs=1e-15)
        assert entry.margin == min(entry.details.values())

    def test_single_species_rejected(self):
        lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
        with pytest.raises(SpecError):
            check_initial_monotonicity(lv_spec(lv), BUDGET, None, None)


class TestSourceJacobians:
    def test_logistic_slopes_are_sampled_over_the_state_box(self):
        # d/du u (1 - u) = 1 - 2u with u in [0, 2]
        jac = source_jacobians(logistic_problem(), 2.0)
        assert jac.shape == (48, 1, 1)
        assert jac.max() <= 1.0
        assert jac.min() >= -3.0
        assert jac.max() - jac.min() > 3.0

    def test_a_non_finite_slope_is_an_error_naming_its_sample(self, nan_above):
        spec = nan_above(logistic_problem(), 1.5)
        with pytest.raises(CoefficientError) as err:
            source_jacobians(spec, 2.0)
        message = str(err.value)
        assert "not finite" in message
        for name in ("t=", "x=", "u="):
            assert name in message
        # the named state lies where the source is broken
        u = float(message.split("u=[")[1].split("]")[0])
        assert u + 2e-6 > 1.5

    def test_two_source_calls_cover_every_sample(self):
        spec, calls = counted(get_scenario("S8_competition_2d").build_problem())
        jac = source_jacobians(spec, 2.0)
        assert jac.shape == (48, 2, 2)
        assert calls == {"diffusion": 0, "drift": 0, "source": 2}


def test_discrete_laplacian_matches_modal_eigenvalue():
    # unit diffusions and no reaction leave the residual's Laplacian alone
    g = Grid(SpatialDomain(((0.0, 1.0),)), (51,))
    h = g.spacing[0]
    mode = np.sin(np.pi * g.axes[0])
    system = FrozenSystem(g, np.array([1.0, 1.0]), [0.0] * 6)
    lap, lap_v = system.residual(mode, 2.0 * mode)
    lam = 2.0 * (1.0 - np.cos(np.pi * h)) / h**2
    inner = slice(1, -1)
    assert_allclose(lap[inner], -lam * mode[inner], rtol=1e-10)
    assert_allclose(lap_v, 2.0 * lap, rtol=1e-15)
    assert lap[0] == 0.0 and lap[-1] == 0.0


class TestRunChecks:
    def test_report_shape_and_provenance(self):
        spec = logistic_problem(amplitude=0.0)
        report = run_checks(spec, BUDGET, ["A1", "A2'", "A6", "A7a", "A7b"])
        blob = report.to_json()
        assert blob["provenance"] == "sampled, not proven"
        assert blob["seed"] == BUDGET.seed
        assert [e.status for e in report.entries] == ["pass"] * 5
        # the report's constants are the A1 and A2' entries' own numbers
        assert report.kappa_hat == report.entry("A1").details["kappa_hat"]
        assert report.d1_hat == report.entry("A2'").details["d1_hat"]
        assert report.d2_hat == report.entry("A2'").details["d2_hat"]
        assert blob["constants"] == {"kappa_hat": report.kappa_hat,
                                     "d1_hat": report.d1_hat, "d2_hat": report.d2_hat}
        # A2 fits its own constants, but only A1 and A2' fill the report's
        report = run_checks(spec, BUDGET, ["A2", "A6"])
        assert report.to_json()["constants"] == {
            "kappa_hat": None, "d1_hat": None, "d2_hat": None}

    def test_two_species_extras_dispatched(self):
        spec = get_scenario("S4_asymptotics").build_problem()
        report = run_checks(spec, BUDGET, ["MonotoneCoeffs", "InitMonotone"])
        assert report.entry("MonotoneCoeffs").status == "pass"
        assert report.entry("InitMonotone").status == "pass"

    def test_single_species_extras_not_applicable(self):
        report = run_checks(logistic_problem(), BUDGET, ["MonotoneCoeffs", "InitMonotone"])
        assert report.entry("MonotoneCoeffs").status == "not_applicable"
        assert report.entry("InitMonotone").status == "not_applicable"

    def test_fail_entries_carry_witnesses_in_json(self):
        spec = generic_problem(source=lambda t, x, u, p: u * (1.0 - u) - 1.0)
        report = run_checks(spec, BUDGET, ["A7b"])
        entry = report.entry("A7b")
        assert entry.status == "fail"
        assert entry.to_json()["witness"] is not None

    def test_same_seed_bitwise_reproducible(self):
        spec = logistic_problem()
        r1 = run_checks(spec, SampleBudget(seed=3), ["A1", "A2'", "A7b"])
        r2 = run_checks(spec, SampleBudget(seed=3), ["A1", "A2'", "A7b"])
        for e1, e2 in zip(r1.entries, r2.entries):
            assert e1.margin == e2.margin
            assert e1.witness == e2.witness

    def test_evaluator_calls_do_not_grow_with_the_budget_or_the_grid(self):
        coarse = get_scenario("S8_competition_2d").data
        fine = copy.deepcopy(coarse)
        fine["problem"]["grid"]["nodes"] = [121, 121]

        def calls_for(data, budget):
            spec, calls = counted(load_config_data(data).build_problem())
            run_checks(spec, budget, ASSUMPTION_IDS)
            return calls

        base = calls_for(coarse, SampleBudget())
        # A1 and A6 read the diffusion; A2, A2' and A6 the source once each,
        # and A7b once per species; an LV problem has no drift to read
        assert base == {"diffusion": 2, "drift": 0, "source": 5}
        assert calls_for(coarse, SampleBudget(t=10, x=10, u=8, p=6)) == base
        assert calls_for(fine, SampleBudget()) == base

    def test_a6_reads_a_drift_once_and_none_when_absent(self):
        zero = generic_problem(source=lambda t, x, u, p: np.zeros_like(u))
        absent = replace(zero, coefficients=replace(zero.coefficients, drift=None))
        reports = []
        for spec, drift_calls in ((zero, 1), (absent, 0)):
            spec, calls = counted(spec)
            reports.append(run_checks(spec, SampleBudget(), ["A6"]))
            assert calls["drift"] == drift_calls
        # a zero drift and no drift give the same entries, bit for bit
        assert reports[0].to_json() == reports[1].to_json()

    def test_seed_changes_the_sample_set(self):
        spec = logistic_problem()
        r1 = run_checks(spec, SampleBudget(seed=0), ["A2'"])
        r2 = run_checks(spec, SampleBudget(seed=1), ["A2'"])
        assert r1.entry("A2'").witness != r2.entry("A2'").witness

    @pytest.mark.parametrize("requested, unknown", [
        (["A7"], "A7"), (["A3"], "A3"), (["A1", "A4", "A2_prime"], "A2_prime, A4")])
    def test_an_unknown_id_is_an_error_naming_it(self, requested, unknown):
        # a group label is the loader's to expand; the checker runs only ids
        with pytest.raises(SpecError, match=f"unknown assumption ids: {unknown}$"):
            run_checks(logistic_problem(), BUDGET, requested)

    def test_entries_come_in_table_order_whatever_the_request(self):
        spec = get_scenario("S4_asymptotics").build_problem()
        report = run_checks(spec, BUDGET, reversed(ASSUMPTION_IDS))
        assert [e.assumption for e in report.entries] == list(ASSUMPTION_IDS)
        report = run_checks(spec, BUDGET, ["InitMonotone", "A7b", "A1", "A4a", "A1"])
        assert [e.assumption for e in report.entries] == ["A1", "A4a", "A7b", "InitMonotone"]

    def test_a7a_alone_makes_no_source_call(self):
        spec, calls = counted(get_scenario("S8_competition_2d").build_problem())
        report = run_checks(spec, SampleBudget(), ["A7a"])
        assert [e.assumption for e in report.entries] == ["A7a"]
        assert calls == {"diffusion": 0, "drift": 0, "source": 0}


def test_the_table_is_the_schemas_id_list():
    schema = json.loads(resources.files("parapos").joinpath(
        "data/scenario.schema.json").read_text())
    enum = schema["properties"]["checks"]["properties"]["assumptions"]["items"]["enum"]
    assert sorted(enum) == sorted([*CHECKS, *GROUPS])
    assert set(DEFAULT_ASSUMPTIONS) <= set(enum)
    assert {i for ids in GROUPS.values() for i in ids} <= set(CHECKS)
    assert ASSUMPTION_IDS == tuple(CHECKS)


@settings(max_examples=20, deadline=None)
@given(
    amp=st.floats(0.2, 2.0),
    rate=st.floats(0.5, 3.0),
    small=st.integers(2, 4),
    extra=st.integers(1, 4),
)
def test_refining_the_budget_never_improves_a_margin(amp, rate, small, extra):
    """Sample refinement is one-way: a bigger budget can only lower margins.

    The sample set is prefix-nested in the total count, so the minimum over
    samples (the reported margin) is non-increasing under refinement, which
    is exactly what keeps a failed check from passing on a second, larger
    look.
    """
    lv = lv_two(
        beta=lambda t, x: amp * np.exp(-rate * t),  # wrong sign: decreasing
        gamma=lambda t, x: 1.0,
        delta=lambda t, x: 1.0,
        rho=lambda t, x: 1.0,
        sigma=lambda t, x: 1.0,
        theta=lambda t, x: 1.0,
    )
    spec = lv_spec(lv)
    b_small = SampleBudget(t=small, x=small, u=2, p=2, seed=0)
    b_big = SampleBudget(t=small + extra, x=small, u=2, p=2, seed=0)
    m_small = check("MonotoneCoeffs", spec, b_small).margin
    m_big = check("MonotoneCoeffs", spec, b_big).margin
    assert m_big <= m_small + 1e-12


@settings(max_examples=15, deadline=None)
@given(beta=st.floats(0.2, 3.0), small=st.integers(2, 3), extra=st.integers(1, 3))
def test_fitted_dissipativity_constant_grows_with_the_sample_set(beta, small, extra):
    spec = logistic_problem(beta=beta, gamma=1.0)
    b_small = SampleBudget(t=small, x=small, u=small, p=2, seed=0)
    b_big = SampleBudget(t=small, x=small, u=small + extra, p=2, seed=0)
    d2_small = check("A2'", spec, b_small).details["d2_hat"]
    d2_big = check("A2'", spec, b_big).details["d2_hat"]
    assert d2_big >= d2_small - 1e-12
