import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import lv_source_reference
from parapos.coefficients import (
    BumpInSpace,
    Coefficient,
    ConstantInSpace,
    ConstantInTime,
    ExpInTime,
    TabulatedCoefficient,
    parse_coefficient,
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
    build_cutoff,
    build_lv_problem,
    dst_sine_squares,
)


def unit_grid(n=101):
    return Grid(SpatialDomain(((0.0, 1.0),)), (n,))


class TestDomainAndGrid:
    def test_bounds_must_increase(self):
        with pytest.raises(SpecError):
            SpatialDomain(((1.0, 0.0),))

    def test_dimension_capped_at_two(self):
        with pytest.raises(SpecError):
            SpatialDomain(((0, 1), (0, 1), (0, 1)))

    def test_spacing_and_axes(self):
        g = Grid(SpatialDomain(((0.0, 2.0), (-1.0, 1.0))), (5, 9))
        assert g.spacing == (0.5, 0.25)
        assert_allclose(g.axes[0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.points.shape == (5, 9, 2)

    def test_interior_mask_excludes_boundary_layer(self):
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (4, 4))
        mask = g.interior_mask
        assert mask.sum() == 4
        assert not mask[0].any() and not mask[-1].any()
        assert not mask[:, 0].any() and not mask[:, -1].any()
        # the face nodes are the twelve the mask leaves out, in C order
        ix, iy = g.boundary
        assert len(ix) == 12 and not mask[ix, iy].any()
        assert list(zip(ix, iy))[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]

    def test_too_few_nodes_rejected(self):
        with pytest.raises(SpecError):
            Grid(SpatialDomain(((0.0, 1.0),)), (2,))

    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_dst_mode_table_gives_the_dirichlet_second_difference(self, m):
        # each DST-I mode sin(pi j k / (m + 1)) is an eigenvector of the
        # tridiagonal (1, -2, 1) matrix, with eigenvalue -4 times its entry
        lap = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1) - 2.0 * np.eye(m)
        k = np.arange(1, m + 1)
        modes = np.sin(np.pi * np.outer(k, k) / (m + 1))
        assert_allclose(lap @ modes, modes * (-4.0 * dst_sine_squares(m)),
                        rtol=0.0, atol=1e-13)


class TestField:
    def test_from_functions_zeroes_dirichlet_boundary(self):
        g = unit_grid(11)
        # x(1-x)+0.5 is nonzero at the endpoints; the constructor clamps it
        fld = Field.from_functions(g, [lambda p: p[..., 0] * (1 - p[..., 0]) + 0.5])
        assert fld.values[0, 0] == 0.0
        assert fld.values[0, -1] == 0.0
        assert fld.boundary_max_abs() == 0.0

    def test_validate_rejects_nonzero_boundary(self):
        g = unit_grid(5)
        fld = Field(g, np.ones((1, 5)))
        with pytest.raises(SpecError):
            fld.validate()

    def test_validate_rejects_nan(self):
        g = unit_grid(5)
        vals = np.zeros((1, 5))
        vals[0, 2] = np.nan
        with pytest.raises(SpecError):
            Field(g, vals).validate()

    def test_shape_mismatch(self):
        with pytest.raises(SpecError):
            Field(unit_grid(5), np.zeros((1, 6)))


class TestCutoff:
    def test_plateau_and_support(self):
        zeta = build_cutoff(4.0, 1.0)
        assert zeta(np.array([0.0])) == 1.0
        assert zeta(np.array([2.9])) == 1.0
        assert zeta(np.array([4.0])) == 0.0
        assert zeta(np.array([5.0])) == 0.0

    def test_radial_in_two_dimensions(self):
        zeta = build_cutoff(2.0, 0.5)
        pts = np.array([[1.0, 1.0], [0.5, 0.5], [2.0, 2.0]])
        vals = zeta(pts)
        mid = zeta.radial(np.array([math.sqrt(2.0)]))
        assert_allclose(vals, [mid[0], 1.0, 0.0])

    def test_monotone_in_radius(self):
        zeta = build_cutoff(3.0, 2.0)
        rho = np.linspace(0.0, 3.5, 200)
        vals = zeta.radial(rho)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_shoulder_is_c2(self):
        # second difference of the quintic smoothstep stays bounded through
        # both seams, so a C^2 mollifier really was built
        zeta = build_cutoff(2.0, 1.0)
        h = 1e-4
        rho = np.array([1.0 - 5 * h, 1.0, 1.0 + 5 * h, 2.0 - 5 * h, 2.0, 2.0 + 5 * h])
        second = (zeta.radial(rho + h) - 2 * zeta.radial(rho) + zeta.radial(rho - h)) / h**2
        assert np.abs(second).max() < 7.0

    def test_width_validation(self):
        with pytest.raises(SpecError):
            build_cutoff(1.0, 1.5)
        with pytest.raises(SpecError):
            build_cutoff(-1.0)


class TestLVCoefficients:
    def test_source_matches_hand_formula(self):
        lv = LVCoefficients(
            np.array([1.0, 1.0]),
            (lambda t, x: 1.5, lambda t, x: 1.2),
            ((lambda t, x: 1.0, lambda t, x: 0.5), (lambda t, x: 0.7, lambda t, x: 1.1)),
        )
        u, v = 0.3, 0.8
        x = np.zeros((1, 1))
        src = lv(0.0, x, np.array([[u, v]]))
        expect_u = u * (1.5 - 1.0 * u - 0.5 * v)
        expect_v = v * (1.2 - 0.7 * u - 1.1 * v)
        assert_allclose(src[0], [expect_u, expect_v], rtol=1e-14)

    def test_diffusion_must_be_positive(self):
        with pytest.raises(SpecError):
            LVCoefficients(np.array([0.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))

    def test_interaction_shape_checked(self):
        with pytest.raises(SpecError):
            LVCoefficients(
                np.array([1.0, 1.0]),
                (lambda t, x: 1.0, lambda t, x: 1.0),
                ((lambda t, x: 1.0,),),  # ragged
            )


def _memo_test_coefficients():
    """Growth/interaction mix: exp in time, bump in space, a table, a constant."""
    bump = BumpInSpace(center=(0.4,), radius=0.3, width=0.1, amplitude=0.5)
    t_values = np.array([0.0, 0.5, 2.0])
    x_axis = np.linspace(0.0, 1.0, 6)
    table = np.cos(np.add.outer(t_values, 3.0 * x_axis)) + 2.0
    return (
        (Coefficient(ExpInTime(2.0, -0.5, 1.0), ConstantInSpace()),
         Coefficient(ExpInTime(1.5, 0.5, 0.7), bump)),
        ((Coefficient(ConstantInTime(1.0), ConstantInSpace(1.0 / 3.0)),
          TabulatedCoefficient(t_values, (x_axis,), table)),
         (Coefficient(ExpInTime(1.0, -0.5, 1.0), bump),
          parse_coefficient(2.0))),
    )


class TestLVSourceMemo:
    def test_bitwise_equal_to_direct_evaluation_across_two_grids(self):
        growth, interaction = _memo_test_coefficients()
        lv = LVCoefficients(np.array([0.05, 0.5]), growth, interaction)
        grids = [unit_grid(41).points, unit_grid(23).points]
        rng = np.random.default_rng(5)
        states = [rng.uniform(0.0, 2.0, size=pts.shape[:-1] + (2,)) for pts in grids]
        for step, which in enumerate([0, 0, 1, 0, 1, 1, 0]):
            t = 0.37 * step
            x, u = grids[which], states[which]
            got = lv(t, x, u)
            fresh = LVCoefficients(np.array([0.05, 0.5]), growth, interaction)
            want = lv_source_reference(growth, interaction, t, x, u)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == fresh(t, x, u).tobytes()

    def test_single_point_queries(self):
        growth, interaction = _memo_test_coefficients()
        lv = LVCoefficients(np.array([0.05, 0.5]), growth, interaction)
        for xv in (0.1, 0.45, 0.45, 0.9):
            x = np.array([xv])
            u = np.array([0.3, 1.1])
            want = lv_source_reference(growth, interaction, 1.5, x, u)
            assert lv(1.5, x, u).tobytes() == want.tobytes()

    def test_space_part_is_evaluated_once_per_grid(self):
        calls = []

        def space(x):
            calls.append(1)
            return 1.0 + np.asarray(x, dtype=float)[..., 0]

        coef = Coefficient(ExpInTime(1.0, 1.0, 1.0), space)
        lv = LVCoefficients(np.array([1.0]), (coef,), ((coef,),))
        x = unit_grid(11).points
        u = np.full((11, 1), 0.5)
        for step in range(5):
            lv(0.1 * step, x, u)
        assert len(calls) == 2  # one growth and one interaction profile
        lv(0.0, unit_grid(13).points, np.full((13, 1), 0.5))
        assert len(calls) == 4


def _table_case(m, dim, profiles):
    """An m-species LV set whose entries are space-constant, bumps, or both."""
    bump = BumpInSpace(center=(0.45,) * dim, radius=0.3, width=0.1, amplitude=0.5)
    entries = []
    for j in range(m + m * m):
        time_part = ExpInTime(1.0 + 0.1 * j, 0.5 - 0.2 * j, 0.3 + 0.1 * j)
        if profiles == "constant" or (profiles == "mixed" and j % 2 == 0):
            entries.append(Coefficient(time_part, ConstantInSpace(1.0 / (3.0 + j)))
                           if j % 3 else parse_coefficient(0.7 + j))
        else:
            entries.append(Coefficient(time_part, bump))
    growth = tuple(entries[:m])
    interaction = tuple(tuple(entries[m + k * m:m + (k + 1) * m]) for k in range(m))
    return growth, interaction


def _table_samples(m, dim, t_kind):
    nodes = (17,) if dim == 1 else (9, 11)
    x = Grid(SpatialDomain(((0.0, 1.0),) * dim), nodes).points
    rng = np.random.default_rng(10 * m + dim)
    u = rng.uniform(0.0, 3.0, size=nodes + (m,))
    u.flat[:4] = [0.0, -0.0, 5e-324, 1e150]
    t = 0.8 if t_kind == "scalar" else rng.uniform(0.0, 2.0, size=nodes)
    return t, x, u


class TestLVTablesAtEntryShape:
    """Tables at the broadcast shape of their entries give the full-table bits."""

    @pytest.mark.parametrize("profiles", ["constant", "bump", "mixed"])
    @pytest.mark.parametrize("t_kind", ["scalar", "array"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_source_is_bitwise_the_full_table_formula(self, m, dim, t_kind, profiles):
        growth, interaction = _table_case(m, dim, profiles)
        lv = LVCoefficients(np.full(m, 0.1), growth, interaction)
        t, x, u = _table_samples(m, dim, t_kind)
        want = lv_source_reference(growth, interaction, t, x, u)
        for _ in range(2):  # the second call reads the memoised profiles
            got = lv(t, x, u)
            assert got.shape == u.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_shapes_follow_their_entries(self, m):
        t, x, _ = _table_samples(m, 2, "scalar")
        batch = x.shape[:-1]
        constant = LVCoefficients(np.full(m, 0.1), *_table_case(m, 2, "constant"))
        assert constant.growth_values(t, x).shape == (m,)
        assert constant.interaction_values(t, x).shape == (m, m)
        # an array t spreads every time-varying entry over the batch; the one
        # growth entry of m = 1 is a bare number, which ignores t
        t_array = np.full(batch, t)
        assert constant.growth_values(t_array, x).shape == (batch if m > 1 else ()) + (m,)
        assert constant.interaction_values(t_array, x).shape == batch + (m, m)
        mixed = LVCoefficients(np.full(m, 0.1), *_table_case(m, 2, "mixed"))
        assert mixed.interaction_values(t, x).shape == batch + (m, m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_constant_source_call_holds_less_than_one_full_table(self, m):
        growth, interaction = _table_case(m, 2, "constant")
        lv = LVCoefficients(np.full(m, 0.1), growth, interaction)
        x = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (201, 201)).points
        u = np.random.default_rng(2).uniform(0.0, 2.0, size=(201, 201, m))
        lv(0.0, x, u)  # build the memoised profiles outside the trace
        tracemalloc.start()
        try:
            lv(0.5, x, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 201 * 201 * m * m


def _march_lattice(dt, steps):
    t, ts = 0.0, [0.0]
    for _ in range(steps):
        t += dt
        ts.append(t)
    return np.array(ts)


class TestLVSourceBlock:
    """A block source gives the bits of one source call per time of its lattice.

    ``lv.block`` tabulates only space-constant separable coefficients and
    gives None for any other; :meth:`CoefficientSet.source_block` then
    calls ``lv`` once per step.
    """

    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize("profiles", ["constant", "bump", "mixed"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_each_step_is_bitwise_the_source_call(self, m, dim, profiles, shift):
        growth, interaction = _table_case(m, dim, profiles)
        lv = LVCoefficients(np.full(m, 0.1), growth, interaction,
                            shift=np.linspace(-1.0, 0.5, m) if shift else None)
        _, x, u = _table_samples(m, dim, "scalar")
        ts = _march_lattice(0.37, 12)
        assert (lv.block(ts, x) is None) == (profiles != "constant")
        at = CoefficientSet(diffusion=None, drift=None, source=lv).source_block(ts, x)
        for j, t in enumerate(ts.tolist()):
            assert at(j, u, None).tobytes() == lv(t, x, u).tobytes()

    def test_a_table_and_plain_callables_are_called_per_step(self):
        growth, interaction = _memo_test_coefficients()
        growth = (growth[0], lambda t, x: 1.0 + 0.0 * t)
        lv = LVCoefficients(np.array([0.05, 0.5]), growth, interaction)
        x = unit_grid(23).points
        u = np.random.default_rng(6).uniform(0.0, 2.0, (23, 2))
        ts = _march_lattice(0.1, 30)
        assert lv.block(ts, x) is None
        at = CoefficientSet(diffusion=None, drift=None, source=lv).source_block(ts, x)
        for j, t in enumerate(ts.tolist()):
            want = lv_source_reference(growth, interaction, t, x, u)
            assert at(j, u, None).tobytes() == want.tobytes()

    def test_the_shift_is_added_after_the_product(self):
        growth, interaction = _table_case(2, 1, "mixed")
        shift = np.array([-1.0, 0.25])
        plain = LVCoefficients(np.full(2, 0.1), growth, interaction)
        shifted = LVCoefficients(np.full(2, 0.1), growth, interaction, shift=shift)
        _, x, u = _table_samples(2, 1, "scalar")
        want = plain(0.3, x, u) + shift
        assert shifted(0.3, x, u).tobytes() == want.tobytes()
        # the tables, which the checks read, carry no shift
        assert (shifted.growth_values(0.3, x).tobytes()
                == plain.growth_values(0.3, x).tobytes())
        assert (shifted.interaction_values(0.3, x).tobytes()
                == plain.interaction_values(0.3, x).tobytes())
        with pytest.raises(SpecError):
            LVCoefficients(np.full(2, 0.1), growth, interaction, shift=[1.0])

    def test_a_wrapped_source_is_called_once_per_step(self):
        growth, interaction = _table_case(2, 1, "constant")
        lv = LVCoefficients(np.full(2, 0.1), growth, interaction)
        calls = []

        def wrapped(t, x, u, p):
            calls.append(t)
            return 2.0 * lv(t, x, u)

        coeffs = CoefficientSet(diffusion=None, drift=None, source=wrapped)
        _, x, u = _table_samples(2, 1, "scalar")
        ts = _march_lattice(0.25, 3)
        at = coeffs.source_block(ts, x)
        assert [at(j, u, None).tobytes() for j in range(4)] == [
            (2.0 * lv(t, x, u)).tobytes() for t in ts.tolist()]
        assert calls == ts.tolist() and all(type(t) is float for t in calls)


class TestFrozenSystem:
    def test_order_is_growth_then_each_interaction_row(self):
        coefficients = [lambda t, x: 1.0 for _ in range(6)]
        lv = LVCoefficients(np.array([1.0, 2.0]), (coefficients[0], coefficients[3]),
                            ((coefficients[1], coefficients[2]),
                             (coefficients[4], coefficients[5])))
        assert FrozenSystem.order(lv) == tuple(coefficients)

    @pytest.mark.parametrize("m", [1, 3])
    def test_order_needs_two_species(self, m):
        one = lambda t, x: 1.0  # noqa: E731
        lv = LVCoefficients(np.ones(m), (one,) * m, ((one,) * m,) * m)
        with pytest.raises(SpecError):
            FrozenSystem.order(lv)

    def test_six_coefficients_required(self):
        with pytest.raises(SpecError):
            FrozenSystem(unit_grid(9), np.array([1.0, 1.0]), [1.0] * 5)

    def test_reaction_is_the_competition_source(self):
        g = unit_grid(17)
        values = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        lv = LVCoefficients(np.array([0.5, 0.25]),
                            (lambda t, x: values[0], lambda t, x: values[3]),
                            ((lambda t, x: values[1], lambda t, x: values[2]),
                             (lambda t, x: values[4], lambda t, x: values[5])))
        system = FrozenSystem(g, lv.diffusion, values)
        u = 0.3 * np.sin(np.pi * g.axes[0])
        v = 0.2 * np.sin(2.0 * np.pi * g.axes[0]) ** 2
        source = lv(0.0, g.points, np.stack([u, v], axis=-1))
        for k, term in enumerate(system.reaction(u, v)):
            assert_allclose(term, source[:, k], rtol=1e-14, atol=1e-15)

    def test_a_2d_residual_is_zero_on_every_face(self):
        # x^2 + y^2 has the discrete Laplacian 4 exactly, and is not zero on
        # the faces, where the residual's Laplacian must be
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 2.0))), (9, 11))
        w = (g.points ** 2).sum(axis=-1)
        system = FrozenSystem(g, np.array([0.5, 2.0]), [0.0] * 6)
        ru, rv = system.residual(w, w)
        mask = g.interior_mask
        assert_allclose(ru[mask], 2.0, rtol=1e-12)
        assert_allclose(rv[mask], 8.0, rtol=1e-12)
        assert np.all(ru[~mask] == 0.0) and np.all(rv[~mask] == 0.0)


def test_build_lv_problem_wires_diagonal_diffusion():
    g = unit_grid(21)
    lv = LVCoefficients(
        np.array([0.3, 0.7]),
        (lambda t, x: 1.0, lambda t, x: 1.0),
        ((lambda t, x: 1.0, lambda t, x: 0.0), (lambda t, x: 0.0, lambda t, x: 1.0)),
    )
    initial = Field.from_functions(
        g, [lambda p: np.sin(np.pi * p[..., 0]), lambda p: np.sin(np.pi * p[..., 0])]
    )
    spec = build_lv_problem(lv, initial, horizon=1.0)
    assert not spec.coefficients.depends_on_gradient
    assert spec.domain is g.domain
    coeffs = spec.coefficients
    assert coeffs.source is lv
    x, u, p = np.array([0.5]), np.array([0.2, 0.1]), np.zeros((2, 1))
    a = coeffs.diffusion_matrices(0.0, x, u, 2)
    c = coeffs.source(0.0, x, u, p)
    assert_allclose(a, [[[0.3]], [[0.7]]])
    assert coeffs.drift is None
    assert_allclose(c, [0.2 * (1 - 0.2), 0.1 * (1 - 0.1)], rtol=1e-14)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_problem_spec_rejects_bad_horizon(horizon):
    g = unit_grid(11)
    lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
    with pytest.raises(SpecError):
        build_lv_problem(lv, Field.zeros(g, 1), horizon=horizon)


def test_component_count_must_match_species():
    g = unit_grid(11)
    lv = LVCoefficients(np.array([1.0]), (lambda t, x: 1.0,), ((lambda t, x: 1.0,),))
    initial = Field.zeros(g, 2)
    with pytest.raises(SpecError):
        build_lv_problem(lv, initial, horizon=1.0)


def test_asymmetric_diffusion_rejected():
    coeffs = CoefficientSet(
        diffusion=lambda t, x, u: np.array([[1.0, 0.5], [0.0, 1.0]]),
        drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (2,)),
        source=lambda t, x, u, p: np.zeros_like(u),
    )
    g2 = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (5, 5))
    spec = ProblemSpec(coeffs, Field.zeros(g2, 1), horizon=1.0)
    with pytest.raises(CoefficientError):
        spec.coefficients.diffusion_matrices(0.0, np.array([0.5, 0.5]), np.zeros(1), 1)


def _matrix_set(matrix, full=False):
    """Shared 2 x 2 diffusion: ``matrix`` broadcast to the batch, or a full copy."""
    def diffusion(t, x, u):
        a = np.broadcast_to(matrix, np.asarray(x).shape[:-1] + (2, 2))
        return np.array(a) if full else a

    return CoefficientSet(diffusion=diffusion, drift=None, source=None)


SQUARE_POINTS = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (7, 5)).points


class TestDiffusionOncePerDistinctEntry:
    """The checks see each distinct matrix once and still reject every fault."""

    def test_a_broadcast_nan_still_raises(self):
        coeffs = _matrix_set(np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(CoefficientError, match="non-finite"):
            coeffs.diffusion_matrices(0.0, SQUARE_POINTS, None, 2)

    @pytest.mark.parametrize("full", [False, True])
    def test_an_asymmetric_matrix_still_raises(self, full):
        coeffs = _matrix_set(np.array([[1.0, 0.5], [0.0, 1.0]]), full)
        with pytest.raises(CoefficientError, match="asymmetric"):
            coeffs.diffusion_matrices(0.0, SQUARE_POINTS, None, 2)

    def test_one_asymmetric_node_in_a_full_stack_still_raises(self):
        def diffusion(t, x, u):
            a = np.array(np.broadcast_to(np.eye(2), np.asarray(x).shape[:-1] + (2, 2)))
            a[3, 2, 0, 1] = 1e-6
            return a

        coeffs = CoefficientSet(diffusion=diffusion, drift=None, source=None)
        with pytest.raises(CoefficientError, match="asymmetric"):
            coeffs.diffusion_matrices(0.0, SQUARE_POINTS, None, 2)

    def test_the_shape_error_names_the_evaluators_own_shape(self):
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: np.broadcast_to(np.eye(2), (1, 3, 2, 2)),
            drift=None, source=None)
        with pytest.raises(CoefficientError, match=r"diffusion shape \(1, 3, 2, 2\) not"):
            coeffs.diffusion_matrices(0.0, SQUARE_POINTS, None, 2)

    @pytest.mark.parametrize("per_component", [False, True])
    def test_the_result_is_the_symmetric_part_broadcast_to_the_batch(self, per_component):
        raw = np.array([[2.0, 0.25], [0.25, 3.0]])
        if per_component:
            raw = np.stack([raw, 2.0 * raw])
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: np.broadcast_to(
                raw, np.asarray(x).shape[:-1] + raw.shape),
            drift=None, source=None, per_component_diffusion=per_component)
        a = coeffs.diffusion_matrices(0.0, SQUARE_POINTS, None, 2)
        assert a.shape == (7, 5, 2, 2, 2)
        assert not a.flags.writeable
        want = raw if per_component else np.stack([raw, raw])
        assert np.array_equal(a, np.broadcast_to(want, a.shape))

    @pytest.mark.parametrize("m", [1, 2])
    def test_lv_diffusion_on_a_large_grid_holds_less_than_one_full_stack(self, m):
        g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (201, 201))
        lv = LVCoefficients(np.full(m, 0.1), (parse_coefficient(1.0),) * m,
                            ((parse_coefficient(1.0),) * m,) * m)
        spec = build_lv_problem(lv, Field.zeros(g, m), horizon=1.0)
        x = g.points
        tracemalloc.start()
        try:
            a = spec.coefficients.diffusion_matrices(0.0, x, None, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.shape == (201, 201, m, 2, 2)
        assert np.array_equal(a[100, 100], 0.1 * np.broadcast_to(np.eye(2), (m, 2, 2)))
        assert peak < 8 * 201 * 201 * m * 2 * 2


def test_majorants_shape_constraints():
    with pytest.raises(SpecError):
        Majorants(d1=-1.0)


def test_asymmetry_is_judged_per_matrix_in_a_batch():
    # 1e-11 off is asymmetric next to unit entries, however large the
    # other matrices of the batch are
    def diffusion(t, x, u):
        x = np.asarray(x)
        a = np.zeros(x.shape[:-1] + (2, 2))
        a[..., 0, 0] = a[..., 1, 1] = np.where(x[..., 0] > 0.5, 1e3, 1.0)
        a[..., 0, 1] = 1e-11
        return a

    coeffs = CoefficientSet(diffusion=diffusion, drift=None, source=None)
    x = np.array([[0.2, 0.3], [0.8, 0.3]])
    for batch in (x[:1], x):
        with pytest.raises(CoefficientError):
            coeffs.diffusion_matrices(0.0, batch, np.zeros((len(batch), 1)), 1)
