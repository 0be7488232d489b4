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
from oracles import (dense_axis_matrix, duhamel_rows_reference, heat_gaussian,
                     logistic_exact, picard_source_reference)
from parapos.checker import source_jacobians
from parapos.coefficients import (BumpInSpace, Coefficient, ConstantInSpace,
                                  ConstantInTime, ExpInTime, PowerInTime,
                                  TabulatedCoefficient, build_initial_field)
from parapos.config import load_config_data
from parapos.duhamel import (
    KernelConfig,
    KernelOperator,
    PicardConfig,
    _apply_axis,
    _axis_operator,
    _duhamel_quadrature,
    _lag_evolver,
    _source_at,
    _toeplitz_band,
    duhamel_apply,
    heat_kernel,
    picard_solve,
)
from parapos.errors import (CoefficientError, DomainError, NonContraction,
                            SolverError, SpecError)
from parapos.model import (
    CoefficientSet,
    Field,
    Grid,
    LVCoefficients,
    ProblemSpec,
    SpatialDomain,
    build_lv_problem,
)
from parapos.scenarios import s6_oracle_crosscheck

WIDE = SpatialDomain(((-8.0, 8.0),))
UNIT = SpatialDomain(((0.0, 1.0),))
WIDE_SQUARE = SpatialDomain(((-8.0, 8.0), (-8.0, 8.0)))
UNIT_SQUARE = SpatialDomain(((0.0, 1.0), (0.0, 1.0)))

# Operator families for the batched-quadrature tests.  "taylor": every lag of
# a 24-step window stays under the Taylor threshold, so the kernel route is
# elementwise arithmetic and must match bit for bit.  "dense": long lags take
# the Toeplitz branch, one profile per lag applied as a block-banded product,
# where a stack of slices may round differently from one slice at a time.
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
    return build_lv_problem(lv, UNIT, init, horizon)


class TestHeatKernel:
    def test_one_dimensional_peak_value(self):
        assert heat_kernel(1.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_two_dimensional_peak_value(self):
        assert heat_kernel(1.0, np.zeros(2), 1.0) == pytest.approx(
            0.15915494309189535, abs=1e-15)

    def test_unit_mass(self):
        x = np.linspace(-12.0, 12.0, 2001)
        k = heat_kernel(0.5, x[:, None], 1.3)
        assert abs(np.trapezoid(k, x) - 1.0) <= 1e-10

    def test_rate_time_scaling_is_exact(self):
        x = np.linspace(-3.0, 3.0, 41)[:, None]
        a = heat_kernel(0.7, x, 2.5)
        b = heat_kernel(2.5 * 0.7, x, 1.0)
        assert np.array_equal(a, b)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            heat_kernel(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            heat_kernel(1.0, 0.0, -1.0)


class TestKernelOperator:
    def test_zero_lag_is_the_identity(self):
        g = wide_grid(65)
        op = KernelOperator(g, 1.0, 0.0)
        v = np.sin(g.axes[0])
        out = op.apply(v)
        assert np.array_equal(out, v)
        assert out is not v

    def test_narrow_kernel_uses_the_expansion_branch(self):
        # sigma below the threshold: the operator reduces to
        # I + a L + a^2 L^2 / 2 with the discrete mode eigenvalue
        g = Grid(UNIT, (101,))
        h = g.spacing[0]
        rate, tau = 2e-5, 1.0
        op = KernelOperator(g, rate, tau)
        v = np.sin(np.pi * g.axes[0])
        out = op.apply(v)
        lam = 2.0 * (1.0 - math.cos(math.pi * h)) / h**2
        a = rate * tau / 2.0
        factor = 1.0 - a * lam + 0.5 * (a * lam) ** 2
        assert_allclose(out[2:-2], factor * v[2:-2], rtol=1e-12)

    def test_unresolvable_kernel_rejected(self):
        # sigma = 0.1 on the unit interval loses kernel mass past the walls
        g = Grid(UNIT, (201,))
        with pytest.raises(SolverError) as err:
            KernelOperator(g, 1.0, 0.01)
        assert "mass" in str(err.value)

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            KernelOperator(wide_grid(65), 1.0, -0.1)

    def test_kernel_config_validated(self):
        with pytest.raises(SpecError):
            KernelConfig(truncation_sigmas=4.0)
        with pytest.raises(SpecError):
            KernelConfig(taylor_threshold=0.0)


OFF_TIE_SQUARE = SpatialDomain(((-8.0, 8.0), (-5.0, 5.0)))


def _cutoff(variance):
    return KernelConfig().truncation_sigmas * math.sqrt(variance)


def _assert_off_tie(grid, variance):
    # the cutoff falls between two node offsets, so rounding of x_i - x_j
    # cannot move an entry across it
    for h in grid.spacing:
        ratio = _cutoff(variance) / h
        assert abs(ratio - round(ratio)) > 0.04


class TestToeplitzAxes:
    @pytest.mark.parametrize("tau", [0.37, 0.8, 1.3])
    def test_one_dimensional_apply_matches_the_dense_matrix(self, tau):
        g = wide_grid(129)
        _assert_off_tie(g, tau)
        op = KernelOperator(g, 1.0, tau)
        assert [kind for kind, _ in op.ops] == ["toeplitz"]
        mat = dense_axis_matrix(g.axes[0], g.spacing[0], tau, _cutoff(tau))
        values = np.random.default_rng(11).random((3,) + g.shape)
        want = values @ mat.T
        assert np.abs(op.apply(values) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("tau", [0.37, 0.5])
    def test_two_dimensional_apply_matches_the_dense_matrices(self, tau):
        # hx = 1/8 and hy = 1/6 on 129 x 61 nodes
        g = Grid(OFF_TIE_SQUARE, (129, 61))
        _assert_off_tie(g, tau)
        op = KernelOperator(g, 1.0, tau)
        assert [kind for kind, _ in op.ops] == ["toeplitz", "toeplitz"]
        assert [band.profile.nbytes for _, band in op.ops] == [8 * (2 * n - 1) for n in g.shape]
        mx, my = (dense_axis_matrix(g.axes[ax], g.spacing[ax], tau, _cutoff(tau))
                  for ax in range(2))
        values = np.random.default_rng(12).random((2, 3) + g.shape)
        want = mx @ values @ my.T
        assert np.abs(op.apply(values) - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_tie_at_the_cutoff_keeps_the_band_symmetric(self):
        # variance 1e-4 on 401 nodes of [0, 2]: 7 sigma = 14 h.  The node
        # differences x_i - x_j round to either side of the cutoff, so the
        # matrix h g(x_i - x_j) has a ragged band; the offsets d h do not.
        n = 401
        g = Grid(SpatialDomain(((0.0, 2.0),)), (n,))
        op = KernelOperator(g, 1.0, 1e-4)
        [(kind, (profile, w, s))] = op.ops
        assert kind == "toeplitz" and (w, s) == (14, 16)
        assert profile.shape == (2 * n - 1,)
        offsets = np.arange(n - 1, -n, -1)
        assert np.array_equal(profile, profile[::-1])
        assert np.array_equal(profile != 0, np.abs(offsets) <= 14)
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        band = np.abs(lag) <= 14
        old = dense_axis_matrix(g.axes[0], g.spacing[0], 1e-4, _cutoff(1e-4))
        assert np.count_nonzero((old != 0) != band) > 0
        # the matrix applied is M[i, j] = profile[n - 1 - (i - j)]
        mat = op.apply(np.eye(n)).T
        assert np.array_equal(mat, profile[n - 1 - lag])

    def test_picard_caches_profiles_not_matrices(self, monkeypatch):
        # S6 at 401 nodes: the evolver keeps one operator per (component,
        # half-panel lag), 49 of them, which held 63 MB as n x n matrices
        evolvers = []

        def recording(*args):
            evolvers.append(_lag_evolver(*args))
            return evolvers[-1]

        monkeypatch.setattr("parapos.duhamel._lag_evolver", recording)
        data = s6_oracle_crosscheck()
        data["problem"]["grid"]["nodes"] = [401]
        config = load_config_data(data)
        picard_solve(config.build_problem(),
                     PicardConfig(**config.analysis_data["picard"]))
        [evolve] = evolvers
        cells = dict(zip(evolve.__code__.co_freevars,
                         (c.cell_contents for c in evolve.__closure__)))
        axis_ops = [axis for op in cells["ops"].values() if not op.identity
                    for axis in op.ops]
        toeplitz = [band for kind, band in axis_ops if kind == "toeplitz"]
        assert len(toeplitz) >= 40
        assert all(band.profile.nbytes == 8 * (2 * 401 - 1) for band in toeplitz)
        stored = sum(payload.profile.nbytes if kind == "toeplitz"
                     else np.asarray(payload).nbytes for kind, payload in axis_ops)
        assert stored < 1_000_000


def _toeplitz_case(data, grid):
    """A Toeplitz-branch operator on ``grid`` and a stack of non-negative data."""
    lo = KernelConfig().taylor_threshold * max(grid.spacing)
    hi = min(((n - 1) // 2) * h for n, h in zip(grid.shape, grid.spacing)) / 7.0
    sigma = data.draw(st.floats(lo, hi), label="sigma")
    variance = sigma * sigma
    op = KernelOperator(grid, 1.0, variance)
    assert all(kind == "toeplitz" for kind, _ in op.ops)
    batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    values = data.draw(arrays(float, batch + grid.shape,
                              elements=st.floats(0.0, 1e6), fill=st.just(0.0)),
                       label="values")
    return op, values, _cutoff(variance)


def _reach(mask, axis, width):
    """Nodes within ``width`` of a True entry of ``mask`` along ``axis``."""
    m = np.moveaxis(mask, axis, 0)
    out = m.copy()
    for s in range(1, width + 1):
        out[s:] |= m[:-s]
        out[:-s] |= m[s:]
    return np.moveaxis(out, 0, axis)


class TestToeplitzSignAndSupport:
    """Non-negative data evolves to non-negative data, and nodes farther than
    the band half-width from every nonzero input stay exactly zero."""

    @staticmethod
    def check(op, values, cutoff):
        out = op.apply(values)
        assert not np.signbit(out).any()
        reach = values != 0
        first = values.ndim - op.grid.dimension
        for ax, (_, band) in enumerate(op.ops):
            n, h = op.grid.shape[ax], op.grid.spacing[ax]
            width = int(np.abs(np.flatnonzero(band.profile) - (n - 1)).max())
            assert band.w == width
            assert width * h <= cutoff < (width + 1) * h
            reach = _reach(reach, first + ax, width)
        assert np.all(out[~reach] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), nodes=st.integers(21, 81))
    def test_one_dimensional(self, data, nodes):
        self.check(*_toeplitz_case(data, Grid(UNIT, (nodes,))))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), nx=st.integers(21, 41), ny=st.integers(21, 41))
    def test_two_dimensional(self, data, nx, ny):
        self.check(*_toeplitz_case(data, Grid(UNIT_SQUARE, (nx, ny))))


def _assert_matches_the_matrix(profile, values, axis):
    """``_apply_axis`` against ``M[i, j] = profile[n - 1 - (i - j)]`` in full."""
    n = (len(profile) + 1) // 2
    mat = profile[n - 1 - np.subtract.outer(np.arange(n), np.arange(n))]
    moved = np.moveaxis(values, axis, -1)
    want = np.moveaxis(moved @ mat.T, -1, axis)
    scale = (np.abs(moved) @ np.abs(mat).T).max(initial=0.0)
    got = _apply_axis(("toeplitz", _toeplitz_band(profile)), values, axis, None)
    assert got.shape == values.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-14 * scale


class TestBandedProduct:
    """The Toeplitz branch applies the band in blocks; the result is the
    product with the full matrix of the profile."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(17, 161), dim=st.sampled_from([1, 2]),
           last=st.booleans())
    def test_kernel_profiles(self, data, n, dim, last):
        # half-width w from 8 (the Taylor threshold) up to (n - 1) / 2, the
        # widest band the mass check admits; sigma puts the cutoff off a node
        h = 1.0 / (n - 1)
        w = data.draw(st.integers(8, (n - 1) // 2), label="w")
        lo = max(KernelConfig().taylor_threshold, (w + 0.05) / 7.0)
        sigma = h * data.draw(st.floats(lo, (w + 0.95) / 7.0), label="sigma/h")
        kind, (profile, band_w, s) = _axis_operator(n, h, sigma * sigma, KernelConfig())
        assert kind == "toeplitz"
        assert np.flatnonzero(profile).tolist() == list(range(n - 1 - w, n + w))
        assert (band_w, s) == (w, min(max(w, 16), n))
        other = data.draw(st.integers(1, 5), label="other axis")
        nodes = (n,) if dim == 1 else ((other, n) if last else (n, other))
        batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        values = np.random.default_rng(seed).standard_normal(batch + nodes)
        axis = len(batch) + (dim - 1 if last else 0)
        _assert_matches_the_matrix(profile, values, axis)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_any_band(self, data, n):
        # every half-width, the zero band and one block of all n rows included
        w = data.draw(st.integers(0, n - 1), label="w")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        profile = np.zeros(2 * n - 1)
        profile[n - 1 - w:n + w] = rng.uniform(0.5, 1.0, 2 * w + 1)
        batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
        values = rng.standard_normal(batch + (n,))
        _assert_matches_the_matrix(profile, values, len(batch))

    def test_no_application_allocates_an_n_by_n_matrix(self):
        # 401 nodes, w = 14, a batch of 11 slices: one float matrix over the
        # axis would take 8 n^2 = 1.29 MB
        n = 401
        op = KernelOperator(Grid(SpatialDomain(((0.0, 2.0),)), (n,)), 1.0, 1e-4)
        [(kind, band)] = op.ops
        assert kind == "toeplitz" and np.count_nonzero(band.profile) == 29
        values = np.random.default_rng(3).random((11, n))
        tracemalloc.start()
        try:
            op.apply(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4


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


def _assert_kernel_match(branch, got, want):
    if branch == "taylor":
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestBatchedQuadrature:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("comps", [1, 2])
    @pytest.mark.parametrize("span", [1, 2, 3, 24])
    def test_all_rows_match_the_row_by_row_reference(self, branch, dim, comps, span):
        grid, rates, dt, history = _branch_case(branch, dim, comps, span)

        def operator(k, half_steps):
            return KernelOperator(grid, float(rates[k]), half_steps * dt / 2.0)

        want = duhamel_rows_reference(history, operator)
        evolve = _lag_evolver(grid, rates, dt, KernelConfig())
        got = _duhamel_quadrature(history, evolve)
        assert got.shape == want.shape
        _assert_kernel_match(branch, got, want)
        # the single-row form duhamel_apply uses
        _assert_kernel_match(branch, _duhamel_quadrature(history, evolve, first=span),
                             want[-1:])

    def test_dense_family_reaches_the_dense_branch(self):
        grid, rates, dt, _ = _branch_case("dense", 2, 2, 24)
        op = KernelOperator(grid, float(rates[0]), 24 * dt)
        assert [kind for kind, _ in op.ops] == ["toeplitz", "toeplitz"]
        grid, rates, dt, _ = _branch_case("taylor", 2, 2, 24)
        op = KernelOperator(grid, float(rates[0]), 24 * dt)
        assert [kind for kind, _ in op.ops] == ["taylor", "taylor"]

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_stack_matches_slice_by_slice_application(self, branch, dim):
        grid, rates, dt, history = _branch_case(branch, dim, 2, 3)
        op = KernelOperator(grid, float(rates[0]), 3 * dt)
        got = op.apply(history)
        want = np.empty_like(history)
        for idx in np.ndindex(history.shape[:2]):
            want[idx] = op.apply(history[idx])
        _assert_kernel_match(branch, got, want)

    def test_duhamel_apply_evolves_each_slice_once(self, monkeypatch):
        # only the requested row: one slice per lag and component, plus the
        # midpoint panel and the homogeneous part
        g = wide_grid(65)
        slices = []
        original = KernelOperator.apply

        def counting(self, values):
            slices.append(values.size // g.shape[0])
            return original(self, values)

        monkeypatch.setattr(KernelOperator, "apply", counting)
        tau, steps = 0.5, 10
        src = np.ones((steps + 1, 2) + g.shape)
        duhamel_apply(np.zeros((2,) + g.shape), g, [1.0, 0.5], tau,
                      source=src, source_times=np.linspace(0.0, tau, steps + 1))
        assert sum(slices) == 2 * (steps + 2)


class TestDuhamelApply:
    def test_gaussian_widens_by_the_kernel_variance(self):
        g = wide_grid()
        x = g.axes[0]
        sigma0, rate, tau = 0.7, 1.0, 0.5
        init = np.exp(-(x**2) / (2 * sigma0**2))[None]
        out = duhamel_apply(init, g, rate, tau)
        assert_allclose(out[0], heat_gaussian(x, tau, rate, sigma0), atol=1e-10)

    def test_zero_lag_returns_a_copy(self):
        g = wide_grid(65)
        init = np.exp(-g.axes[0] ** 2)[None]
        out = duhamel_apply(init, g, 1.0, 0.0)
        assert np.array_equal(out, init)
        assert out is not init

    def test_constant_source_accumulates_linearly(self):
        g = wide_grid()
        tau = 0.5
        stimes = np.linspace(0.0, tau, 51)
        src = np.ones((51, 1) + g.shape)
        out = duhamel_apply(np.zeros((1,) + g.shape), g, 1.0, tau,
                            source=src, source_times=stimes)
        interior = np.abs(g.axes[0]) < 2.0
        assert_allclose(out[0, interior], tau, atol=1e-10)

    def test_semigroup_composition(self):
        g = wide_grid()
        init = np.exp(-g.axes[0] ** 2)[None]
        twice = duhamel_apply(duhamel_apply(init, g, 1.0, 0.3), g, 1.0, 0.3)
        once = duhamel_apply(init, g, 1.0, 0.6)
        assert np.abs(twice - once).max() <= 1e-10

    def test_per_component_rates(self):
        g = wide_grid()
        x = g.axes[0]
        init = np.stack([np.exp(-(x**2) / 2.0), np.exp(-(x**2) / 2.0)])
        out = duhamel_apply(init, g, [1.0, 4.0], 0.25)
        assert_allclose(out[0], heat_gaussian(x, 0.25, 1.0, 1.0), atol=1e-10)
        assert_allclose(out[1], heat_gaussian(x, 0.25, 4.0, 1.0), atol=1e-10)

    def test_source_history_contract_enforced(self):
        g = wide_grid(65)
        zero = np.zeros((1,) + g.shape)
        src = np.ones((11, 1) + g.shape)
        with pytest.raises(SpecError):
            duhamel_apply(zero, g, 1.0, 0.5, source=src)  # no lattice
        with pytest.raises(SpecError):
            duhamel_apply(zero, g, 1.0, 0.5, source=src,
                          source_times=np.linspace(0.0, 0.4, 11))  # wrong endpoint
        ragged = np.linspace(0.0, 0.5, 11) ** 1.2
        with pytest.raises(SpecError):
            duhamel_apply(zero, g, 1.0, 0.5, source=src, source_times=ragged)
        with pytest.raises(SpecError):
            duhamel_apply(zero, g, 1.0, 0.5, source=np.ones((1, 1) + g.shape),
                          source_times=np.array([0.0]))


class TestPicard:
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
        res = picard_solve(spec, PicardConfig(dt=0.01, burn_in=2))
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
        spec = build_lv_problem(lv, UNIT, init, horizon=0.2)
        res = picard_solve(spec, PicardConfig(dt=0.01))
        assert res.iterations == [1]
        hom = duhamel_apply(init.values, g, 0.02, 0.2)
        assert np.array_equal(res.final_values, hom)

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
        spec = build_lv_problem(lv, UNIT, init, horizon=0.5)
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
        spec = ProblemSpec(UNIT, coeffs, Field.zeros(g, 1), horizon=0.1)
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

    def test_state_dependent_diffusion_rejected(self):
        g = Grid(UNIT, (101,))
        coeffs = CoefficientSet(
            diffusion=lambda t, x, u: np.broadcast_to(
                (0.01 + np.asarray(t))[..., None, None] * np.eye(1),
                np.asarray(x).shape[:-1] + (1, 1)),
            drift=lambda t, x, u, p: np.zeros(np.asarray(x).shape[:-1] + (1,)),
            source=lambda t, x, u, p: np.zeros_like(u),
        )
        spec = ProblemSpec(UNIT, coeffs, Field.zeros(g, 1), horizon=0.1)
        with pytest.raises(SpecError):
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
    spec = build_lv_problem(lv, domain, Field.zeros(grid, m), horizon=1.0)
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
        spec = build_lv_problem(lv, UNIT_SQUARE, Field.zeros(grid, m), horizon=1.0)
        window = np.random.default_rng(1).uniform(0.0, 2.0, (span + 1, m) + grid.shape)
        t, x = _window_points(grid, 0.0, 0.01, span)
        _source_at(spec, t, x, window)  # build the memoised profiles outside the trace
        tracemalloc.start()
        try:
            _source_at(spec, t, x, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (span + 1) * grid.n_nodes * m * m
