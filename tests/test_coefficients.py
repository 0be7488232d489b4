import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from parapos.coefficients import (
    Coefficient,
    ConstantInSpace,
    ConstantInTime,
    ExpInTime,
    PowerInTime,
    TabulatedCoefficient,
    build_initial_field,
    parse_coefficient,
    read_table_lattice,
)
from parapos.errors import ConfigError, SpecError
from parapos.model import Grid, LVCoefficients, SpatialDomain

X1 = np.array([[0.25], [0.5], [0.75]])


def grid1d(n=101, lo=0.0, hi=1.0):
    return Grid(SpatialDomain(((lo, hi),)), (n,))


def test_exp_family_value_and_limit():
    c = parse_coefficient({"family": "exp", "base": 0.5, "amplitude": 1.5, "rate": 2.0})
    assert_allclose(c(0.0, X1), 2.0)
    assert_allclose(c(1.0, X1), 0.5 + 1.5 * math.exp(-2.0))
    assert c.limit == 0.5


def test_exp_family_zero_rate_limit_is_full_value():
    assert ExpInTime(0.3, 0.7, 0.0).limit == pytest.approx(1.0)
    with pytest.raises(SpecError):
        ExpInTime(0.0, 1.0, -1.0)


def test_power_family():
    c = parse_coefficient({"family": "power", "scale": 2.0, "exponent": 2.0})
    assert_allclose(c(1.0, X1), 0.5)
    assert c.limit == 0.0
    with pytest.raises(SpecError):
        PowerInTime(1.0, 0.0)


def test_bare_number_is_a_constant():
    c = parse_coefficient(1.25)
    assert_allclose(c(3.7, X1), 1.25)
    assert c.limit == 1.25


def test_separable_bump_profile():
    c = parse_coefficient({
        "family": "separable",
        "time": {"family": "constant", "value": 2.0},
        "space": {"kind": "bump", "center": [0.5], "radius": 0.4, "width": 0.2, "amplitude": 0.5},
    })
    # at the bump center the plateau contributes its full amplitude
    assert_allclose(c(0.0, np.array([[0.5]])), 2.0 * 1.5)
    # far outside the bump only the baseline 1 survives
    assert_allclose(c(0.0, np.array([[0.0]])), 2.0)
    prof = c.limit_profile(np.array([[0.5], [0.0]]))
    assert_allclose(prof, [3.0, 2.0])


def test_parse_rejects_unknown_family_with_pointer():
    with pytest.raises(ConfigError) as err:
        parse_coefficient({"family": "sinusoid"}, pointer="/lv/growth/0")
    assert "/lv/growth/0" in str(err.value)


def test_parse_rejects_non_numeric():
    with pytest.raises(ConfigError):
        parse_coefficient(True)
    with pytest.raises(ConfigError):
        parse_coefficient("fast")


def test_tabulated_interpolation_and_clamping(tmp_path):
    path = tmp_path / "beta.csv"
    rows = ["t,x1,value"]
    for t in (0.0, 1.0):
        for x in (0.0, 0.5, 1.0):
            rows.append(f"{t},{x},{t + x}")
    path.write_text("\n".join(rows) + "\n")
    c = TabulatedCoefficient.from_csv(path)
    assert_allclose(c(0.5, np.array([[0.25]])), 0.75)
    # time clamps to the last lattice row; space extrapolates linearly
    assert_allclose(c(5.0, np.array([[0.5]])), 1.5)
    assert c.limit is None
    assert_allclose(c.limit_profile(np.array([[0.0]])), 1.0)


_BUMP_2D = {"kind": "bump", "center": [0.4, 0.6], "radius": 0.3, "width": 0.2,
            "amplitude": 0.5}
_CONTRACT_CASES = {
    "constant": {"family": "constant", "value": 1.5},
    "exp": {"family": "exp", "base": 0.5, "amplitude": 1.5, "rate": 0.7},
    "power": {"family": "power", "scale": 2.0, "exponent": 1.7},
    "bump": {"family": "separable", "space": _BUMP_2D,
             "time": {"family": "exp", "base": 1.0, "amplitude": -0.5, "rate": 1.3}},
    "table": {"family": "table", "path": "table.csv"},
}


def _contract_samples(count=256):
    # times run past both ends of the table's [0, 2] so each row clamps alone
    rng = np.random.default_rng(3)
    return rng.uniform(-0.5, 3.0, count), rng.random((count, 2))


def _write_table(base):
    rows = ["t,x1,x2,value"]
    for t in (0.0, 0.5, 2.0):
        for x1 in (0.0, 0.3, 1.0):
            for x2 in (0.0, 0.6, 1.0):
                rows.append(f"{t},{x1},{x2},{math.sin(1.0 + t + 2.0 * x1 - x2)!r}")
    (base / "table.csv").write_text("\n".join(rows) + "\n")


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("case", sorted(_CONTRACT_CASES))
def test_an_array_t_gives_the_bits_of_per_sample_scalar_calls(tmp_path, case):
    _write_table(tmp_path)
    coeff = parse_coefficient(_CONTRACT_CASES[case], base_dir=tmp_path)
    t, x = _contract_samples()
    per_sample = np.array([coeff(float(ti), xi) for ti, xi in zip(t, x)])
    batched = coeff(t, x)
    assert batched.shape == t.shape
    assert _bits(batched) == _bits(per_sample)
    # any batch shape, not only a flat one
    assert _bits(coeff(t.reshape(16, 16), x.reshape(16, 16, 2)).ravel()) == _bits(per_sample)


def test_lv_source_with_an_array_t_gives_the_bits_of_per_sample_calls(tmp_path):
    _write_table(tmp_path)
    c = {name: parse_coefficient(spec, base_dir=tmp_path)
         for name, spec in _CONTRACT_CASES.items()}
    lv = LVCoefficients(np.array([0.1, 0.2]), (c["exp"], c["bump"]),
                        ((c["constant"], c["power"]), (c["table"], c["bump"])))
    t, x = _contract_samples()
    u = np.random.default_rng(4).random((len(t), 2))
    per_sample = np.array([lv(float(ti), xi, ui) for ti, xi, ui in zip(t, x, u)])
    assert _bits(lv(t, x, u)) == _bits(per_sample)


_FINITE = {"allow_nan": False, "allow_infinity": False}
_TIME_PARTS = st.one_of(
    st.builds(ConstantInTime, st.floats(-10.0, 10.0, **_FINITE)),
    st.builds(ExpInTime, st.floats(-5.0, 5.0, **_FINITE), st.floats(-5.0, 5.0, **_FINITE),
              st.floats(0.0, 50.0, **_FINITE)),
    st.builds(PowerInTime, st.floats(0.01, 10.0, **_FINITE), st.floats(0.01, 8.0, **_FINITE)),
)


def _scalar_and_vector_bits(part, ts):
    ts = np.array(ts)
    vector = np.broadcast_to(part(ts), ts.shape)
    return _bits(vector), _bits([part(t) for t in ts.tolist()])


@settings(max_examples=300, deadline=None)
@given(part=_TIME_PARTS,
       ts=st.lists(st.floats(0.0, 800.0, **_FINITE), min_size=1, max_size=70))
def test_a_vector_time_part_gives_the_bits_of_scalar_calls(part, ts):
    # exp(-rate t) runs through the subnormals to 0 at rate t near 708-745
    vector, scalar = _scalar_and_vector_bits(part, ts)
    assert vector == scalar


@settings(max_examples=100, deadline=None)
@given(part=_TIME_PARTS, dt=st.floats(1e-4, 0.5, **_FINITE), steps=st.integers(1, 3000))
def test_a_vector_time_part_gives_the_bits_of_scalar_calls_on_the_march_lattice(part, dt,
                                                                                 steps):
    # the times the march visits: t += dt, accumulated
    t, ts = 0.0, [0.0]
    for _ in range(steps):
        t += dt
        ts.append(t)
    vector, scalar = _scalar_and_vector_bits(part, ts)
    assert vector == scalar


@pytest.mark.parametrize("rate", [1.0, 3.7, 50.0])
def test_a_vector_exp_time_part_gives_the_bits_of_scalar_calls_through_underflow(rate):
    ts = np.linspace(700.0, 750.0, 4001) / rate
    vector, scalar = _scalar_and_vector_bits(ExpInTime(0.0, 1.5, rate), ts)
    assert vector == scalar
    tail = ExpInTime(0.0, 1.0, rate)(ts)
    assert (tail == 0.0).any() and ((tail > 0.0) & (tail < np.finfo(float).tiny)).any()


def test_tabulated_rejects_incomplete_lattice(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,value\n0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(ConfigError):
        TabulatedCoefficient.from_csv(path)


@pytest.mark.parametrize("body, message", [
    ("0,0,1\n0,0,2\n1,1,3\n0,1,4\n", "complete lattice"),  # (1, 0) missing, (0, 0) twice
    ("0,0,1\n0,1\n", "has 2 cells"),
    ("0,0,1\n0,1,x\n", "not a number"),
    ("0,0,1\nnan,1,2\n", "finite"),
    ("", "complete lattice"),
])
def test_the_lattice_reader_names_each_fault(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,value\n" + body)
    with pytest.raises(ConfigError, match=message) as err:
        read_table_lattice(path, "/growth/0/path")
    assert err.value.pointer == "/growth/0/path"


def test_the_lattice_reader_sorts_rows_in_any_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("t,x1,x2,value\n1,0,1,6\n0,1,0,3\n0,0,0,1\n1,1,1,8\n"
                    "0,0,1,2\n1,0,0,5\n0,1,1,4\n1,1,0,7\n")
    t_values, axes, table = read_table_lattice(path)
    assert t_values.tolist() == [0.0, 1.0]
    assert [a.tolist() for a in axes] == [[0.0, 1.0], [0.0, 1.0]]
    assert table.tolist() == [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]


def test_sine_profile_matches_formula_and_boundary():
    g = grid1d(101)
    fld = build_initial_field(g, [{"kind": "sine", "amplitude": 0.3, "mode": 2}])
    x = g.axes[0]
    assert_allclose(fld.values[0], 0.3 * np.sin(2 * np.pi * x), atol=1e-15)
    assert fld.values[0, 0] == 0.0 and fld.values[0, -1] == 0.0


def test_plateau_profile_flat_top():
    g = grid1d(201)
    fld = build_initial_field(
        g, [{"kind": "plateau", "amplitude": 0.8, "center": [0.5], "radius": 0.3, "width": 0.1}]
    )
    x = g.axes[0]
    inner = np.abs(x - 0.5) <= 0.2 - 1e-12
    assert_allclose(fld.values[0, inner], 0.8)
    outer = np.abs(x - 0.5) >= 0.3 + 1e-12
    assert_allclose(fld.values[0, outer], 0.0)


def test_bump_profile_value_and_support():
    g = grid1d(401)
    fld = build_initial_field(
        g, [{"kind": "bump", "amplitude": 2.0, "center": [0.5], "radius": 0.25}]
    )
    x = g.axes[0]
    k = np.argmin(np.abs(x - 0.5))
    assert fld.values[0, k] == pytest.approx(2.0)
    expect = 2.0 * (1.0 - (0.125 / 0.25) ** 2) ** 2
    k2 = np.argmin(np.abs(x - 0.625))
    assert fld.values[0, k2] == pytest.approx(expect)
    assert np.all(fld.values[0, np.abs(x - 0.5) >= 0.25] == 0.0)


def test_gaussian_profile_width_convention():
    g = grid1d(201)
    fld = build_initial_field(
        g, [{"kind": "gaussian", "amplitude": 1.0, "center": [0.5], "width": 0.1}]
    )
    x = g.axes[0]
    k = np.argmin(np.abs(x - 0.6))  # one standard deviation out
    assert fld.values[0, k] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_hat_profile_is_piecewise_linear_with_kink():
    g = grid1d(101)
    fld = build_initial_field(g, [{"kind": "hat", "amplitude": 0.4}])
    x = g.axes[0]
    assert fld.values[0, 50] == pytest.approx(0.4)
    assert_allclose(fld.values[0, x <= 0.5], 0.8 * x[x <= 0.5], atol=1e-15)


def test_product_profile_multiplies():
    g = grid1d(101)
    parts = [
        {"kind": "gaussian", "amplitude": 1.0, "center": [0.5], "width": 0.2},
        {"kind": "plateau", "amplitude": 1.0, "center": [0.5], "radius": 0.4, "width": 0.1},
    ]
    fld = build_initial_field(g, [{"kind": "product", "profiles": parts}])
    g1 = build_initial_field(g, [parts[0]]).values[0]
    g2 = build_initial_field(g, [parts[1]]).values[0]
    assert_allclose(fld.values[0], g1 * g2, atol=1e-15)


def test_initial_field_two_dimensional():
    g = Grid(SpatialDomain(((0.0, 1.0), (0.0, 1.0))), (21, 21))
    fld = build_initial_field(g, [{"kind": "sine", "amplitude": 1.0}])
    pts = g.points
    expect = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
    assert_allclose(fld.values[0], expect, atol=1e-14)


def test_unknown_profile_kind_reports_component_pointer():
    g = grid1d(11)
    with pytest.raises(ConfigError) as err:
        build_initial_field(g, [{"kind": "zero"}, {"kind": "mystery"}])
    assert "/problem/initial/1" in str(err.value)


def test_coefficient_without_limit_raises_on_limit_profile():
    c = Coefficient(lambda t: 1.0, ConstantInSpace())
    with pytest.raises(SpecError):
        c.limit_profile(np.array([[0.0]]))
