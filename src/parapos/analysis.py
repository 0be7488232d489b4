"""A priori bounds and post-processing of computed trajectories.

This module holds the quantitative conclusions that the solvers are tested
against: the exponential sup-norm barrier, per-component carrying-capacity
bounds, the integrated-growth extinction bound, monotonicity detection on
trajectories, steady-state extraction, and weak residuals of steady states
against the limiting elliptic system, a :class:`FrozenSystem` frozen at the
limit.  Inputs are arrays (or plain numbers for a sup) together with an
explicit grid or domain; nothing is read off a ``Field``.

The monotonicity rates, their argmin and the sup are read off the stored
trajectory in spans of snapshots, ``model.SPAN_BYTES`` at a time (the budget
of the march's own span of states), and give the bits of one ``argmin``
over all snapshot pairs.  ``component_bound_mk`` reads its early snapshots
as a prefix view.

Weak residuals use compactly supported quartic bumps as test functions.  In
one dimension the quadrature partition is augmented with the exact support
endpoints, because the bump's second derivative jumps there and plain
node-aligned trapezoid sums would pay a first-order penalty for it.  In two
dimensions a plain trapezoid sum over the grid is used; it converges more
slowly near the support circle, which is acceptable because no quantitative
gate binds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivisionDomainError, IntegrabilityError, SpecError
from .model import SPAN_BYTES, FrozenSystem, Grid

RESIDUAL_FLOOR = 1e-12
BOUND_DOUBLINGS = 20          # carrying bound: ratio sampled at t_split * 2**j, j <= this
BOUND_SPACE_SAMPLES = 33      # carrying bound: nodes per axis, at most
GROWTH_WINDOW_NODES = 257     # growth integral: Simpson nodes per window
GROWTH_SPACE_SAMPLES = 65     # growth integral: space samples per axis
GROWTH_MAX_DOUBLINGS = 60     # growth integral: windows before it is non-integrable
GROWTH_TAIL_TOL = 1e-10       # growth integral: a window contribution that ends it
MONOTONE_TOL_FACTOR = 1e-8    # monotonicity tolerance per unit of 1 + sup|u|


def _sup_of(data):
    """Sup of |data| for an array or a plain number."""
    return float(np.abs(np.asarray(data, dtype=float)).max())


# ----------------------------------------------------------- test functions

@dataclass(frozen=True)
class TestFunction:
    """Quartic bump (1 - |x - center|^2 / r^2)^2, zero outside the ball.

    Once continuously differentiable across the support sphere, with an
    explicit Laplacian whose value jumps to zero there; integration routines
    must treat the sphere as a panel boundary to keep their order.
    """

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise SpecError("test function radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dimension(self):
        return len(self.center)

    def _q(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        diff = arr - np.asarray(self.center)
        return (diff * diff).sum(axis=-1)

    def __call__(self, x):
        q = self._q(x)
        r2 = self.radius**2
        inside = q <= r2
        out = np.zeros_like(q)
        out[inside] = (1.0 - q[inside] / r2) ** 2
        return out

    def laplacian(self, x):
        """Pointwise Laplacian, using the inside limit on the support sphere."""
        q = self._q(x)
        n = self.dimension
        r2 = self.radius**2
        inside = q <= r2 * (1.0 + 1e-14)
        out = np.zeros_like(q)
        qi = np.minimum(q[inside], r2)
        out[inside] = (-4.0 / r2) * (n - (n + 2.0) * qi / r2)
        return out

    def support_bounds(self):
        return tuple((c - self.radius, c + self.radius) for c in self.center)


def bump_battery(centers, radius):
    """A list of quartic bumps sharing one radius."""
    out = []
    for c in centers:
        center = (c,) if np.ndim(c) == 0 else tuple(c)
        out.append(TestFunction(center=center, radius=radius))
    return out


def default_battery(domain):
    """Five bumps on an interior lattice, radius a fifth of the domain width."""
    lows = np.asarray([b[0] for b in domain.bounds])
    widths = np.asarray([b[1] - b[0] for b in domain.bounds])
    radius = 0.2 * float(widths.min())
    n = domain.dimension
    if n == 1:
        fractions = [(f,) for f in np.linspace(0.3, 0.7, 5)]
    else:
        mid = (0.5,) * n
        fractions = [mid]
        for axis in range(n):
            for f in (0.35, 0.65):
                c = list(mid)
                c[axis] = f
                fractions.append(tuple(c))
        fractions = fractions[:5]
    centers = [tuple(lows + widths * np.asarray(f)) for f in fractions]
    return bump_battery(centers, radius)


# ------------------------------------------------------------------ bounds

def max_principle_bound(d1, d2, horizon, initial):
    """Exponential sup-norm barrier max(e^{(d2+1) T} sup|initial|, sqrt(d1))."""
    if horizon <= 0:
        raise SpecError("horizon must be positive")
    if d1 < 0 or d2 < 0:
        raise SpecError("the dissipativity constants must be non-negative")
    return max(math.exp((d2 + 1.0) * horizon) * _sup_of(initial), math.sqrt(d1))


def _limit_value(coefficient, x):
    """The limit of ``coefficient`` on ``x``: its ``limit_profile``, else its value at t = 1e9."""
    limit = getattr(coefficient, "limit_profile", None)
    return limit(x) if limit is not None else coefficient(1e9, x)


def component_bound_mk(trajectory, beta, gamma_kk, t_split, component):
    """Carrying bound: max of the early trajectory sup and sup(beta/gamma) later.

    The trajectory's ``component`` is bounded on [0, t_split] by its
    computed sup; past the split the bound is the sampled sup of the ratio
    of growth to self-limitation, taken at doubling times and at the limit
    itself (:func:`_limit_value`).
    """
    vals = trajectory.values
    m = vals.shape[1]
    if not 0 <= component < m:
        raise SpecError(f"component {component} out of range for {m} components")
    if not 0 < t_split <= trajectory.times[-1] + 1e-12:
        raise SpecError("the split time must lie inside the computed horizon")

    # the times are sorted, so the early snapshots are a prefix
    early = int(np.searchsorted(trajectory.times, t_split + 1e-12, side="right"))
    traj_sup = float(vals[:early, component].max())

    grid = trajectory.grid
    mesh = Grid(grid.domain,
                [min(BOUND_SPACE_SAMPLES, nn) for nn in grid.shape]).points

    def ratio_sup(bvals, gvals):
        bvals, gvals = (np.broadcast_to(np.asarray(w, dtype=float), mesh.shape[:-1])
                        for w in (bvals, gvals))
        gmin = float(np.min(gvals))
        if gmin <= 0.0:
            raise DivisionDomainError(
                "self-limitation is not positive on the sampled tail; the "
                "carrying bound divides by it")
        return float(np.max(bvals / gvals))

    times = [float(t_split * 2.0**j) for j in range(BOUND_DOUBLINGS + 1)]
    tail_sup = max(-np.inf, *(ratio_sup(beta(t, mesh), gamma_kk(t, mesh)) for t in times),
                   ratio_sup(_limit_value(beta, mesh), _limit_value(gamma_kk, mesh)))
    return max(traj_sup, tail_sup)


def integrated_growth(coefficient, domain):
    """Integral over [0, infinity) of the spatial sup of a growth coefficient.

    Integrates window by window over [0,1], [1,2], [2,4], ... with Simpson's
    rule and stops when a window contributes less than ``GROWTH_TAIL_TOL``
    while the contributions are shrinking.  If the contributions refuse to
    die out the integral is declared non-integrable.
    """
    from scipy.integrate import simpson  # deferred: README "Set-up cost"
    mesh = Grid(domain, (GROWTH_SPACE_SAMPLES,) * domain.dimension).points

    def sup_at(t):
        return float(np.max(coefficient(float(t), mesh)))

    total = 0.0
    lo, hi = 0.0, 1.0
    previous = np.inf
    for _ in range(GROWTH_MAX_DOUBLINGS):
        ts = np.linspace(lo, hi, GROWTH_WINDOW_NODES)
        vals = np.asarray([sup_at(t) for t in ts])
        piece = float(simpson(vals, x=ts))
        total += piece
        if abs(piece) < GROWTH_TAIL_TOL and abs(piece) <= previous:
            return total
        previous = abs(piece)
        lo, hi = hi, 2.0 * hi
    raise IntegrabilityError(
        f"growth integral tail is still {previous:g} after {GROWTH_MAX_DOUBLINGS} "
        f"window doublings; the extinction bound needs an integrable sup")


def gronwall_extinction_bound(initial, coefficient, domain):
    """Sup-norm barrier sup|initial| * exp(integral of the growth sup over ``domain``).

    ``initial`` is the component's initial data, an array or its sup.
    """
    return _sup_of(initial) * math.exp(integrated_growth(coefficient, domain))


# ----------------------------------------------------------- trajectories

class MonotoneVerdict(NamedTuple):
    passed: bool
    worst_margin: float
    witness: dict


def _parse_sign(expected_sign):
    if expected_sign in (1, "+"):
        return 1.0
    if expected_sign in (-1, "-"):
        return -1.0
    raise SpecError(f"expected_sign must be + or -, got {expected_sign!r}")


def detect_monotone(trajectory, component, expected_sign):
    """Check one component's stored snapshots move only in the expected direction.

    The margin at a node is the discrete time difference quotient times the
    expected sign; the verdict passes when the worst margin stays above
    -tol_mono with tol_mono = MONOTONE_TOL_FACTOR * (1 + sup|u|).  The worst
    margin is taken over interior nodes only, since the wall nodes are pinned
    to zero and would hold it at 0.  The witness points at the worst node
    (full-grid indices) and snapshot pair.  The snapshots are read in spans
    of ``SPAN_BYTES`` (at least one pair of snapshots each), and an
    ``argmin`` over the span minima picks the one ``argmin`` over all pairs
    would: the earliest pair and node win a tie, and a NaN wins outright.
    """
    sign = _parse_sign(expected_sign)
    vals = trajectory.values
    times = trajectory.times
    if vals.shape[0] < 3:
        raise SpecError("monotonicity detection needs at least three snapshots")
    m = vals.shape[1]
    if not 0 <= component < m:
        raise SpecError(f"component {component} out of range for {m} components")
    series = vals[:, component]
    inner = (slice(None),) + trajectory.grid.interior_slices
    shaper = (slice(None),) + (None,) * (series.ndim - 1)
    pairs = len(times) - 1
    step = max(1, SPAN_BYTES // series[0].nbytes)
    lows, wheres, sups = [], [], []
    for start in range(0, pairs, step):
        # the next span starts on this span's last snapshot
        span = series[start:min(start + step, pairs) + 1]
        sups.append(np.abs(span).max())
        interior = span[inner]
        rates = np.subtract(interior[1:], interior[:-1])
        rates *= sign
        rates /= np.diff(times[start:start + len(span)])[shaper]
        at = np.unravel_index(int(rates.argmin()), rates.shape)
        lows.append(rates[at])
        wheres.append((start + at[0], *at[1:]))
    first = int(np.argmin(lows))
    worst, where = float(lows[first]), wheres[first]
    sup = float(np.max(sups))
    tol = MONOTONE_TOL_FACTOR * (1.0 + sup)
    witness = {
        "t_from": float(times[where[0]]),
        "t_to": float(times[where[0] + 1]),
        "node": tuple(int(i) + 1 for i in where[1:]),
        "rate": worst if sign > 0 else -worst,
    }
    return MonotoneVerdict(passed=bool(worst >= -tol), worst_margin=worst,
                           witness=witness)


@dataclass
class SteadyStateReport:
    """Late-time state of a run plus the evidence that it stopped moving.

    The residual slot starts empty; the steady-state pipeline fills it in
    after evaluating the weak-form battery, and the invariant (two equations
    per test function) is enforced at that point.
    """

    reached: bool
    tail_slope: float
    window: float
    steady_tol: float
    values: np.ndarray
    residuals: np.ndarray | None = None

    def attach_residuals(self, residuals):
        residuals = np.asarray(residuals, dtype=float)
        if residuals.ndim != 2 or residuals.shape[1] != 2:
            raise SpecError("residuals must form (test function, equation) pairs")
        self.residuals = residuals

    def to_json(self):
        out = {
            "reached": bool(self.reached),
            "tail_slope": float(self.tail_slope),
            "window": float(self.window),
            "steady_tol": float(self.steady_tol),
            "components": int(self.values.shape[0]),
            "shape": [int(s) for s in self.values.shape[1:]],
            "component_sup": [float(np.abs(v).max()) for v in self.values],
            # the tail slope is the largest drift, which is never negative
            "max_drift": float(self.tail_slope),
        }
        out["residuals"] = (None if self.residuals is None
                            else [[float(r) for r in row] for row in self.residuals])
        return out


def extract_steady_state(trajectory, window_fraction=0.1, steady_tol=1e-8):
    """Measure the drift over the final window and extract the late state.

    The tail slope is sup|u(t_final) - u(t_final - w)| / w with w the given
    fraction of the horizon, snapped to the nearest stored snapshot.  A slope
    at or under ``steady_tol`` marks the state as reached; otherwise the
    report simply says so (no error).
    """
    if not 0 < window_fraction <= 1:
        raise SpecError("window_fraction must lie in (0, 1]")
    vals = trajectory.values
    times = trajectory.times
    if len(times) < 2:
        raise SpecError("steady-state extraction needs at least two snapshots")
    horizon = float(times[-1])
    target = horizon - window_fraction * horizon
    anchor = int(np.searchsorted(times, target + 1e-12, side="right") - 1)
    anchor = min(max(anchor, 0), len(times) - 2)
    window = horizon - float(times[anchor])
    tail_slope = float((np.abs(vals[-1] - vals[anchor]) / window).max())
    return SteadyStateReport(
        reached=bool(tail_slope <= steady_tol),
        tail_slope=tail_slope,
        window=window,
        steady_tol=steady_tol,
        values=vals[-1].copy(),
    )


class ExtinctionVerdict(NamedTuple):
    extinct: bool
    final_sup: float
    peak_sup: float
    tail_decreasing: bool


def sup_norm_series(trajectory, component):
    """Times and sup norms of one component across the stored snapshots."""
    series = np.abs(trajectory.values[:, component]).max(
        axis=tuple(range(1, trajectory.values.ndim - 1)))
    return trajectory.times, series


def extinction_check(trajectory, component, tol_ext=1e-3, window_fraction=0.1):
    """Decide whether a species died out by the end of the run.

    Extinct means the final sup norm is at or under ``tol_ext`` while the
    sup-norm series is non-increasing over the final window (so the smallness
    is an arrival, not a transit).
    """
    times, series = sup_norm_series(trajectory, component)
    final_sup = float(series[-1])
    peak = float(series.max())
    horizon = float(times[-1])
    tail = series[np.asarray(times) >= horizon * (1.0 - window_fraction) - 1e-12]
    slack = 1e-12 * (1.0 + peak)
    decreasing = bool(len(tail) >= 2 and np.all(np.diff(tail) <= slack))
    return ExtinctionVerdict(
        extinct=bool(final_sup <= tol_ext and decreasing),
        final_sup=final_sup,
        peak_sup=peak,
        tail_decreasing=decreasing,
    )


# -------------------------------------------------------- weak residuals

def _merged_partition_1d(axis, a, b):
    """Grid nodes inside (a, b) together with the exact endpoints."""
    interior = axis[(axis > a + 1e-15) & (axis < b - 1e-15)]
    xs = np.concatenate(([a], interior, [b]))
    return xs


def _check_support(test, domain):
    for (sa, sb), (lo, hi) in zip(test.support_bounds(), domain.bounds):
        if not (sa > lo + 1e-15 and sb < hi - 1e-15):
            raise SpecError(
                f"test function support [{sa:g}, {sb:g}] is not strictly "
                f"inside the domain [{lo:g}, {hi:g}]")


def _weak_residual_1d(grid, u_nodes, diffusion, source_nodes, test):
    axis = np.asarray(grid.axes[0])
    (a, b), = test.support_bounds()
    xs = _merged_partition_1d(axis, a, b)
    u_at = np.interp(xs, axis, u_nodes)
    c_at = np.interp(xs, axis, source_nodes)
    pts = xs[:, None]
    integrand = diffusion * u_at * test.laplacian(pts) + c_at * test(pts)
    return float(np.trapezoid(integrand, xs))


def _weak_residual_nd(grid, u_nodes, diffusion, source_nodes, test):
    eta = test(grid.points)
    lap = test.laplacian(grid.points)
    integrand = diffusion * u_nodes * lap + source_nodes * eta
    for axis in reversed(range(grid.dimension)):
        integrand = np.trapezoid(integrand, np.asarray(grid.axes[axis]), axis=axis)
    return float(integrand)


def weak_residual(grid, u_values, diffusion, source_values, test):
    """Weak residual of one elliptic equation d*lap(u) + c = 0 against one bump.

    Evaluates the integral of d * u * lap(eta) + c * eta; the Laplacian falls
    on the test function analytically, so no discrete derivatives of the data
    are taken.  A vanished steady component gives a residual at roundoff,
    which callers should compare against RESIDUAL_FLOOR rather than zero.
    """
    if test.dimension != grid.dimension:
        raise SpecError("test function dimension does not match the grid")
    _check_support(test, grid.domain)
    u_nodes = np.asarray(u_values, dtype=float)
    c_nodes = np.asarray(source_values, dtype=float)
    if grid.dimension == 1:
        return _weak_residual_1d(grid, u_nodes, float(diffusion), c_nodes, test)
    return _weak_residual_nd(grid, u_nodes, float(diffusion), c_nodes, test)


def elliptic_weak_residual(system, u, v, tests):
    """Weak residuals of the limiting two-species :class:`FrozenSystem` ``system``.

    ``u`` and ``v`` are the steady states on the nodes of its grid.  For every
    test function of the list ``tests`` the two equation residuals are
    returned, so the result has shape (len(tests), 2).
    """
    grid = system.grid
    u, v = (np.asarray(w, dtype=float) for w in (u, v))
    if u.shape != grid.shape or v.shape != grid.shape:
        raise SpecError("steady states must live on the grid nodes")
    source_u, source_v = system.reaction(u, v)
    out = np.empty((len(tests), 2))
    for j, test in enumerate(tests):
        out[j, 0] = weak_residual(grid, u, system.diffusion[0], source_u, test)
        out[j, 1] = weak_residual(grid, v, system.diffusion[1], source_v, test)
    return out


def lv_limit_coefficients(lv, grid, declared=None):
    """The two-species system of ``lv`` frozen at its limit on the nodes of ``grid``.

    ``declared``, six limits in :meth:`FrozenSystem.order`, wins; otherwise each
    coefficient takes its :func:`_limit_value`.
    """
    if declared is None:
        declared = [_limit_value(f, grid.points) for f in FrozenSystem.order(lv)]
    return FrozenSystem(grid, lv.diffusion, declared)
