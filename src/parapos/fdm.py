"""Finite-difference solvers for the parabolic system on a box.

Spatial discretization is the standard second-order stencil set: central
differences for gradients and 3/5-point second differences per axis (the
one copy is :func:`model.second_difference`, which ``FrozenSystem.residual``
and the checker's A6 check share).  Diffusion is axis-aligned
(:meth:`model.CoefficientSet.diffusion_matrices` rejects any other), so
there is no mixed second derivative.
Zero Dirichlet data is enforced by construction: only interior nodes are
unknowns and boundary nodes are pinned to zero.

Two time steppers are provided:

* ``imex_be``   backward Euler in the diffusion, forward Euler in drift
                and source; the diffusion coefficient is frozen at the
                step start state
* ``erk2``      explicit Heun, fully explicit right-hand side, guarded by a
                diffusion stability bound sampled before stepping begins

The ``imex_be`` map has a useful structure: it is the composition of
``w -> w + dt * f(w)`` with the inverse of an M-matrix, so it preserves
componentwise order whenever the explicit part does.  It also preserves
exact zeros bitwise (a zero state with a zero source stays identically
zero), which the degeneracy tests rely on.  Neither stepper alters the
state it computes: a negative value stays in the trajectory, where the
positivity verdict sees it.

Block march.  ``solve`` marches in blocks of ``BLOCK_STEPS`` steps.  A
block starts on its own time lattice, the start times ``t += dt``
accumulated as the march accumulates them and the next one, so ``erk2``'s
stage time is a lattice point bit for bit.  The competition source with
space-constant separable coefficients evaluates each time part once over
that lattice (:meth:`model.LVCoefficients.block`); any other source is
called per step by the one fallback,
:meth:`model.CoefficientSet.source_block`.
The march keeps the states of a span of steps in one buffer: ``BLOCK_STEPS``
steps, or as many as :data:`model.SPAN_BYTES` of states hold if that is
fewer, and at least one.  Each step writes its state into the buffer's next
row and is checked for finiteness at once, which gives its ``min_value``.
Once a span's steps are taken, one ``_monitor_rows`` call reduces their other
monitors together, each into its step's row of ``Trajectory.monitors``, one
column per entry of :data:`MONITORS`.  The next span runs back through the
buffer from the row this one ended on, so no state is copied, and spans of
one step alternate between two states.  ``Trajectory.reports`` builds a
:class:`StepReport` from a row only when it is read.

Implicit solves.  Every direct solve is one call over the joined
``(m, *grid)`` state.  In 1D every component's operator is one LAPACK
tridiagonal LU factor (``dgttrf``) of the joined ``(m, n)`` state, whose
boundary rows are identity rows, so one ``dgttrs`` call solves a step in
place.  In 2D diffusion declared ``constant_diffusion`` is solved by the
DST-I, which diagonalizes the 5-point Dirichlet operator (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970): one forward transform of the
joined state (:func:`model.dst_modes`, the kernel route's transform too),
one division by every component's eigenvalues at once, and one inverse
transform into the state (:func:`model.dst_nodes`).  Diffusion that varies
in space, time or state is solved component by component by
Jacobi-preconditioned BiCGSTAB, to the fixed relative tolerance
``LINEAR_RTOL`` within ``LINEAR_MAXITER`` iterations.  Constant diffusion
is evaluated, and its solve built, once per march; varying diffusion is
re-evaluated, and its solvers rebuilt, every step.  ``dt`` is rounded so
that whole steps fill the horizon by :func:`model.whole_steps`, the rule
of the kernel route too.

The positivity step bound reads the source slopes from the Jacobian samples
of :func:`checker.source_jacobians`, the same samples that size the Picard
windows of the kernel route.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .checker import source_jacobians
from .errors import DegenerateRefinement, NonConvergence, SolverError, SpecError
from .model import (SPAN_BYTES, Field, Grid, SpatialDomain, build_cutoff,
                    distinct_entries, dst_modes, dst_nodes, dst_sine_squares,
                    second_difference, stored_count, whole_steps)

SCHEMES = ("imex_be", "erk2")

#: BiCGSTAB tolerance and iteration cap of the 2D solve with varying diffusion
LINEAR_RTOL = 1e-10
LINEAR_MAXITER = 5000

#: steps the march takes per block, over which the coefficients' time parts
#: are tabulated once
BLOCK_STEPS = 64


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "imex_be"
    dt: float = 1e-2
    store_every: int = 10
    check_stability: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SpecError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise SpecError("dt must be positive and finite")
        if self.store_every < 1:
            raise SpecError("store_every must be at least 1")


@dataclass
class StepReport:
    step: int
    t: float
    min_value: float
    sup_norm: float
    negpart_norm: float
    dudt_min: float
    dvdt_max: float
    solve_iterations: int = 0
    source_evaluations: int = 0


#: the columns of ``Trajectory.monitors``, one row per step; the first six
#: are the columns of ``diagnostics.csv``
MONITORS = ("t", "min_value", "sup_norm", "negpart_norm", "dudt_min", "dvdt_max",
            "solve_iterations")
_T, _MIN, _SUP, _NEG, _DUDT, _DVDT, _ITER = range(len(MONITORS))


def _source_evaluations(scheme):
    return 2 if scheme == "erk2" else 1


class StepReports(Sequence):
    """A march's step reports, each built from its monitor row when it is read."""

    def __init__(self, monitors, source_evaluations):
        self._monitors = monitors
        self._source_evaluations = source_evaluations

    def __len__(self):
        return len(self._monitors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        t, low, sup, neg, dudt, dvdt, iterations = self._monitors[i].tolist()
        return StepReport(i + 1, t, low, sup, neg, dudt, dvdt, int(iterations),
                          self._source_evaluations)


@dataclass
class Trajectory:
    grid: Grid
    scheme: str
    dt: float
    times: np.ndarray
    values: np.ndarray          # (stored, m, *grid.shape)
    monitors: np.ndarray        # (steps, len(MONITORS))
    dt_adjusted: bool = False

    @property
    def final_values(self):
        return self.values[-1]

    def monitor(self, name):
        """The column of monitor ``name`` (one of :data:`MONITORS`), one value per step."""
        return self.monitors[:, MONITORS.index(name)]

    @property
    def reports(self):
        return StepReports(self.monitors, _source_evaluations(self.scheme))


# --------------------------------------------------------------- difference

def _gradient(values, grid):
    """Gradients of every component, shape (*grid.shape, m, n)."""
    grads = [np.gradient(values, grid.spacing[ax], axis=1 + ax)
             for ax in range(grid.dimension)]
    return np.moveaxis(np.stack(grads, axis=-1), 0, -2)


def _frozen_diffusion(spec, t, grid, values):
    """Diffusion matrices at every node, shape (*grid.shape, m, n, n)."""
    u = np.moveaxis(values, 0, -1)
    return spec.coefficients.diffusion_matrices(t, grid.points, u, spec.components)


def _explicit_diffusion(a, values, grid):
    out = np.zeros_like(values)
    for ax in range(grid.dimension):
        d2 = second_difference(values, grid, ax)
        out += np.moveaxis(a[..., :, ax, ax], -1, 0) * d2
    return out


def _as_shape(arr, shape):
    """``arr`` as floats broadcast to ``shape``, itself when it already fits."""
    arr = np.asarray(arr, dtype=float)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _reaction_drift(spec, grid, components):
    """The drift plus source terms over a block of steps.

    ``begin(ts)`` starts a block on the time lattice ``ts`` and returns
    ``evaluate(j, values) -> (m, *grid.shape)``, the terms at ``ts[j]``; the
    source comes from :meth:`CoefficientSet.source_block`.  The gradient is
    taken only when the evaluators may read it (``depends_on_gradient``) or
    the drift is non-zero somewhere; otherwise they receive zeros in its
    place, as the coefficient contract allows.  A problem without drift
    (``drift is None``) evaluates only its source.  The axis orders and that
    zero gradient are built once, not per call.
    """
    coeffs = spec.coefficients
    pts = grid.points
    n = grid.dimension
    to_last = (*range(1, n + 1), 0)
    to_first = (n, *range(n))
    zero_p = np.broadcast_to(0.0, grid.shape + (components, n))

    def begin(ts):
        source = coeffs.source_block(ts, pts)
        times = ts.tolist()

        def evaluate(j, values):
            u = values.transpose(to_last)
            p = _gradient(values, grid) if coeffs.depends_on_gradient else zero_p
            c = _as_shape(source(j, u, p), u.shape)
            if coeffs.drift is None:
                return c.transpose(to_first)
            b = _as_shape(coeffs.drift(times[j], pts, u, p), pts.shape)
            if np.any(distinct_entries(b)):
                if not coeffs.depends_on_gradient:
                    p = _gradient(values, grid)
                c = c + np.einsum("...i,...ki->...k", b, p)
            return c.transpose(to_first)

        return evaluate

    return begin


# ----------------------------------------------------------- implicit solve

def _tridiagonal_solver(a, h, lam):
    """One ``dgttrf`` factor of every component's 1D operator; ``solve(w)`` applies it in place.

    ``a`` is each component's diffusion at every node, shape ``(m, n)``, and
    the factor is of one tridiagonal system over all ``m * n`` nodes.  Its
    boundary rows are identity rows and no row reaches a boundary node, so
    each component's block factors as its interior alone would.  ``solve``
    zeroes the boundary of the C-contiguous right-hand side ``w`` and
    overwrites ``w`` with the solution, in one ``dgttrs`` call.
    """
    r = lam / h**2
    n = a.shape[1]
    lower = -r * a
    upper = lower.copy()
    diag = 1.0 + 2.0 * r * a
    diag[:, ::n - 1] = 1.0
    # row j's entries towards node j - 1 and j + 1: none on a boundary row,
    # nor towards a boundary node
    lower[:, :2] = lower[:, -1] = 0.0
    upper[:, -2:] = upper[:, 0] = 0.0
    dl, d, du, du2, ipiv, info = dgttrf(lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
    if info != 0:
        # the first zero pivot's row, counted within its component's
        # interior as a factor of that interior alone counts it
        raise SolverError(f"tridiagonal factorization failed (info={(info - 1) % n})")

    def solve(w):
        if not w.flags.c_contiguous:
            # a reshape would copy it, and the solve would land in the copy
            raise ValueError("the tridiagonal solve needs a C-contiguous right-hand side")
        w[:, ::n - 1] = 0.0
        dgttrs(dl, d, du, du2, ipiv, w.reshape(-1), overwrite_b=True)

    return solve


def _assemble_2d(axx, ayy, hx, hy, lam):
    import scipy.sparse as sp  # deferred: README "Set-up cost"
    mx, my = axx.shape
    size = mx * my
    rx = lam / hx**2
    ry = lam / hy**2
    cxx = (rx * axx).ravel()
    cyy = (ry * ayy).ravel()
    diag = 1.0 + 2.0 * cxx + 2.0 * cyy
    east = -cyy[:-1].copy()
    east[my - 1::my] = 0.0  # no wrap across x-rows
    west = -cyy[1:].copy()
    west[my - 1::my] = 0.0
    north = -cxx[: size - my]
    south = -cxx[my:]
    mat = sp.diags(
        [diag, east, west, north, south],
        [0, 1, -1, my, -my],
        format="csr",
    )
    return mat, diag


def _bicgstab_solver(axx, ayy, hx, hy, lam, guess, counter):
    """Jacobi-preconditioned BiCGSTAB on the 2D operator, warm-started at ``guess``.

    Each iteration adds one to ``counter[0]``.
    """
    from scipy.sparse.linalg import LinearOperator, bicgstab  # deferred: README "Set-up cost"
    mat, diag = _assemble_2d(axx, ayy, hx, hy, lam)
    precond = LinearOperator(mat.shape, matvec=lambda v: v / diag)

    def count(_xk):
        counter[0] += 1

    def apply(rhs_int):
        if not np.any(rhs_int):
            return np.zeros_like(rhs_int)
        x, info = bicgstab(mat, rhs_int.ravel(), x0=guess.ravel(), rtol=LINEAR_RTOL,
                           atol=0.0, maxiter=LINEAR_MAXITER, M=precond, callback=count)
        if info != 0:
            raise SolverError(f"linear solve failed to converge (info={info})")
        return x.reshape(rhs_int.shape)

    return apply


def _implicit_solve(grid, a, lam, constant, guess=None, counter=None):
    """``solve(w)`` overwrites ``w`` with the solution of (I - lam * sum_i a_ii d_ii) x = w.

    ``w`` holds every component, and the solution's boundary is zero.  In 1D
    every diffusion gets the joined tridiagonal factor.  In 2D ``constant``
    diffusion, read at any one node, is solved for every component at once
    by the DST-I, whose eigenvalues of the Dirichlet second difference are
    ``-(4 / h^2)`` times :func:`model.dst_sine_squares` along each axis;
    varying diffusion component by component by BiCGSTAB, warm-started at
    the interior of ``guess`` and counting into ``counter``.
    """
    if grid.dimension == 1:
        return _tridiagonal_solver(a[:, :, 0, 0].T, grid.spacing[0], lam)
    interior = grid.interior_slices
    boundary = (slice(None),) + grid.boundary
    hx, hy = grid.spacing
    if constant:
        axx, ayy = a[1, 1, :, 0, 0, None, None], a[1, 1, :, 1, 1, None, None]
        sx, sy = (dst_sine_squares(n - 2) for n in grid.shape)
        den = (1.0 + (4.0 * lam * axx / hx**2) * sx[:, None]
               + (4.0 * lam * ayy / hy**2) * sy[None, :])

        def solve(w):
            # the transforms can turn zeros into -0.0; a component whose
            # data is zero stays bitwise zero
            zero = ~np.any(w[(slice(None),) + interior], axis=(1, 2))
            modes = dst_modes(w, 2)
            modes /= den
            dst_nodes(modes, 2, w)
            w[zero] = 0.0
            w[boundary] = 0.0

        return solve

    solvers = [_bicgstab_solver(a[interior + (k, 0, 0)], a[interior + (k, 1, 1)],
                                hx, hy, lam, guess[(k,) + interior], counter)
               for k in range(a.shape[-3])]

    def solve(w):
        for k, solve_k in enumerate(solvers):
            w[(k,) + interior] = solve_k(w[(k,) + interior])
        w[boundary] = 0.0

    return solve


# ------------------------------------------------------------------- stepping

def _stepper(spec, config, dt):
    """The one-step map for a fixed ``dt``, over blocks of steps.

    ``begin(ts)`` starts a block on the time lattice ``ts`` (its steps' start
    times and the next one) and returns ``advance(j, values, out, counter)``,
    which writes the step from ``values`` at ``ts[j]`` into ``out``.
    ``imex_be`` freezes the diffusion coefficient at the step start.  With
    ``constant_diffusion`` it is evaluated once, at t = 0 and the initial
    state, and the implicit solve is built once for every step of this
    ``dt``; it lives only as long as the returned function.  Otherwise both
    are rebuilt every step.
    """
    grid, values0 = spec.initial.grid, spec.initial.values
    reaction = _reaction_drift(spec, grid, spec.components)
    frozen = None
    if spec.coefficients.constant_diffusion:
        frozen = _frozen_diffusion(spec, 0.0, grid, values0)

    def diffusion(t, values):
        if frozen is not None:
            return frozen
        return _frozen_diffusion(spec, t, grid, values)

    if config.scheme == "erk2":
        boundary = (slice(None),) + grid.boundary

        def begin(ts):
            explicit, times = reaction(ts), ts.tolist()

            def full_rhs(j, values):
                out = (_explicit_diffusion(diffusion(times[j], values), values, grid)
                       + explicit(j, values))
                out[boundary] = 0.0
                return out

            def advance(j, values, out, counter):
                # the stage time ts[j + 1] is t + dt, accumulated as the march does
                f1 = full_rhs(j, values)
                stage = values + dt * f1
                f2 = full_rhs(j + 1, stage)
                np.add(values, 0.5 * dt * (f1 + f2), out=out)

            return advance

        return begin

    frozen_solve = _implicit_solve(grid, frozen, dt, True) if frozen is not None else None

    def begin(ts):
        reaction_at, times = reaction(ts), ts.tolist()

        def advance(j, values, out, counter):
            a = diffusion(times[j], values)
            # out = values + dt * reaction, the right-hand side the solve overwrites
            np.multiply(dt, reaction_at(j, values), out=out)
            np.add(values, out, out=out)
            (frozen_solve or _implicit_solve(grid, a, dt, False, values, counter))(out)

        return advance

    return begin


def _monitor_rows(old, new, dt, rows):
    """The monitors of the steps ``old[i] -> new[i]``, into their rows ``rows[i]``.

    ``old`` and ``new`` are stacks of states, ``(steps, m, *grid)``, and
    ``rows`` the steps' ``(steps, len(MONITORS))`` monitor rows.  The caller
    fills the ``t``, ``min_value`` and ``solve_iterations`` columns.  Each
    extreme is taken before dividing by ``dt`` or taking the root: both maps
    are monotone, so this is the extreme of the mapped grid without building
    it.  ``negpart_norm`` is ``max(0.0, -min_value)``, a positive zero where
    the minimum is a zero of either sign or NaN.
    """
    nodes = tuple(range(1, new.ndim - 1))
    neg = -rows[:, _MIN]
    rows[:, _NEG] = np.where(neg > 0.0, neg, 0.0)
    # one component's grids at a time, in one temporary: the rates' differences,
    # then the nodes' squared norms, summed component by component as
    # ``sum`` adds them
    grids = np.subtract(new[:, 0], old[:, 0])
    rows[:, _DUDT] = grids.min(axis=nodes) / dt
    if new.shape[1] >= 2:
        rows[:, _DVDT] = np.subtract(new[:, 1], old[:, 1], out=grids).max(axis=nodes) / dt
    else:
        rows[:, _DVDT] = np.nan
    np.square(new[:, 0], out=grids)
    for k in range(1, new.shape[1]):
        grids += np.square(new[:, k])
    rows[:, _SUP] = np.sqrt(grids.max(axis=nodes))


def positivity_step_bound(spec, reference=None):
    """Largest dt for which the explicit source map cannot cross zero.

    Reads the diagonal source slopes d c_k / d u_k from the shared Jacobian
    samples of :func:`checker.source_jacobians`, over states up to twice the
    reference amplitude, and returns 1 / (2 max(0, -min slope)).  Infinite
    when no sampled slope is negative.
    """
    amp = 1.0
    if reference is not None:
        amp = max(amp, float(np.abs(reference).max()))
    slopes = np.diagonal(source_jacobians(spec, 2.0 * amp), axis1=1, axis2=2)
    worst = -float(slopes.min())
    if not worst > 0.0:
        return float("inf")
    return 1.0 / (2.0 * worst)


def _stability_bound(spec, grid, values):
    """Largest stable explicit dt, 1 / (2 max-eig(A) sum_i h_i^-2), sampled in t.

    Diffusion declared ``constant_diffusion`` is sampled once, at t = 0.
    """
    worst = 0.0
    samples = 1 if spec.coefficients.constant_diffusion else 5
    for t in np.linspace(0.0, spec.horizon, samples):
        a = _frozen_diffusion(spec, float(t), grid, values)
        lam = np.linalg.eigvalsh(a)[..., -1].max()
        worst = max(worst, float(lam))
    if worst <= 0.0:
        return float("inf")
    return 1.0 / (2.0 * worst * sum(1.0 / h**2 for h in grid.spacing))


def solve(spec, config, sink=None):
    """Integrate the system to its horizon and collect the trajectory.

    The march writes the initial state and each snapshot it stores (every
    ``store_every`` steps and at the horizon) into arrays of
    :func:`model.stored_count` rows, and the trajectory keeps those arrays.
    ``sink``, when given, owns them: ``sink.times`` and ``sink.values``, of
    shapes ``(stored,)`` and ``(stored, m, *grid.shape)``.  After writing
    each snapshot the march calls ``sink.post()``, so a consumer can work on
    it while the march goes on; a posted snapshot is never written again.
    Apart from those arrays and the ``(steps, len(MONITORS))`` monitor
    table, the march holds one span of states, at most ``BLOCK_STEPS + 1``,
    and the span's monitor reduction one temporary of a component's grids
    per step of the span.
    """
    grid = spec.initial.grid
    spec.initial.validate()
    steps, dt = whole_steps(spec.horizon, config.dt)
    adjusted = abs(dt - config.dt) > 1e-9 * max(1.0, config.dt)

    w = spec.initial.values
    if config.scheme == "erk2" and config.check_stability:
        bound = _stability_bound(spec, grid, w)
        if dt > bound * (1.0 + 1e-9):
            raise SolverError(
                f"explicit scheme unstable: dt={dt:g} exceeds the sampled "
                f"diffusion bound {bound:g}")

    shape = (stored_count(spec.horizon, config.dt, config.store_every), *w.shape)
    if sink is None:
        times, values = np.empty(shape[0]), np.empty(shape)
    else:
        times, values = sink.times, sink.values
        if values.shape != shape:
            raise SpecError(f"the sink holds snapshots of shape {values.shape}, "
                            f"the march stores {shape}")
    times[0], values[0] = 0.0, w
    if sink is not None:
        sink.post()
    stored = 0

    monitors = np.empty((steps, len(MONITORS)))
    # a span of steps writes its states into consecutive rows of ``states``,
    # from the end row the last span stopped on towards the other end, so
    # the state a span starts from is never copied; a state over the budget
    # gets spans of one step, which alternate between two rows
    span = max(1, min(BLOCK_STEPS, SPAN_BYTES // w.nbytes))
    states = np.empty((span + 1, *w.shape))
    states[0] = w
    row, sign = 0, 1
    t = 0.0
    begin = _stepper(spec, config, dt)
    for first in range(0, steps, BLOCK_STEPS):
        count = min(BLOCK_STEPS, steps - first)
        ts = [t]
        for _ in range(count):
            t += dt
            ts.append(t)
        advance = begin(np.array(ts))
        for j in range(count):
            k = first + j + 1
            counter = [0]
            new = states[row + sign]
            advance(j, states[row], new, counter)
            row += sign
            # NaN reaches the minimum and an infinity the minimum or the
            # maximum, so both are finite exactly when every value is
            low = float(new.min())
            if not (math.isfinite(low) and math.isfinite(float(new.max()))):
                raise SolverError(f"solution lost finiteness at step {k} (t={ts[j + 1]:g})")
            monitor = monitors[k - 1]
            monitor[_T], monitor[_MIN], monitor[_ITER] = ts[j + 1], low, counter[0]
            if k % config.store_every == 0 or k == steps:
                stored += 1
                times[stored], values[stored] = ts[j + 1], new
                if sink is not None:
                    sink.post()
            if row == (span if sign > 0 else 0) or k == steps:
                # the span's steps end on ``row``; a backward span's steps
                # run from the last row towards the first
                if sign > 0:
                    _monitor_rows(states[:row], states[1:row + 1], dt,
                                  monitors[k - row:k])
                else:
                    _monitor_rows(states[row + 1:], states[row:-1], dt,
                                  monitors[k - (span - row):k][::-1])
                sign = -sign
    return Trajectory(
        grid=grid,
        scheme=config.scheme,
        dt=dt,
        times=times,
        values=values,
        monitors=monitors,
        dt_adjusted=adjusted,
    )


# ------------------------------------------------------------- refinement

@dataclass
class OrderEstimate:
    nodes: tuple
    diffs: tuple
    orders: tuple

    @property
    def order(self):
        return self.orders[-1]


def _restrict(values, factor):
    sl = (slice(None),) + tuple(
        slice(None, None, factor) for _ in range(values.ndim - 1))
    return values[sl]


def estimate_order(spec, config, grids, rebuild_initial):
    """Observed convergence order from a ladder of node-doubling grids.

    ``grids`` must contain at least three grids over the problem's domain,
    each refining the previous one exactly (2N - 1 nodes per axis), so that
    coarse nodes are a subset of fine nodes.  ``rebuild_initial(grid)``
    discretizes the initial data on each level, so the observed order is
    not capped by interpolating coarse data.  Each halving of h divides dt by
    four so that first-order-in-time schemes expose their spatial order too.
    Differences between consecutive finals are measured in the sup norm on
    the coarsest grid's nodes.
    """
    grids = list(grids)
    if len(grids) < 3:
        raise SpecError("order estimation needs at least three grids")
    for g in grids:
        if g.domain.bounds != spec.domain.bounds:
            raise SpecError("refinement grids must cover the problem domain")
    for lvl in range(len(grids) - 1):
        want = tuple(2 * n - 1 for n in grids[lvl].shape)
        if grids[lvl + 1].shape != want:
            raise SpecError(
                f"grid {lvl + 1} must refine grid {lvl} exactly "
                f"(expected {want} nodes per axis)")

    finals = []
    dt = config.dt
    for g in grids:
        level_spec = replace(spec, initial=rebuild_initial(g))
        traj = solve(level_spec, replace(config, dt=dt))
        finals.append(traj.final_values)
        dt /= 4.0
    diffs = []
    for lvl in range(len(grids) - 1):
        coarse = _restrict(finals[lvl], 2 ** lvl)
        fine = _restrict(finals[lvl + 1], 2 ** (lvl + 1))
        diffs.append(float(np.abs(coarse - fine).max()))
    if any(d < 1e-13 for d in diffs):
        raise DegenerateRefinement(
            f"refinement differences {diffs} are at roundoff; no order is observable")
    orders = tuple(
        float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1))
    return OrderEstimate(nodes=tuple(g.shape[0] for g in grids),
                         diffs=tuple(diffs), orders=orders)


# --------------------------------------------------- whole-space surrogate

@dataclass
class NestedConvergenceReport:
    radii: tuple
    diffs: tuple
    tol: float

    @property
    def converged(self):
        return self.diffs[-1] <= self.tol


def solve_cauchy_nested(spec, radii, config, cutoff_width=1.0, tol_nested=1e-6):
    """Whole-space surrogate: solve on nested centered boxes, compare cores.

    The problem must be posed on the centered box of the largest radius, with
    initial data that decays toward its boundary.  For each smaller radius r
    the box is cut out of the base grid (radii must be node-aligned so node
    sets coincide exactly), and both the initial data and the source term are
    multiplied by a radial cutoff that vanishes at radius r.  Successive
    final states are compared in the sup norm on the core region, half the
    smallest radius.  Differences that fail to decrease between
    consecutive radius pairs while still sitting above ``tol_nested`` raise
    NonConvergence; otherwise the comparison report is returned.  Only each
    box's final state is kept.
    """
    radii = tuple(sorted(float(r) for r in radii))
    if len(radii) < 3:
        raise SpecError("nested comparison needs at least three radii")
    if cutoff_width <= 0 or cutoff_width > radii[0]:
        raise SpecError("cutoff width must lie in (0, smallest radius]")
    grid = spec.initial.grid
    n = grid.dimension
    r_max = radii[-1]
    for axis, (lo, hi) in enumerate(spec.domain.bounds):
        if abs(lo + r_max) > 1e-9 or abs(hi - r_max) > 1e-9:
            raise SpecError(
                "the base problem must live on the centered box of the largest radius")

    core = radii[0] / 2.0
    finals = []
    offsets = []
    for r in radii:
        offs = []
        for axis in range(n):
            shift = (r_max - r) / grid.spacing[axis]
            off = int(round(shift))
            if abs(shift - off) > 1e-9:
                raise SpecError("box radii must be node-aligned with the base grid")
            offs.append(off)
        offsets.append(tuple(offs))
        boxed = solve(_boxed_subproblem(spec, r, offs, cutoff_width), config)
        finals.append(boxed.final_values.copy())

    diffs = [_core_difference(finals[lvl], finals[lvl + 1],
                              offsets[lvl], offsets[lvl + 1], grid, core)
             for lvl in range(len(radii) - 1)]
    for lvl in range(len(diffs) - 1):
        if diffs[lvl + 1] >= diffs[lvl] and diffs[lvl + 1] > tol_nested:
            raise NonConvergence(
                f"nested-box differences {diffs} do not decrease; the "
                "whole-space limit is not visible at these radii")
    return NestedConvergenceReport(radii=radii, diffs=tuple(diffs), tol=tol_nested)


def _boxed_subproblem(spec, radius, offsets, cutoff_width):
    """Cut the centered box of the given radius out of the base problem."""
    grid = spec.initial.grid
    sub_domain = SpatialDomain(bounds=tuple((-radius, radius) for _ in range(grid.dimension)))
    sub_shape = tuple(nn - 2 * o for nn, o in zip(grid.shape, offsets))
    sub_grid = Grid(sub_domain, sub_shape)
    sel = tuple(slice(o, nn - o) for nn, o in zip(grid.shape, offsets))
    zeta = build_cutoff(radius, cutoff_width)
    weights = zeta(sub_grid.points)
    vals = spec.initial.values[(slice(None),) + sel] * weights[None]
    sub_init = Field.from_arrays(sub_grid, vals)

    base_source = spec.coefficients.source

    def cut_source(t, x, u, p, _z=zeta, _src=base_source):
        c = np.asarray(_src(t, x, u, p), dtype=float)
        u_arr = np.asarray(u, dtype=float)
        z = np.asarray(_z(x), dtype=float)
        return z[..., None] * np.broadcast_to(c, u_arr.shape)

    sub_coeffs = replace(spec.coefficients, source=cut_source)
    # the cut source is no longer lv's, so the sub-problem carries no lv
    return replace(spec, coefficients=sub_coeffs, initial=sub_init, lv=None)


def _core_difference(small, big, offs_small, offs_big, base_grid, core):
    """Sup of the difference of two boxes' final states on the core nodes."""
    sel_small = []
    sel_big = []
    for axis in range(base_grid.dimension):
        ax = base_grid.axes[axis]
        idx = np.nonzero(np.abs(ax) <= core + 1e-12)[0]
        sel_small.append(slice(idx[0] - offs_small[axis], idx[-1] + 1 - offs_small[axis]))
        sel_big.append(slice(idx[0] - offs_big[axis], idx[-1] + 1 - offs_big[axis]))
    a = small[(slice(None),) + tuple(sel_small)]
    b = big[(slice(None),) + tuple(sel_big)]
    return float(np.abs(a - b).max())
