"""Finite-difference solvers for the parabolic system on a box.

Spatial discretization is the standard second-order stencil set: central
differences for gradients, 3/5-point second differences per axis (the one
copy is :func:`model.second_difference`, which the checker's Laplacian
shares), and the four-point cross stencil for mixed second derivatives.
Zero Dirichlet data is enforced by construction: only interior nodes are
unknowns and boundary nodes are pinned to zero.

Three time steppers are provided:

* ``imex_be``   backward Euler in the axis-aligned diffusion part, forward
                Euler in drift, source, and mixed-derivative terms; the
                diffusion coefficient is frozen at the step start state
* ``imex_cn``   Crank-Nicolson in the axis-aligned diffusion part (again
                frozen at the step start), forward Euler elsewhere; the
                explicit source keeps the overall temporal order at one
* ``erk2``      explicit Heun, fully explicit right-hand side, guarded by a
                diffusion stability bound sampled before stepping begins

The ``imex_be`` map has a useful structure: it is the composition of
``w -> w + dt * f(w)`` with the inverse of an M-matrix, so it preserves
componentwise order whenever the explicit part does.  It also preserves
exact zeros bitwise (a zero state with a zero source stays identically
zero), which the degeneracy tests rely on.

Implicit solves.  One builder gives each component its implicit solver.  In
1D that is always a LAPACK tridiagonal LU factor (``dgttrf``, applied by
``dgttrs``).  In 2D, diffusion declared ``constant_diffusion`` is solved by
the DST-I, which diagonalizes the 5-point Dirichlet operator (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970); diffusion that varies in space, time
or state by Jacobi-preconditioned BiCGSTAB, to the fixed relative tolerance
``LINEAR_RTOL`` within ``LINEAR_MAXITER`` iterations.  Constant diffusion is
evaluated, and its solvers built, once per march; varying diffusion is
re-evaluated, and its solvers rebuilt, every step.

The positivity step bound reads the source slopes from the Jacobian samples
of :func:`checker.source_jacobians`, the same samples that size the Picard
windows of the kernel route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dstn, idstn
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .checker import source_jacobians
from .errors import DegenerateRefinement, NonConvergence, SolverError, SpecError
from .model import Field, Grid, SpatialDomain, build_cutoff, second_difference

SCHEMES = ("imex_be", "imex_cn", "erk2")
POSITIVITY_MODES = ("monitor_only", "clip_and_flag")

#: BiCGSTAB tolerance and iteration cap of the 2D solve with varying diffusion
LINEAR_RTOL = 1e-10
LINEAR_MAXITER = 5000


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "imex_be"
    dt: float = 1e-2
    positivity: str = "monitor_only"
    store_every: int = 10
    check_stability: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SpecError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.positivity not in POSITIVITY_MODES:
            raise SpecError(
                f"unknown positivity mode {self.positivity!r}; pick one of {POSITIVITY_MODES}")
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
    clipped: int = 0
    solve_iterations: int = 0
    source_evaluations: int = 0


@dataclass
class Trajectory:
    grid: Grid
    scheme: str
    dt: float
    times: np.ndarray
    values: np.ndarray          # (stored, m, *grid.shape)
    reports: list
    positivity_dt_bound: float
    positivity_dt_ok: bool
    clipped_total: int = 0
    dt_adjusted: bool = False

    @property
    def components(self):
        return self.values.shape[1]

    @property
    def final_values(self):
        return self.values[-1]

    @property
    def min_value(self):
        return min((r.min_value for r in self.reports), default=float(self.values.min()))


# --------------------------------------------------------------- difference

def _gradient(values, grid):
    """Gradients of every component, shape (*grid.shape, m, n)."""
    grads = [np.gradient(values, grid.spacing[ax], axis=1 + ax)
             for ax in range(grid.dimension)]
    return np.moveaxis(np.stack(grads, axis=-1), 0, -2)


def _mixed_difference(values, grid, i, j):
    """Cross second difference on doubly interior nodes, zero elsewhere."""
    hi_, hj = grid.spacing[i], grid.spacing[j]
    out = np.zeros_like(values)
    inner = [slice(None)] * values.ndim
    inner[1 + i] = slice(1, -1)
    inner[1 + j] = slice(1, -1)

    def shifted(di, dj):
        sl = list(inner)
        sl[1 + i] = slice(1 + di, values.shape[1 + i] - 1 + di)
        sl[1 + j] = slice(1 + dj, values.shape[1 + j] - 1 + dj)
        return values[tuple(sl)]

    out[tuple(inner)] = (
        shifted(1, 1) - shifted(1, -1) - shifted(-1, 1) + shifted(-1, -1)
    ) / (4.0 * hi_ * hj)
    return out


def _frozen_diffusion(spec, t, grid, values):
    """Diffusion matrices at every node, shape (*grid.shape, m, n, n)."""
    u = np.moveaxis(values, 0, -1)
    return spec.coefficients.diffusion_matrices(t, grid.points, u, spec.components)


def _explicit_diffusion(a, values, grid, diagonal=True, mixed=True):
    out = np.zeros_like(values)
    n = grid.dimension
    if diagonal:
        for ax in range(n):
            d2 = second_difference(values, grid, ax)
            out += np.moveaxis(a[..., :, ax, ax], -1, 0) * d2
    if mixed and n > 1:
        for i in range(n):
            for j in range(i + 1, n):
                if not np.any(a[..., :, i, j]):
                    continue
                dij = _mixed_difference(values, grid, i, j)
                out += 2.0 * np.moveaxis(a[..., :, i, j], -1, 0) * dij
    return out


def _as_shape(arr, shape):
    """``arr`` as floats broadcast to ``shape``, itself when it already fits."""
    arr = np.asarray(arr, dtype=float)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _reaction_drift(spec, grid, components):
    """The drift plus source terms as a function ``(t, values) -> (m, *grid.shape)``.

    The gradient is taken only when the evaluators may read it
    (``depends_on_gradient``) or the drift is non-zero somewhere; otherwise
    they receive zeros in its place, as the coefficient contract allows.
    The axis orders and that zero gradient are built once, not per call.
    """
    coeffs = spec.coefficients
    pts = grid.points
    n = grid.dimension
    to_last = (*range(1, n + 1), 0)
    to_first = (n, *range(n))
    zero_p = np.broadcast_to(0.0, grid.shape + (components, n))

    def evaluate(t, values):
        u = values.transpose(to_last)
        p = _gradient(values, grid) if coeffs.depends_on_gradient else zero_p
        b = _as_shape(coeffs.drift(t, pts, u, p), pts.shape)
        c = _as_shape(coeffs.source(t, pts, u, p), u.shape)
        if np.any(b):
            if not coeffs.depends_on_gradient:
                p = _gradient(values, grid)
            c = c + np.einsum("...i,...ki->...k", b, p)
        return c.transpose(to_first)

    return evaluate


# ----------------------------------------------------------- implicit solve

def _tridiagonal_solver(a_node, h, lam):
    """Factor the 1D operator once; the solver applies it with ``dgttrs``.

    Factor-then-solve gives the same bits as ``solve_banded`` on the same
    bands.  The LAPACK wrapper needs three unknowns or more, so smaller
    systems keep the banded solve.
    """
    r = lam / h**2
    lower, diag, upper = -r * a_node[1:], 1.0 + 2.0 * r * a_node, -r * a_node[:-1]
    if a_node.size < 3:
        ab = np.zeros((3, a_node.size))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        return lambda rhs_int: solve_banded((1, 1), ab, rhs_int)
    dl, d, du, du2, ipiv, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise SolverError(f"tridiagonal factorization failed (info={info})")

    def apply(rhs_int):
        return dgttrs(dl, d, du, du2, ipiv, rhs_int)[0]

    return apply


def _dst_solver(axx, ayy, hx, hy, lam, shape):
    """Direct solver of the 2D 5-point operator with constant coefficients.

    The DST-I diagonalizes the Dirichlet second difference along each axis,
    with eigenvalues -(4 / h^2) sin^2(pi j / (2 (m + 1))), j = 1..m, so a
    solve is a forward transform, a division by the operator's eigenvalues,
    and the inverse transform.
    """
    mx, my = shape
    sx = np.sin(0.5 * np.pi * np.arange(1, mx + 1) / (mx + 1)) ** 2
    sy = np.sin(0.5 * np.pi * np.arange(1, my + 1) / (my + 1)) ** 2
    den = (1.0 + (4.0 * lam * axx / hx**2) * sx[:, None]
           + (4.0 * lam * ayy / hy**2) * sy[None, :])

    def apply(rhs_int):
        if not np.any(rhs_int):
            # the transforms can turn zeros into -0.0; zero data stays bitwise zero
            return np.zeros_like(rhs_int)
        modes = dstn(rhs_int, type=1)
        modes /= den
        return idstn(modes, type=1, overwrite_x=True)

    return apply


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


def _implicit_solvers(grid, a, lam, constant, guess=None, counter=None):
    """One solver of (I - lam * sum_i a_ii d_ii) w = rhs per component, on the interior.

    In 1D every diffusion gets the tridiagonal factor.  In 2D ``constant``
    diffusion gets the DST solve, read at any one node; otherwise BiCGSTAB,
    warm-started at the interior of ``guess`` and counting into ``counter``.
    """
    interior = grid.interior_slices
    m = a.shape[-3]
    if grid.dimension == 1:
        return [_tridiagonal_solver(a[interior + (k, 0, 0)], grid.spacing[0], lam)
                for k in range(m)]
    hx, hy = grid.spacing
    if constant:
        shape = tuple(n - 2 for n in grid.shape)
        return [_dst_solver(a[1, 1, k, 0, 0], a[1, 1, k, 1, 1], hx, hy, lam, shape)
                for k in range(m)]
    return [_bicgstab_solver(a[interior + (k, 0, 0)], a[interior + (k, 1, 1)],
                             hx, hy, lam, guess[(k,) + interior], counter)
            for k in range(m)]


# ------------------------------------------------------------------- stepping

def _stepper(spec, grid, config, dt, t0, values0):
    """The one-step map ``advance(values, t, counter)`` for a fixed ``dt``.

    Both imex modes freeze the diffusion coefficient at the step start.  With
    ``constant_diffusion`` it is evaluated once, at ``(t0, values0)``, and the
    implicit solvers are built once for every step of this ``dt``; they live
    only as long as the returned function.  Otherwise both are rebuilt every
    step.
    """
    reaction = _reaction_drift(spec, grid, values0.shape[0])
    frozen = None
    if spec.coefficients.constant_diffusion:
        frozen = _frozen_diffusion(spec, t0, grid, values0)

    def diffusion(t, values):
        if frozen is not None:
            return frozen
        return _frozen_diffusion(spec, t, grid, values)

    if config.scheme == "erk2":
        boundary = (slice(None),) + np.nonzero(~grid.interior_mask)

        def full_rhs(t, values):
            out = (_explicit_diffusion(diffusion(t, values), values, grid)
                   + reaction(t, values))
            out[boundary] = 0.0
            return out

        def advance(values, t, counter):
            f1 = full_rhs(t, values)
            stage = values + dt * f1
            f2 = full_rhs(t + dt, stage)
            return values + 0.5 * dt * (f1 + f2)

        return advance

    lam = dt if config.scheme == "imex_be" else 0.5 * dt
    interior = grid.interior_slices
    solvers = _implicit_solvers(grid, frozen, lam, True) if frozen is not None else None
    # mixed second derivatives need two axes, and frozen diffusion shows once
    # whether it has any off-diagonal entry
    off_diagonal = ~np.eye(grid.dimension, dtype=bool)
    mixed = grid.dimension > 1 and (
        frozen is None or bool(np.any(frozen[..., off_diagonal])))

    def advance(values, t, counter):
        a = diffusion(t, values)
        explicit = reaction(t, values)
        if mixed:
            explicit = explicit + _explicit_diffusion(a, values, grid, diagonal=False)
        if config.scheme == "imex_be":
            rhs = values + dt * explicit
        else:
            half = _explicit_diffusion(a, values, grid, diagonal=True, mixed=False)
            rhs = values + 0.5 * dt * half + dt * explicit
        step_solvers = solvers or _implicit_solvers(grid, a, lam, False, values, counter)
        out = np.zeros_like(rhs)
        for k, solve_k in enumerate(step_solvers):
            out[(k,) + interior] = solve_k(rhs[(k,) + interior])
        return out

    return advance


def step(state, t, dt, spec, config):
    """Advance one step of length ``dt`` from ``state``; returns (Field, report)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise SpecError("dt must be positive and finite")
    grid = state.grid
    counter = [0]
    old = np.asarray(state.values, dtype=float)
    new = _stepper(spec, grid, config, dt, t, old)(old, t, counter)
    report = _make_report(0, t + dt, old, new, dt, clipped=0,
                          iterations=counter[0],
                          source_evals=2 if config.scheme == "erk2" else 1)
    return Field(grid, new), report


def _make_report(index, t, old, new, dt, clipped, iterations=0, source_evals=1):
    m = new.shape[0]
    low = float(new.min())
    dudt_min = float(((new[0] - old[0]) / dt).min()) if m >= 1 else float("nan")
    dvdt_max = float(((new[1] - old[1]) / dt).max()) if m >= 2 else float("nan")
    sup = float(np.sqrt((new * new).sum(axis=0)).max())
    return StepReport(
        step=index,
        t=float(t),
        min_value=low,
        sup_norm=sup,
        negpart_norm=max(0.0, -low),
        dudt_min=dudt_min,
        dvdt_max=dvdt_max,
        clipped=clipped,
        solve_iterations=iterations,
        source_evaluations=source_evals,
    )


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
    """Largest stable explicit dt, 1 / (2 max-eig(A) sum_i h_i^-2), sampled in t."""
    worst = 0.0
    for t in np.linspace(0.0, spec.horizon, 5):
        a = _frozen_diffusion(spec, float(t), grid, values)
        lam = np.linalg.eigvalsh(a)[..., -1].max()
        worst = max(worst, float(lam))
    if worst <= 0.0:
        return float("inf")
    return 1.0 / (2.0 * worst * sum(1.0 / h**2 for h in grid.spacing))


def solve(spec, config, on_store=None):
    """Integrate the system to its horizon and collect the trajectory.

    ``on_store(t, values)``, when given, is called with the initial state
    and with each snapshot as it is stored (every ``store_every`` steps and
    at the horizon), so a consumer can work on it while the march goes on.
    ``values`` is the stored array itself; it must not be modified.
    """
    grid = spec.initial.grid
    spec.initial.validate()
    steps = max(1, int(round(spec.horizon / config.dt)))
    dt = spec.horizon / steps
    adjusted = abs(dt - config.dt) > 1e-9 * max(1.0, config.dt)

    w = spec.initial.values.copy()
    if config.scheme == "erk2" and config.check_stability:
        bound = _stability_bound(spec, grid, w)
        if dt > bound * (1.0 + 1e-9):
            raise SolverError(
                f"explicit scheme unstable: dt={dt:g} exceeds the sampled "
                f"diffusion bound {bound:g}")

    pos_bound = positivity_step_bound(spec, reference=w)
    pos_ok = dt <= pos_bound

    source_evals = 2 if config.scheme == "erk2" else 1
    stored = [w.copy()]
    stored_t = [0.0]
    if on_store is not None:
        on_store(0.0, stored[0])
    reports = []
    clipped_total = 0
    t = 0.0
    advance = _stepper(spec, grid, config, dt, t, w)
    for i in range(steps):
        counter = [0]
        new = advance(w, t, counter)
        if not np.all(np.isfinite(new)):
            raise SolverError(f"solution lost finiteness at step {i + 1} (t={t + dt:g})")
        clipped = 0
        pre_clip = new
        if config.positivity == "clip_and_flag" and new.min() < 0.0:
            clipped = int((new < 0.0).sum())
            new = np.maximum(new, 0.0)
        report = _make_report(i + 1, t + dt, w, pre_clip, dt, clipped,
                              iterations=counter[0], source_evals=source_evals)
        reports.append(report)
        clipped_total += clipped
        w = new
        t += dt
        if (i + 1) % config.store_every == 0 or i + 1 == steps:
            stored.append(w.copy())
            stored_t.append(t)
            if on_store is not None:
                on_store(t, stored[-1])
    return Trajectory(
        grid=grid,
        scheme=config.scheme,
        dt=dt,
        times=np.asarray(stored_t),
        values=np.asarray(stored),
        reports=reports,
        positivity_dt_bound=pos_bound,
        positivity_dt_ok=pos_ok,
        clipped_total=clipped_total,
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
        want = tuple(2 * n - 1 for n in grids[lvl].nodes_per_axis)
        if grids[lvl + 1].nodes_per_axis != want:
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
    return OrderEstimate(nodes=tuple(g.nodes_per_axis[0] for g in grids),
                         diffs=tuple(diffs), orders=orders)


# --------------------------------------------------- whole-space surrogate

@dataclass
class NestedConvergenceReport:
    radii: tuple
    diffs: tuple
    comparison_radius: float
    tol: float
    trajectories: list

    @property
    def converged(self):
        return self.diffs[-1] <= self.tol


def solve_cauchy_nested(spec, radii, config, cutoff_width=1.0,
                        tol_nested=1e-6, compare_radius=None):
    """Whole-space surrogate: solve on nested centered boxes, compare cores.

    The problem must be posed on the centered box of the largest radius, with
    initial data that decays toward its boundary.  For each smaller radius r
    the box is cut out of the base grid (radii must be node-aligned so node
    sets coincide exactly), and both the initial data and the source term are
    multiplied by a radial cutoff that vanishes at radius r.  Successive
    final states are compared in the sup norm on the core region (default:
    half the smallest radius).  Differences that fail to decrease between
    consecutive radius pairs while still sitting above ``tol_nested`` raise
    NonConvergence; otherwise the trajectory on the largest box is returned
    together with the comparison report.
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

    core = compare_radius if compare_radius is not None else radii[0] / 2.0
    if not 0 < core <= radii[0]:
        raise SpecError("comparison radius must lie inside the smallest box")

    trajs = []
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
        trajs.append(solve(_boxed_subproblem(spec, r, offs, cutoff_width), config))

    diffs = []
    for lvl in range(len(radii) - 1):
        diffs.append(_core_difference(trajs[lvl], trajs[lvl + 1],
                                      offsets[lvl], offsets[lvl + 1], grid, core))
    for lvl in range(len(diffs) - 1):
        if diffs[lvl + 1] >= diffs[lvl] and diffs[lvl + 1] > tol_nested:
            raise NonConvergence(
                f"nested-box differences {diffs} do not decrease; the "
                "whole-space limit is not visible at these radii")
    report = NestedConvergenceReport(
        radii=radii, diffs=tuple(diffs), comparison_radius=core,
        tol=tol_nested, trajectories=trajs,
    )
    return trajs[-1], report


def _boxed_subproblem(spec, radius, offsets, cutoff_width):
    """Cut the centered box of the given radius out of the base problem."""
    grid = spec.initial.grid
    sub_bounds = tuple((-radius, radius) for _ in range(grid.dimension))
    sub_domain = SpatialDomain(bounds=sub_bounds,
                               boundary_kind=spec.domain.boundary_kind)
    sub_shape = tuple(nn - 2 * o for nn, o in zip(grid.nodes_per_axis, offsets))
    sub_grid = Grid(sub_domain, sub_shape)
    sel = tuple(slice(o, nn - o) for nn, o in zip(grid.nodes_per_axis, offsets))
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
    return replace(spec, domain=sub_domain, coefficients=sub_coeffs,
                   initial=sub_init)


def _core_difference(small, big, offs_small, offs_big, base_grid, core):
    sel_small = []
    sel_big = []
    for axis in range(base_grid.dimension):
        ax = base_grid.axes[axis]
        idx = np.nonzero(np.abs(ax) <= core + 1e-12)[0]
        sel_small.append(slice(idx[0] - offs_small[axis], idx[-1] + 1 - offs_small[axis]))
        sel_big.append(slice(idx[0] - offs_big[axis], idx[-1] + 1 - offs_big[axis]))
    a = small.final_values[(slice(None),) + tuple(sel_small)]
    b = big.final_values[(slice(None),) + tuple(sel_big)]
    return float(np.abs(a - b).max())
