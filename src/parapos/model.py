"""Domains, grids, fields, and coefficient containers for reaction-diffusion systems.

The systems handled here have the form

    du^k/dt = sum_ij a_ij(t,x,u) d2u^k/dx_i dx_j
            + sum_i  b_i(t,x,u,p) du^k/dx_i + c^k(t,x,u,p),    k = 1..m,

on a box in 1 or 2 space dimensions, with homogeneous Dirichlet data or a
nested-box approximation of the whole-space problem.  Competition systems
(per-species diffusion d_k, source u^k(beta_k - sum_i gamma_ki u^i)) are the
specialized case carried by :class:`LVCoefficients`, which is itself the
source of the problem :func:`build_lv_problem` builds.  Each fact of a
problem lives once: its domain is its initial field's grid's, and
:meth:`CoefficientSet.source_block` is the one per-step source fallback.
So does each fact of the Dirichlet grid that both routes use: its face
nodes (:attr:`Grid.boundary`), the second difference, the DST-I mode table
(:func:`dst_sine_squares`) and transform pair (:func:`dst_modes`,
:func:`dst_nodes`) of the grid's 2D direct solve and the kernel route, and
the rule that rounds ``dt`` to whole steps (:func:`whole_steps`).

Evaluator convention: coefficient callables are vectorized over a leading
batch shape.  ``x`` has shape ``(..., n)``, ``u`` has ``(..., m)``, and the
gradient ``p`` has ``(..., m, n)``; ``t`` is a scalar or an array that
broadcasts to the batch shape ``...``, one time per point.  Diffusion
returns ``(..., n, n)`` (shared across components) or ``(..., m, n, n)``
(per component); drift returns ``(..., n)``; the source returns
``(..., m)``.  A call with an array ``t`` gives the same bits as one call
per point with that point's scalar ``t``, so a sampled check can evaluate
all its samples at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import dstn, idstn

from .errors import CoefficientError, SpecError

#: relative asymmetry beyond which a diffusion matrix is rejected outright
ASYMMETRY_TOL = 1e-12

#: bytes of stored states one pass holds at once: the march's span of
#: states, the analysis's chunk of snapshots, the read-back hash buffer
SPAN_BYTES = 1 << 17


@dataclass(frozen=True)
class SpatialDomain:
    """Axis-aligned box; its faces carry zero Dirichlet data."""

    bounds: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if not 1 <= len(bounds) <= 2:
            raise SpecError(f"dimension must be 1 or 2, got {len(bounds)}")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise SpecError(f"degenerate interval [{lo}, {hi}]")

    @property
    def dimension(self):
        return len(self.bounds)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid including boundary nodes."""

    domain: SpatialDomain
    shape: tuple

    def __post_init__(self):
        nodes = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", nodes)
        if len(nodes) != self.domain.dimension:
            raise SpecError("grid shape does not match domain dimension")
        if any(n < 3 for n in nodes):
            raise SpecError("need at least 3 nodes per axis")

    @property
    def dimension(self):
        return self.domain.dimension

    @cached_property
    def axes(self):
        return tuple(
            np.linspace(lo, hi, n)
            for (lo, hi), n in zip(self.domain.bounds, self.shape)
        )

    @cached_property
    def spacing(self):
        return tuple(
            (hi - lo) / (n - 1)
            for (lo, hi), n in zip(self.domain.bounds, self.shape)
        )

    @cached_property
    def points(self):
        """Node coordinates, shape ``(*shape, dimension)``."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def interior_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.interior_slices] = True
        return mask

    @cached_property
    def boundary(self):
        """The face nodes as an ``np.nonzero`` index, in C order.

        ``values[(slice(None),) + grid.boundary]`` reaches them in every
        component of ``(m, *shape)`` values.
        """
        return np.nonzero(~self.interior_mask)

    @property
    def interior_slices(self):
        return tuple(slice(1, -1) for _ in range(self.dimension))


def second_difference(values, grid, axis):
    """3-point second difference of ``(m, *grid.shape)`` values along ``axis``.

    The two face planes of that axis, which have no neighbour outside the
    box, are left zero.
    """
    h = grid.spacing[axis]
    out = np.zeros_like(values)
    inner = [slice(None)] * values.ndim
    inner[1 + axis] = slice(1, -1)
    hi = list(inner)
    hi[1 + axis] = slice(2, None)
    lo = list(inner)
    lo[1 + axis] = slice(None, -2)
    out[tuple(inner)] = (
        values[tuple(hi)] - 2.0 * values[tuple(inner)] + values[tuple(lo)]
    ) / h**2
    return out


def dst_sine_squares(m):
    """``sin^2(pi k / (2 (m + 1)))`` for k = 1..m: the DST-I mode table.

    On an axis with ``m`` interior nodes and spacing ``h``, the 3-point
    second difference with zero walls has the DST-I modes for eigenvectors,
    with eigenvalues ``-(4 / h^2)`` times these entries.
    """
    return np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2


def dst_modes(values, dim):
    """DST-I coefficients of the interior nodes of the last ``dim`` axes of ``values``."""
    interior = values[(Ellipsis,) + (slice(1, -1),) * dim]
    return dstn(interior, type=1, axes=tuple(range(-dim, 0)))


def dst_nodes(modes, dim, out):
    """Node values of DST-I coefficients, written into the interior of ``out``.

    ``modes`` has the shape of that interior and is overwritten; the wall
    nodes of ``out`` are not written.  Returns ``out``.
    """
    out[(Ellipsis,) + (slice(1, -1),) * dim] = idstn(
        modes, type=1, axes=tuple(range(-dim, 0)), overwrite_x=True)
    return out


def whole_steps(horizon, dt):
    """``(count, step)``: ``dt`` rounded so that ``count >= 1`` whole steps fill ``horizon``."""
    count = max(1, int(round(horizon / dt)))
    return count, horizon / count


def stored_count(horizon, dt, store_every):
    """Snapshots a march stores, ``1 + ceil(steps / store_every)``.

    They are the initial state, every ``store_every``-th of the
    :func:`whole_steps` and the last.
    """
    return 1 - (-whole_steps(horizon, dt)[0] // store_every)


@dataclass
class Field:
    """Componentwise state on a grid: ``values`` has shape ``(m, *grid.shape)``.

    Constructors zero the boundary layer exactly when the domain carries
    Dirichlet data; solver steps maintain that invariant.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 + self.grid.dimension:
            raise SpecError("field values must have shape (m, *grid.shape)")
        if self.values.shape[1:] != self.grid.shape:
            raise SpecError(
                f"field extent {self.values.shape[1:]} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid, components):
        return cls(grid, np.zeros((components,) + grid.shape))

    @classmethod
    def from_arrays(cls, grid, arrays):
        values = np.array(arrays, dtype=float)
        if values.ndim == grid.dimension:
            values = values[None]
        fld = cls(grid, values)
        fld.values[(slice(None),) + grid.boundary] = 0.0
        return fld

    @classmethod
    def from_functions(cls, grid, funcs):
        pts = grid.points
        values = np.stack([np.broadcast_to(f(pts), grid.shape).astype(float) for f in funcs])
        return cls.from_arrays(grid, values)

    @property
    def components(self):
        return self.values.shape[0]

    def boundary_max_abs(self):
        return float(np.abs(self.values[(slice(None),) + self.grid.boundary]).max())

    def validate(self):
        if not np.isfinite(self.values).all():
            raise SpecError("field contains non-finite values")
        worst = self.boundary_max_abs()
        if worst != 0.0:
            raise SpecError(f"boundary values must be exactly 0, found {worst}")
        return self


def distinct_entries(a):
    """``a`` with every stride-0 axis cut to length 1, as a view.

    A broadcast array repeats its entries along such axes, so a check or an
    elementwise map over the view covers every distinct entry once.
    """
    return a[tuple(slice(0, 1) if step == 0 else slice(None) for step in a.strides)]


def _symmetrize(a_raw):
    # each matrix against its own scale, so a batch rejects what one call per
    # point would reject
    a_t = np.swapaxes(a_raw, -1, -2)
    scale = np.maximum(np.abs(a_raw).max(axis=(-2, -1), initial=0.0), 1.0)
    asym = float((np.abs(a_raw - a_t).max(axis=(-2, -1), initial=0.0) / scale).max(initial=0.0))
    if asym > ASYMMETRY_TOL:
        raise CoefficientError(f"diffusion matrix asymmetric beyond tolerance ({asym:.3e})")
    return 0.5 * (a_raw + a_t)


@dataclass
class CoefficientSet:
    """Evaluators for the second-order, drift, and source coefficients.

    ``diffusion(t, x, u)`` may return a shared ``(..., n, n)`` matrix or a
    per-component ``(..., m, n, n)`` stack, selected by
    ``per_component_diffusion``.  Evaluators must be pure: same inputs, same
    bits.  ``drift`` is ``None`` when the problem has no drift term; every
    caller then reads the drift as zero without evaluating anything.  When
    ``depends_on_gradient`` is False the source and drift ignore ``p`` by
    contract and callers may pass zeros.  When
    ``constant_diffusion`` is True the diffusion returns the same matrices
    for every ``t``, ``x`` and ``u`` by contract, so solvers may evaluate it
    once and build their implicit operators once.
    """

    diffusion: object
    drift: object
    source: object
    depends_on_gradient: bool = False
    per_component_diffusion: bool = False
    constant_diffusion: bool = False

    def diffusion_matrices(self, t, x, u, components):
        """Evaluate and normalize diffusion to shape ``(..., m, n, n)``.

        The checks and the symmetrization run once per distinct matrix of
        the evaluator's result (:func:`distinct_entries`); the result is a
        read-only view broadcast to the batch.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        batch = x.shape[:-1]
        a_raw = np.asarray(self.diffusion(t, x, u), dtype=float)
        if not np.isfinite(distinct_entries(a_raw)).all():
            raise CoefficientError("diffusion evaluator returned non-finite entries")
        if self.per_component_diffusion:
            want = batch + (components, n, n)
        else:
            want = batch + (n, n)
        try:
            a_full = np.broadcast_to(a_raw, want)
        except ValueError as exc:
            raise CoefficientError(f"diffusion shape {a_raw.shape} not broadcastable to {want}") from exc
        a_sym = _symmetrize(distinct_entries(a_full))
        if not self.per_component_diffusion:
            a_sym = a_sym[..., None, :, :]
        return np.broadcast_to(a_sym, batch + (components, n, n))

    def source_block(self, ts, x):
        """The source at each time of ``ts`` as ``at(j, u, p)``, bit for bit ``source(ts[j], x, u, p)``.

        A source with a ``block(ts, x)`` of its own, such as the competition
        source :class:`LVCoefficients`, may tabulate its coefficients over
        ``ts`` there.  Where it returns None, and for any other source, a
        wrapped one among them, this is the one fallback: one source call
        per step.
        """
        block = getattr(self.source, "block", None)
        at = block(ts, x) if block is not None else None
        if at is not None:
            return at
        source, times = self.source, np.asarray(ts, dtype=float).tolist()
        return lambda j, u, p: source(times[j], x, u, p)


def _broadcast_shape(values):
    """Broadcast shape of numbers and arrays; a number is shape ``()``.

    Reads ``.shape`` rather than wrapping each number in an array, since the
    tables of a small grid are built thousands of times per run.
    """
    shapes = {getattr(v, "shape", ()) for v in values}
    return shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)


def _table(values, shape):
    """The entries ``values``, in C order, as a table of ``shape`` after their broadcast shape."""
    out = np.empty(_broadcast_shape(values) + shape)
    flat = out.reshape(out.shape[:out.ndim - len(shape)] + (-1,))
    for e, v in enumerate(values):
        flat[..., e] = v
    return out


@dataclass
class LVCoefficients:
    """Competition-system coefficients: per-species diffusion, growth, interaction.

    ``growth[k]`` and ``interaction[k][i]`` are callables ``(t, x) -> array``
    broadcasting over the batch shape of ``x[..., :n]``, with ``t`` a scalar
    or an array that broadcasts to that batch shape.  The source is

        c^k(t, x, u) = u^k * (growth_k(t,x) - sum_i interaction_ki(t,x) u^i) + shift_k,

    where the optional constant ``shift`` (None for none) is added after the
    product; :meth:`growth_values` and :meth:`interaction_values` never
    include it.  Calling the coefficients, ``lv(t, x, u, p=None)``, is the
    one way to evaluate the source, so ``lv`` serves as a coefficient set's
    source as it is; :meth:`block` tabulates it over a block of times where
    it can.

    The growth and interaction tables have the broadcast shape of their
    entries, not the batch shape: space-constant coefficients at a scalar
    ``t`` give an ``(m,)`` and an ``(m, m)`` table, which the source
    broadcasts against ``u``.  An array ``t`` or a varying space profile
    gives tables of its shape: the kernel route's ``(J + 1, 1, ...)`` times
    give ``(J + 1, 1, ..., m, m)`` tables on space-constant entries.

    For two species, :meth:`FrozenSystem.order` maps the classical symbols
    beta, gamma, delta, rho, sigma, theta onto these entries.
    """

    diffusion: np.ndarray
    growth: tuple
    interaction: tuple
    shift: np.ndarray | None = None
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.diffusion = np.asarray(self.diffusion, dtype=float)
        m = self.diffusion.shape[0]
        if np.any(self.diffusion <= 0.0):
            raise SpecError("diffusion constants must be positive")
        if len(self.growth) != m:
            raise SpecError("growth list length must equal species count")
        if len(self.interaction) != m or any(len(row) != m for row in self.interaction):
            raise SpecError("interaction must be an m-by-m table")
        if self.shift is not None:
            self.shift = np.asarray(self.shift, dtype=float)
            if self.shift.shape != (m,):
                raise SpecError("source shift must list one value per species")
        self.growth = tuple(self.growth)
        self.interaction = tuple(tuple(row) for row in self.interaction)

    @property
    def species(self):
        return self.diffusion.shape[0]

    def _entries(self, x):
        """Each coefficient with its space profile on ``x``, built once per ``x`` object.

        The growth coefficients come first, then the interaction by row.  A
        separable coefficient ``time_part(t) * space_part(x)`` keeps its
        space profile here: a Python float when the profile is one bitwise
        constant value, else the array.  Other coefficients get None and are
        called as ``f(t, x)``.  The memo holds one entry, keyed on the
        identity of ``x``; marches pass the same ``Grid.points`` every step.
        """
        memo = self._memo
        if memo is not None and memo[0] is x:
            return memo[1]
        from .coefficients import Coefficient  # local import: coefficients imports model

        arr = np.asarray(x, dtype=float)

        def profile(f):
            if not isinstance(f, Coefficient):
                return None
            prof = np.asarray(f.space_part(arr), dtype=float)
            bits = np.ascontiguousarray(prof).view(np.uint64).ravel()
            if prof.shape == arr.shape[:-1] and bits.size and (bits == bits[0]).all():
                return float(prof.flat[0])
            return prof

        coefficients = [*self.growth, *(f for row in self.interaction for f in row)]
        entries = [(f, profile(f)) for f in coefficients]
        self._memo = (x, entries)
        return entries

    @staticmethod
    def _value(f, prof, t, x):
        # the product Coefficient.__call__ computes, with the space part reused
        if prof is None:
            return f(t, x)
        return f.time_part(t) * prof

    def growth_values(self, t, x):
        """The growth table, ``shape + (m,)`` for the broadcast ``shape`` of its entries."""
        m = self.species
        return _table([self._value(f, prof, t, x) for f, prof in self._entries(x)[:m]], (m,))

    def interaction_values(self, t, x):
        """The interaction table, ``shape + (m, m)`` as for :meth:`growth_values`."""
        m = self.species
        return _table([self._value(f, prof, t, x) for f, prof in self._entries(x)[m:]], (m, m))

    def _source(self, beta, gam, u):
        # u * (beta - gam u), operands in that order, in the einsum's own
        # output, then the shift
        out = np.einsum("...ki,...i->...k", gam, u)
        np.subtract(beta, out, out=out)
        np.multiply(u, out, out=out)
        if self.shift is not None:
            np.add(out, self.shift, out=out)
        return out

    def __call__(self, t, x, u, p=None):
        """The source at ``(t, x, u)``; the gradient ``p`` is never read."""
        u = np.asarray(u, dtype=float)
        return self._source(self.growth_values(t, x), self.interaction_values(t, x), u)

    def block(self, ts, x):
        """The source at each time of ``ts`` as ``at(j, u, p)``, bit for bit ``self(ts[j], x, u)``.

        When every coefficient is separable with a space profile of one
        constant value, each time part is evaluated once, over all of
        ``ts``, both tables are built for the whole block, and step ``j``
        reads row ``j`` of each.  Any other coefficient set gives None, and
        :meth:`CoefficientSet.source_block` calls the source per step.
        """
        entries = self._entries(x)
        if not all(isinstance(prof, float) for _, prof in entries):
            return None
        ts = np.asarray(ts, dtype=float)
        m = self.species
        columns = [np.broadcast_to(f.time_part(ts), ts.shape) * prof for f, prof in entries]
        beta, gam = _table(columns[:m], (m,)), _table(columns[m:], (m, m))
        return lambda j, u, p: self._source(beta[j], gam[j], u)


class FrozenSystem:
    """The two-species competition system with its coefficients frozen on the nodes.

    ``coefficients`` are the six of :meth:`order`, each broadcast to
    ``grid.shape``.  Frozen at t = 0 it gives InitMonotone's initial slopes;
    frozen at the limit it is the elliptic system of the weak residuals.
    """

    def __init__(self, grid, diffusion, coefficients):
        if len(diffusion) != 2 or len(coefficients) != 6:
            raise SpecError("the two-species system has two diffusions and six coefficients")
        self.grid, self.diffusion = grid, diffusion
        self.coefficients = tuple(np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
                                  for c in coefficients)

    @staticmethod
    def order(lv):
        """beta, gamma, delta, rho, sigma, theta: the entries of two-species ``lv``."""
        if lv.species != 2:
            raise SpecError(f"the two-species system is not defined for {lv.species} species")
        return (lv.growth[0], *lv.interaction[0], lv.growth[1], *lv.interaction[1])

    def reaction(self, u, v):
        """The reaction terms u (beta - gamma u - delta v) and v (rho - sigma u - theta v)."""
        beta, gamma, delta, rho, sigma, theta = self.coefficients
        return u * (beta - gamma * u - delta * v), v * (rho - sigma * u - theta * v)

    def residual(self, u, v):
        """``d_k * lap_h(w_k) + reaction_k`` for w = (u, v), zero Laplacian on the faces."""
        w = np.stack([u, v])
        lap = sum(second_difference(w, self.grid, axis) for axis in range(self.grid.dimension))
        lap[(slice(None),) + self.grid.boundary] = 0.0
        return tuple(d * dw + r for d, dw, r in zip(self.diffusion, lap, self.reaction(u, v)))


@dataclass
class Majorants:
    """User-supplied dissipativity constants that the A2 / A2' checks test for dominance."""

    d1: float | None = None
    d2: float | None = None

    def __post_init__(self):
        for name in ("d1", "d2"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise SpecError(f"{name} must be non-negative")


@dataclass
class ProblemSpec:
    """A complete initial-boundary value problem, posed on its initial field's domain."""

    coefficients: CoefficientSet
    initial: Field
    horizon: float
    lv: LVCoefficients | None = None

    def __post_init__(self):
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise SpecError("horizon must be positive and finite")
        self.initial.validate()
        if self.lv is not None and self.lv.species != self.components:
            raise SpecError("species count does not match initial data components")

    @property
    def domain(self):
        return self.initial.grid.domain

    @property
    def components(self):
        return self.initial.components

    @property
    def dimension(self):
        return self.domain.dimension


def build_lv_problem(lv, initial, horizon):
    """Wrap competition coefficients as a full problem spec on ``initial``'s domain.

    There is no drift (``drift=None``), diffusion is the per-species
    constant diagonal, and the source is ``lv`` itself, which never reads
    the gradient.
    """
    n = initial.grid.dimension
    m = lv.species
    diag = np.zeros((m, n, n))
    for k in range(m):
        diag[k, np.arange(n), np.arange(n)] = lv.diffusion[k]

    def diffusion(t, x, u, _diag=diag):
        batch = np.asarray(x).shape[:-1]
        return np.broadcast_to(_diag, batch + (m, n, n))

    coeffs = CoefficientSet(
        diffusion=diffusion,
        drift=None,
        source=lv,
        depends_on_gradient=False,
        per_component_diffusion=True,
        constant_diffusion=True,
    )
    return ProblemSpec(coefficients=coeffs, initial=initial, horizon=horizon, lv=lv)


@dataclass(frozen=True)
class CutoffFunction:
    """Radial C^2 plateau: 1 inside radius - width, 0 outside radius.

    The shoulder is the quintic smoothstep, so first and second derivatives
    vanish at both ends of the transition.
    """

    radius: float
    width: float

    def radial(self, rho):
        rho = np.asarray(rho, dtype=float)
        s = np.clip((self.radius - rho) / self.width, 0.0, 1.0)
        return s * s * s * (s * (6.0 * s - 15.0) + 10.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.radial(np.abs(x))
        rho = np.sqrt((x * x).sum(axis=-1))
        return self.radial(rho)


def build_cutoff(radius, transition_width=1.0):
    if radius <= 0:
        raise SpecError("cutoff radius must be positive")
    if not 0 < transition_width <= radius:
        raise SpecError("transition width must lie in (0, radius]")
    return CutoffFunction(radius=float(radius), width=float(transition_width))
