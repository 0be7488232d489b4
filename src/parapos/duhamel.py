"""Integral-equation solver built on the Gaussian heat kernel.

This is the second, independent route to the solution: instead of stepping a
difference scheme, it iterates the variation-of-constants map

    v(t) = (kernel evolution of the initial state) + integral of
           (kernel evolution of the source, lagged by t - s) ds

to its fixed point on short time windows whose length keeps the map a
contraction.  The source is always evaluated at the componentwise absolute
value of the iterate, which is exactly the device that forces the fixed
point into the non-negative cone when the source is benign on the faces.

The kernel with diffusion rate ``d`` has variance ``d * t`` per axis, so it
generates ``(d / 2) * laplacian``.  Callers who want the evolution of
``u_t = D * laplacian(u)`` must hand in ``rate = 2 * D``; ``picard_solve``
does this internally from the problem's diffusion matrices.

States are extended by zero outside the box, everywhere.  No boundary
correction is applied, so on a zero-Dirichlet box this route is only
accurate while the state stays concentrated away from the boundary; the
callers that cross-check it against the difference schemes pick their data
accordingly.

Spatial convolutions are separable per axis.  Each axis operator is either a
trapezoid quadrature matrix (kernel tails truncated beyond
``truncation_sigmas`` standard deviations) or, when the kernel width falls
under ``taylor_threshold`` grid spacings and trapezoid quadrature would
alias, a second-order Taylor expansion of the evolution operator in the
discrete Laplacian.  On a uniform axis the quadrature matrix is Toeplitz, so
an operator keeps only its profile over the ``2n - 1`` node offsets, and
applies only the band where the profile is nonzero: every block of rows of
the matrix is the same small block, so one product with it covers the axis
and no ``n x n`` matrix is built.

Time quadrature of the integral term is composite trapezoid in the source
time, except for the final panel, which is integrated by its midpoint: the
kernel is evaluated at half a panel of lag and the source endpoint values
are averaged.  Its one copy is ``_duhamel_quadrature``, which both
``duhamel_apply`` and the Picard sweep call.  It is batched by lag: the
source slices that share one lag operator go through it in one application,
so a sweep over ``J`` steps makes ``J + 1`` applications per component, not
``O(J^2)``.  The source-Jacobian samples that size the Picard windows come
from :func:`checker.source_jacobians`.

The source is evaluated once per Picard sweep, over every time slice of the
window: ``t`` is the window's times shaped to broadcast against the grid,
and ``x`` the grid's points broadcast to the window, built once per window.
It receives a zero gradient, so a coefficient set whose source reads the
gradient (``depends_on_gradient``) is refused, like one with a drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .checker import source_jacobians
from .errors import DomainError, NonContraction, SolverError, SpecError
from .model import Grid

__all__ = [
    "KernelConfig", "KernelOperator", "PicardConfig", "PicardResult",
    "duhamel_apply", "heat_kernel", "picard_solve",
]


@dataclass(frozen=True)
class KernelConfig:
    truncation_sigmas: float = 7.0
    taylor_threshold: float = 1.2
    mass_tol: float = 1e-10

    def __post_init__(self):
        if self.truncation_sigmas < 6.0:
            raise SpecError("kernel truncation must keep at least six standard deviations")
        if self.taylor_threshold <= 0:
            raise SpecError("taylor_threshold must be positive")


def heat_kernel(t, x, rate, dim=None):
    """Gaussian kernel with per-axis variance ``rate * t``.

    ``x`` is a point or an array of points whose last axis is the space
    dimension; a scalar or zero-dimensional input is treated as one
    dimensional.  ``t`` must be positive.
    """
    if not t > 0:
        raise DomainError("heat kernel needs t > 0")
    if not rate > 0:
        raise DomainError("heat kernel needs a positive rate")
    arr = np.asarray(x, dtype=float)
    if dim is None:
        dim = 1 if arr.ndim == 0 else arr.shape[-1]
    if arr.ndim == 0:
        sq = arr * arr
    else:
        sq = (arr * arr).sum(axis=-1)
    var = rate * t
    return (2.0 * math.pi * var) ** (-dim / 2.0) * np.exp(-sq / (2.0 * var))


# --------------------------------------------------------------- axis ops

def _gauss_profile(z, sigma, cutoff):
    out = np.exp(-(z * z) / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
    out[np.abs(z) > cutoff] = 0.0
    return out


class _Band(NamedTuple):
    """A Toeplitz axis operator: its profile, band half-width and block height."""

    profile: np.ndarray
    w: int
    s: int


def _toeplitz_band(profile):
    """The band of a profile over the ``2n - 1`` offsets ``n - 1 .. -(n - 1)``.

    ``w`` is the largest offset with a nonzero entry, and ``s = max(w, 16)``
    rows (``n`` on a shorter axis) the height of the blocks ``_apply_axis``
    cuts the axis into.
    """
    n = (len(profile) + 1) // 2
    w = int(np.abs(np.flatnonzero(profile) - (n - 1)).max())
    return _Band(profile, w, min(max(w, 16), n))


def _axis_operator(n, h, variance, cfg):
    """One-axis evolution operator for a kernel of the given variance.

    Returns ``("taylor", a)`` with ``a = variance / 2`` when the kernel is too
    narrow for trapezoid quadrature, otherwise ``("toeplitz", band)``.  On
    the uniform axis of ``n`` nodes the quadrature matrix ``h g(x_i - x_j)``
    depends on ``i - j`` alone, so ``band.profile`` holds its ``2n - 1``
    entries ``h g(d h)`` for ``d = n - 1`` down to ``-(n - 1)``;
    ``_apply_axis`` applies the matrix it defines, which acts on node values
    extended by zero outside the axis range.  The offsets are ``d h``, not
    differences of node coordinates, so the profile is exactly symmetric and
    a node at the cutoff is in or out of the band on both sides alike.  The
    band's half-width and block height are found here, once per operator.
    """
    sigma = math.sqrt(variance)
    if sigma < cfg.taylor_threshold * h:
        return ("taylor", variance / 2.0)
    cutoff = cfg.truncation_sigmas * sigma
    profile = h * _gauss_profile(np.arange(n - 1, -n, -1) * h, sigma, cutoff)
    center = n // 2
    # the centre row of the matrix: offsets center down to center - (n - 1)
    mass = float(profile[n - 1 - center:2 * n - 1 - center].sum())
    if abs(mass - 1.0) > cfg.mass_tol:
        raise SolverError(
            f"kernel quadrature mass {mass!r} is off by more than "
            f"{cfg.mass_tol:g}; the grid cannot resolve this kernel")
    return ("toeplitz", _toeplitz_band(profile))


def _second_diff_zero_extension(values, axis, h):
    lead = (slice(None),) * axis
    inner, outer = lead + (slice(1, None),), lead + (slice(None, -1),)
    out = -2.0 * values
    out[inner] += values[outer]
    out[outer] += values[inner]
    out /= h * h
    return out


def _toeplitz_block(band, s):
    """``(s + 2w) x s`` block ``K[c, r] = band[c - r]``, zero off the band."""
    span = len(band) + s - 1
    # rows of s + 2w + 1 read back as rows of s + 2w: each row is the band
    # shifted one node further right, which is column r of K
    rows = np.zeros((s, span + 1))
    rows[:, :len(band)] = band
    return rows.ravel()[:s * span].reshape(s, span).T


def _apply_axis(op, values, axis, h):
    """Apply one axis operator along ``axis``, counted from the front.

    A Toeplitz operator acts as ``M[i, j] = p[n - 1 - (i - j)]``, which is
    zero for ``|i - j| > w``, the band half-width.  The axis is padded with
    ``w`` zeros on each side and cut into blocks of ``s`` rows; every block
    of ``M`` is the same ``(s + 2w) x s`` matrix acting on an input window of
    ``s + 2w`` nodes, so the whole application is one product of the stacked
    windows with that block, ``B n (s + 2w)`` multiply-adds for ``B``
    slices.
    """
    kind, payload = op
    if kind == "toeplitz":
        profile, w, s = payload
        n = values.shape[axis]
        blocks = -(-n // s)
        moved = values.swapaxes(axis, -1)
        lead = moved.shape[:-1]
        padded = np.zeros(lead + (blocks * s + 2 * w,))
        padded[..., w:w + n] = moved
        windows = as_strided(padded, lead + (blocks, s + 2 * w),
                             padded.strides[:-1] + (s * padded.itemsize,
                                                    padded.itemsize),
                             writeable=False)
        block = _toeplitz_block(profile[n - 1 - w:n + w], s)
        out = windows.reshape(-1, s + 2 * w) @ block
        return out.reshape(lead + (blocks * s,))[..., :n].swapaxes(axis, -1)
    a = payload
    d1 = _second_diff_zero_extension(values, axis, h)
    d2 = _second_diff_zero_extension(d1, axis, h)
    return values + a * d1 + 0.5 * a * a * d2


class KernelOperator:
    """Separable zero-extension evolution operator: one component, one lag.

    ``apply`` takes one array shaped like the grid or a stack of them: any
    leading axes are batch axes and the grid's axes come last.  Each
    quadrature axis is held as its Toeplitz profile (``2n - 1`` floats); a
    stack goes through its band as one block-banded product.
    """

    def __init__(self, grid, rate, tau, cfg=None):
        if tau < 0:
            raise DomainError("kernel lag must be non-negative")
        cfg = cfg or KernelConfig()
        self.grid = grid
        self.identity = tau == 0.0
        if not self.identity:
            variance = rate * tau
            self.ops = [
                _axis_operator(grid.shape[ax], grid.spacing[ax], variance, cfg)
                for ax in range(grid.dimension)
            ]

    def apply(self, values):
        """Evolve an array shaped ``(*batch, *grid.shape)``; batch may be empty."""
        if self.identity:
            return values.copy()
        first = values.ndim - self.grid.dimension
        out = values
        for ax in range(self.grid.dimension):
            out = _apply_axis(self.ops[ax], out, first + ax, self.grid.spacing[ax])
        return out


def duhamel_apply(values, grid, rates, tau, source=None, source_times=None,
                  config=None):
    """Variation-of-constants map over one time lag.

    The homogeneous part convolves each component with the kernel of variance
    ``rate * tau``; ``rates`` is a scalar or one rate per component.  With
    ``tau = 0`` the input is returned unchanged (as a copy).

    ``source``, when given, is a history of the inhomogeneity on a uniform
    time lattice from 0 to ``tau``: shape ``(J + 1, m, *grid.shape)`` with
    ``source_times`` the matching lattice.  The time integral uses composite
    trapezoid weights on all but the final panel; the final panel is
    integrated by its midpoint, with the kernel lagged by half a panel and
    the two endpoint source values averaged.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    rates = np.broadcast_to(np.asarray(rates, dtype=float), (m,)).astype(float)
    hom = np.empty_like(values)
    for k in range(m):
        hom[k] = KernelOperator(grid, float(rates[k]), tau, config).apply(values[k])
    if source is None or tau == 0:
        return hom
    if source_times is None:
        raise SpecError("a source history needs its matching time lattice")
    source = np.asarray(source, dtype=float)
    stimes = np.asarray(source_times, dtype=float)
    if source.ndim != values.ndim + 1 or source.shape[1:] != values.shape:
        raise SpecError("source history must stack state-shaped slices")
    if stimes.shape != (source.shape[0],) or source.shape[0] < 2:
        raise SpecError("source history needs one time per slice, at least two")
    ds = stimes[1] - stimes[0]
    if np.abs(np.diff(stimes) - ds).max() > 1e-9 * max(ds, 1.0):
        raise SpecError("source history must be sampled uniformly in time")
    if abs(stimes[0]) > 1e-12 or abs(stimes[-1] - tau) > 1e-9 * max(tau, 1.0):
        raise SpecError("source history must run from 0 to the requested lag")
    evolve = _lag_evolver(grid, rates, ds, config)
    last = source.shape[0] - 1
    return hom + ds * _duhamel_quadrature(source, evolve, first=last)[0]


def _lag_evolver(grid, rates, dt, cfg):
    """``evolve(values, n)``: every component evolved over ``n`` half panels.

    ``values`` is one state ``(m, *grid.shape)`` or a stack of states
    ``(..., m, *grid.shape)``; each component's operator is applied once to
    all of its slices.  A half panel is ``dt / 2`` of lag, so the midpoint
    panel shares the cache.  Operators are built on first use and kept per
    (component, n).
    """
    ops = {}
    dim = grid.dimension

    def evolve(values, half_steps):
        out = np.empty_like(values)
        lead = (slice(None),) * (values.ndim - dim - 1)
        for k in range(len(rates)):
            key = (k, half_steps)
            if key not in ops:
                ops[key] = KernelOperator(grid, float(rates[k]),
                                          half_steps * dt / 2.0, cfg)
            out[lead + (k,)] = ops[key].apply(values[lead + (k,)])
        return out

    return evolve


def _duhamel_quadrature(history, evolve, first=1):
    """Integrals over [0, s_j] of the source history evolved to s_j, j >= first.

    ``history[l]`` is the source at s_l = l dt for l = 0..J.  Row j of the
    result (shape ``(J - first + 1, m, *grid.shape)``) is composite trapezoid
    over the first j - 1 panels and midpoint on the last: the kernel lagged
    by half a panel acts on the average of its two endpoint values.  The
    trapezoid weights are 1/2 on s_0 and s_{j-1} and 1 in between.  Returns
    the weighted sums, to be scaled by dt.

    All rows are filled at once.  The midpoint terms are one application at
    half a panel; then, for each lag d = J..1, the slices that lag d carries
    to a requested row go through that lag's operator together.  Each row
    therefore sums its midpoint term first, then its terms from the longest
    lag to the shortest.
    """
    last = len(history) - 1
    acc = evolve(0.5 * (history[first - 1:last] + history[first:]), 1)
    for lag in range(last, 0, -1):
        # row j takes s_{j-lag}; row 1 has only its midpoint panel
        lo = max(first, lag, 2)
        if lo > last:
            continue
        term = evolve(history[lo - lag:last - lag + 1], 2 * lag)
        if lag == 1:
            term *= 0.5          # s_{j-1}, every row
        elif lo == lag:
            term[0] *= 0.5       # s_0, row j = lag
        acc[lo - first:] += term
    return acc


# ------------------------------------------------------------ picard route

@dataclass(frozen=True)
class PicardConfig:
    dt: float = 1e-2
    tol: float = 1e-10
    max_iter: int = 60
    burn_in: int = 2
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise SpecError("dt must be positive and finite")
        if self.max_iter < 3:
            raise SpecError("max_iter must allow at least three sweeps")


@dataclass
class PicardResult:
    grid: Grid
    times: np.ndarray
    values: np.ndarray           # (len(times), m, *grid.shape)
    window_edges: list
    iterations: list             # sweeps per window
    contraction_ratios: list     # per window, ratio sequence after burn-in
    jacobian_sup: float

    @property
    def final_values(self):
        return self.values[-1]


def _extract_rates(spec):
    """Per-component kernel rates 2 * D_k; demands constant isotropic diffusion."""
    m = spec.components
    n = spec.dimension
    lo = np.asarray([b[0] for b in spec.domain.bounds])
    hi = np.asarray([b[1] for b in spec.domain.bounds])
    # three probes (t, x, u), one row each
    t = np.array([0.0, spec.horizon / 2.0, spec.horizon])
    x = lo + np.array([[0.5], [0.3], [0.7]]) * (hi - lo)
    u = np.array([np.zeros(m), np.ones(m), np.full(m, 0.5)])
    mats = spec.coefficients.diffusion_matrices(t, x, u, m)
    base = mats[0]
    if np.abs(mats[1:] - base).max() > 1e-10 * (1.0 + np.abs(base).max()):
        raise SpecError("kernel route needs diffusion constant in time and state")
    rates = np.empty(m)
    for k in range(m):
        a = base[k]
        off = a - np.diag(np.diag(a))
        if np.abs(off).max() > 1e-12 * (1.0 + np.abs(a).max()):
            raise SpecError("kernel route needs axis-aligned diffusion")
        d = np.diag(a)
        if np.ptp(d) > 1e-12 * (1.0 + np.abs(d).max()):
            raise SpecError("kernel route needs isotropic diffusion per component")
        if d[0] <= 0:
            raise SpecError("kernel route needs positive diffusion")
        rates[k] = 2.0 * float(d[0])
    b = np.asarray(spec.coefficients.drift(t, x, u, np.zeros((3, m, n))), dtype=float)
    if np.abs(b).max() > 1e-14:
        raise SpecError("kernel route does not support drift terms")
    if spec.coefficients.depends_on_gradient:
        raise SpecError("kernel route needs a source that does not read the gradient")
    return rates


def _source_at(spec, t, x, values):
    """Source at the absolute value of a stack of states ``(J + 1, m, *grid)``.

    ``t`` and ``x`` broadcast to the batch ``(J + 1, *grid)``, so one call
    covers every time slice.  The gradient passed is a read-only zero view:
    ``_extract_rates`` admits only sources that do not read it.
    """
    u = np.moveaxis(np.abs(values), 1, -1)
    p = np.broadcast_to(0.0, u.shape + (x.shape[-1],))
    c = np.asarray(spec.coefficients.source(t, x, u, p), dtype=float)
    return np.moveaxis(np.broadcast_to(c, u.shape), -1, 1)


def picard_solve(spec, config=None):
    """Fixed-point solve of the integral formulation on contraction windows.

    The step is ``config.dt`` rounded so that a whole number of steps spans
    the horizon.  The window length is chosen so that (sampled
    source-Jacobian sup) times (window length) stays at or under one half,
    then rounded down to a whole number of those steps (at least one).
    Within each window the sweep is iterated until the sup change falls
    under ``tol`` (relative to the state size); three consecutive growths of
    the change raise NonContraction, as does running out of sweeps.  The
    integral term is ``_duhamel_quadrature``, the quadrature
    ``duhamel_apply`` uses: composite trapezoid with a midpoint final panel,
    batched by lag over the whole window.
    """
    config = config or PicardConfig()
    grid = spec.initial.grid
    spec.initial.validate()
    rates = _extract_rates(spec)

    amp = 2.0 * max(1.0, float(np.abs(spec.initial.values).max()))
    j_hat = float(np.abs(source_jacobians(spec, amp)).max())
    total_steps = max(1, int(round(spec.horizon / config.dt)))
    dt = spec.horizon / total_steps
    if j_hat > 0:
        window_steps = max(1, int(math.floor(0.5 / (j_hat * dt))))
    else:
        window_steps = total_steps

    evolve = _lag_evolver(grid, rates, dt, config.kernel)

    u0 = spec.initial.values.copy()
    t0 = 0.0
    times = [0.0]
    states = [u0[None].copy()]
    window_edges = [0.0]
    iterations = []
    ratios_all = []

    steps_done = 0
    while steps_done < total_steps:
        span = min(window_steps, total_steps - steps_done)
        # (span + 1, m, *grid) arrays, row j at time t0 + j dt
        hom = np.empty((span + 1,) + u0.shape)
        for j in range(span + 1):
            hom[j] = evolve(u0, 2 * j)
        v = hom
        # the window's times and points, broadcast to its (span + 1, *grid) batch
        stimes = t0 + np.arange(span + 1) * dt
        t = stimes.reshape((span + 1,) + (1,) * grid.dimension)
        x = np.broadcast_to(grid.points, (span + 1,) + grid.points.shape)
        prev_change = None
        streak = 0
        ratios = []
        sweeps = 0
        for sweep in range(config.max_iter):
            sweeps = sweep + 1
            gam = _source_at(spec, t, x, v)
            new = hom.copy()
            new[1:] += dt * _duhamel_quadrature(gam, evolve)
            change = float(np.abs(new[1:] - v[1:]).max())
            scale = 1.0 + float(np.abs(new).max())
            v = new
            if prev_change is not None:
                if prev_change > 0:
                    ratio = change / prev_change
                    if sweep >= config.burn_in:
                        ratios.append(ratio)
                streak = streak + 1 if change > prev_change else 0
                if streak >= 3:
                    raise NonContraction(
                        f"sweep changes grew three times in a row near t={t0:g} "
                        f"(last changes {prev_change:g} -> {change:g})")
            if change <= config.tol * scale:
                break
            prev_change = change
        else:
            raise NonContraction(
                f"no fixed point within {config.max_iter} sweeps near t={t0:g}")
        iterations.append(sweeps)
        ratios_all.append(ratios)
        times.extend(stimes[1:].tolist())
        states.append(v[1:])
        u0 = v[span]
        t0 += span * dt
        steps_done += span
        window_edges.append(t0)

    return PicardResult(
        grid=grid,
        times=np.asarray(times),
        values=np.concatenate(states),
        window_edges=window_edges,
        iterations=iterations,
        contraction_ratios=ratios_all,
        jacobian_sup=j_hat,
    )
