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
dense quadrature matrix (trapezoid weights, kernel tails truncated beyond
``truncation_sigmas`` standard deviations) or, when the kernel width falls
under ``taylor_threshold`` grid spacings and trapezoid quadrature would
alias, a second-order Taylor expansion of the evolution operator in the
discrete Laplacian.

Time quadrature of the integral term is composite trapezoid in the source
time, except for the final panel, which is integrated by its midpoint: the
kernel is evaluated at half a panel of lag and the source endpoint values
are averaged.  Its one copy is ``_duhamel_integral``, which both
``duhamel_apply`` and the Picard sweep call.  The source-Jacobian samples
that size the Picard windows come from :func:`checker.source_jacobians`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _axis_operator(axis_pts, h, variance, cfg):
    """One-axis evolution operator for a kernel of the given variance.

    Returns ``("taylor", a)`` with ``a = variance / 2`` when the kernel is too
    narrow for trapezoid quadrature, otherwise ``("dense", K)``.  The dense
    matrix acts on node values extended by zero outside the axis range.
    """
    sigma = math.sqrt(variance)
    if sigma < cfg.taylor_threshold * h:
        return ("taylor", variance / 2.0)
    cutoff = cfg.truncation_sigmas * sigma
    z = axis_pts[:, None] - axis_pts[None, :]
    mat = h * _gauss_profile(z, sigma, cutoff)
    center = len(axis_pts) // 2
    mass = float(mat[center].sum())
    if abs(mass - 1.0) > cfg.mass_tol:
        raise SolverError(
            f"kernel quadrature mass {mass!r} is off by more than "
            f"{cfg.mass_tol:g}; the grid cannot resolve this kernel")
    return ("dense", mat)


def _second_diff_zero_extension(values, axis, h):
    v = np.moveaxis(values, axis, 0)
    out = -2.0 * v
    out[1:] += v[:-1]
    out[:-1] += v[1:]
    out /= h * h
    return np.moveaxis(out, 0, axis)


def _apply_axis(op, values, axis, h):
    kind, payload = op
    if kind == "dense":
        moved = np.moveaxis(values, axis, -1)
        out = moved @ payload.T
        return np.moveaxis(out, -1, axis)
    a = payload
    d1 = _second_diff_zero_extension(values, axis, h)
    d2 = _second_diff_zero_extension(d1, axis, h)
    return values + a * d1 + 0.5 * a * a * d2


class KernelOperator:
    """Separable zero-extension evolution operator: one component, one lag."""

    def __init__(self, grid, rate, tau, cfg=None):
        if tau < 0:
            raise DomainError("kernel lag must be non-negative")
        cfg = cfg or KernelConfig()
        self.grid = grid
        self.identity = tau == 0.0
        if not self.identity:
            variance = rate * tau
            self.ops = [
                _axis_operator(np.asarray(grid.axes[ax]), grid.spacing[ax],
                               variance, cfg)
                for ax in range(grid.dimension)
            ]

    def apply(self, values):
        """Evolve one component array shaped like the grid."""
        if self.identity:
            return values.copy()
        out = values
        for ax in range(self.grid.dimension):
            out = _apply_axis(self.ops[ax], out, ax, self.grid.spacing[ax])
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
    return hom + ds * _duhamel_integral(source, source.shape[0] - 1, evolve)


def _lag_evolver(grid, rates, dt, cfg):
    """``evolve(values, n)``: every component evolved over ``n`` half panels.

    A half panel is ``dt / 2`` of lag, so the midpoint panel shares the
    cache.  Operators are built on first use and kept per (component, n).
    """
    ops = {}

    def evolve(values, half_steps):
        out = np.empty_like(values)
        for k in range(len(rates)):
            key = (k, half_steps)
            if key not in ops:
                ops[key] = KernelOperator(grid, float(rates[k]),
                                          half_steps * dt / 2.0, cfg)
            out[k] = ops[key].apply(values[k])
        return out

    return evolve


def _duhamel_integral(history, j, evolve):
    """Integral over [0, s_j] of the source history evolved to time s_j.

    ``history[l]`` is the source at s_l = l dt.  Composite trapezoid over the
    first j - 1 panels and midpoint on the last: the kernel lagged by half a
    panel acts on the average of its two endpoint values.  Returns the sum
    of the weighted terms, to be scaled by dt.
    """
    acc = evolve(0.5 * (history[j - 1] + history[j]), 1)
    if j >= 2:
        acc += 0.5 * evolve(history[0], 2 * j)
        for l in range(1, j - 1):
            acc += evolve(history[l], 2 * (j - l))
        acc += 0.5 * evolve(history[j - 1], 2)
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
    probes = [
        (0.0, lo + 0.5 * (hi - lo), np.zeros(m)),
        (spec.horizon / 2.0, lo + 0.3 * (hi - lo), np.ones(m)),
        (spec.horizon, lo + 0.7 * (hi - lo), np.full(m, 0.5)),
    ]
    mats = [spec.coefficients.diffusion_matrices(t, x, u, m) for t, x, u in probes]
    base = mats[0]
    for other in mats[1:]:
        if np.abs(other - base).max() > 1e-10 * (1.0 + np.abs(base).max()):
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
    p0 = np.zeros((m, n))
    for t, x, u in probes:
        b = np.asarray(spec.coefficients.drift(t, x, u, p0), dtype=float)
        if np.abs(b).max() > 1e-14:
            raise SpecError("kernel route does not support drift terms")
    return rates


def _source_at(spec, t, grid, values):
    """Source on the grid, evaluated at the absolute value of the state."""
    u = np.moveaxis(np.abs(values), 0, -1)
    p = np.zeros(u.shape + (grid.dimension,))
    c = np.asarray(spec.coefficients.source(t, grid.points, u, p), dtype=float)
    return np.moveaxis(np.broadcast_to(c, u.shape), -1, 0)


def picard_solve(spec, config=None):
    """Fixed-point solve of the integral formulation on contraction windows.

    The window length is chosen so that (sampled source-Jacobian sup) times
    (window length) stays at or under one half, then rounded down to a whole
    number of dt steps.  Within each window the sweep is iterated until the
    sup change falls under ``tol`` (relative to the state size); three
    consecutive growths of the change raise NonContraction, as does running
    out of sweeps.  The integral term is ``_duhamel_integral``, the
    quadrature ``duhamel_apply`` uses: composite trapezoid with a midpoint
    final panel.
    """
    config = config or PicardConfig()
    grid = spec.initial.grid
    spec.initial.validate()
    rates = _extract_rates(spec)

    amp = 2.0 * max(1.0, float(np.abs(spec.initial.values).max()))
    j_hat = float(np.abs(source_jacobians(spec, amp)).max())
    dt = config.dt
    if j_hat > 0:
        window_steps = max(1, int(math.floor(0.5 / (j_hat * dt))))
    else:
        window_steps = max(1, int(round(spec.horizon / dt)))
    total_steps = max(1, int(round(spec.horizon / dt)))
    dt = spec.horizon / total_steps

    evolve = _lag_evolver(grid, rates, dt, config.kernel)

    u0 = spec.initial.values.copy()
    t0 = 0.0
    times = [0.0]
    states = [u0.copy()]
    window_edges = [0.0]
    iterations = []
    ratios_all = []

    steps_done = 0
    while steps_done < total_steps:
        span = min(window_steps, total_steps - steps_done)
        hom = [evolve(u0, 2 * j) for j in range(span + 1)]
        v = [h.copy() for h in hom]
        prev_change = None
        streak = 0
        ratios = []
        sweeps = 0
        for sweep in range(config.max_iter):
            sweeps = sweep + 1
            gam = [_source_at(spec, t0 + j * dt, grid, v[j]) for j in range(span + 1)]
            new = [u0.copy()] + [hom[j] + dt * _duhamel_integral(gam, j, evolve)
                                 for j in range(1, span + 1)]
            change = max(
                float(np.abs(new[j] - v[j]).max()) for j in range(1, span + 1))
            scale = 1.0 + max(float(np.abs(new[j]).max()) for j in range(span + 1))
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
        for j in range(1, span + 1):
            times.append(t0 + j * dt)
            states.append(v[j].copy())
        u0 = v[span]
        t0 += span * dt
        steps_done += span
        window_edges.append(t0)

    return PicardResult(
        grid=grid,
        times=np.asarray(times),
        values=np.asarray(states),
        window_edges=window_edges,
        iterations=iterations,
        contraction_ratios=ratios_all,
        jacobian_sup=j_hat,
    )
