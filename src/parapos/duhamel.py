"""Integral-equation solver built on the Dirichlet heat kernel.

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

The route solves problem (P) on a box with ``u = 0`` on its faces, the only
boundary a ``SpatialDomain`` has.  Each axis of ``n``
nodes is extended oddly about its two wall nodes, which is the odd
``2 (n - 1)``-periodic extension and the method of images for the Dirichlet
heat kernel (Carslaw & Jaeger 1959).  On that extension every lag operator
is diagonal in the DST-I basis of the interior nodes, whose one transform
pair, :func:`model.dst_modes` and :func:`model.dst_nodes`, ``fdm``'s 2D
solves use too (Buzbee, Golub & Nielson 1970).  With
``theta_k = pi k / (n - 1)``, k = 1..n - 2, an axis of spacing ``h``
evolved over variance ``s^2`` has the multiplier

* in the quadrature branch, ``lambda_k = sum over |z| <= w of
  p(z) cos(theta_k z)``, where
  ``p(z) = h g(z h)`` is the trapezoid profile of the Gaussian ``g``, cut
  beyond ``_TRUNCATION_SIGMAS`` standard deviations.  ``w`` is not capped
  at the axis, so a kernel wider than the box wraps through its images.
  The free-space profile's mass must be within ``_MASS_TOL`` of one.
* in the Taylor branch, taken when ``s`` falls under
  ``_TAYLOR_THRESHOLD`` spacings and trapezoid quadrature would alias,
  ``1 - a mu_k + (a mu_k)^2 / 2`` with ``a = s^2 / 2`` and
  ``mu_k = 4 sin^2(theta_k / 2) / h^2``: the second-order Taylor expansion
  of the evolution in the 3-point Laplacian, whose odd ghost node is the
  zero wall.

A 2D operator's multiplier is the outer product of its two axis
multipliers.  ``KernelOperator`` is one component's operator over one lag,
held as that multiplier; its ``apply`` multiplies a stack of coefficient
arrays by it.  Wall nodes of every result are exactly 0.

Sign.  When a quadrature-branch cutoff is at most half the axis
(``w <= (n - 1) / 2``), the image matrix has no negative entry: for
interior nodes i and j only the direct offset ``i - j`` and at most one
odd image lie within the cutoff, and the image is the farther of the two.  So
non-negative data evolve to non-negative values up to the rounding of the
transforms.  Taking the radix-2 bound of FFT error analysis (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, Thm 24.2), each of
the forward transform, the inverse transform and the multiplier's own
``rfft`` (whose input, the profile, has mass one) is off by at most about
``6.7 u log2(2 (n - 1))`` per axis, relative to the 2-norm of the data,
with ``u`` the unit roundoff.  So every value of a
result is at least ``-20 u (sum over axes of log2(2 (n - 1)) + 1)`` times
the 2-norm of the data plus ``N`` times the smallest normal number, for the
``N`` nodes (the second term covers intermediates that underflow).  Off the
walls, exact zeros do not stay exact.

Time quadrature of the integral term is composite trapezoid in the source
time, except for the final panel, which is integrated by its midpoint: the
kernel is evaluated at half a panel of lag and the source endpoint values
are averaged.  Its one copy is ``_duhamel_quadrature``.  It runs in mode
space: one forward transform of the source history, then, for each lag,
one multiply-add over the slices that share that lag, then one inverse
transform of the rows.  Each lag multiplies by one table, every component's
multiplier for that lag stacked (``_lag_evolver``).  A sweep over ``J``
steps thus makes two transforms and ``J + 1`` multiplications, not
``O(J^2)``.  The window's homogeneous rows come from one transform of its
initial state.  The source-Jacobian samples that size the Picard windows come from
:func:`checker.source_jacobians`.

The source is evaluated once per Picard sweep, over every time slice of the
window: ``t`` is the window's times shaped to broadcast against the grid,
and ``x`` the grid's points broadcast to the window, built once per window.
It receives a zero gradient, so a coefficient set whose source reads the
gradient (``depends_on_gradient``) is refused, like one with a drift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import rfft

from .checker import source_jacobians
from .errors import DomainError, NonContraction, SolverError, SpecError
from .model import Grid, dst_modes, dst_nodes, dst_sine_squares, whole_steps

__all__ = ["KernelOperator", "PicardConfig", "PicardResult", "picard_solve"]

#: the Gaussian profile is cut beyond this many standard deviations
_TRUNCATION_SIGMAS = 7.0
#: a kernel narrower than this many grid spacings takes the Taylor branch
_TAYLOR_THRESHOLD = 1.2
#: largest admitted distance of the truncated profile's mass from one
_MASS_TOL = 1e-10
#: sweeps at the start of each window whose change ratio is not recorded
_BURN_IN = 2


# --------------------------------------------------------------- operators

def _axis_multiplier(n, h, variance):
    """DST-I multiplier, modes k = 1..n - 2, of one axis evolved over ``variance``."""
    sigma = math.sqrt(variance)
    if sigma < _TAYLOR_THRESHOLD * h:
        a_mu = (variance / 2.0) * (4.0 / h**2) * dst_sine_squares(n - 2)
        return 1.0 - a_mu + 0.5 * a_mu * a_mu
    cutoff = _TRUNCATION_SIGMAS * sigma
    w = int(cutoff / h) + 1
    z = np.arange(-w, w + 1)
    d = z * h
    # the offsets are z h, not differences of node coordinates, so the
    # profile is exactly symmetric and an offset at the cutoff is in or out
    # on both sides alike
    profile = h * (np.exp(-(d * d) / (2.0 * sigma * sigma))
                   / (sigma * math.sqrt(2.0 * math.pi)))
    profile[np.abs(d) > cutoff] = 0.0
    mass = float(profile.sum())
    if abs(mass - 1.0) > _MASS_TOL:
        raise SolverError(
            f"kernel quadrature mass {mass!r} is off by more than "
            f"{_MASS_TOL:g}; the grid cannot resolve this kernel")
    # folded onto one period 2 (n - 1), the profile's real DFT at k is the
    # sum of p(z) cos(theta_k z)
    period = 2 * (n - 1)
    folded = np.bincount(z % period, weights=profile, minlength=period)
    return rfft(folded).real[1:n - 1]


class KernelOperator:
    """Dirichlet evolution of one component over one lag, as a DST-I multiplier.

    ``apply`` takes the DST-I coefficients of interior node values
    (:func:`model.dst_modes`), one array or a stack of them: any leading
    axes are batch axes, and the ``(n - 2)`` mode axes of the grid come
    last.  The operator holds one multiplier of that mode shape.
    """

    def __init__(self, grid, rate, tau):
        if tau < 0:
            raise DomainError("kernel lag must be non-negative")
        self.grid = grid
        # at tau = 0 the Taylor branch gives a multiplier of exact ones
        self.multiplier = functools.reduce(np.multiply.outer, [
            _axis_multiplier(n, h, rate * tau)
            for n, h in zip(grid.shape, grid.spacing)])

    def apply(self, modes):
        """Evolve coefficients shaped ``(*batch, *modes)``; batch may be empty."""
        return modes * self.multiplier


def _lag_evolver(grid, rates, dt):
    """``evolve(modes, n)``: every component evolved over ``n`` half panels.

    ``modes`` holds the coefficients of one state ``(m, *modes)`` or of a
    stack of states ``(..., m, *modes)``, and ``evolve`` multiplies them by
    ``table[n]``: each component's :class:`KernelOperator` multiplier over
    that lag, stacked ``(m, *modes)``.  A half panel is ``dt / 2`` of lag,
    so the midpoint panel shares the table.  Each lag's entry is built on
    first use and kept.
    """
    table = {}

    def evolve(modes, half_steps):
        if half_steps not in table:
            table[half_steps] = np.stack([
                KernelOperator(grid, float(rate), half_steps * dt / 2.0).multiplier
                for rate in rates])
        return modes * table[half_steps]

    return evolve


def _duhamel_quadrature(history, evolve, out):
    """Integrals over [0, s_j] of the source history evolved to s_j, j = 1..J.

    ``history[l]`` is the source at s_l = l dt for l = 0..J, shape
    ``(J + 1, m, *grid.shape)``; its wall nodes are not read.  Row j of the
    result is composite trapezoid over the first j - 1 panels and midpoint
    on the last: the kernel lagged by half a panel acts on the average of
    its two endpoint values.  The trapezoid weights are 1/2 on s_0 and
    s_{j-1} and 1 in between.  The weighted sums, to be scaled by dt, are
    written into the interior of ``out`` (shape ``(J, m, *grid.shape)``),
    whose wall nodes are left as they are; returns ``out``.

    All rows are filled at once, in mode space.  The midpoint terms are one
    application at half a panel; then, for each lag d = J..1, the slices
    that lag d carries to a row go through that lag's operator together.
    Each row therefore sums its midpoint term first, then its terms from
    the longest lag to the shortest.
    """
    dim = history.ndim - 2
    modes = dst_modes(history, dim)
    last = len(history) - 1
    acc = evolve(0.5 * (modes[:-1] + modes[1:]), 1)
    # row j takes s_{j-lag}; row 1 has only its midpoint panel
    for lag in range(last, 0, -1):
        lo = max(lag, 2)
        if lo > last:
            continue
        term = evolve(modes[lo - lag:last - lag + 1], 2 * lag)
        if lag == 1:
            term *= 0.5          # s_{j-1}, every row
        elif lo == lag:
            term[0] *= 0.5       # s_0, row j = lag
        acc[lo - 1:] += term
    return dst_nodes(acc, dim, out)


# ------------------------------------------------------------ picard route

@dataclass(frozen=True)
class PicardConfig:
    dt: float = 1e-2
    tol: float = 1e-10
    max_iter: int = 60

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
        d = np.diag(base[k])
        if np.ptp(d) > 1e-12 * (1.0 + np.abs(d).max()):
            raise SpecError("kernel route needs isotropic diffusion per component")
        if d[0] <= 0:
            raise SpecError("kernel route needs positive diffusion")
        rates[k] = 2.0 * float(d[0])
    drift = spec.coefficients.drift
    if drift is not None and np.abs(drift(t, x, u, np.zeros((3, m, n)))).max() > 1e-14:
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
    the horizon (:func:`model.whole_steps`).  The window length is chosen so
    that (sampled source-Jacobian sup) times (window length) stays at or
    under one half, then rounded down to a whole number of those steps (at
    least one).
    Within each window the sweep is iterated until the sup change falls
    under ``tol`` (relative to the state size); three consecutive growths of
    the change raise NonContraction, as does running out of sweeps.  The
    integral term is ``_duhamel_quadrature``: composite trapezoid with a
    midpoint final panel, batched by lag over the whole window.  The first
    ``_BURN_IN`` sweeps of a window record no contraction ratio.  Each
    window's states are written into their rows of the result as it ends.
    """
    config = config or PicardConfig()
    grid = spec.initial.grid
    spec.initial.validate()
    rates = _extract_rates(spec)

    amp = 2.0 * max(1.0, float(np.abs(spec.initial.values).max()))
    j_hat = float(np.abs(source_jacobians(spec, amp)).max())
    total_steps, dt = whole_steps(spec.horizon, config.dt)
    if j_hat > 0:
        window_steps = max(1, int(math.floor(0.5 / (j_hat * dt))))
    else:
        window_steps = total_steps

    evolve = _lag_evolver(grid, rates, dt)
    dim = grid.dimension

    times = np.empty(total_steps + 1)
    values = np.empty((total_steps + 1,) + spec.initial.values.shape)
    times[0], values[0] = 0.0, spec.initial.values
    t0 = 0.0
    window_edges = [0.0]
    iterations = []
    ratios_all = []

    steps_done = 0
    while steps_done < total_steps:
        span = min(window_steps, total_steps - steps_done)
        # (span + 1, m, *grid) arrays, row j at time t0 + j dt, wall nodes 0
        hom = np.zeros((span + 1,) + values.shape[1:])
        hom[0] = values[steps_done]
        start = dst_modes(hom[0], dim)
        dst_nodes(np.stack([evolve(start, 2 * j) for j in range(1, span + 1)]), dim,
                  hom[1:])
        integral = np.zeros_like(hom[1:])
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
            new[1:] += dt * _duhamel_quadrature(gam, evolve, integral)
            change = float(np.abs(new[1:] - v[1:]).max())
            scale = 1.0 + float(np.abs(new).max())
            v = new
            if prev_change is not None:
                if prev_change > 0:
                    ratio = change / prev_change
                    if sweep >= _BURN_IN:
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
        times[steps_done + 1:steps_done + span + 1] = stimes[1:]
        values[steps_done + 1:steps_done + span + 1] = v[1:]
        t0 += span * dt
        steps_done += span
        window_edges.append(t0)

    return PicardResult(
        grid=grid,
        times=times,
        values=values,
        window_edges=window_edges,
        iterations=iterations,
        contraction_ratios=ratios_all,
        jacobian_sup=j_hat,
    )
