"""Independent reference computations for the test suite.

Everything in this module is written from scratch against the underlying
mathematics (closed forms, dense linear algebra, scalar ODE steppers), so
expected values in the tests never come from the code under test.
"""

import itertools
import math

import numpy as np
from scipy.linalg import solve_banded


def logistic_exact(t, u0, beta=1.0, gamma=1.0):
    """Closed-form solution of u' = u (beta - gamma u), u(0) = u0."""
    e = math.exp(beta * t)
    return beta * u0 * e / (beta + gamma * u0 * (e - 1.0))


def heun_scalar(rhs, y0, dt, steps, t0=0.0):
    """Explicit Heun (trapezoidal RK2) for a scalar ODE y' = rhs(t, y).

    Returns the value after ``steps`` steps of size ``dt``.
    """
    y = float(y0)
    t = float(t0)
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt, y + dt * k1)
        y = y + 0.5 * dt * (k1 + k2)
        t += dt
    return y


def dirichlet_laplacian_eigenvalue(h, mode=1, length=1.0):
    """Smallest-stencil eigenvalue of -d^2/dx^2 on a uniform Dirichlet grid.

    The discrete sine mode sin(mode*pi*x/length) satisfies
    -L_h u = lam_h u with lam_h = 2 (1 - cos(mode*pi*h/length)) / h^2.
    """
    return 2.0 * (1.0 - math.cos(mode * math.pi * h / length)) / h**2


def backward_euler_heat_factor(h, dt, d=1.0, mode=1, length=1.0):
    """Per-step damping of a discrete sine mode under implicit Euler."""
    lam = dirichlet_laplacian_eigenvalue(h, mode, length)
    return 1.0 / (1.0 + dt * d * lam)


def banded_implicit_solve(a_node, h, lam, rhs):
    """Solve (I - lam a(x) d_xx) w = rhs on the interior of a zero-Dirichlet line.

    Row i of the operator is -r a_i w_{i-1} + (1 + 2 r a_i) w_i - r a_i w_{i+1}
    with r = lam / h^2; its bands are written out for ``solve_banded``.
    """
    r = lam / h**2
    ab = np.zeros((3, len(a_node)))
    ab[0, 1:] = -r * a_node[:-1]    # A[i, i+1] = -r a_i
    ab[1] = 1.0 + 2.0 * r * a_node  # A[i, i]
    ab[2, :-1] = -r * a_node[1:]    # A[i+1, i] = -r a_{i+1}
    return solve_banded((1, 1), ab, rhs)


def heat_gaussian(x, t, d, width, amplitude=1.0, center=0.0):
    """Whole-line heat evolution of amplitude * exp(-(x-c)^2 / (2 width^2)).

    Convolving a Gaussian of variance width^2 with the heat kernel of
    variance d*t gives a Gaussian of variance width^2 + d*t whose peak is
    scaled by width / sqrt(width^2 + d*t).
    """
    var = width**2 + d * t
    x = np.asarray(x, dtype=float)
    return amplitude * width / math.sqrt(var) * np.exp(-((x - center) ** 2) / (2.0 * var))


def dirichlet_image_matrix(n, h, variance, cutoff):
    """Dirichlet heat-kernel quadrature on the interior nodes, summed by images.

    ``p(z) = h g(z h)`` is the normal density ``g`` of the given variance at
    the node offset ``z``, set to zero where ``|z h| > cutoff``.  Entry
    ``(i, j)`` for interior nodes i, j = 1..n - 2 is
    ``sum over r of p(i - j + 2 r (n - 1)) - p(i + j + 2 r (n - 1))``: the
    free-space kernel and its images, reflected oddly in the two walls.
    Every image inside the cutoff is summed, however wide the kernel.
    """
    period = 2 * (n - 1)
    reach = int(cutoff / h) + 1
    turns = reach // period + 2
    r = np.arange(-turns, turns + 1)
    i = np.arange(1, n - 1)

    def p(z):
        d = z * h
        g = np.exp(-d * d / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
        g[np.abs(d) > cutoff] = 0.0
        return h * g

    direct = i[:, None, None] - i[None, :, None] + period * r
    mirror = i[:, None, None] + i[None, :, None] + period * r
    return (p(direct) - p(mirror)).sum(axis=-1)


def dirichlet_taylor_matrix(n, h, a):
    """``I + a L + a^2 L^2 / 2`` on the interior nodes, ``L`` the Dirichlet 3-point Laplacian.

    ``L`` is tridiagonal ``(1, -2, 1) / h^2`` over the ``n - 2`` interior
    nodes of an axis with both wall values zero.
    """
    m = n - 2
    lap = (np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
           - 2.0 * np.eye(m)) / h**2
    return np.eye(m) + a * lap + 0.5 * a * a * (lap @ lap)


def bump_mass_1d(radius):
    """Integral of (1 - (x/r)^2)^2 over [-r, r]: substitute s = x/r."""
    return 16.0 * radius / 15.0


def bump_mass_2d(radius):
    """Integral of (1 - |x|^2/r^2)^2 over the disc of radius r: substitute w = |x|^2/r^2."""
    return math.pi * radius**2 / 3.0


def steady_logistic_profile(n_nodes, d, beta, gamma, length=1.0):
    """Newton solve of d u'' + u (beta - gamma u) = 0, u(0) = u(L) = 0.

    Discretized with the standard three-point Laplacian on a uniform grid;
    returns (x, u) with the boundary nodes included.  The positive branch is
    reached from a sine-shaped seed; for beta below the principal Dirichlet
    eigenvalue d (pi/L)^2 the iteration collapses to zero, which is then the
    only steady state.
    """
    h = length / (n_nodes - 1)
    x = np.linspace(0.0, length, n_nodes)
    u = (beta / gamma) * np.sin(math.pi * x / length)
    n_int = n_nodes - 2
    off = np.ones(n_int - 1)
    # the residual carries a d/h^2 factor, so its roundoff floor does too
    tol = 1e-13 * (1.0 + d / h**2)
    for _ in range(80):
        lap = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
        resid = d * lap + u[1:-1] * (beta - gamma * u[1:-1])
        if np.abs(resid).max() < tol:
            break
        jac = (d / h**2) * (np.diag(off, 1) + np.diag(off, -1)
                            - 2.0 * np.eye(n_int))
        jac += np.diag(beta - 2.0 * gamma * u[1:-1])
        u[1:-1] += np.linalg.solve(jac, -resid)
    else:
        raise RuntimeError("Newton iteration for the steady profile stalled")
    return x, u


def trapezoid_weak_residual(x, u, d, source, test_values, test_lap):
    """Reference weak residual: trapezoid of d*u*eta'' + source*eta on x."""
    integrand = d * u * test_lap + source * test_values
    return float(np.trapezoid(integrand, x))


def trajectory_csv_reference(times, values, source="fdm"):
    """The trajectory CSV, one row at a time, from its documented format.

    Header ``t,i[,j[,k]],component,value,source``; then one row per stored
    time, per component, per node, nested in that order with nodes in
    row-major order; floats as ``repr`` of the double; each line ends in a
    newline.
    """
    values = np.asarray(values, dtype=float)
    shape = values.shape[2:]
    header = ["t", *("i", "j", "k")[:len(shape)], "component", "value", "source"]
    lines = [",".join(header)]
    for it, t in enumerate(times):
        for k in range(values.shape[1]):
            for node in itertools.product(*(range(s) for s in shape)):
                value = values[(it, k) + node]
                lines.append(",".join([repr(float(t)), *(str(i) for i in node),
                                       str(k), repr(float(value)), source]))
    return "\n".join(lines) + "\n"


def duhamel_rows_reference(history, operator):
    """Duhamel quadrature row by row, one source slice at a time.

    ``history[l]`` is the source at s_l = l dt, shape ``(J + 1, m, *grid)``;
    ``operator(k, n)`` returns an object whose ``apply`` evolves one
    component array over ``n`` half panels of lag.  Row j (j = 1..J) is
    composite trapezoid over the panels [s_l, s_{l+1}], l < j - 1, and the
    midpoint rule on the last panel [s_{j-1}, s_j]: the kernel lagged by half
    a panel acting on the average of the panel's endpoint values.  The
    trapezoid puts weight 1/2 on s_0 and s_{j-1} and weight 1 in between.

    Each row adds its midpoint term first, then the trapezoid nodes from
    s_0 to s_{j-1}.  Returns the unscaled sums, shape ``(J, m, *grid)``; the
    integral is dt times a row.
    """
    history = np.asarray(history, dtype=float)
    last = history.shape[0] - 1
    comps = history.shape[1]
    rows = np.empty_like(history[1:])
    for j in range(1, last + 1):
        mid = 0.5 * (history[j - 1] + history[j])
        for k in range(comps):
            acc = operator(k, 1).apply(mid[k])
            if j >= 2:
                for l in range(j):
                    term = operator(k, 2 * (j - l)).apply(history[l, k])
                    if l == 0 or l == j - 1:
                        term = 0.5 * term
                    acc = acc + term
            rows[j - 1, k] = acc
    return rows


def lv_source_reference(growth, interaction, t, x, u):
    """The LV source through full batch-shape tables, every entry called as f(t, x).

    Growth fills a ``(*batch, m)`` table and interaction a
    ``(*batch, m, m)`` table, each entry broadcast to the batch of ``x``;
    then c^k = u^k (beta_k - sum_i gamma_ki u^i) by ``einsum``.
    """
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    m = len(growth)
    beta = np.empty(batch + (m,))
    gam = np.empty(batch + (m, m))
    for k in range(m):
        beta[..., k] = np.broadcast_to(np.asarray(growth[k](t, x), dtype=float), batch)
        for i in range(m):
            gam[..., k, i] = np.broadcast_to(
                np.asarray(interaction[k][i](t, x), dtype=float), batch)
    return u * (beta - np.einsum("...ki,...i->...k", gam, u))


def step_report_reference(old, new, dt):
    """``(min, du/dt min, dv/dt max, sup)`` of one step, over the mapped grids.

    Each rate is the extreme of the whole grid of ``(new - old) / dt``, and
    the sup the largest of the grid of pointwise Euclidean norms; ``nan``
    stands for a rate of a component that does not exist.
    """
    m = new.shape[0]
    dudt_min = float(((new[0] - old[0]) / dt).min())
    dvdt_max = float(((new[1] - old[1]) / dt).max()) if m >= 2 else float("nan")
    sup = float(np.sqrt((new * new).sum(axis=0)).max())
    return float(new.min()), dudt_min, dvdt_max, sup


def picard_source_reference(source, times, points, window):
    """The kernel route's source over a window, one time slice per call.

    Slice j is ``source(times[j], points, |window[j]|, 0)`` with the state's
    components moved last and a zero gradient array, broadcast to the state
    and moved back to ``(m, *grid)``.
    """
    out = np.empty_like(window)
    for j, t in enumerate(times):
        u = np.moveaxis(np.abs(window[j]), 0, -1)
        p = np.zeros(u.shape + (points.shape[-1],))
        c = np.asarray(source(t, points, u, p), dtype=float)
        out[j] = np.moveaxis(np.broadcast_to(c, u.shape), -1, 0)
    return out


def monotone_reference(times, series, sign, tol_factor):
    """Worst margin, its pair and interior node, and passed, over one array.

    ``series`` holds one component's snapshots ``(snapshots, *grid)``.  The
    rates are ``sign * diff / dt`` at the interior nodes of every snapshot
    pair at once, the worst is their first ``argmin`` in C order, and the
    tolerance is ``tol_factor * (1 + sup|series|)``.
    """
    interior = series[(slice(None),) + (slice(1, -1),) * (series.ndim - 1)]
    dt = np.diff(times).reshape((-1,) + (1,) * (series.ndim - 1))
    rates = sign * np.diff(interior, axis=0) / dt
    where = np.unravel_index(int(rates.argmin()), rates.shape)
    worst = float(rates[where])
    tol = tol_factor * (1.0 + float(np.abs(series).max()))
    return worst, int(where[0]), tuple(int(i) + 1 for i in where[1:]), bool(worst >= -tol)
