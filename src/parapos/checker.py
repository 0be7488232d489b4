"""Sampled verification of the structural assumptions behind the theory.

Each check evaluates an assumption on a deterministic low-discrepancy sample
of its quantifier region, in one evaluator call per coefficient over the whole
sample, and reports pass/fail with the worst margin and a witness point.  A
pass is evidence, not proof: every report carries the provenance flag
``sampled, not proven``.

``CHECKS`` maps each assumption id to its check, a function of the input
form of :func:`run_checks` (problem, budget, majorants, A6 factor) that
returns the id's one entry.  The checks run, and ``checks.json`` lists
them, in table order, whatever the order of the request; an id the table
does not hold is an error.  In table order:

* ``A1``        uniform parabolicity (smallest diffusion eigenvalue positive)
* ``A2``        dissipativity (c, u) <= d1 + d2 |u|^2 on the full state box
* ``A2'``       the same restricted to the non-negative orthant
* ``A4a``       drift growth against an envelope; no scenario can supply
                one, so the entry always reads ``not_applicable``
* ``A4b``       source growth, likewise always ``not_applicable``
* ``A6``        boundary compatibility of the initial data at t = 0
* ``A7a``       componentwise non-negativity of the initial data
* ``A7b``       source non-negativity on the faces u^k = 0
* ``MonotoneCoeffs``  the six sign conditions on time derivatives of the
                two-species coefficients
* ``InitMonotone``    the signs of the discrete initial slopes, the
                residuals of the system frozen at t = 0 (``FrozenSystem``)

The last two read ``not_applicable`` on any other system.  A scenario file
may also name the labels of ``GROUPS``, which its loader expands.

Sampling is prefix-nested: enlarging a budget extends the sample set, so a
failed check can never turn into a pass under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .errors import CoefficientError, SpecError
from .model import FrozenSystem, second_difference

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@dataclass(frozen=True)
class SampleBudget:
    """Sample counts per quantifier group plus region radii and the seed."""

    t: int = 5
    x: int = 5
    u: int = 4
    p: int = 3
    c1: float = 2.0
    c2: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("t", "x", "u", "p"):
            if getattr(self, name) < 2:
                raise SpecError(f"budget {name} must be at least 2")
        if self.c1 <= 0 or self.c2 <= 0:
            raise SpecError("region radii c1, c2 must be positive")


#: slack below zero of a data or source value that still counts as non-negative
_TOL_ZERO = 1e-12
#: slack below zero of a sign margin that still counts as a pass
_TOL_SIGN = 1e-10
#: default A6 threshold per unit of (1 + coefficient scale); scenarios may set it
COMPAT_FACTOR = 1e-6
#: MonotoneCoeffs difference step per unit of max(1, horizon)
_FD_DT_FACTOR = 1e-4
#: full-radius over half-radius d2 fit beyond which A2 / A2' flag superquadratic growth
_GROWTH_FLAG_RATIO = 1.25


@dataclass
class CheckEntry:
    assumption: str
    status: str
    margin: float | None = None
    witness: dict | None = None
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_json(self):
        if self.status == "fail" and self.witness is None:
            raise SpecError(f"fail entry {self.assumption} lacks a witness")
        if self.margin is not None and not np.isfinite(self.margin):
            raise SpecError(f"entry {self.assumption} has non-finite margin")
        return asdict(self)


@dataclass
class HypothesisReport:
    entries: list
    seed: int = 0

    def entry(self, assumption):
        for e in self.entries:
            if e.assumption == assumption:
                return e
        return None

    def _detail(self, assumption, key):
        e = self.entry(assumption)
        return None if e is None else e.details[key]

    # the constants of checks.json, read off the A1 and A2' entries; None without them
    kappa_hat = property(lambda self: self._detail("A1", "kappa_hat"))
    d1_hat = property(lambda self: self._detail("A2'", "d1_hat"))
    d2_hat = property(lambda self: self._detail("A2'", "d2_hat"))

    def to_json(self):
        return {
            "provenance": "sampled, not proven",
            "seed": self.seed,
            "constants": {
                "kappa_hat": self.kappa_hat,
                "d1_hat": self.d1_hat,
                "d2_hat": self.d2_hat,
            },
            "assumptions": [e.to_json() for e in self.entries],
        }


# ------------------------------------------------------------------ sampling

def _radical_inverse(idx, base):
    idx = np.asarray(idx, dtype=np.int64).copy()
    inv = np.zeros(idx.shape, dtype=float)
    denom = 1.0
    while np.any(idx > 0):
        denom *= base
        inv += (idx % base) / denom
        idx //= base
    return inv


def halton_block(count, dim, seed):
    """First ``count`` points of a seeded (rotated) Halton sequence.

    The rotation keeps the prefix property: the same seed with a larger count
    extends the point set rather than replacing it.
    """
    if dim > len(_PRIMES):
        raise SpecError(f"sampler supports at most {len(_PRIMES)} dimensions")
    shift = np.random.default_rng(seed).random(dim)
    pts = np.empty((count, dim))
    idx = np.arange(1, count + 1)
    for d in range(dim):
        pts[:, d] = _radical_inverse(idx, _PRIMES[d])
    return (pts + shift) % 1.0


def _box_points(raw, bounds):
    """Map unit-cube columns ``raw[:, axis]`` onto the box ``bounds``."""
    lo, hi = np.asarray(bounds, dtype=float).T
    return lo + raw * (hi - lo)


def source_jacobians(spec, amp):
    """Sampled source Jacobians, ``jac[i, k, l] = d c_k / d u_l``, shape (48, m, m).

    The 48 samples (seeded Halton, seed 11) cover the horizon, the domain
    and the state box [0, amp]^m, at zero gradient.  Each column is a
    central difference with step ``1e-6 * max(1, amp)``; all 48 * m states on
    each side of the differences go to ``source`` in one call.  The Picard route
    sizes its contraction windows from the largest entry, and the positivity
    step bound reads the most negative diagonal entry.  A slope that is not
    finite raises CoefficientError naming its sample, because either reader
    would take it for "no constraint".
    """
    samples = 48
    n = spec.dimension
    m = spec.components
    delta = 1e-6 * max(1.0, amp)
    raw = halton_block(samples, 1 + n + m, seed=11)
    ts = raw[:, 0] * spec.horizon
    xs = _box_points(raw[:, 1:1 + n], spec.domain.bounds)
    us = amp * raw[:, 1 + n:]
    # row [i, l] is sample i with component l moved by +-delta
    up = np.repeat(us[:, None, :], m, axis=1)
    um = up.copy()
    diag = np.arange(m)
    up[:, diag, diag] += delta
    um[:, diag, diag] -= delta
    t = np.broadcast_to(ts[:, None], (samples, m))
    x = np.broadcast_to(xs[:, None, :], (samples, m, n))
    p0 = np.zeros((samples, m, m, n))
    src = spec.coefficients.source
    c_hi = np.asarray(src(t, x, up, p0), dtype=float)
    c_lo = np.asarray(src(t, x, um, p0), dtype=float)
    jac = np.swapaxes(c_hi - c_lo, 1, 2) / (2.0 * delta)
    bad = ~np.isfinite(jac).all(axis=(1, 2))
    if bad.any():
        i = int(bad.argmax())
        raise CoefficientError(
            f"source slope is not finite at t={float(ts[i])!r}, "
            f"x={xs[i].tolist()}, u={us[i].tolist()}")
    return jac


def _region_samples(spec, budget, with_p, orthant=False, extra_cube=False):
    """Joint (t, x, u[, p]) samples over the quantifier region.

    ``orthant`` maps states into [0, c1]^m, otherwise [-c1, c1]^m.  With
    ``extra_cube`` the orthant block is followed by an equally sized block of
    signed states, so the orthant set is literally a subset of the full set.
    """
    n = spec.dimension
    m = spec.components
    count = budget.t * budget.x * budget.u * (budget.p if with_p else 1)
    dim = 1 + n + m + (m * n if with_p else 0)
    total = count * (2 if extra_cube else 1)
    raw = halton_block(total, dim, budget.seed)

    t = raw[:, 0] * spec.horizon
    x = _box_points(raw[:, 1:1 + n], spec.domain.bounds)
    uraw = raw[:, 1 + n:1 + n + m]
    u = np.empty((total, m))
    u[:count] = budget.c1 * uraw[:count] if orthant else budget.c1 * (2.0 * uraw[:count] - 1.0)
    if extra_cube:
        u[count:] = budget.c1 * (2.0 * uraw[count:] - 1.0)
    if with_p:
        p = budget.c2 * (2.0 * raw[:, 1 + n + m:] - 1.0)
        p = p.reshape(total, m, n)
    else:
        p = np.zeros((total, m, n))
    return t, x, u, p


def _witness(t=None, x=None, u=None, p=None):
    out = {}
    if t is not None:
        out["t"] = float(t)
    if x is not None:
        out["x"] = np.asarray(x, dtype=float).ravel().tolist()
    if u is not None:
        out["u"] = np.asarray(u, dtype=float).ravel().tolist()
    if p is not None:
        out["p"] = np.asarray(p, dtype=float).tolist()
    return out


# ------------------------------------------------------------------- checks

def check_parabolicity(spec, budget, majorants, compat_factor):
    """A1: the diffusion eigenvalues stay positive over the sampled region."""
    t, x, u, _ = _region_samples(spec, budget, with_p=False)
    a = spec.coefficients.diffusion_matrices(t, x, u, spec.components)
    lam_min = np.linalg.eigvalsh(a)[..., 0]
    kappa_hat = float(lam_min.min())
    i_min = np.unravel_index(int(lam_min.argmin()), lam_min.shape)[0]
    return CheckEntry(
        assumption="A1",
        status="pass" if kappa_hat > 0.0 else "fail",
        margin=kappa_hat,
        witness=_witness(t[i_min], x[i_min], u[i_min]),
        details={"kappa_hat": kappa_hat},
    )


def check_dissipativity(spec, budget, majorants, compat_factor, *, orthant):
    """A2' (``orthant``) / A2: fit dissipativity constants and test the quadratic bound.

    Fits the smallest ``d2`` that dominates (c, u) with ``d1 = 0``, then the
    smallest ``d1`` given the reference ``d2``.  With user-supplied constants
    the verdict is their dominance over every sample.  Without them the fit on
    the half-radius sample set is compared against the full-radius fit; a
    materially larger full-radius fit flags superquadratic growth (heuristic).
    """
    t, x, u, p = _region_samples(
        spec, budget, with_p=True, orthant=True, extra_cube=not orthant
    )
    c = np.asarray(spec.coefficients.source(t, x, u, p), dtype=float)
    cu = (c * u).sum(axis=1)
    usq = (u * u).sum(axis=1)

    eps = 1e-24
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(usq > eps, cu / np.maximum(usq, eps), -np.inf)
    d2_hat = float(max(ratio.max(initial=-np.inf), 0.0))
    d2_ref = majorants.d2 if (majorants is not None and majorants.d2 is not None) else d2_hat
    d1_hat = float(max((cu - d2_ref * usq).max(initial=0.0), 0.0))

    label = "A2'" if orthant else "A2"
    details = {"mode": label, "d1_hat": d1_hat, "d2_hat": d2_hat}
    i_worst = int(ratio.argmax()) if np.isfinite(ratio.max()) else 0

    if majorants is not None and majorants.d1 is not None and majorants.d2 is not None:
        excess = cu - majorants.d2 * usq - majorants.d1
        margin = float(-excess.max())
        i_worst = int(excess.argmax())
        status = "pass" if margin >= -_TOL_SIGN else "fail"
        note = "user constants dominate" if status == "pass" else "user constants violated"
    else:
        # heuristic growth probe on nested radii
        half = np.abs(u).max(axis=1) <= 0.5 * budget.c1
        ratio_half = ratio[half]
        d2_half = float(max(ratio_half.max(initial=-np.inf), 0.0)) if half.any() else 0.0
        details["d2_hat_half_radius"] = d2_half
        grows = d2_hat > _GROWTH_FLAG_RATIO * max(d2_half, 1e-9) and d2_hat > 1e-9
        if grows:
            status = "fail"
            margin = float(-(cu - d2_half * usq).max())
            note = "superquadratic growth across nested radii (heuristic)"
        else:
            status = "pass"
            margin = 0.0
            note = "constants estimated from samples"
    return CheckEntry(
        assumption=label,
        status=status,
        margin=margin,
        witness=_witness(t[i_worst], x[i_worst], u[i_worst], p[i_worst]),
        note=note,
        details=details,
    )


def _axis_second_derivative(values, grid, axis):
    """Second-order second derivative along ``axis`` with one-sided faces.

    Interior nodes take the shared 3-point difference; only the two face
    planes are overwritten with the one-sided 4-point formula.
    """
    h = grid.spacing[axis]
    out = second_difference(values, grid, axis)
    sl = [slice(None)] * values.ndim

    def take(i):
        sl2 = list(sl)
        sl2[1 + axis] = i
        return values[tuple(sl2)]

    first = list(sl)
    first[1 + axis] = 0
    out[tuple(first)] = (2.0 * take(0) - 5.0 * take(1) + 4.0 * take(2) - take(3)) / h**2
    last = list(sl)
    last[1 + axis] = -1
    out[tuple(last)] = (2.0 * take(-1) - 5.0 * take(-2) + 4.0 * take(-3) - take(-4)) / h**2
    return out


def _derivative_arrays(field_values, grid):
    """Gradient (m, *shape, n) and Hessian (m, *shape, n, n), one-sided at faces."""
    n = grid.dimension
    shape = field_values.shape
    grad = np.empty(shape + (n,))
    hess = np.empty(shape + (n, n))
    firsts = []
    for axis in range(n):
        d = np.gradient(field_values, grid.spacing[axis], axis=1 + axis, edge_order=2)
        firsts.append(d)
        grad[..., axis] = d
        hess[..., axis, axis] = _axis_second_derivative(field_values, grid, axis)
    for i in range(n):
        for j in range(i + 1, n):
            mixed = np.gradient(firsts[j], grid.spacing[i], axis=1 + i, edge_order=2)
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    return grad, hess


def check_compatibility(spec, budget, majorants, compat_factor):
    """A6: the initial data is flat and in balance on the boundary at t = 0.

    At every boundary node the data must vanish and the full right-hand side,
    evaluated at u = 0 with one-sided second-order differences of the data,
    must be below ``compat_factor * (1 + coefficient scale)``, with
    ``COMPAT_FACTOR`` for a ``compat_factor`` of None.  Each evaluator the
    problem has is called once, over all boundary nodes.
    """
    grid = spec.initial.grid
    phi = spec.initial.values
    m = spec.components
    n = grid.dimension
    grad, hess = _derivative_arrays(phi, grid)
    faces = (slice(None),) + grid.boundary
    x = grid.points[grid.boundary]
    count = len(x)
    u0 = np.zeros((count, m))
    p0 = np.moveaxis(grad[faces], 0, 1)
    h2 = np.moveaxis(hess[faces], 0, 1)
    coeffs = spec.coefficients
    a = coeffs.diffusion_matrices(0.0, x, u0, m)
    c = np.broadcast_to(np.asarray(coeffs.source(0.0, x, u0, p0), dtype=float), (count, m))
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(c).max()))
    resid = np.einsum("...kij,...kij->...k", a, h2)
    if coeffs.drift is not None:
        b = np.broadcast_to(np.asarray(coeffs.drift(0.0, x, u0, p0), dtype=float),
                            (count, n))
        scale = max(scale, float(np.abs(b).max()))
        resid = resid + np.einsum("...kj,...j->...k", p0, b)
    resid = resid + c
    local = np.abs(resid).max(axis=1)
    i = int(local.argmax())
    worst = float(local[i])
    bad_value = float(np.abs(phi[faces]).max())
    threshold = (COMPAT_FACTOR if compat_factor is None else compat_factor) * (1.0 + scale)
    ok = bad_value <= _TOL_ZERO and worst <= threshold
    return CheckEntry(
        assumption="A6",
        status="pass" if ok else "fail",
        margin=float(threshold - worst),
        witness=_witness(t=0.0, x=x[i]),
        details={"worst_residual": float(worst), "threshold": threshold,
                 "boundary_value_max": bad_value},
    )


def check_nonnegative_data(spec, budget, majorants, compat_factor):
    """A7a: the initial data is componentwise non-negative."""
    m = spec.components
    phi = spec.initial.values
    mins = phi.reshape(m, -1).min(axis=1)
    k_bad = int(mins.argmin())
    flat = int(phi[k_bad].argmin())
    node = np.unravel_index(flat, spec.initial.grid.shape)
    return CheckEntry(
        assumption="A7a",
        status="pass" if mins.min() >= -_TOL_ZERO else "fail",
        margin=float(mins.min()),
        witness=_witness(t=0.0, x=spec.initial.grid.points[node]) | {"component": k_bad},
    )


def check_face_source(spec, budget, majorants, compat_factor):
    """A7b: on each face u^k = 0 the k-th source component never pushes below zero."""
    t, x, u, p = _region_samples(spec, budget, with_p=True, orthant=True)
    worst, k, i = np.inf, 0, 0
    for face in range(spec.components):
        u_face = u.copy()
        u_face[:, face] = 0.0
        vals = np.asarray(spec.coefficients.source(t, x, u_face, p), dtype=float)[:, face]
        row = int(vals.argmin())  # the first smallest: min() may give a later -0.0
        if vals[row] < worst:
            worst, k, i = float(vals[row]), face, row
    u_w = u[i].copy()
    u_w[k] = 0.0
    return CheckEntry(
        assumption="A7b",
        status="pass" if worst >= -_TOL_ZERO else "fail",
        margin=worst,
        witness=_witness(t[i], x[i], u_w, p[i]) | {"component": k},
    )


_SIGN_WORDS = {1.0: "non-decreasing", -1.0: "non-increasing"}

# (label, required sign of the time derivative), in FrozenSystem.order
_MONOTONE_PLAN = (("beta", +1.0), ("gamma", -1.0), ("delta", -1.0),
                  ("rho", -1.0), ("sigma", +1.0), ("theta", +1.0))


def check_monotone_coefficients(spec, budget, majorants, compat_factor):
    """MonotoneCoeffs: central-difference time slopes of the six coefficients."""
    coefficients = FrozenSystem.order(spec.lv)
    horizon = spec.horizon
    dt = _FD_DT_FACTOR * max(1.0, horizon)
    n = spec.dimension
    count = budget.t * budget.x
    raw = halton_block(count, 1 + n, budget.seed)
    t = dt + raw[:, 0] * max(horizon - 2.0 * dt, dt)
    x = _box_points(raw[:, 1:], spec.domain.bounds)

    worst = np.inf
    worst_info = None
    per_symbol = {}
    for (label, sign), coeff in zip(_MONOTONE_PLAN, coefficients):
        hi = np.broadcast_to(np.asarray(coeff(t + dt, x), dtype=float), (count,))
        lo = np.broadcast_to(np.asarray(coeff(t - dt, x), dtype=float), (count,))
        slopes = sign * (hi - lo) / (2.0 * dt)
        i = int(slopes.argmin())
        per_symbol[label] = {"required": _SIGN_WORDS[sign], "worst_margin": float(slopes[i])}
        if slopes[i] < worst:
            worst = float(slopes[i])
            worst_info = (label, t[i], x[i])
    status = "pass" if worst >= -_TOL_SIGN else "fail"
    label, t_w, x_w = worst_info
    return CheckEntry(
        assumption="MonotoneCoeffs",
        status=status,
        margin=worst,
        witness=_witness(t=t_w, x=x_w) | {"coefficient": label},
        details=per_symbol,
    )


def check_initial_monotonicity(spec, budget, majorants, compat_factor):
    """InitMonotone: discrete initial slopes push u up and v down.

    Requires d1 lap(phi) + phi (beta - gamma phi - delta psi) >= 0 and the
    mirrored inequality <= 0 for psi at every interior node: the residuals
    of the system frozen at t = 0.
    """
    grid = spec.initial.grid
    pts = grid.points
    system = FrozenSystem(grid, spec.lv.diffusion,
                          [f(0.0, pts) for f in FrozenSystem.order(spec.lv)])
    r1, r2 = system.residual(*spec.initial.values)
    mask = grid.interior_mask
    m1, m2 = float(r1[mask].min()), float(-r2[mask].max())
    margin = min(m1, m2)
    k = 0 if m1 <= m2 else 1
    node = np.unravel_index(int(np.where(mask, (r1, -r2)[k], np.inf).argmin()), grid.shape)
    which = ("first", "second")[k] + " species slope"
    return CheckEntry(
        assumption="InitMonotone",
        status="pass" if margin >= -_TOL_SIGN else "fail",
        margin=margin,
        witness=_witness(t=0.0, x=pts[node]) | {"condition": which},
        details={"first_species_margin": m1, "second_species_margin": m2},
    )


def _no_growth_envelope(assumption):
    """A4a / A4b: no scenario can supply the growth envelope they would test."""
    return lambda spec, budget, majorants, compat_factor: CheckEntry(
        assumption, "not_applicable", note="no growth envelopes supplied")


def _two_species(assumption, check):
    """``check`` on a two-species competition system, ``not_applicable`` on any other."""
    def guarded(spec, budget, majorants, compat_factor):
        if spec.lv is None or spec.lv.species != 2:
            return CheckEntry(assumption, "not_applicable",
                              note="needs a two-species competition system")
        return check(spec, budget, majorants, compat_factor)
    return guarded


#: each assumption id with its check, in the order of every report
CHECKS = {
    "A1": check_parabolicity,
    "A2": partial(check_dissipativity, orthant=False),
    "A2'": partial(check_dissipativity, orthant=True),
    "A4a": _no_growth_envelope("A4a"),
    "A4b": _no_growth_envelope("A4b"),
    "A6": check_compatibility,
    "A7a": check_nonnegative_data,
    "A7b": check_face_source,
    "MonotoneCoeffs": _two_species("MonotoneCoeffs", check_monotone_coefficients),
    "InitMonotone": _two_species("InitMonotone", check_initial_monotonicity),
}
ASSUMPTION_IDS = tuple(CHECKS)
#: the labels a scenario file may use for a group of ids
GROUPS = {"A4": ("A4a", "A4b"), "A7": ("A7a", "A7b")}
#: the request of a scenario file that names none
DEFAULT_ASSUMPTIONS = ("A1", "A2'", "A4", "A6", "A7")


def run_checks(spec, budget, requested, majorants=None, compat_factor=None):
    """Run the requested assumption checks and assemble the report.

    ``requested`` is an iterable of ids of ``CHECKS``; the entries come out
    in table order, whatever the order of the request.  An id the table does
    not hold, a group label of ``GROUPS`` among them, raises SpecError.
    ``majorants`` are the A2 / A2' constants to test for dominance, and
    ``compat_factor`` sets the A6 threshold (see :func:`check_compatibility`).
    """
    want = set(requested)
    unknown = sorted(want - CHECKS.keys())
    if unknown:
        raise SpecError(f"unknown assumption ids: {', '.join(unknown)}")
    return HypothesisReport(
        entries=[check(spec, budget, majorants, compat_factor)
                 for assumption, check in CHECKS.items() if assumption in want],
        seed=budget.seed)
