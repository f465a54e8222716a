"""Critical-point extraction and topology of divergence-free torus fields.

A nondegenerate zero of a divergence-free planar field is a saddle
(det grad f < 0) or a center (det grad f > 0). The structural-stability
criterion used throughout: a Hamiltonian field is stable under Hamiltonian
C1 perturbations iff all zeros are nondegenerate and every saddle connection
is a self connection. The stream function psi is single-valued on T^2
(fields have zero mean) and a first integral, so a separatrix lies in the
level component of its saddle and connected saddles share a level. Saddles
are therefore grouped by level: a saddle whose level no other saddle shares
(within the level tolerance) has only self connections and is not traced;
the others launch separatrix traces along their Jacobian eigendirections,
and a trace can arrive only at its origin or at a saddle of its level group.
On T^2 the indices sum to the Euler characteristic 0 (Poincare-Hopf), so
without degenerate points there are as many saddles as centers;
extract_signature logs a warning when the counts differ.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .fields import (
    ConfigurationError,
    FieldEvaluator,
    SpectralField2D,
    c1_norm,
)
# Not called here: bench/tracer.py looks the sup-norms up as topology.sup_field_and_gradient.
from .fields import sup_field_and_gradient  # noqa: F401
from .solver import MHDState

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi


# Critical-point refinement and separatrix tracing: scale-free thresholds
# validated on the analytically known phase portraits of the low Taylor modes.
_NEWTON_TOL = 1e-12          # residual target, relative to the C1 norm
_MAX_NEWTON_ITER = 50
_DEG_TOL_FACTOR = 1e-8       # degeneracy band: |det| <= factor * C1^2
_C1_RANGE = (1e-150, 1e150)  # keeps C1^2 and the degeneracy band normal floats
# The box of a zero whose Krawczyk test fails. Newton stops up to
# _NEWTON_TOL * C1 / sigma from a zero whose Jacobian has smallest singular
# value sigma, so two copies of one zero lie up to 2e-12 C1 / sigma apart
# (7e-11 at a weak saddle with sigma = 0.04 C1); the box merges them down to
# sigma = 2e-4 C1
_DEDUP_RADIUS = 1e-8
_EXCLUSION_EPS = 1e-12       # evaluation error allowance of the exclusion test, relative to C1
_MAX_BISECTIONS = 4          # cover-check refinements of a cell that no box covers
_EPS_LAUNCH = 1e-4           # separatrix launch offset from its saddle
_ARRIVAL_RADIUS = 1e-2
_PSI_TOL_FACTOR = 1e-6       # connection level test, relative to osc(psi)
_ARCLENGTH_CAP = 50.0 * TWO_PI
_TRACE_STEP = 5e-2           # arclength step of trace_integral_line
_STEP_FLOOR = 1e-2 / 256     # smallest arclength step of a separatrix trace
_STOP_TOL_FACTOR = 1e-6      # stall threshold on |f|, relative to C1


@dataclass(frozen=True)
class CriticalPoint:
    position: np.ndarray
    jacobian: np.ndarray
    det: float
    kind: str          # saddle | center | degenerate
    residual: float


@dataclass(frozen=True)
class TopologySignature:
    """Computable invariants used as a witness of topological inequivalence.

    Connection counts are raw arriving-trace counts (each launched separatrix
    branch contributes at most one arrival), so a single heteroclinic orbit
    detected from both of its endpoints counts twice.
    """

    n_saddles: int = 0
    n_centers: int = 0
    n_degenerate: int = 0
    hetero_connections: int = 0
    self_connections: int = 0
    structurally_stable: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlowMapSample:
    """Seeds, their images under the fluid flow, and the flow Jacobians."""

    seeds: np.ndarray
    images: np.ndarray
    jacobians: np.ndarray


def wrap(points: np.ndarray) -> np.ndarray:
    return np.mod(points, TWO_PI)


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise signed displacement a - b wrapped into (-pi, pi]."""
    d = a - b
    return d - TWO_PI * np.round(d / TWO_PI)


def torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(torus_delta(a, b), axis=-1)


def _det(jac: np.ndarray) -> np.ndarray:
    """Determinants of the 2x2 matrices on the last two axes of jac."""
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def classify(det: float, deg_tol: float) -> str:
    """Sign-of-determinant rule with a degeneracy band |det| <= deg_tol."""
    if det < -deg_tol:
        return "saddle"
    if det > deg_tol:
        return "center"
    return "degenerate"


def _solve_2x2(jac: np.ndarray, rhs: np.ndarray, det_floor: float):
    """Batched solve of J dx = rhs; returns (dx, solvable mask)."""
    det = _det(jac)
    ok = np.abs(det) > det_floor
    safe = np.where(ok, det, 1.0)
    dx = np.empty_like(rhs)
    dx[:, 0] = (jac[:, 1, 1] * rhs[:, 0] - jac[:, 0, 1] * rhs[:, 1]) / safe
    dx[:, 1] = (-jac[:, 1, 0] * rhs[:, 0] + jac[:, 0, 0] * rhs[:, 1]) / safe
    return dx, ok


def _near_zero(vals: np.ndarray, bounds, eps: float) -> np.ndarray:
    """Cells that may hold a zero: |f_i| <= bound_i + eps for both components
    (on the first axis of vals and bounds), where bound_i bounds how far f_i
    moves from the cell's centre across it and eps the evaluation error."""
    return (np.abs(vals[0]) <= bounds[0] + eps) & (np.abs(vals[1]) <= bounds[1] + eps)


def _newton(evaluator: FieldEvaluator, x: np.ndarray, vals: np.ndarray, jacs: np.ndarray,
            res_target: float, det_floor: float):
    """Newton from the seeds x, where vals and jacs are f and J at x.

    Each iteration takes full steps from the seeds still active and
    evaluates them once. A seed stops when |f| < res_target, when its
    Jacobian is unsolvable (_solve_2x2) or after _MAX_NEWTON_ITER steps.
    Returns the last iterates with their values and Jacobians.
    """
    idx = np.arange(len(x))
    for _ in range(_MAX_NEWTON_ITER):
        dx, solvable = _solve_2x2(jacs[idx], -vals[idx], det_floor)
        step = solvable & (np.linalg.norm(vals[idx], axis=-1) >= res_target)
        idx = idx[step]
        if not len(idx):
            break
        x[idx] = wrap(x[idx] + dx[step])
        vals[idx], jacs[idx] = evaluator.values_and_jacobians(x[idx])
    return x, vals, jacs


def _krawczyk_radii(vals: np.ndarray, jacs: np.ndarray, lam: float, eps: float) -> np.ndarray:
    """Half-widths of the boxes around Newton points z, from f(z) and J(z).

    In max norms, with A = J(z)^-1 and Lambda bounding how far a row of J
    moves per unit distance, ||I - A J|| <= 1/2 on the box of half-width
    rho = 1 / (2 ||A|| Lambda). Krawczyk's operator maps that box into
    itself, so it holds exactly one zero and J is nonsingular on it, when
    ||A f(z)|| + ||A|| eps < rho / 2. Points that fail get _DEDUP_RADIUS.
    """
    a = np.stack([jacs[:, 1, 1], -jacs[:, 0, 1], -jacs[:, 1, 0], jacs[:, 0, 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a.reshape(-1, 2, 2) / _det(jacs)[:, None, None]
        norm_a = np.abs(a).sum(axis=2).max(axis=1)
        rho = 1.0 / (2.0 * norm_a * lam)
        proven = np.abs(np.einsum("pij,pj->pi", a, vals)).max(axis=1) + norm_a * eps < 0.5 * rho
    return np.where(proven, rho, _DEDUP_RADIUS)


def _inside(cells: np.ndarray, r: float, centres: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Cells of half-width r (r = 0 for points) inside one of the boxes, measured
    against every box in batches of 16384 pairs."""
    inside = np.zeros(len(cells), dtype=bool)
    chunk = max(1, 16384 // max(len(centres), 1))
    for lo in range(0, len(cells), chunk):
        d = np.abs(torus_delta(cells[lo:lo + chunk, None, :], centres))
        inside[lo:lo + chunk] = (np.maximum(d[..., 0], d[..., 1]) + r <= radii).any(axis=1)
    return inside


def _new_zeros(pts: np.ndarray, residuals: np.ndarray, radii: np.ndarray,
               centres: np.ndarray, kept_radii: np.ndarray) -> list[int]:
    """Indices of the points that are zeros not yet kept.

    A point inside a kept box is that box's zero. In order of residual (ties
    in index order), each point outside every kept box is kept with its box
    and drops the points inside it, so the loop runs once per kept zero.
    """
    order = np.argsort(residuals, kind="stable")
    order = order[~_inside(pts[order], 0.0, centres, kept_radii)]
    keep = []
    while len(order):
        i, order = order[0], order[1:]
        keep.append(int(i))
        order = order[~_inside(pts[order], 0.0, pts[i:i + 1], radii[i:i + 1])]
    return keep


# the centres of the four quarters of a cell, in units of its half-width
_QUARTERS = 0.5 * np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def find_critical_points(f: SpectralField2D) -> list[CriticalPoint]:
    """Locate and classify all zeros of f.

    With the Fourier-l1 sums S[a, b] = f.l1_sums, f1 = d_y psi moves by
    at most (S11 + S02) r over a cell of half-width r (max norm) and f2 =
    -d_x psi by (S20 + S11) r; from the value and Jacobian at the cell's
    centre, by |d_x f_i| r + |d_y f_i| r + H_i r^2 / 2 with H_1 = S21 + 2 S12
    + S03 and H_2 = S30 + 2 S21 + S12. A cell where some |f_i| at the centre
    exceeds its bound plus eps = _EXCLUSION_EPS * C1 (above the evaluator's
    3e-13 C1 truncation) holds no zero.
    The cells around the grid nodes (r = h / 2) are tested with the grid
    values and the first bound, the survivors with the second. Newton
    (_newton) runs on the exact spectral field from each surviving centre,
    starting from the value and Jacobian of the second test. It takes full
    steps: a seed that a step leads astray leaves its cell uncovered, and
    the cover check below seeds that cell again. Each converged point gets
    its box (_krawczyk_radii, Lambda = max H_i) from the value and Jacobian
    of its last iterate, which also classify it, and a point inside a kept
    box is that box's zero (_new_zeros). A surviving cell inside no box is
    bisected, tested and seeded again, up to _MAX_BISECTIONS times; when no
    cell is left, the count is proven. The evaluator is called only by the
    cell tests and by Newton, once per iterate. One debug line reports the
    seeds (failed ones are never raised), the boxes and the uncovered cells.
    The thresholds scale with the upper bounds (sup |f|, G) = f.sup_norms
    and C1 = sup |f| + G: a seed has converged when |f| < _NEWTON_TOL * C1,
    a Newton step needs |det J| > 1e-14 G^2, and a zero with |det J| <=
    _DEG_TOL_FACTOR * C1^2 is degenerate.
    """
    sup_f, sup_grad = f.sup_norms
    c1 = sup_f + sup_grad
    if c1 == 0.0:
        raise ConfigurationError("cannot extract critical points of the zero field")
    lo, hi = _C1_RANGE
    if not lo <= c1 <= hi:
        raise ConfigurationError(
            f"C1 norm {c1:.6g} is outside [{lo:.0e}, {hi:.0e}], the range of the critical-point "
            "search: Jacobian determinants scale with C1^2")
    evaluator = f.evaluator
    res_target = _NEWTON_TOL * c1
    det_floor = 1e-14 * max(sup_grad, 1e-300) ** 2
    deg_tol = _DEG_TOL_FACTOR * c1**2
    eps = _EXCLUSION_EPS * c1
    s = f.l1_sums
    curve = np.array([[s[2, 1] + 2 * s[1, 2] + s[0, 3]], [s[3, 0] + 2 * s[2, 1] + s[1, 2]]])

    r = 0.5 * f.grid.spacing
    slope = ((s[1, 1] + s[0, 2]) * r, (s[2, 0] + s[1, 1]) * r)
    ii, jj = np.nonzero(_near_zero(f.to_grid(), slope, eps))
    cells = np.stack([f.grid.nodes[ii], f.grid.nodes[jj]], axis=-1)
    zeros, radii = np.empty((0, 2)), np.empty(0)
    points = []
    n_seeds = n_failed = 0
    for depth in range(_MAX_BISECTIONS + 1):
        if depth:
            cells = wrap((cells[:, None, :] + r * _QUARTERS).reshape(-1, 2))
            r *= 0.5
        vals, jacs = evaluator.values_and_jacobians(cells)
        bounds = np.abs(jacs).sum(axis=2).T * r + 0.5 * curve * r * r
        seeded = _near_zero(vals.T, bounds, eps) & ~_inside(cells, r, zeros, radii)
        cells = cells[seeded]
        x, vals, jacs = _newton(evaluator, cells.copy(), vals[seeded], jacs[seeded],
                                res_target, det_floor)
        res = np.linalg.norm(vals, axis=-1)
        converged = res < res_target
        n_seeds, n_failed = n_seeds + len(cells), n_failed + int((~converged).sum())
        pts, res, vals, jacs = x[converged], res[converged], vals[converged], jacs[converged]
        box = _krawczyk_radii(vals, jacs, curve.max(), eps)
        keep = _new_zeros(pts, res, box, zeros, radii)
        zeros, radii = np.concatenate([zeros, pts[keep]]), np.concatenate([radii, box[keep]])
        points += [CriticalPoint(position=wrap(p), jacobian=j, det=det, kind=classify(det, deg_tol),
                                 residual=float(np.linalg.norm(v)))
                   for p, v, j, det in zip(pts[keep], vals[keep], jacs[keep],
                                           _det(jacs[keep]).tolist())]
        cells = cells[~_inside(cells, r, zeros, radii)]
        if not len(cells):
            break
    log.debug(
        "critical points: %d Newton seeds, %d did not converge; %d points, %d in proven "
        "boxes; %d uncovered cells", n_seeds, n_failed, len(zeros),
        int((radii != _DEDUP_RADIUS).sum()), len(cells))
    points.sort(key=lambda cp: (round(cp.position[0], 9), round(cp.position[1], 9)))
    return points


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over a last axis of length 2.

    np.linalg.norm(v, axis=-1) sums the same two squares in the same order,
    so the two agree bit for bit; this form skips its per-call overhead.
    """
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _unit(vals: np.ndarray) -> np.ndarray:
    return vals / np.maximum(_norm(vals)[..., None], 1e-300)


def _unit_rk4_step(evaluator: FieldEvaluator, x: np.ndarray, v: np.ndarray, speed: np.ndarray,
                   h) -> np.ndarray:
    """One RK4 step of dx/ds = f/|f| from the points x, where v = f(x) and
    speed = |v|.

    The first stage reuses v and its speed, so a step costs three field
    evaluations. A negative step size h runs the line backward.
    """
    k1 = v / np.maximum(speed[:, None], 1e-300)
    k2 = _unit(evaluator.values(x + 0.5 * h * k1))
    k3 = _unit(evaluator.values(x + 0.5 * h * k2))
    k4 = _unit(evaluator.values(x + h * k3))
    return wrap(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def _lock_to_level(x: np.ndarray, v: np.ndarray, speed: np.ndarray, psi: np.ndarray,
                   level, hs) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step on psi along grad psi = (-f2, f1) towards psi = level.

    x <- x - (psi(x) - level) grad psi / |f|^2, where v = f(x), speed =
    |v| > 0 and psi = psi(x), all from the caller's evaluation at x, so the
    lock evaluates nothing. |grad psi| = |f| vanishes at the zeros, so the
    step is clamped to a tenth of the arclength step hs. Returns the moved
    points and the psi correction |shift| of each.
    """
    miss = psi - level
    shift = np.minimum(np.abs(miss), 0.1 * hs * speed)
    grad_psi = np.stack([-v[:, 1], v[:, 0]], axis=-1)
    return x - (np.copysign(shift, miss) / (speed * speed))[:, None] * grad_psi, shift


def trace_integral_line(f: SpectralField2D, x0, arclen: float) -> np.ndarray:
    """Integrate the normalized field dx/ds = f/|f| from x0 for total arclength.

    RK4 steps of arclength _TRACE_STEP; positions wrap on the torus, and the
    polyline of visited points is returned. psi is a first integral, so
    every point is locked to the seed's level psi(x0) by _lock_to_level.
    Unlocked, the RK4 drift of psi adds up along the line: at this step psi
    spreads by 8e-9 along the frozen-in run's line of tilde T_1 (osc(psi) =
    3). Locked, the line stays level to roundoff (5e-16).
    A step evaluates f and psi together once at its RK4 end point
    (FieldEvaluator.values_and_potential), for the stall test, the lock and
    the next step's first stage, and f alone at the three other RK4 stages.
    Tracing stops early when |f| drops below the stall threshold
    _STOP_TOL_FACTOR * c1_norm(f) (approach to a critical point); that last
    point is recorded unlocked. Seeding at a critical point raises
    ConfigurationError.
    """
    h = _TRACE_STEP
    evaluator = f.evaluator
    stop_tol = _STOP_TOL_FACTOR * c1_norm(f)
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    v, level = evaluator.values_and_potential(x)
    speed = _norm(v)
    if speed[0] < stop_tol:
        raise ConfigurationError("integral-line seed lies at a critical point")

    n_steps = int(np.ceil(arclen / h))
    line = np.empty((n_steps + 1, 2))
    line[0] = wrap(x[0])
    count = 1
    for _ in range(n_steps):
        x = _unit_rk4_step(evaluator, x, v, speed, h)
        v, psi = evaluator.values_and_potential(x)
        speed = _norm(v)
        if speed[0] < stop_tol:
            line[count] = x[0]
            count += 1
            break
        x = wrap(_lock_to_level(x, v, speed, psi, level, h)[0])
        line[count] = x[0]
        count += 1
    return line[:count]


def _eigen_directions(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unstable, stable) unit eigenvectors of a saddle Jacobian, in closed form.

    With J = [[a, b], [c, d]] the eigenvalues are tr/2 +- sqrt(tr^2/4 - det),
    real and of opposite signs at a saddle (det < 0). An eigenvector of
    lambda is (b, lambda - a) and also (lambda - d, c); the longer of the two
    is taken, as at most one of them vanishes. The sign of each vector is
    arbitrary: separatrices are launched along both.
    """
    (a, b), (c, d) = jac
    half_tr = 0.5 * (a + d)
    root = np.sqrt(half_tr * half_tr - (a * d - b * c))

    def unit(lam: float) -> np.ndarray:
        v, w = np.array([b, lam - a]), np.array([lam - d, c])
        v = v if np.hypot(*v) >= np.hypot(*w) else w
        return v / np.hypot(*v)

    return unit(half_tr + root), unit(half_tr - root)


def _level_partners(psi_levels: np.ndarray, psi_tol: float) -> np.ndarray:
    """Arrival targets of each saddle's traces, as an (n_saddles, width) table.

    Row i holds saddle i in column 0, then its level partners (the other
    saddles whose stream function level lies within psi_tol of its own) in
    index order, padded with i. A padding column repeats column 0, so an
    argmin over a row never picks it.
    """
    match = np.abs(psi_levels[:, None] - psi_levels[None, :]) < psi_tol
    np.fill_diagonal(match, False)
    counts = match.sum(axis=1)
    table = np.repeat(np.arange(len(psi_levels))[:, None], 1 + int(counts.max()), axis=1)
    for i in np.nonzero(counts)[0]:
        table[i, 1 : 1 + counts[i]] = np.nonzero(match[i])[0]
    return table


def detect_saddle_connections(
    f: SpectralField2D,
    saddles: list[CriticalPoint],
) -> tuple[int, int]:
    """Count separatrix traces arriving at a saddle: (heteroclinic, self).

    The stream function psi is single-valued on T^2 (every field has zero
    mean) and constant along the lines of f, so a separatrix stays in the
    level component of its saddle. A saddle whose level matches no other
    saddle's within psi_tol is lone: its component holds no other critical
    point (a center is an isolated extremum of psi), so all four of its
    branches return to it. It adds four self connections and is not traced.

    From every other saddle four traces are launched along the
    eigendirections (unstable branches forward, stable branches backward).
    A trace is tested for arrival only against its origin and the origin's
    level partners (_level_partners): ending within arrival_radius of a
    partner counts as heteroclinic, returning to its own saddle after
    leaving counts as a self connection. Traces that stall at a critical
    point or hit the arclength cap are non-connecting. A saddle outside the
    partners cannot end a trace, even if it is the nearest one; that takes
    two saddles closer than 2 * arrival_radius. A trace that reaches a zero
    the critical-point search missed turns back on itself there; a step that
    moves it less than half its length ends it as stalled too.

    All traces advance together by RK4 steps of dx/ds = +-f/|f|, each with
    its own arclength step h = max(0.5 |f| / G, _STEP_FLOOR), where G =
    sup_norms[1], a Fourier-l1 sum, bounds every Jacobian entry at every
    point, so ||grad f|| <= 2 G:
    - the step resolves the turning scale. A line of f has curvature at most
      ||grad f|| / |f| <= 2 G / |f|, so one step turns it through at most one
      radian;
    - within distance d of a zero |f| <= 2 G d, so a step taken there is at
      most d and does not carry a trace past the zero. Steps longer than
      1e-2 are taken only where |f| > 2e-2 G, which lies farther than the
      arrival radius from every zero, so they cannot skip an arrival.
    Every step starts by locking the trace to its saddle's level psi_s: one
    Newton step along grad psi = (-f2, f1),
    x <- x - (psi(x) - psi_s) grad psi / |f|^2. A step evaluates f and psi
    together once at the traces' positions
    (FieldEvaluator.values_and_potential), which serves the stall test, the
    lock and the first RK4 stage, and f alone at the three other RK4 stages.
    Near a saddle psi - psi_s = (mu_1 u^2 + mu_2 v^2) / 2, where |mu_1|,
    |mu_2| are the singular values of the saddle's Jacobian, so a trace off
    the level by dpsi passes it at up to sqrt(2 dpsi / sigma), sigma the
    smaller of them. Unlocked, the RK4 drift
    of psi grows as h^4 and adds up along the trace, and a weak saddle
    magnifies it past the arrival radius: on T_13 / sqrt(10) + 1.26 tilde T1
    (M = 32; sigma = 0.032, G = 4.1) four self-connecting separatrices then
    run to the arclength cap. Locked, a trace is off its level only by the
    drift of its last step, and the steps that reach a saddle are short by
    the rule above, so the step needs no cap set by sigma. |grad psi| = |f|
    vanishes at the zeros, so the correction is clamped to a tenth of the
    step; the largest psi correction, relative to osc(psi), is logged with
    the trace statistics.
    Long steps away from the zeros let the broken loops of a perturbed web
    (arclength ~16) close in a few hundred steps instead of the ~1600 that
    steps of at most 1e-2 take.
    The batch holds only the live traces; each step drops the traces that
    ended and adds their outcomes to one tally, which the debug line reports.
    """
    if not saddles:
        return 0, 0
    evaluator = f.evaluator
    sup_f, sup_grad = f.sup_norms
    stop_tol = _STOP_TOL_FACTOR * (sup_f + sup_grad)
    psi_grid = f.grid.to_grid(f.psi)
    osc = float(psi_grid.max() - psi_grid.min())
    psi_tol = _PSI_TOL_FACTOR * osc

    positions = np.array([cp.position for cp in saddles])
    levels = evaluator.potential(positions)
    partners = _level_partners(levels, psi_tol)
    lone = np.all(partners == partners[:, :1], axis=1)

    starts, signs, origins = [], [], []
    for i in np.nonzero(~lone)[0]:
        cp = saddles[i]
        vu, vs = _eigen_directions(cp.jacobian)
        for vec, sign in ((vu, 1.0), (-vu, 1.0), (vs, -1.0), (-vs, -1.0)):
            starts.append(cp.position + _EPS_LAUNCH * vec)
            signs.append(sign)
            origins.append(i)
    n = len(starts)
    # per-trace state of the live traces only; an ended trace is dropped and
    # its outcome tallied. targets holds the positions of the saddles the
    # trace can arrive at: its origin (column 0) and the origin's level partners
    x = wrap(np.array(starts).reshape(n, 2))
    signs = np.array(signs)
    origins = np.array(origins, dtype=np.intp)
    level = levels[origins]
    targets = positions[partners[origins]]
    arc = np.zeros(n)
    left_origin = np.zeros(n, dtype=bool)
    tally = dict.fromkeys(("hetero", "self", "stalled", "capped"), 0)
    j_scale = max(sup_grad, 1e-300)
    n_steps = 0
    max_shift = 0.0

    while len(x):
        n_steps += 1
        vals, psi = evaluator.values_and_potential(x)
        speed = _norm(vals)
        stalled = speed < stop_tol
        if stalled.any():
            tally["stalled"] += int(np.count_nonzero(stalled))
            keep = ~stalled
            x, vals, psi, speed, signs, level, targets, arc, left_origin = (
                a[keep] for a in (x, vals, psi, speed, signs, level, targets, arc, left_origin))
            if not len(x):
                break
        # arclength step at the turning scale |f| / |grad f| (see the docstring)
        hs = np.maximum(0.5 * speed / j_scale, _STEP_FLOOR)
        p, shift = _lock_to_level(x, vals, speed, psi, level, hs)
        max_shift = max(max_shift, float(shift.max()))
        x = _unit_rk4_step(evaluator, p, vals, speed, (signs * hs)[:, None])
        arc += hs
        # a unit-speed step moves a trace about hs; one that moved it less than
        # half of that turned back on itself at a zero the search missed
        stuck = _norm(torus_delta(x, p)) < 0.5 * hs

        # arrival against the origin (column 0) and its level partners; an
        # arrival outranks a stall, and a stall the arclength cap
        d = _norm(torus_delta(x[:, None, :], targets))
        left_origin |= d[:, 0] > 2.0 * _ARRIVAL_RADIUS
        arrived = d.min(axis=1) < _ARRIVAL_RADIUS
        home = d.argmin(axis=1) == 0
        connected = arrived & (~home | left_origin)
        ended = connected | stuck | (arc > _ARCLENGTH_CAP)
        if ended.any():
            tally["hetero"] += int(np.count_nonzero(arrived & ~home))
            tally["self"] += int(np.count_nonzero(connected & home))
            tally["stalled"] += int(np.count_nonzero(stuck & ~connected))
            tally["capped"] += int(np.count_nonzero(ended & ~connected & ~stuck))
            keep = ~ended
            x, signs, level, targets, arc, left_origin = (
                a[keep] for a in (x, signs, level, targets, arc, left_origin))

    n_lone = int(lone.sum())
    log.debug(
        "saddle connections: %d lone saddles, %d traced; traces: %d hetero, %d self, "
        "%d stalled, %d capped; level corrections up to %.1e osc(psi) in %d steps",
        n_lone, len(saddles) - n_lone, tally["hetero"], tally["self"],
        tally["stalled"], tally["capped"], max_shift / osc, n_steps,
    )
    return tally["hetero"], tally["self"] + 4 * n_lone


def extract_signature(f: SpectralField2D) -> tuple[TopologySignature, list[CriticalPoint]]:
    """Full topology pass: critical points, connection counts, stability verdict."""
    if c1_norm(f) == 0.0:
        # zero field: no nondegenerate structure, unstable by convention
        return TopologySignature(), []
    points = find_critical_points(f)
    saddles = [cp for cp in points if cp.kind == "saddle"]
    centers = [cp for cp in points if cp.kind == "center"]
    degenerate = [cp for cp in points if cp.kind == "degenerate"]
    if not degenerate and len(saddles) != len(centers):
        # Poincare-Hopf on T^2: the indices (-1 per saddle, +1 per center) sum to chi = 0
        log.warning(
            "critical points break Poincare-Hopf: %d saddles but %d centers and no "
            "degenerate point; the search missed or invented a point",
            len(saddles), len(centers),
        )
    if len(centers) + len(degenerate) < 2:
        # a nonzero mean-free potential on T^2 has a maximum and a minimum
        log.warning(
            "critical points miss the extrema of the potential: %d centers and %d "
            "degenerate points, where a nonzero field has at least 2; the search "
            "missed points", len(centers), len(degenerate),
        )
    hetero, selfc = detect_saddle_connections(f, saddles)
    stable = len(degenerate) == 0 and hetero == 0 and len(points) > 0
    sig = TopologySignature(
        n_saddles=len(saddles),
        n_centers=len(centers),
        n_degenerate=len(degenerate),
        hetero_connections=hetero,
        self_connections=selfc,
        structurally_stable=stable,
    )
    return sig, points


def signatures_equivalent(a: TopologySignature, b: TopologySignature) -> str:
    """'distinct' is a sound witness of topological inequivalence;
    'indistinguishable' is not a proof of equivalence."""
    if (a.n_saddles, a.n_centers) != (b.n_saddles, b.n_centers):
        return "distinct"
    if (a.structurally_stable != b.structurally_stable) and (
        a.hetero_connections != b.hetero_connections
    ):
        return "distinct"
    return "indistinguishable"


def _velocity_at(states: list, times: np.ndarray, t: float) -> FieldEvaluator:
    """The velocity at time t, cubic-in-time Lagrange interpolation of the snapshots.

    It interpolates the (up to) 4 snapshots around t. Their stream functions
    are combined first (evaluation is linear in them), so the result is a
    single field evaluator.
    """
    n = len(times)
    i = min(max(int(np.searchsorted(times, t, side="right") - 1), 0), n - 2)
    lo = min(max(i - 1, 0), max(n - 4, 0))
    idxs = range(lo, min(lo + 4, n))
    psi = np.zeros_like(states[0].u.psi)
    for a in idxs:
        w = 1.0
        for b in idxs:
            if a != b:
                w *= (t - times[b]) / (times[a] - times[b])
        psi = psi + w * states[a].u.psi
    return FieldEvaluator(SpectralField2D(states[0].u.grid, psi))


def flow_map(trajectory: list[MHDState], seeds: np.ndarray, t: float) -> FlowMapSample:
    """Integrate the fluid flow and its Jacobian from the first snapshot's time to t.

    trajectory is a run's snapshots in time order, at a uniform interval
    (a list filled by passing its append as a sink of simulate); only their
    velocities are read. Positions follow dPhi/dt = u(t, Phi) by RK4 with
    cubic time interpolation of the velocity snapshots; Jacobians follow the
    variational equation d(grad Phi)/dt = grad u(Phi) grad Phi alongside.
    One RK4 step per snapshot interval matches the interpolation order. Each
    step interpolates the velocity at its midpoint and its end, and its end
    is the next step's start.
    """
    if not trajectory:
        raise ValueError("trajectory has no snapshots")
    times = np.array([st.t for st in trajectory])
    t0 = float(times[0])
    if t < t0 - 1e-12 or t > float(times[-1]) + 1e-9:
        raise ValueError(f"time {t} is outside the snapshot range")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(2), (len(seeds), 2, 2)).copy()

    # one step per snapshot interval
    if len(times) > 1:
        h = float(times[1] - times[0])
    else:
        h = max(t - t0, 1e-12)
    n_steps = int(round((t - t0) / h)) if h > 0 else 0
    h = (t - t0) / n_steps if n_steps else 0.0

    def rhs(velocity, p, g):
        v, ju = velocity.values_and_jacobians(wrap(p))
        return v, np.einsum("pij,pjk->pik", ju, g)

    tt = t0
    start = _velocity_at(trajectory, times, tt) if n_steps else None
    for _ in range(n_steps):
        mid = _velocity_at(trajectory, times, tt + 0.5 * h)
        end = _velocity_at(trajectory, times, tt + h)
        k1p, k1g = rhs(start, pos, jac)
        k2p, k2g = rhs(mid, pos + 0.5 * h * k1p, jac + 0.5 * h * k1g)
        k3p, k3g = rhs(mid, pos + 0.5 * h * k2p, jac + 0.5 * h * k2g)
        k4p, k4g = rhs(end, pos + h * k3p, jac + h * k3g)
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        jac = jac + (h / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        start = end
        tt += h
    return FlowMapSample(seeds=seeds, images=wrap(pos), jacobians=jac)


def verify_frozen_in(sample: FlowMapSample, b0: SpectralField2D, b_t: SpectralField2D) -> float:
    """Max relative violation of the pull-back identity b(t, Phi_t(x)) = grad Phi_t(x) b0(x).

    sample is the flow map from the time of b0 to the time t of b_t, and the
    error is normalized by the C1 norm of b0. An ideal run keeps the identity
    up to discretization error; resistivity breaks it, and the residual then
    measures how far diffusion has moved the field off the transported one.
    """
    b_at_images = b_t.evaluator.values(sample.images)
    b0_at_seeds = b0.evaluator.values(sample.seeds)
    transported = np.einsum("pij,pj->pi", sample.jacobians, b0_at_seeds)
    err = np.linalg.norm(b_at_images - transported, axis=-1)
    return float(err.max() / c1_norm(b0))


def polyline_arclength(line: np.ndarray) -> float:
    """Length of a wrapped polyline, summing torus-metric segment lengths."""
    line = np.asarray(line)
    return float(np.linalg.norm(torus_delta(line[1:], line[:-1]), axis=-1).sum())


def distance_to_polyline(points: np.ndarray, line: np.ndarray) -> float:
    """Largest torus distance from any of ``points`` to the segments of ``line``.

    Not called by the program: the frozen-in line check tests the level of
    the magnetic potential instead. Kept because bench/tracer.py looks the
    function up as topology.distance_to_polyline.

    One-sided: it asks whether every point lies on the polyline, not whether
    the points cover it. Each segment is unwrapped from its start vertex, so
    a wrapped line may cross the seam, and each must be shorter than pi. A
    coordinate step of more than 3 pi / 2 between vertices is read as a
    crossing of the seam, any other step as given: the line [[0, 0], [4, 0]]
    is one segment of length 4 and raises ValueError.

    Each point is measured against every segment, in batches of points, so
    the result is the minimum over all segments.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    line = np.atleast_2d(np.asarray(line, dtype=np.float64))
    if len(line) == 1:
        return float(torus_distance(points, line[0]).max())
    start = line[:-1]
    seg = torus_delta(line[1:], start)
    jump = np.abs(np.diff(line, axis=0))
    length = np.linalg.norm(np.where(jump > 1.5 * np.pi, np.abs(seg), jump), axis=-1)
    too_long = np.nonzero(length >= np.pi)[0]
    if len(too_long):
        j = int(too_long[0])
        raise ValueError(f"segment {j} of the line has length {length[j]:.6g}, not below pi")
    seg_sq = np.maximum(np.einsum("si,si->s", seg, seg), 1e-300)
    worst = 0.0
    chunk = max(1, 65536 // len(seg))  # points per batch, so a batch holds 65536 pairs
    for lo in range(0, len(points), chunk):
        d = torus_delta(points[lo:lo + chunk, None, :], start)
        s = np.clip(np.einsum("psi,si->ps", d, seg) / seg_sq, 0.0, 1.0)
        gap = np.linalg.norm(d - s[..., None] * seg, axis=-1)
        worst = max(worst, float(gap.min(axis=1).max()))
    return worst
