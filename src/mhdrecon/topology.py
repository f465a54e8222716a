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
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fields import (
    ConfigurationError,
    FieldEvaluator,
    SpectralField2D,
    TorusGrid,
    c1_norm,
)
# Not called here: bench/tracer.py looks the sup-norms up as topology.sup_field_and_gradient.
from .fields import sup_field_and_gradient  # noqa: F401
from .solver import Trajectory

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi


class MisuseError(ValueError):
    """An operation was called on a run that violates its preconditions."""


# Critical-point refinement and separatrix tracing: scale-free thresholds
# validated on the analytically known phase portraits of the low Taylor modes.
_NEWTON_TOL = 1e-12          # residual target, relative to the C1 norm
_MAX_NEWTON_ITER = 50
_DEG_TOL_FACTOR = 1e-8       # degeneracy band: |det| <= factor * C1^2
_C1_RANGE = (1e-150, 1e150)  # keeps C1^2 and the degeneracy band normal floats
_DEDUP_RADIUS = 10.0 * _NEWTON_TOL
_EPS_LAUNCH = 1e-4           # separatrix launch offset from its saddle
_ARRIVAL_RADIUS = 1e-2
_PSI_TOL_FACTOR = 1e-6       # connection level test, relative to osc(psi)
_ARCLENGTH_CAP = 50.0 * TWO_PI
_TRACE_STEP = 2e-3           # arclength step of trace_integral_line
_STEP_CAP_RANGE = (1e-2, 5e-2)  # largest arclength step of a separatrix trace (_step_cap)
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
        return {
            "n_saddles": self.n_saddles,
            "n_centers": self.n_centers,
            "n_degenerate": self.n_degenerate,
            "hetero_connections": self.hetero_connections,
            "self_connections": self.self_connections,
            "structurally_stable": self.structurally_stable,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TopologySignature":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


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


def classify(jac: np.ndarray, deg_tol: float) -> str:
    """Sign-of-determinant rule with a degeneracy band |det| <= deg_tol."""
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if det < -deg_tol:
        return "saddle"
    if det > deg_tol:
        return "center"
    return "degenerate"


def _sign_change_seeds(f: SpectralField2D, seed_resolution: int | None) -> np.ndarray:
    """Centers of grid cells where either component changes sign across the cell."""
    grid = f.grid if seed_resolution is None else TorusGrid(seed_resolution)
    if grid is f.grid:
        vals = f.to_grid()
    else:
        lattice = np.stack(np.meshgrid(grid.nodes, grid.nodes, indexing="ij"), axis=-1)
        vals = f.evaluator.values(lattice.reshape(-1, 2)).T.reshape(2, *grid.shape)
    mask = np.zeros(grid.shape, dtype=bool)
    for comp in vals:
        corners = np.stack(
            [comp, np.roll(comp, -1, 0), np.roll(comp, -1, 1), np.roll(np.roll(comp, -1, 0), -1, 1)]
        )
        mask |= (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    ii, jj = np.nonzero(mask)
    h = grid.spacing
    return np.stack([grid.nodes[ii] + 0.5 * h, grid.nodes[jj] + 0.5 * h], axis=-1)


def _solve_2x2(jac: np.ndarray, rhs: np.ndarray, det_floor: float):
    """Batched solve of J dx = rhs; returns (dx, solvable mask)."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    ok = np.abs(det) > det_floor
    safe = np.where(ok, det, 1.0)
    dx = np.empty_like(rhs)
    dx[:, 0] = (jac[:, 1, 1] * rhs[:, 0] - jac[:, 0, 1] * rhs[:, 1]) / safe
    dx[:, 1] = (-jac[:, 1, 0] * rhs[:, 0] + jac[:, 0, 0] * rhs[:, 1]) / safe
    return dx, ok


def _dedup_wrapped(points: np.ndarray, residuals: np.ndarray, radius: float):
    """Greedy torus-metric dedup keeping the smallest-residual representative.

    A point is dropped when it lies within radius (torus_distance <= radius)
    of a representative already kept. The distances are computed from Python
    floats in the same operations as torus_distance, so they agree bit for
    bit without a NumPy call per pair. One torus_distance call per point,
    over the representatives of its nine cells, takes four times as long on
    the 372-3872-point dedups of the critical-point search.
    """
    order = np.argsort(residuals, kind="stable")
    reps: list[int] = []
    cell: dict[tuple[int, int], list[tuple[float, float]]] = {}
    ncells = max(int(np.floor(TWO_PI / radius)), 1)
    inv = ncells / TWO_PI
    coords = points.tolist()
    for idx in order.tolist():
        px, py = coords[idx]
        key = (int(px * inv) % ncells, int(py * inv) % ncells)
        if not any(
            _within(px - qx, py - qy, radius)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for qx, qy in cell.get(((key[0] + dx) % ncells, (key[1] + dy) % ncells), ())
        ):
            reps.append(idx)
            cell.setdefault(key, []).append((px, py))
    return reps


def _within(dx: float, dy: float, radius: float) -> bool:
    """torus_distance <= radius for the raw displacement (dx, dy), in Python floats."""
    dx -= TWO_PI * round(dx / TWO_PI)
    dy -= TWO_PI * round(dy / TWO_PI)
    return math.sqrt(dx * dx + dy * dy) <= radius


def find_critical_points(
    f: SpectralField2D,
    seed_resolution: int | None = None,
    diagnostics: list | None = None,
) -> list[CriticalPoint]:
    """Locate and classify all zeros of f.

    Every cell of the seeding lattice (the field's grid, or a
    seed_resolution grid) in which either component changes sign seeds a
    damped Newton iteration on the exact spectral field; converged positions are
    deduplicated on the torus and classified by the determinant rule.
    Seeds that fail to converge are appended to ``diagnostics`` (position and
    last residual), never raised.
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

    x = wrap(_sign_change_seeds(f, seed_resolution))
    if len(x) == 0:
        return []
    fx = evaluator.values(x)
    res = np.linalg.norm(fx, axis=-1)
    active = res >= res_target
    stalled = np.zeros(len(x), dtype=bool)

    for it in range(_MAX_NEWTON_ITER):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        vals, jacs = evaluator.values_and_jacobians(x[idx])
        dx, solvable = _solve_2x2(jacs, -vals, det_floor)
        cur = np.linalg.norm(vals, axis=-1)
        lam = np.ones(len(idx))
        pos = x[idx].copy()
        new_res = cur.copy()
        pending = solvable.copy()
        for _ in range(8):
            if not pending.any():
                break
            trial = wrap(x[idx][pending] + lam[pending, None] * dx[pending])
            tr = np.linalg.norm(evaluator.values(trial), axis=-1)
            improved = tr <= cur[pending]
            sub = np.nonzero(pending)[0]
            pos[sub[improved]] = trial[improved]
            new_res[sub[improved]] = tr[improved]
            pending[sub[improved]] = False
            lam[sub[~improved]] *= 0.5
        x[idx] = pos
        res[idx] = new_res
        active[idx] = (new_res >= res_target) & solvable & ~pending
        stalled[idx] |= ~solvable | pending
        # collapse seeds that have piled onto the same root
        if it == 8 and active.sum() > 64:
            conv = np.nonzero(~active)[0]
            keep = _dedup_wrapped(x[conv], res[conv], 1e-8)
            drop = np.setdiff1d(conv, conv[keep])
            stalled[drop] = False
            res[drop] = np.inf

    converged = res < res_target
    failed = ~converged & np.isfinite(res)
    if diagnostics is not None:
        for i in np.nonzero(failed)[0]:
            diagnostics.append({"position": x[i].tolist(), "residual": float(res[i])})
    if failed.any():
        log.debug("%d Newton seeds did not converge", int(failed.sum()))

    pts = x[converged]
    if len(pts) == 0:
        return []
    keep = _dedup_wrapped(pts, res[converged], _DEDUP_RADIUS)
    pts = pts[keep]
    vals, jacs = evaluator.values_and_jacobians(pts)
    deg_tol = _DEG_TOL_FACTOR * c1**2
    points = []
    for p, v, j in zip(pts, vals, jacs):
        det = float(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
        points.append(
            CriticalPoint(
                position=wrap(p),
                jacobian=j,
                det=det,
                kind=classify(j, deg_tol),
                residual=float(np.linalg.norm(v)),
            )
        )
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


def _unit_rk4_step(evaluator: FieldEvaluator, x: np.ndarray, v: np.ndarray, h) -> np.ndarray:
    """One RK4 step of dx/ds = f/|f| from the points x, where v = f(x).

    The first stage reuses v, so a step costs three field evaluations. A
    negative step size h runs the line backward.
    """
    k1 = _unit(v)
    k2 = _unit(evaluator.values(x + 0.5 * h * k1))
    k3 = _unit(evaluator.values(x + 0.5 * h * k2))
    k4 = _unit(evaluator.values(x + h * k3))
    return wrap(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def trace_integral_line(f: SpectralField2D, x0, arclen: float) -> np.ndarray:
    """Integrate the normalized field dx/ds = f/|f| from x0 for total arclength.

    RK4 steps of arclength _TRACE_STEP; positions wrap on the torus, and the
    polyline of visited points is returned.
    Tracing stops early when |f| drops below the stall threshold (approach to
    a critical point). Seeding at a critical point raises ConfigurationError.
    """
    h = _TRACE_STEP
    evaluator = f.evaluator
    stop_tol = _STOP_TOL_FACTOR * sum(f.sup_norms)
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    v = evaluator.values(x)
    if np.linalg.norm(v) < stop_tol:
        raise ConfigurationError("integral-line seed lies at a critical point")

    n_steps = int(np.ceil(arclen / h))
    line = np.empty((n_steps + 1, 2))
    line[0] = wrap(x[0])
    count = 1
    for i in range(n_steps):
        # v, the field at x, serves both the stall test and the first stage
        if np.linalg.norm(v) < stop_tol:
            break
        x = _unit_rk4_step(evaluator, x, v, h)
        line[count] = x[0]
        count += 1
        if i + 1 < n_steps:
            v = evaluator.values(x)
    return line[:count]


def _eigen_directions(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unstable, stable) unit eigenvectors of a saddle Jacobian."""
    w, v = np.linalg.eig(jac)
    w = np.real(w)
    v = np.real(v)
    iu = int(np.argmax(w))
    is_ = int(np.argmin(w))
    vu = v[:, iu] / np.linalg.norm(v[:, iu])
    vs = v[:, is_] / np.linalg.norm(v[:, is_])
    return vu, vs


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


def _step_cap(saddles: list[CriticalPoint], sup_grad: float) -> float:
    """Largest arclength step of the separatrix traces of f: sigma / G within
    _STEP_CAP_RANGE, sigma the smallest singular value of a saddle Jacobian
    and G the largest Jacobian entry of f (see detect_saddle_connections)."""
    lo, hi = _STEP_CAP_RANGE
    jacs = np.array([cp.jacobian for cp in saddles])
    sigma = float(np.linalg.svd(jacs, compute_uv=False)[:, -1].min())
    return min(hi, max(lo, sigma / max(sup_grad, 1e-300)))


# outcomes of a separatrix trace
_RUNNING, _HETERO, _SELF, _STALLED, _CAPPED = range(5)


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
    two saddles closer than 2 * arrival_radius.

    All traces advance together by RK4 steps of dx/ds = +-f/|f|, each with
    its own arclength step h = min(cap, max(0.5 |f| / G, _STEP_FLOOR)),
    where G is the largest Jacobian entry (sup_norms[1]), so
    ||grad f|| <= 2 G:
    - the middle term resolves the turning scale. A line of f has curvature
      at most ||grad f|| / |f| <= 2 G / |f|, so one step turns it through at
      most one radian;
    - within distance d of a zero |f| <= 2 G d, so a step taken there is at
      most d and does not carry a trace past the zero. A cap of 1e-2 would
      bind only where |f| > 2e-2 G, which lies farther than the arrival
      radius from every zero, so it is not needed to resolve an arrival;
    - the cap bounds the drift of psi along a trace. Near a saddle
      psi - psi_s = (mu_1 u^2 + mu_2 v^2) / 2, where |mu_1|, |mu_2| are
      the singular values of the saddle's Jacobian, so a trace off the
      saddle's level by dpsi passes it at up to sqrt(2 dpsi / sigma), sigma
      the smaller of them. The RK4 drift grows as h^4, and a weak saddle
      magnifies it past the arrival radius: on T_13 / sqrt(10) + 1.26
      tilde T1 (M = 32; sigma = 0.032, G = 4.1) four self-connecting
      separatrices return after arclength 7.4 with steps of at most 0.05
      (psi drift 4e-8 osc(psi)), but run to the arclength cap with steps
      of at most 0.1 (drift 14 times larger). _step_cap therefore sets
      cap = sigma / G of the weakest saddle passed in, lone ones included,
      within [1e-2, 5e-2]: strong saddles (sigma / G >= 0.05, every web of
      the benchmark) take steps of up to 0.05, and near-degenerate ones the
      steps of at most 1e-2 that every trace once took. The linear fall is
      steeper than the sigma^(1/4) that keeps the miss fixed at a fixed
      drift constant. On 266 fields (the benchmark's 108 signature fields
      of seeds 0-5, 72 webs broken by 0 to 0.1 tilde T1 at M = 64/128, 60
      random M = 32 ones, and 26 M = 32 fields near the one above and near
      T_33 / sqrt(18) + 0.5993 tilde T1) this cap gave the counts of a cap
      of 1e-2 on every field; a fixed 0.1 changed them on 13 of the 26.
    Steps of up to 0.05 away from the zeros let the broken loops of a
    perturbed web (arclength ~16) close in a few hundred steps instead of
    the ~1600 that a cap of 1e-2 takes.
    """
    if not saddles:
        return 0, 0
    evaluator = f.evaluator
    sup_f, sup_grad = f.sup_norms
    stop_tol = _STOP_TOL_FACTOR * (sup_f + sup_grad)
    psi_grid = f.grid.to_grid(f.psi)
    psi_tol = _PSI_TOL_FACTOR * float(psi_grid.max() - psi_grid.min())

    positions = np.array([cp.position for cp in saddles])
    partners = _level_partners(evaluator.potential(positions), psi_tol)
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
    x = wrap(np.array(starts).reshape(n, 2))
    signs = np.array(signs)
    origins = np.array(origins, dtype=np.intp)

    active = np.ones(n, dtype=bool)
    left_origin = np.zeros(n, dtype=bool)
    arc = np.zeros(n)
    outcome = np.full(n, _RUNNING)
    j_scale = max(sup_grad, 1e-300)
    step_cap = _step_cap(saddles, sup_grad)
    n_steps = 0

    while active.any():
        n_steps += 1
        idx = np.nonzero(active)[0]
        vals = evaluator.values(x[idx])
        speed = _norm(vals)

        # arclength step at the turning scale |f| / |grad f| (see the docstring)
        h = np.minimum(step_cap, np.maximum(0.5 * speed / j_scale, _STEP_FLOOR))

        stalled = speed < stop_tol
        outcome[idx[stalled]] = _STALLED
        active[idx[stalled]] = False

        live = idx[~stalled]
        if len(live) == 0:
            continue
        hs = h[~stalled]
        x[live] = _unit_rk4_step(evaluator, x[live], vals[~stalled], (signs[live] * hs)[:, None])
        arc[live] += hs

        # arrival bookkeeping against the origin (column 0) and its level partners
        targets = partners[origins[live]]
        d = _norm(torus_delta(x[live][:, None, :], positions[targets]))
        left_origin[live] |= d[:, 0] > 2.0 * _ARRIVAL_RADIUS
        nearest = d.argmin(axis=1)
        arrived = d[np.arange(len(live)), nearest] < _ARRIVAL_RADIUS
        home = nearest == 0
        ends = [(arrived & ~home, _HETERO), (arrived & home & left_origin[live], _SELF),
                (arc[live] > _ARCLENGTH_CAP, _CAPPED)]
        for hit, kind in ends:
            done = live[hit & active[live]]
            outcome[done] = kind
            active[done] = False

    counts = np.bincount(outcome, minlength=5)
    n_lone = int(lone.sum())
    log.debug(
        "saddle connections: %d lone saddles, %d traced; traces: %d hetero, %d self, "
        "%d stalled, %d capped in %d steps",
        n_lone, len(saddles) - n_lone, counts[_HETERO], counts[_SELF],
        counts[_STALLED], counts[_CAPPED], n_steps,
    )
    return int(counts[_HETERO]), int(counts[_SELF]) + 4 * n_lone


def extract_signature(
    f: SpectralField2D, seed_resolution: int | None = None
) -> tuple[TopologySignature, list[CriticalPoint]]:
    """Full topology pass: critical points, connection counts, stability verdict.

    seed_resolution sets the lattice that seeds the critical-point search
    (find_critical_points); by default it is the field's grid.
    """
    if sum(f.sup_norms) == 0.0:
        # zero field: no nondegenerate structure, unstable by convention
        return TopologySignature(), []
    points = find_critical_points(f, seed_resolution)
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


def is_structurally_stable(f: SpectralField2D) -> tuple[bool, TopologySignature]:
    sig, _ = extract_signature(f)
    return sig.structurally_stable, sig


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


class _VelocityInterpolant:
    """Cubic-in-time Lagrange interpolation of the velocity snapshots.

    Snapshot stream functions are combined first (evaluation is linear in
    them), so each query time costs a single field evaluation.
    """

    def __init__(self, trajectory: Trajectory):
        if not trajectory.states:
            raise ValueError("trajectory has no snapshots")
        self.times = np.array(trajectory.times)
        self.states = trajectory.states
        self.grid = trajectory.states[0].u.grid
        self._cache: dict[float, FieldEvaluator] = {}

    def _evaluator(self, t: float) -> FieldEvaluator:
        key = float(t)
        if key in self._cache:
            return self._cache[key]
        times = self.times
        n = len(times)
        if n == 1:
            idxs = [0]
        else:
            i = int(np.searchsorted(times, t, side="right") - 1)
            i = min(max(i, 0), n - 2)
            lo = min(max(i - 1, 0), max(n - 4, 0))
            idxs = list(range(lo, min(lo + 4, n)))
        ts = times[idxs]
        psi = np.zeros_like(self.states[0].u.psi)
        for a, ia in enumerate(idxs):
            w = 1.0
            for b in range(len(idxs)):
                if a != b:
                    w *= (t - ts[b]) / (ts[a] - ts[b])
            psi = psi + w * self.states[ia].u.psi
        ev = FieldEvaluator(SpectralField2D(self.grid, psi))
        if len(self._cache) > 16:
            self._cache.clear()
        self._cache[key] = ev
        return ev

    def __call__(self, t: float, pts: np.ndarray, jacobians: bool = False):
        ev = self._evaluator(t)
        if jacobians:
            return ev.values_and_jacobians(pts)
        return ev.values(pts)


def flow_map(trajectory: Trajectory, seeds: np.ndarray, t: float) -> FlowMapSample:
    """Integrate the fluid flow and its Jacobian from the trajectory start to t.

    Positions follow dPhi/dt = u(t, Phi) by RK4 with cubic time interpolation
    of the velocity snapshots; Jacobians follow the variational equation
    d(grad Phi)/dt = grad u(Phi) grad Phi alongside. One RK4 step per
    snapshot interval matches the interpolation order.
    """
    interp = _VelocityInterpolant(trajectory)
    t0 = float(interp.times[0])
    if t < t0 - 1e-12 or t > float(interp.times[-1]) + 1e-9:
        raise ValueError(f"time {t} is outside the snapshot range")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(2), (len(seeds), 2, 2)).copy()

    # one step per snapshot interval
    if len(interp.times) > 1:
        h = float(interp.times[1] - interp.times[0])
    else:
        h = max(t - t0, 1e-12)
    n_steps = int(round((t - t0) / h)) if h > 0 else 0
    h = (t - t0) / n_steps if n_steps else 0.0

    def rhs(tt, p, g):
        v, ju = interp(tt, wrap(p), jacobians=True)
        return v, np.einsum("pij,pjk->pik", ju, g)

    tt = t0
    for _ in range(n_steps):
        k1p, k1g = rhs(tt, pos, jac)
        k2p, k2g = rhs(tt + 0.5 * h, pos + 0.5 * h * k1p, jac + 0.5 * h * k1g)
        k3p, k3g = rhs(tt + 0.5 * h, pos + 0.5 * h * k2p, jac + 0.5 * h * k2g)
        k4p, k4g = rhs(tt + h, pos + h * k3p, jac + h * k3g)
        pos = pos + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        jac = jac + (h / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        tt += h
    return FlowMapSample(seeds=seeds, images=wrap(pos), jacobians=jac)


def verify_frozen_in(trajectory: Trajectory, seeds: np.ndarray, t: float) -> float:
    """Max relative violation of the pull-back identity b(t, Phi_t(x)) = grad Phi_t(x) b0(x).

    Only meaningful for ideal runs; raises MisuseError when the recorded run
    had eta != 0. The error is normalized by the C1 norm of b0.
    """
    if trajectory.cfg.eta != 0.0:
        raise MisuseError("frozen-in verification requires a run with eta = 0")
    state_t = trajectory.state_at(trajectory.times[0] + t)
    b0 = trajectory.states[0].b
    sample = flow_map(trajectory, seeds, trajectory.times[0] + t)
    b_at_images = state_t.b.evaluator.values(sample.images)
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

    Each point is measured only against the segments with an endpoint within
    d_nn + L_max / 2 of it, where d_nn is its distance to the nearest vertex
    and L_max the longest segment. The nearest segment always has such an
    endpoint, so the result equals the minimum over all segments.
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

    # scipy.spatial is imported here, not at module level: it adds ~0.1 s to start-up
    from scipy.spatial import cKDTree

    tree = cKDTree(_on_box(line), boxsize=TWO_PI)
    pts = _on_box(points)
    d_nn, _ = tree.query(pts)
    # the slack only adds candidates, so roundoff cannot drop the nearest segment
    radius = (d_nn + 0.5 * length.max()) * (1.0 + 1e-12) + 1e-15
    nearest = np.full(len(points), np.inf)
    chunk = 64  # points per batch: a point may have every vertex as a candidate
    for lo in range(0, len(points), chunk):
        near = tree.query_ball_point(pts[lo:lo + chunk], radius[lo:lo + chunk])
        counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
        vertex = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=counts.sum())
        owner = np.repeat(np.arange(lo, lo + len(near)), counts)
        # vertex v ends segment v - 1 and starts segment v
        cand = np.clip(np.concatenate([vertex - 1, vertex]), 0, len(seg) - 1)
        owner = np.concatenate([owner, owner])
        d = torus_delta(points[owner], start[cand])
        s = np.clip(np.einsum("pi,pi->p", d, seg[cand]) / seg_sq[cand], 0.0, 1.0)
        gap = np.linalg.norm(d - s[:, None] * seg[cand], axis=-1)
        np.minimum.at(nearest, owner, gap)
    return float(nearest.max())


def _on_box(points: np.ndarray) -> np.ndarray:
    """Wrapped copy in [0, 2 pi), as a periodic cKDTree needs; np.mod can round up to 2 pi."""
    x = wrap(points)
    x[x >= TWO_PI] = 0.0
    return x
