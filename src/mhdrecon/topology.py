"""Critical-point extraction and topology of divergence-free torus fields.

A nondegenerate zero of a divergence-free planar field is a saddle
(det grad f < 0) or a center (det grad f > 0). The structural-stability
criterion used throughout: a Hamiltonian field is stable under Hamiltonian
C1 perturbations iff all zeros are nondegenerate and every saddle connection
is a self connection. Saddle connections are detected by launching
separatrix traces along the Jacobian eigendirections of each saddle and
corroborating candidate arrivals with the stream-function level test (the
stream function is a first integral, so connected saddles share a level).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    ConfigurationError,
    FieldEvaluator,
    ScalarEvaluator,
    SpectralField2D,
    _upsampled_grid,
    stream_function,
)
from .solver import Trajectory

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi


class MisuseError(ValueError):
    """An operation was called on a run that violates its preconditions."""


@dataclass(frozen=True)
class Tolerances:
    """Knobs for critical-point refinement and separatrix tracing.

    Scale-free defaults validated on the analytically known phase portraits
    of the low Taylor modes.
    """

    newton_tol: float = 1e-12          # residual target, relative to the C1 norm
    max_newton_iter: int = 50
    deg_tol_factor: float = 1e-8       # degeneracy band: |det| <= factor * C1^2
    dedup_factor: float = 10.0         # dedup radius = factor * newton_tol
    eps_launch: float = 1e-4
    arrival_radius: float = 1e-2
    psi_tol_factor: float = 1e-6       # connection level test, relative to osc(psi)
    arclength_cap: float = 50.0 * TWO_PI
    trace_step: float = 2e-3
    connect_step: float = 1e-2
    stop_tol_factor: float = 1e-6      # stall threshold on |f|, relative to C1
    seed_resolution: int | None = None


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


def sup_field_and_gradient(f: SpectralField2D, oversample: int = 4) -> tuple[float, float]:
    """(sup |f|, sup |grad f|) in max norms on an oversampled grid."""
    g = f.grid
    stacked = np.concatenate([f.coeffs, 1j * g.k1 * f.coeffs, 1j * g.k2 * f.coeffs])
    vals = _upsampled_grid(stacked, g, oversample)
    return float(np.max(np.abs(vals[:2]))), float(np.max(np.abs(vals[2:])))


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
    from .fields import TorusGrid

    grid = f.grid if seed_resolution is None else TorusGrid(seed_resolution)
    if grid is f.grid:
        vals = f.to_grid()
    else:
        lattice = np.stack(np.meshgrid(grid.nodes, grid.nodes, indexing="ij"), axis=-1)
        vals = FieldEvaluator(f).values(lattice.reshape(-1, 2)).T.reshape(2, *grid.shape)
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
    """Greedy torus-metric dedup keeping the smallest-residual representative."""
    order = np.argsort(residuals, kind="stable")
    reps: list[int] = []
    cell: dict[tuple[int, int], list[int]] = {}
    ncells = max(int(np.floor(TWO_PI / radius)), 1)
    inv = ncells / TWO_PI
    for idx in order:
        p = points[idx]
        key = (int(p[0] * inv) % ncells, int(p[1] * inv) % ncells)
        found = False
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighbor = ((key[0] + dx) % ncells, (key[1] + dy) % ncells)
                for rep in cell.get(neighbor, ()):
                    if torus_distance(p, points[rep]) <= radius:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            reps.append(idx)
            cell.setdefault(key, []).append(idx)
    return reps


def find_critical_points(
    f: SpectralField2D,
    tol: Tolerances = Tolerances(),
    diagnostics: list | None = None,
) -> list[CriticalPoint]:
    """Locate and classify all zeros of f.

    Every grid cell in which either component changes sign seeds a damped
    Newton iteration on the exact spectral field; converged positions are
    deduplicated on the torus and classified by the determinant rule.
    Seeds that fail to converge are appended to ``diagnostics`` (position and
    last residual), never raised.
    """
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    c1 = sup_f + sup_grad
    if c1 == 0.0:
        raise ConfigurationError("cannot extract critical points of the zero field")
    res_target = tol.newton_tol * c1
    det_floor = 1e-14 * max(sup_grad, 1e-300) ** 2

    x = wrap(_sign_change_seeds(f, tol.seed_resolution))
    if len(x) == 0:
        return []
    fx = evaluator.values(x)
    res = np.linalg.norm(fx, axis=-1)
    active = res >= res_target
    stalled = np.zeros(len(x), dtype=bool)

    for it in range(tol.max_newton_iter):
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
    keep = _dedup_wrapped(pts, res[converged], tol.dedup_factor * tol.newton_tol)
    pts = pts[keep]
    vals, jacs = evaluator.values_and_jacobians(pts)
    deg_tol = tol.deg_tol_factor * c1**2
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


def trace_integral_line(
    f: SpectralField2D,
    x0,
    arclen: float,
    h: float | None = None,
    tol: Tolerances = Tolerances(),
) -> np.ndarray:
    """Integrate the normalized field dx/ds = f/|f| from x0 for total arclength.

    Positions wrap on the torus; the polyline of visited points is returned.
    Tracing stops early when |f| drops below the stall threshold (approach to
    a critical point). Seeding at a critical point raises ConfigurationError.
    """
    h = tol.trace_step if h is None else h
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    stop_tol = tol.stop_tol_factor * (sup_f + sup_grad)
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    v = evaluator.values(x)
    if np.linalg.norm(v) < stop_tol:
        raise ConfigurationError("integral-line seed lies at a critical point")

    def unit(vals):
        norms = np.linalg.norm(vals, axis=-1, keepdims=True)
        return vals / np.maximum(norms, 1e-300)

    def direction(pts):
        return unit(evaluator.values(pts))

    n_steps = int(np.ceil(arclen / h))
    line = np.empty((n_steps + 1, 2))
    line[0] = wrap(x[0])
    count = 1
    for i in range(n_steps):
        # v, the field at x, serves both the stall test and the first stage
        if np.linalg.norm(v) < stop_tol:
            break
        k1 = unit(v)
        k2 = direction(x + 0.5 * h * k1)
        k3 = direction(x + 0.5 * h * k2)
        k4 = direction(x + h * k3)
        x = wrap(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
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


def detect_saddle_connections(
    f: SpectralField2D,
    saddles: list[CriticalPoint],
    tol: Tolerances = Tolerances(),
) -> tuple[int, int]:
    """Count separatrix traces arriving at a saddle: (heteroclinic, self).

    From every saddle four traces are launched along the eigendirections
    (unstable branches forward, stable branches backward). A trace
    terminating within arrival_radius of a different saddle whose stream
    function level matches the origin's counts as heteroclinic; returning to
    its own saddle after leaving counts as a self connection. Traces hitting
    the arclength cap are non-connecting.
    """
    if not saddles:
        return 0, 0
    evaluator = FieldEvaluator(f)
    sup_f, sup_grad = sup_field_and_gradient(f)
    stop_tol = tol.stop_tol_factor * (sup_f + sup_grad)
    psi = stream_function(f)
    psi_eval = ScalarEvaluator(psi)
    psi_tol = tol.psi_tol_factor * psi.oscillation()

    positions = np.array([cp.position for cp in saddles])
    psi_levels = psi_eval.values(positions)

    starts, signs, origins = [], [], []
    for i, cp in enumerate(saddles):
        vu, vs = _eigen_directions(cp.jacobian)
        for vec, sign in ((vu, 1.0), (-vu, 1.0), (vs, -1.0), (-vs, -1.0)):
            starts.append(cp.position + tol.eps_launch * vec)
            signs.append(sign)
            origins.append(i)
    x = wrap(np.array(starts))
    signs = np.array(signs)
    origins = np.array(origins, dtype=np.intp)

    n = len(x)
    active = np.ones(n, dtype=bool)
    left_origin = np.zeros(n, dtype=bool)
    arc = np.zeros(n)
    outcome = np.full(n, "none", dtype=object)
    h0 = tol.connect_step
    j_scale = max(sup_grad, 1e-300)

    while active.any():
        idx = np.nonzero(active)[0]
        vals = evaluator.values(x[idx])
        speed = np.linalg.norm(vals, axis=-1)

        # adaptive arclength step: resolve the turning scale near zeros
        h = np.minimum(h0, np.maximum(0.5 * speed / j_scale, h0 / 256.0))

        stalled = speed < stop_tol
        if stalled.any():
            outcome[idx[stalled]] = "stalled"
            active[idx[stalled]] = False

        live = idx[~stalled]
        if len(live) == 0:
            continue
        hs = h[~stalled][:, None]
        sg = signs[live][:, None]

        def direction(pts):
            v = evaluator.values(pts)
            nrm = np.linalg.norm(v, axis=-1, keepdims=True)
            return v / np.maximum(nrm, 1e-300)

        p = x[live]
        k1 = sg * direction(p)
        k2 = sg * direction(p + 0.5 * hs * k1)
        k3 = sg * direction(p + 0.5 * hs * k2)
        k4 = sg * direction(p + hs * k3)
        x[live] = wrap(p + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        arc[live] += hs[:, 0]

        # arrival bookkeeping
        d = torus_distance(x[live][:, None, :], positions[None, :, :])
        dmin = d.min(axis=1)
        nearest = d.argmin(axis=1)
        own = torus_distance(x[live], positions[origins[live]])
        left_origin[live] |= own > 2.0 * tol.arrival_radius

        arrived = dmin < tol.arrival_radius
        for j in np.nonzero(arrived)[0]:
            t = live[j]
            target = nearest[j]
            if target == origins[t]:
                if left_origin[t]:
                    outcome[t] = "self"
                    active[t] = False
            elif abs(psi_levels[target] - psi_levels[origins[t]]) < psi_tol:
                outcome[t] = "hetero"
                active[t] = False
        capped = arc[live] > tol.arclength_cap
        active[live[capped]] = False

    hetero = int(np.sum(outcome == "hetero"))
    selfc = int(np.sum(outcome == "self"))
    return hetero, selfc


def extract_signature(
    f: SpectralField2D, tol: Tolerances = Tolerances()
) -> tuple[TopologySignature, list[CriticalPoint]]:
    """Full topology pass: critical points, connection counts, stability verdict."""
    sup_f, sup_grad = sup_field_and_gradient(f)
    if sup_f + sup_grad == 0.0:
        # zero field: no nondegenerate structure, unstable by convention
        return TopologySignature(), []
    points = find_critical_points(f, tol)
    saddles = [cp for cp in points if cp.kind == "saddle"]
    centers = [cp for cp in points if cp.kind == "center"]
    degenerate = [cp for cp in points if cp.kind == "degenerate"]
    hetero, selfc = detect_saddle_connections(f, saddles, tol)
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


def is_structurally_stable(
    f: SpectralField2D, tol: Tolerances = Tolerances()
) -> tuple[bool, TopologySignature]:
    sig, _ = extract_signature(f, tol)
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

    Snapshot coefficient arrays are combined first (evaluation is linear in
    the coefficients), so each query time costs a single field evaluation.
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
        coeffs = np.zeros_like(self.states[0].u.coeffs)
        for a, ia in enumerate(idxs):
            w = 1.0
            for b in range(len(idxs)):
                if a != b:
                    w *= (t - ts[b]) / (ts[a] - ts[b])
            coeffs = coeffs + w * self.states[ia].u.coeffs
        ev = FieldEvaluator(SpectralField2D(self.grid, coeffs))
        if len(self._cache) > 16:
            self._cache.clear()
        self._cache[key] = ev
        return ev

    def __call__(self, t: float, pts: np.ndarray, jacobians: bool = False):
        ev = self._evaluator(t)
        if jacobians:
            return ev.values_and_jacobians(pts)
        return ev.values(pts)


def flow_map(
    trajectory: Trajectory, seeds: np.ndarray, t: float, substeps: int = 1
) -> FlowMapSample:
    """Integrate the fluid flow and its Jacobian from the trajectory start to t.

    Positions follow dPhi/dt = u(t, Phi) by RK4 with cubic time interpolation
    of the velocity snapshots; Jacobians follow the variational equation
    d(grad Phi)/dt = grad u(Phi) grad Phi alongside. The default of one RK4
    step per snapshot interval matches the interpolation order.
    """
    interp = _VelocityInterpolant(trajectory)
    t0 = float(interp.times[0])
    if t < t0 - 1e-12 or t > float(interp.times[-1]) + 1e-9:
        raise ValueError(f"time {t} is outside the snapshot range")
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    pos = seeds.copy()
    jac = np.broadcast_to(np.eye(2), (len(seeds), 2, 2)).copy()

    if len(interp.times) > 1:
        dt_snap = float(interp.times[1] - interp.times[0])
    else:
        dt_snap = max(t - t0, 1e-12)
    h = dt_snap / substeps
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
    from .fields import c1_norm

    state_t = trajectory.state_at(trajectory.times[0] + t)
    b0 = trajectory.states[0].b
    sample = flow_map(trajectory, seeds, trajectory.times[0] + t)
    b_at_images = FieldEvaluator(state_t.b).values(sample.images)
    b0_at_seeds = FieldEvaluator(b0).values(sample.seeds)
    transported = np.einsum("pij,pj->pi", sample.jacobians, b0_at_seeds)
    err = np.linalg.norm(b_at_images - transported, axis=-1)
    return float(err.max() / c1_norm(b0))


def hausdorff_distance(line_a: np.ndarray, line_b: np.ndarray, max_points: int = 1500) -> float:
    """Symmetric Hausdorff distance between polylines in the torus metric."""

    def thin(line):
        if len(line) > max_points:
            stride = int(np.ceil(len(line) / max_points))
            return line[::stride]
        return line

    a, b = thin(np.asarray(line_a)), thin(np.asarray(line_b))
    d = np.linalg.norm(
        torus_delta(a[:, None, :], b[None, :, :]),
        axis=-1,
    )
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def polyline_arclength(line: np.ndarray) -> float:
    """Length of a wrapped polyline, summing torus-metric segment lengths."""
    line = np.asarray(line)
    return float(np.linalg.norm(torus_delta(line[1:], line[:-1]), axis=-1).sum())


def distance_to_polyline(points: np.ndarray, line: np.ndarray) -> float:
    """Largest torus distance from any of ``points`` to the segments of ``line``.

    One-sided: it asks whether every point lies on the polyline, not whether
    the points cover it. Segments are unwrapped from their start vertex, so
    each must be shorter than pi.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    line = np.atleast_2d(np.asarray(line, dtype=np.float64))
    if len(line) == 1:
        return float(torus_distance(points, line[0]).max())
    start = line[:-1]
    seg = torus_delta(line[1:], start)
    seg_sq = np.maximum(np.einsum("si,si->s", seg, seg), 1e-300)
    worst = 0.0
    chunk = 256  # points per batch; bounds the (points x segments) temporaries
    for lo in range(0, len(points), chunk):
        d = torus_delta(points[lo:lo + chunk, None, :], start[None, :, :])
        s = np.clip(np.einsum("psi,si->ps", d, seg) / seg_sq, 0.0, 1.0)
        gap = np.linalg.norm(d - s[..., None] * seg, axis=-1)
        worst = max(worst, float(gap.min(axis=1).max()))
    return worst
