"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``mhdrecon``: the closed forms of T_nm and tilde T_1,
their Jacobians, the snapshot reader and the spectral sums are written out
with numpy alone, so a fault in the program's own fields, oracles or
snapshot code cannot make a wrong output pass.

Every check raises CheckFailed with a message naming what is wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

# |f(p)| at a reported critical point, relative to a C1 bound of the field.
# The program refines points to 1e-12 of its C1 norm; a point moved by 1e-6
# shows a value near 1e-6 of it.
ZERO_RTOL = 1e-8
# theorem2_final.snap against the closed form, max norm over the grid,
# relative to the closed form's max. Measured at 2e-13.
CLOSED_FORM_RTOL = 1e-9
# mean-square magnetic potential of the frozen-in run, initial vs final.
# Measured at 1.1e-14.
POTENTIAL_RTOL = 1e-10
# the frozen-in fluid must move b: ||b||^2 changes by 16% at the default config
MIN_ENERGY_CHANGE = 1e-2


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- closed forms

def parse_field_spec(spec: str) -> list[tuple[str, int, int, float]]:
    """Terms (kind, n, m, amplitude) of a 'taylor:n,m:amp+tilde-t1:amp' spec."""
    terms = []
    for term in spec.split("+"):
        parts = term.split(":")
        if parts[0] == "taylor":
            n, m = (int(v) for v in parts[1].split(","))
            terms.append(("taylor", n, m, float(parts[2]) if len(parts) > 2 else 1.0))
        elif parts[0] == "tilde-t1":
            terms.append(("tilde-t1", 1, 1, float(parts[1]) if len(parts) > 1 else 1.0))
        else:
            raise ValueError(f"unknown field term {term!r}")
    return terms


def field_and_jacobian(terms, x, y):
    """Closed-form values (2, ...) and Jacobians (2, 2, ...) at points (x, y).

    T_nm = (m sin(nx) sin(my), n cos(nx) cos(my)), tilde T_1 = (sin y, sin(x) / 2).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    f = np.zeros((2, *x.shape))
    jac = np.zeros((2, 2, *x.shape))
    for kind, n, m, a in terms:
        if kind == "taylor":
            snx, cnx, smy, cmy = np.sin(n * x), np.cos(n * x), np.sin(m * y), np.cos(m * y)
            f[0] += a * m * snx * smy
            f[1] += a * n * cnx * cmy
            jac[0, 0] += a * m * n * cnx * smy
            jac[0, 1] += a * m * m * snx * cmy
            jac[1, 0] -= a * n * n * snx * cmy
            jac[1, 1] -= a * n * m * cnx * smy
        else:
            f[0] += a * np.sin(y)
            f[1] += 0.5 * a * np.sin(x)
            jac[0, 1] += a * np.cos(y)
            jac[1, 0] += 0.5 * a * np.cos(x)
    return f, jac


def c1_bound(terms) -> float:
    """An upper bound of sup|f| + sup|grad f| from the term amplitudes."""
    total = 0.0
    for kind, n, m, a in terms:
        k = max(n, m)
        total += abs(a) * k * (1 + 2 * k)
    return total


# ------------------------------------------------------------------- snapshots

def read_snapshot(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and complex (M, M) arrays of an MHD2 snapshot file."""
    raw = Path(path).read_bytes()
    _require(raw[:4] == b"MHD2", f"{path}: bad magic {raw[:4]!r}")
    version, hlen = np.frombuffer(raw[4:12], dtype="<u4")
    _require(version == 1, f"{path}: format version {version}")
    header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    m = int(header["resolution"])
    size = 16 * m * m
    body = raw[12 + hlen:]
    _require(len(body) == size * len(header["fields"]), f"{path}: payload size {len(body)}")
    arrays = {
        name: np.frombuffer(body[i * size:(i + 1) * size], dtype="<c16").reshape(m, m)
        for i, name in enumerate(header["fields"])
    }
    return header, arrays


def grid_values(coeffs: np.ndarray) -> np.ndarray:
    """Real values on the M x M grid x_i = 2 pi i / M of sum_k c(k) e^{i k.x}."""
    m = coeffs.shape[-1]
    return np.real(np.fft.ifft2(coeffs)) * m * m


def mean_square_potential(b1: np.ndarray, b2: np.ndarray) -> float:
    """sum_k |k2 b1(k) - k1 b2(k)|^2 / |k|^4, the squared L2 norm of the
    magnetic potential a with b = (d_y a, -d_x a), up to (2 pi)^2."""
    k = np.fft.fftfreq(b1.shape[-1], d=1.0 / b1.shape[-1])
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    ksq = k1 * k1 + k2 * k2
    curl = k2 * b1 - k1 * b2
    mask = ksq > 0
    return float(np.sum(np.abs(curl[mask]) ** 2 / ksq[mask] ** 2))


def energy(b1: np.ndarray, b2: np.ndarray) -> float:
    return float(np.sum(np.abs(b1) ** 2) + np.sum(np.abs(b2) ** 2))


# ---------------------------------------------------------------------- checks

def check_topology(spec: str, family: str, shape: tuple[int, int], topo: dict) -> None:
    """One ``mhdrecon topology`` request against the closed form of its field.

    family "taylor" is N^-1 T_nm + delta tilde T_1 (8nm points, 4nm saddles);
    family "tilde" is tilde T_1 + eps T_nm (2 saddles, 2 centers, no
    heteroclinic orbit, structurally stable: the saddle levels of tilde T_1
    are -1/2 and +1/2, so no heteroclinic orbit can join them).
    """
    sig = topo["signature"]
    points = topo["points"]
    n_pts = len(points)
    _require(topo["n_points"] == n_pts, f"n_points {topo['n_points']} != {n_pts} points listed")
    _require(sig["n_saddles"] + sig["n_centers"] + sig["n_degenerate"] == n_pts,
             f"signature counts {sig} do not add up to {n_pts} points")
    _require(sig["n_degenerate"] == 0, f"{sig['n_degenerate']} degenerate points")
    _require(sig["n_saddles"] == sig["n_centers"],
             f"Poincare-Hopf on T^2: {sig['n_saddles']} saddles != {sig['n_centers']} centers")
    if family == "taylor":
        want_pts, want_saddles = 8 * shape[0] * shape[1], 4 * shape[0] * shape[1]
        _require(n_pts == want_pts, f"{n_pts} points, want 8nm = {want_pts}")
        _require(sig["n_saddles"] == want_saddles,
                 f"{sig['n_saddles']} saddles, want 4nm = {want_saddles}")
    elif family == "tilde":
        _require((sig["n_saddles"], sig["n_centers"]) == (2, 2),
                 f"portrait {sig['n_saddles']}/{sig['n_centers']}, want 2 saddles / 2 centers")
        _require(sig["hetero_connections"] == 0,
                 f"{sig['hetero_connections']} heteroclinic connections, want 0")
        _require(sig["structurally_stable"] is True, "not structurally stable")
    else:
        raise ValueError(f"unknown family {family!r}")

    terms = parse_field_spec(spec)
    scale = c1_bound(terms)
    pos = np.array([p["position"] for p in points], dtype=np.float64).reshape(-1, 2)
    f, jac = field_and_jacobian(terms, pos[:, 0], pos[:, 1])
    size = np.hypot(f[0], f[1])
    worst = int(np.argmax(size))
    _require(size[worst] <= ZERO_RTOL * scale,
             f"point {pos[worst].tolist()} is not a zero: |f| = {size[worst]:.3e}")
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    for p, d in zip(points, det):
        want = "saddle" if d < 0 else "center"
        _require(abs(d) > ZERO_RTOL * scale * scale and p["kind"] == want,
                 f"point {p['position']} is a {p['kind']} but det = {d:.3e}")
    delta = pos[:, None, :] - pos[None, :, :]
    delta -= TWO_PI * np.round(delta / TWO_PI)
    dist = np.hypot(delta[..., 0], delta[..., 1]) + np.eye(n_pts) * TWO_PI
    _require(dist.min() > 1e-6, "two listed points coincide")


def check_theorem1(report: dict, verdict: str) -> None:
    cfg = report["config"]
    want = 8 * cfg["n"] * cfg["m"]
    _require(verdict == "reconnection", f"theorem1 verdict {verdict!r}")
    _require(report["metrics"]["count_t0"] == want,
             f"theorem1 count_t0 {report['metrics']['count_t0']}, want 8nm = {want}")
    final = report["signatures"]["tT"]
    _require((final["n_saddles"], final["n_centers"], final["n_degenerate"]) == (2, 2, 0),
             f"theorem1 final portrait {final}, want tilde T_1's 2 saddles / 2 centers")
    _require(final["hetero_connections"] == 0 and final["structurally_stable"] is True,
             f"theorem1 final portrait {final} is not tilde T_1's stable one")


def theorem2_closed_form(cfg: dict, m_grid: int, t: float) -> np.ndarray:
    """Grid values (2, M, M) of e^{-eta N^2 t} T_nm + (1 - e^{-eta N2^2 t}) / (eta N2^2) T_N2."""
    eta = cfg["eta"]
    nsq = cfg["n"] ** 2 + cfg["m"] ** 2
    n2sq = cfg["n2"] ** 2 + cfg["m2"] ** 2
    c1 = np.exp(-eta * nsq * t)
    c2 = -np.expm1(-eta * n2sq * t) / (eta * n2sq)
    x = np.arange(m_grid) * (TWO_PI / m_grid)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    terms = [("taylor", cfg["n"], cfg["m"], c1), ("taylor", cfg["n2"], cfg["m2"], c2)]
    return field_and_jacobian(terms, xx, yy)[0]


def check_theorem2(report: dict, verdict: str, final_snapshot) -> None:
    cfg = report["config"]
    want = 8 * cfg["n"] * cfg["m"]
    _require(verdict == "reconnection", f"theorem2 verdict {verdict!r}")
    _require(report["metrics"]["count_t0"] == want,
             f"theorem2 count_t0 {report['metrics']['count_t0']}, want 8nm = {want}")
    header, arrays = read_snapshot(final_snapshot)
    _require(abs(header["time"] - cfg["t_end"]) < 1e-12,
             f"final snapshot at t = {header['time']}, want {cfg['t_end']}")
    got = np.stack([grid_values(arrays["b1"]), grid_values(arrays["b2"])])
    exact = theorem2_closed_form(cfg, header["resolution"], cfg["t_end"])
    err = float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    _require(err <= CLOSED_FORM_RTOL,
             f"theorem2 final b differs from the closed form by {err:.3e} (max norm, relative)")


def check_frozen_in(verdict: str, initial_snapshot, final_snapshot) -> None:
    _require(verdict == "frozen", f"frozen-in verdict {verdict!r}")
    _, a0 = read_snapshot(initial_snapshot)
    _, a1 = read_snapshot(final_snapshot)
    p0 = mean_square_potential(a0["b1"], a0["b2"])
    p1 = mean_square_potential(a1["b1"], a1["b2"])
    drift = abs(p1 - p0) / p0
    _require(drift <= POTENTIAL_RTOL,
             f"mean-square magnetic potential changed by {drift:.3e} (relative) in an ideal run")
    e0 = energy(a0["b1"], a0["b2"])
    e1 = energy(a1["b1"], a1["b2"])
    _require(abs(e1 - e0) / e0 >= MIN_ENERGY_CHANGE,
             f"||b||^2 changed by {abs(e1 - e0) / e0:.3e} only: the fluid did not move b")
