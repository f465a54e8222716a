"""Each output check of the benchmark accepts a real output and rejects a mutated one.

    python3 -m pytest bench/test_checks.py -q

The outputs come from small runs of the program (M = 32 or 64), so the file
runs in seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from mhdrecon.cli import main  # noqa: E402
from mhdrecon.snapshots import write_snapshot  # noqa: E402

TAYLOR_SPEC = f"taylor:2,1:{float(1 / np.sqrt(5))!r}+tilde-t1:0.0005"
TILDE_SPEC = "tilde-t1:1+taylor:3,2:0.01"


def cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def topology(tmp, spec) -> dict:
    out = tmp / spec.replace(":", "_").replace("+", "_")
    cli(["topology", "--field", spec, "--resolution", "64", "--out", str(out)])
    return json.loads((out / "topology.json").read_text())


def rewrite(src, dst, change) -> Path:
    """Copy a snapshot, applying change(name, array) -> array to each field."""
    header, arrays = checks.read_snapshot(src)
    write_snapshot(dst, {k: change(k, v.copy()) for k, v in arrays.items()},
                   time=header["time"], nu=header["nu"], eta=header["eta"])
    return dst


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("outputs")


@pytest.fixture(scope="module")
def taylor_topo(tmp):
    return topology(tmp, TAYLOR_SPEC)


@pytest.fixture(scope="module")
def tilde_topo(tmp):
    return topology(tmp, TILDE_SPEC)


@pytest.fixture(scope="module")
def theorem2(tmp):
    cfg = tmp / "theorem2.json"
    cfg.write_text(json.dumps({"scenario": "theorem2", "resolution": 32, "t_end": 0.02,
                               "output_cadence": 10}))
    out = tmp / "theorem2"
    cli(["theorem2", "--config", str(cfg), "--out", str(out)])
    return json.loads((out / "report.json").read_text()), out / "theorem2_final.snap"


@pytest.fixture(scope="module")
def frozen_in(tmp):
    cfg = tmp / "frozen.json"
    cfg.write_text(json.dumps({"scenario": "frozen-in", "resolution": 32, "t_end": 0.1,
                               "output_cadence": 10}))
    out = tmp / "frozen"
    printed = cli(["frozen-in", "--config", str(cfg), "--out", str(out)])
    return printed["verdict"], out / "frozen_in_initial.snap", out / "frozen_in_final.snap"


# ------------------------------------------------------------------ signatures

def test_topology_accepts_real_outputs(taylor_topo, tilde_topo):
    checks.check_topology(TAYLOR_SPEC, "taylor", (2, 1), taylor_topo)
    checks.check_topology(TILDE_SPEC, "tilde", (3, 2), tilde_topo)


def _drop_saddle(topo):
    i = next(i for i, p in enumerate(topo["points"]) if p["kind"] == "saddle")
    del topo["points"][i]
    topo["n_points"] -= 1
    topo["signature"]["n_saddles"] -= 1


def _drop_saddle_and_center(topo):
    _drop_saddle(topo)
    i = next(i for i, p in enumerate(topo["points"]) if p["kind"] == "center")
    del topo["points"][i]
    topo["n_points"] -= 1
    topo["signature"]["n_centers"] -= 1


def _flip_kind(topo):
    p = topo["points"][0]
    p["kind"] = "center" if p["kind"] == "saddle" else "saddle"


def _move_point(topo):
    topo["points"][0]["position"][0] += 1e-6


def _duplicate_point(topo):
    same_kind = [p for p in topo["points"] if p["kind"] == topo["points"][0]["kind"]]
    same_kind[1]["position"] = list(same_kind[0]["position"])


def _count_off_by_one(topo):
    topo["n_points"] += 1


MUTATIONS = [_drop_saddle, _drop_saddle_and_center, _flip_kind, _move_point,
             _duplicate_point, _count_off_by_one]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
def test_topology_rejects_mutated_taylor_output(taylor_topo, mutate):
    topo = copy.deepcopy(taylor_topo)
    mutate(topo)
    with pytest.raises(CheckFailed):
        checks.check_topology(TAYLOR_SPEC, "taylor", (2, 1), topo)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
def test_topology_rejects_mutated_tilde_output(tilde_topo, mutate):
    topo = copy.deepcopy(tilde_topo)
    mutate(topo)
    with pytest.raises(CheckFailed):
        checks.check_topology(TILDE_SPEC, "tilde", (3, 2), topo)


@pytest.mark.parametrize("key,value", [("hetero_connections", 1),
                                       ("structurally_stable", False)])
def test_topology_rejects_unstable_tilde_portrait(tilde_topo, key, value):
    topo = copy.deepcopy(tilde_topo)
    topo["signature"][key] = value
    with pytest.raises(CheckFailed):
        checks.check_topology(TILDE_SPEC, "tilde", (3, 2), topo)


def test_topology_rejects_the_wrong_field(taylor_topo):
    # the points of N^-1 T_21 + delta tilde T_1 are not the zeros of N^-1 T_12 + ...
    spec = TAYLOR_SPEC.replace("taylor:2,1", "taylor:1,2")
    with pytest.raises(CheckFailed):
        checks.check_topology(spec, "taylor", (1, 2), taylor_topo)


# ---------------------------------------------------------------- reconnection

THEOREM1_REPORT = {
    "config": {"n": 4, "m": 4},
    "metrics": {"count_t0": 128},
    "signatures": {"tT": {"n_saddles": 2, "n_centers": 2, "n_degenerate": 0,
                          "hetero_connections": 0, "self_connections": 8,
                          "structurally_stable": True}},
}


def test_theorem1_accepts_the_stable_final_portrait():
    checks.check_theorem1(THEOREM1_REPORT, "reconnection")


@pytest.mark.parametrize("path,value", [
    (("metrics", "count_t0"), 127),
    (("signatures", "tT", "n_saddles"), 3),
    (("signatures", "tT", "n_centers"), 4),
    (("signatures", "tT", "hetero_connections"), 2),
    (("signatures", "tT", "structurally_stable"), False),
])
def test_theorem1_rejects_mutated_report(path, value):
    report = copy.deepcopy(THEOREM1_REPORT)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(CheckFailed):
        checks.check_theorem1(report, "reconnection")


def test_theorem1_rejects_the_wrong_verdict():
    with pytest.raises(CheckFailed):
        checks.check_theorem1(THEOREM1_REPORT, "no-reconnection")


def test_theorem2_accepts_real_output(theorem2):
    report, snap = theorem2
    # the short run keeps T_44's portrait, so the verdict check is tested apart
    checks.check_theorem2(report, "reconnection", snap)


def test_theorem2_rejects_scaled_final_field(theorem2, tmp):
    report, snap = theorem2
    scaled = rewrite(snap, tmp / "scaled.snap",
                     lambda k, v: v * (1 + 1e-6) if k.startswith("b") else v)
    with pytest.raises(CheckFailed):
        checks.check_theorem2(report, "reconnection", scaled)


def test_theorem2_rejects_wrong_count_time_or_verdict(theorem2):
    report, snap = theorem2
    bad = copy.deepcopy(report)
    bad["metrics"]["count_t0"] += 1
    with pytest.raises(CheckFailed):
        checks.check_theorem2(bad, "reconnection", snap)
    bad = copy.deepcopy(report)
    bad["config"]["t_end"] *= 2
    with pytest.raises(CheckFailed):
        checks.check_theorem2(bad, "reconnection", snap)
    with pytest.raises(CheckFailed):
        checks.check_theorem2(report, "no-reconnection", snap)


# ------------------------------------------------------------------- frozen-in

def test_frozen_in_accepts_real_output(frozen_in):
    checks.check_frozen_in(*frozen_in)


def test_frozen_in_rejects_nudged_mode(frozen_in, tmp):
    verdict, initial, final = frozen_in

    def nudge(name, arr):
        # the largest mode of b1 and its conjugate partner, by 1e-6 of its size
        if name == "b1":
            i, j = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
            arr[i, j] *= 1 + 1e-6
            arr[-i, -j] = np.conj(arr[i, j])
        return arr

    with pytest.raises(CheckFailed):
        checks.check_frozen_in(verdict, initial, rewrite(final, tmp / "nudged.snap", nudge))


def test_frozen_in_rejects_a_fluid_at_rest(frozen_in):
    verdict, initial, _ = frozen_in
    with pytest.raises(CheckFailed):
        checks.check_frozen_in(verdict, initial, initial)


def test_frozen_in_rejects_the_wrong_verdict(frozen_in):
    _, initial, final = frozen_in
    with pytest.raises(CheckFailed):
        checks.check_frozen_in("topology-drift", initial, final)
