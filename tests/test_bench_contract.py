"""The names the traced benchmark looks up in the program.

bench/tracer.py wraps public functions of mhdrecon by name (its LAYERS
table) and reads their arguments by position and name. A rename or deletion
in src/ would break ``bench/run.py --trace 1``; these tests fail first.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import mhdrecon.cli  # noqa: F401  (loads every mhdrecon module, as the benchmark does)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer_module):
    """(owner, attribute) -> bound object, for every LAYERS entry."""
    return {(owner, attr): getattr(owner, attr)
            for _, owner, attr, _, _ in tracer_module.LAYERS}


def test_every_layer_resolves_and_is_restored(tracer_module):
    before = _bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            wrapped = getattr(owner, attr)
            assert wrapped is not original, f"{attr} of {owner} was not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    after = _bindings(tracer_module)
    for key, original in before.items():
        assert after[key] is original


# argument names the tracer's counters read, by position (bound methods count self)
COUNTED_ARGUMENTS = {
    "simulate": ["cfg", "initial", "sinks"],
    "values": ["self", "pts"],
    "values_and_jacobians": ["self", "pts"],
    "detect_saddle_connections": ["f", "saddles"],
    "flow_map": ["trajectory", "seeds"],
    "write_state_snapshot": ["path"],
    "write_ndjson": ["path"],
}


def test_counted_arguments_keep_their_names_and_positions(tracer_module):
    for _, owner, attr, count, _ in tracer_module.LAYERS:
        if count is None:
            continue
        params = list(inspect.signature(getattr(owner, attr)).parameters)
        if attr in COUNTED_ARGUMENTS:
            want = COUNTED_ARGUMENTS[attr]
            assert params[: len(want)] == want, f"{attr}{tuple(params)}"


def test_traced_requests_complete(tracer_module, tmp_path):
    # tiny versions of the benchmark's requests, run through the installed tracer
    main = mhdrecon.cli.main
    configs = {
        "simulate": {"scenario": "custom", "resolution": 16, "t_end": 0.01},
        "theorem2": {"scenario": "theorem2", "resolution": 16, "dt": 1e-3, "t_end": 0.01},
        "frozen-in": {"scenario": "frozen-in", "resolution": 16, "dt": 1e-3, "t_end": 0.01,
                      "output_cadence": 5},
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [main(["topology", "--field", "taylor:1,1", "--resolution", "16",
                       "--out", str(tmp_path / "topology")])]
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg))
            codes.append(main([command, "--config", str(path), "--out", str(tmp_path / command)]))
    finally:
        tracer.uninstall()
    assert all(code in (0, 2) for code in codes)
    metrics = tracer.metrics(overhead_s=0.0)
    for name in ("solver.steps", "fields.eval_points", "topology.critical_points",
                 "topology.separatrix_launched", "topology.flow_map_points",
                 "topology.trace_steps", "snapshots.bytes_written"):
        assert metrics[name] > 0, name
