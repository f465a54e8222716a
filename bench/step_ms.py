#!/usr/bin/env python3
"""solver.step_ms at M = 64, 128 and 256, for the reference figures of the README.

    python3 bench/step_ms.py

Each size runs ``mhdrecon simulate`` on the custom scenario for 50 steps
(dt = 1e-3, t_end = 0.05) with the solver layer traced, three times; the
median of the three is printed. Outputs go to ``.bench_out/step_ms/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from mhdrecon.cli import main  # noqa: E402
from tracer import Tracer  # noqa: E402

REPEATS = 3


def step_ms(resolution: int, workdir: Path) -> float:
    cfg = workdir / f"custom{resolution}.json"
    cfg.write_text(json.dumps({"scenario": "custom", "resolution": resolution, "t_end": 0.05}))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", "--config", str(cfg), "--out", str(workdir / str(resolution))])
    finally:
        tracer.uninstall()
    if rc != 0:
        raise RuntimeError(f"simulate at M = {resolution} exited with {rc}")
    return tracer.metrics(overhead_s=0.0)["solver.step_ms"]


if __name__ == "__main__":
    workdir = BENCH.parent / ".bench_out" / "step_ms"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    step_ms(16, workdir)  # first calls of the FFT and BLAS paths
    for m in (64, 128, 256):
        times = [step_ms(m, workdir) for _ in range(REPEATS)]
        print(f"M = {m}: solver.step_ms = {statistics.median(times):.3g} ms "
              f"(runs: {', '.join(f'{t:.3g}' for t in times)})")
