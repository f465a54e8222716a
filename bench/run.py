#!/usr/bin/env python3
"""Benchmark of mhdrecon: reconnection runs, the frozen-in run and a stream
of topology requests, sent through the program's CLI entry point.

    python3 bench/run.py --workload signatures --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, untraced and traced

Each workload is a closed loop with one client: ``mhdrecon.cli.main`` is
called in this process, and a request is sent only after the previous one
returned. A run repeats whole rounds of its workload until the measured time
reaches ``--seconds``, and checks every output with ``checks.py`` after each
round, outside the timed part. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it also
runs round 0 again with every layer wrapped (``tracer.py``) and prints the
per-layer metrics. The last line of standard output is one JSON object.
Run outputs go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (after the path to the program's sources)

OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("reconnection", "frozen-in", "signatures")
SETUP_REPEATS = 5
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("request_s_p50", "s"), ("peak_rss_mb", "MB")]

# theorem1 keeps its verdict down to t_end = 0.75 (0.5 leaves the rescaled
# T_44 remnant too large); theorem2's rescaled final field has T_11's
# portrait from t_end = 0.25 on, and 0.3 leaves a margin.
RECONNECTION_CONFIGS = {
    "theorem1": {"scenario": "theorem1", "t_end": 0.75},
    "theorem2": {"scenario": "theorem2", "t_end": 0.3},
}
# One request per (family, M) in every round, so every round costs about the
# same whatever the seed; the seed picks the order, the orientation (n, m) or
# (m, n), delta and eps.
SIGNATURE_SLOTS = (
    ("taylor", 64, (3, 2)),
    ("taylor", 128, (4, 4)),
    ("taylor", 256, (2, 1)),
    ("tilde", 64, (4, 4)),
    ("tilde", 128, (3, 2)),
    ("tilde", 256, (2, 1)),
)


class Request(NamedTuple):
    name: str
    argv: list
    check: Callable  # (output directory, printed JSON) -> None, raises on a wrong output


def _load(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _check_theorem1(out: Path, printed: dict) -> None:
    checks.check_theorem1(_load(out / "report.json"), printed["verdict"])


def _check_theorem2(out: Path, printed: dict) -> None:
    checks.check_theorem2(_load(out / "report.json"), printed["verdict"],
                          out / "theorem2_final.snap")


def _check_frozen_in(out: Path, printed: dict) -> None:
    checks.check_frozen_in(printed["verdict"], out / "frozen_in_initial.snap",
                           out / "frozen_in_final.snap")


def _check_topology(spec, family, shape, out: Path, printed: dict) -> None:
    topo = _load(out / "topology.json")
    if printed["n_points"] != topo["n_points"]:
        raise checks.CheckFailed(f"printed {printed['n_points']} points, wrote {topo['n_points']}")
    checks.check_topology(spec, family, shape, topo)


def signature_round(seed: int, r: int) -> list[Request]:
    rng = np.random.default_rng([seed % 2**32, r])
    requests = []
    for family, resolution, (n, m) in SIGNATURE_SLOTS:
        if rng.random() < 0.5:
            n, m = m, n
        if family == "taylor":
            delta = float(10.0 ** rng.uniform(-4.0, -3.0))
            spec = f"taylor:{n},{m}:{float(1.0 / np.hypot(n, m))!r}+tilde-t1:{delta!r}"
        else:
            eps = float(rng.uniform(0.005, 0.02))
            spec = f"tilde-t1:1+taylor:{n},{m}:{eps!r}"
        argv = ["topology", "--field", spec, "--resolution", str(resolution)]
        check = partial(_check_topology, spec, family, (n, m))
        requests.append(Request(f"topology-{family}-{resolution}", argv, check))
    return [requests[i] for i in rng.permutation(len(requests))]


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, write the workload's configs, warm up; return
    (cli main, round builder)."""
    from mhdrecon.cli import main

    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "reconnection":
        requests = []
        for name, cfg in RECONNECTION_CONFIGS.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            check = _check_theorem1 if name == "theorem1" else _check_theorem2
            requests.append(Request(name, [name, "--config", str(path)], check))
        rounds = lambda r: requests
    elif workload == "frozen-in":
        rounds = lambda r: [Request("frozen-in", ["frozen-in"], _check_frozen_in)]
    else:
        rounds = partial(signature_round, seed)
        rounds(0)  # the field specs of the first round
    # first calls of the FFT and BLAS paths: ten solver steps at M = 16
    tiny = workdir / "warmup.json"
    tiny.write_text(json.dumps({"scenario": "custom", "resolution": 16, "t_end": 0.01}),
                    encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["simulate", "--config", str(tiny), "--out", str(workdir / "warmup")]) != 0:
            raise RuntimeError("warm-up run failed")
    return main, rounds


def measure_setup(args, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import the program and set the workload up."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{k}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return times


def run_round(main, requests, out_dir: Path, tracer=None):
    """Send the requests one after another; (wall seconds, per-request results)."""
    results = []
    first = time.perf_counter()
    for i, req in enumerate(requests):
        out = out_dir / f"{i:02d}-{req.name}"
        if tracer is not None:
            tracer.request = f"{out_dir.name}/{out.name}"
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(req.argv + ["--out", str(out)])
        except Exception:  # a crash is one failed request; the run goes on
            traceback.print_exc()
            rc = None
        results.append((req, out, time.perf_counter() - start, rc, buf.getvalue()))
    return time.perf_counter() - first, results


def check_results(results) -> tuple[int, int]:
    """(failed requests, requests whose output failed a check)."""
    failed = wrong = 0
    for req, out, _, rc, text in results:
        if rc != 0:
            print(f"FAILED {out}: exit code {rc}", file=sys.stderr)
            failed += 1
            continue
        try:
            req.check(out, json.loads(text.strip().splitlines()[-1]))
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            print(f"WRONG {out}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": git_sha(),
    }


def run_workload(args) -> int:
    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times = measure_setup(args, workdir)
    main, rounds = setup(args.workload, args.seed, workdir / "setup")

    walls, request_s, log = [], [], []
    attempted = failed = wrong = 0
    measured = 0.0
    r = 0
    while r == 0 or measured < args.seconds:
        wall, results = run_round(main, rounds(r), workdir / f"round{r:03d}")
        measured += wall
        walls.append(wall)
        request_s += [res[2] for res in results]
        log += [[res[1].parent.name, res[0].name, res[0].argv, res[2]] for res in results]
        f, w = check_results(results)
        attempted, failed, wrong = attempted + len(results), failed + f, wrong + w
        r += 1

    if args.trace:
        from tracer import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, results = run_round(tracer.wrap("cli.main", main), rounds(0),
                                             workdir / "traced", tracer)
        finally:
            tracer.uninstall()
        f, w = check_results(results)
        attempted, failed, wrong = attempted + len(results), failed + f, wrong + w
        tracer.write(workdir / "trace.json")
        values = tracer.metrics(overhead_s=traced_wall - walls[0])
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "request_s_p50": statistics.median(request_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    host = host_record()
    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {r} rounds, "
          f"{attempted} requests, {failed} failed, {wrong} wrong")
    for name, unit in units:
        print(f"  {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record = {**result, "host": host, "requests": log}
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{workload} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["workloads"].setdefault(workload, {}).update(result["metrics"])
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "mhdrecon").is_dir():
        print(f"error: no mhdrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
