"""Command-line harness for simulations, topology reports, and scenarios.

Exit codes: 0 when the run completes and any verdict matches the expected
one, 2 when the run completes but the verdict differs, 1 on failure
(malformed config, missing file, solver blow-up).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .fields import (
    ConfigurationError,
    SpectralField2D,
    TaylorSpec,
    TorusGrid,
    make_taylor,
    make_tilde_t1,
)
from .scenarios import (
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    Report,
    _is_even_grid,
    default_out_root,
    load_config,
    read_config_json,
    run_scenario,
)
from .snapshots import read_ndjson, read_snapshot, snapshot_to_field, write_snapshot
from .solver import BlowUpError
from .topology import extract_signature

# failures reported as an "error:" line with exit code 1
_FAILURES = (ConfigurationError, OSError, ValueError, BlowUpError)

# the scenarios with a subcommand of their own; custom runs as "simulate"
SCENARIO_COMMANDS = tuple(s for s in SCENARIOS if s != "custom")

LOG_LEVELS = ("debug", "info", "warning", "error")


def _amplitude(term: str, parts: list[str], i: int) -> float:
    """The finite amplitude parts[i] of a field term, 1 when it is absent."""
    if len(parts) <= i:
        return 1.0
    try:
        amp = float(parts[i])
    except ValueError as exc:
        raise ConfigurationError(f"bad amplitude in field term {term!r}") from exc
    if not math.isfinite(amp):
        raise ConfigurationError(f"field term {term!r}: the amplitude must be finite")
    return amp


def parse_field_spec(spec: str, grid: TorusGrid) -> SpectralField2D:
    """Build a field from a spec string like 'taylor:4,4', 'tilde-t1:0.5',
    or a '+'-separated sum of such terms."""
    total = None
    for term in spec.split("+"):
        parts = term.strip().split(":")
        kind = parts[0]
        if kind == "taylor":
            if len(parts) < 2:
                raise ConfigurationError(f"field term {term!r} needs indices, e.g. taylor:4,4")
            try:
                n, m = (int(v) for v in parts[1].split(","))
            except ValueError as exc:
                raise ConfigurationError(f"bad taylor indices in {term!r}") from exc
            f = make_taylor(TaylorSpec(n, m), _amplitude(term, parts, 2), grid)
        elif kind in ("tilde-t1", "tilde_t1"):
            f = make_tilde_t1(grid, _amplitude(term, parts, 1))
        else:
            raise ConfigurationError(f"unknown field kind {kind!r} in {spec!r}")
        total = f if total is None else total + f
    return total


# Optional flags; each command takes only those it reads.
_FLAGS = {
    "--config": dict(help="path to a scenario config JSON file"),
    "--threads": dict(type=int, default=1, help="worker threads for sweep runs"),
    "--emit-plots": dict(action="store_true",
                         help="write whitespace-separated plot data and a plotting script"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    parser.add_argument("--out", help="output directory (default: $MHD_OUT_DIR/<command>)")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later main call of the process. Parsing leaves it unchanged: each call
    fills a new namespace, no default is a mutable object, and the parser
    reads no environment ($MHD_OUT_DIR is read by _out_dir)."""
    parser = argparse.ArgumentParser(
        prog="mhdrecon",
        description="2D incompressible MHD runs with magnetic-line topology verdicts",
    )
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="level of the mhdrecon log lines printed on stderr "
                             "(default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-field", help="write a field snapshot")
    _add_flags(p)
    p.add_argument("--field", required=True, help="field spec, e.g. taylor:4,4+tilde-t1:1e-3")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=128)
    p.set_defaults(run=cmd_gen_field)

    p = sub.add_parser("topology", help="critical points and signature of a field")
    _add_flags(p)
    p.add_argument("--field", help="field spec, e.g. taylor:1,1")
    p.add_argument("--snapshot", help="read the field from a snapshot file instead")
    p.add_argument("--resolution", type=int,
                   help="grid of --field (default: 128); a snapshot carries its own")
    p.set_defaults(run=cmd_topology)

    p = sub.add_parser("simulate", help="plain run with diagnostics output")
    _add_flags(p, "--config", "--emit-plots")
    p.set_defaults(run=cmd_scenario, scenario="custom")

    for name in SCENARIO_COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        _add_flags(p, "--config", "--emit-plots")
        p.set_defaults(run=cmd_scenario, scenario=name)

    p = sub.add_parser("sweep", help="run several configs concurrently")
    _add_flags(p, "--config", "--threads", "--emit-plots")
    p.set_defaults(run=cmd_sweep)
    return parser


def _even_grid_flag(flag: str, value: int | None) -> int | None:
    """The value of a grid flag; a ConfigError names the flag unless it is None or even >= 8."""
    if value is not None and not _is_even_grid(value):
        raise ConfigError(f"flag {flag}: expected an even integer >= 8, got {value}")
    return value


def _out_dir(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    return default_out_root() / command


def cmd_gen_field(args) -> int:
    if not math.isfinite(args.amplitude):
        raise ConfigError(f"flag --amplitude: expected a finite number, got {args.amplitude}")
    grid = TorusGrid(_even_grid_flag("--resolution", args.resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        components = (parse_field_spec(args.field, grid) * args.amplitude).components()
    if not np.isfinite(components).all():
        raise ConfigError(f"flag --amplitude: the field {args.field!r} scaled by "
                          f"{args.amplitude!r} is not finite")
    out = _out_dir(args, "gen-field")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "field.snap"
    b1, b2 = components
    write_snapshot(path, {"b1": b1, "b2": b2}, time=0.0, nu=0.0, eta=0.0)
    print(path)
    return 0


def cmd_topology(args) -> int:
    if args.field and args.snapshot:
        raise ConfigError("flags --field and --snapshot: give one source of the field, not both")
    if args.snapshot and args.resolution is not None:
        raise ConfigError("flags --snapshot and --resolution: a snapshot carries its own "
                          "resolution, give --resolution only with --field")
    if args.snapshot:
        f = snapshot_to_field(read_snapshot(args.snapshot))
    elif args.field:
        resolution = 128 if args.resolution is None else args.resolution
        grid = TorusGrid(_even_grid_flag("--resolution", resolution))
        f = parse_field_spec(args.field, grid)
    else:
        raise ConfigurationError("topology needs --field or --snapshot")
    try:
        sig, points = extract_signature(f)
    except ConfigurationError as exc:
        source = f"snapshot {args.snapshot}" if args.snapshot else f"field {args.field!r}"
        raise ConfigurationError(f"{source}: {exc}") from exc
    report = {
        "signature": sig.to_dict(),
        "n_points": len(points),
        "points": [
            {
                "position": p.position.tolist(),
                "kind": p.kind,
                "det": p.det,
                "residual": p.residual,
            }
            for p in points
        ],
    }
    out = _out_dir(args, "topology")
    out.mkdir(parents=True, exist_ok=True)
    (out / "topology.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"n_points": len(points), **sig.to_dict()}))
    return 0


def _scenario_config(args, scenario: str) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
        if cfg.scenario != scenario and scenario != "custom":
            raise ConfigError(
                f"field 'scenario': config names {cfg.scenario!r} but the "
                f"{scenario!r} command was invoked"
            )
        return cfg
    return ExperimentConfig.for_scenario(scenario)


def _finish(report: Report, out: Path, emit: bool) -> int:
    print(json.dumps({"scenario": report.scenario, "verdict": report.verdict,
                      "expected": report.expected, "as_expected": report.as_expected}))
    if emit:
        emit_plots(out)
    return 0 if report.as_expected else 2


def cmd_scenario(args) -> int:
    cfg = _scenario_config(args, args.scenario)
    out = _out_dir(args, args.command)
    report = run_scenario(cfg, out)
    return _finish(report, out, args.emit_plots)


def _is_file_name(name) -> bool:
    """A non-empty string naming one entry of a directory: each sweep run
    writes its outputs to the directory <out>/<name>."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and not any(c in name for c in "/\\\0"))


def cmd_sweep(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"flag --threads: expected an integer >= 1, got {args.threads}")
    if not args.config:
        raise ConfigError("sweep requires --config with a {\"runs\": [...]} file")
    data = read_config_json(args.config)
    if not isinstance(data, dict):
        raise ConfigError("sweep config root must be a JSON object")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("field 'runs': must be a non-empty list of configs")
    root = _out_dir(args, "sweep")
    configs = []
    for i, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise ConfigError(f"runs[{i}]: expected a JSON object, got {entry!r}")
        entry = dict(entry)
        name = entry.pop("name", f"run_{i:03d}")
        if not _is_file_name(name):
            raise ConfigError(
                f"runs[{i}].name: expected a non-empty file name without a path separator, "
                f"got {name!r}")
        if any(name == other for other, _ in configs):
            raise ConfigError(f"runs[{i}].name: {name!r} names an earlier run too")
        try:
            configs.append((name, ExperimentConfig.from_dict(entry)))
        except ConfigError as exc:
            raise ConfigError(f"runs[{i}]: {exc}") from exc

    def one(item):
        name, cfg = item
        try:
            return name, run_scenario(cfg, root / name)
        except _FAILURES as exc:
            return name, exc

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        results = list(pool.map(one, configs))
    failed = mismatch = False
    for name, report in results:
        if isinstance(report, Exception):
            print(json.dumps({"run": name, "error": str(report)}))
            print(f"error: run {name}: {report}", file=sys.stderr)
            failed = True
            continue
        print(json.dumps({"run": name, "verdict": report.verdict,
                          "as_expected": report.as_expected}))
        mismatch |= not report.as_expected
    if args.emit_plots:
        for name, _ in results:
            emit_plots(root / name)
    return 1 if failed else 2 if mismatch else 0


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the .dat files in this directory (requires matplotlib).\"\"\"
import glob
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = os.path.dirname(os.path.abspath(__file__))
for dat in sorted(glob.glob(os.path.join(here, "*.dat"))):
    with open(dat) as fh:
        header = fh.readline().lstrip("#").split()
    data = np.loadtxt(dat, skiprows=1, ndmin=2)
    if data.size == 0:
        continue
    fig, ax = plt.subplots()
    for col in range(1, data.shape[1]):
        ax.plot(data[:, 0], data[:, col], label=header[col] if col < len(header) else str(col))
    ax.set_xlabel(header[0] if header else "t")
    ax.set_yscale("log") if (data[:, 1:] > 0).all() else None
    ax.legend()
    fig.savefig(dat.replace(".dat", ".png"), dpi=150)
    plt.close(fig)
print("plots written next to the .dat files")
"""


def emit_plots(out_dir) -> None:
    """Write whitespace-separated data extracted from a run directory plus a
    self-contained plotting script (no plotting dependency needed here)."""
    out = Path(out_dir)
    if not out.exists():
        return
    for nd in sorted(out.glob("*_diagnostics.ndjson")):
        records = read_ndjson(nd)
        dat = out / (nd.stem.replace("_diagnostics", "") + "_energy.dat")
        with open(dat, "w", encoding="utf-8") as fh:
            fh.write("# t energy_u energy_b cross_helicity\n")
            for rec in records:
                fh.write(f"{rec.t!r} {rec.energy_u!r} {rec.energy_b!r} {rec.cross_helicity!r}\n")
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        for name, series in report.get("series", {}).items():
            if not series:
                continue
            dat = out / f"{name}.dat"
            with open(dat, "w", encoding="utf-8") as fh:
                fh.write(f"# t {name}\n")
                for t, v in series:
                    fh.write(f"{t!r} {v!r}\n")
    (out / "plot_all.py").write_text(PLOT_SCRIPT, encoding="utf-8")


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Print the mhdrecon log records of one command on stderr from level up.

    The handler and the level are taken off again when the command ends, so
    calling main many times in one process does not stack handlers.
    """
    logger = logging.getLogger("mhdrecon")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.run(args)
        except _FAILURES as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
