"""Command-line front end.

Verbs: run one scenario, sweep a parameter grid, list the presets,
or validate a config file without running anything. `run --trace PATH`
also writes the slot trace, one line per slot, beside the records.
Output location may be overridden with MSCSIM_OUT_DIR; nothing else
reads the environment, and no code path consults the wall clock.
"""

import argparse
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    PRESETS,
    parse_config,
    preset_settings,
    scenario_hash,
    serialize_scenario,
)
from .runner import run, sweep

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscsim",
        description="Deterministic simulator for network-coded cooperative "
                    "small cells: offloading sessions, handover accounting, "
                    "and distributed key management.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("config", help="path to a scenario file")
    run_p.add_argument("--seed", default=None,
                       help="override (or supply) scenario.seed")
    run_p.add_argument("--out", default=None,
                       help="output records path (default: <config>-metrics.jsonl)")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="also write one JSONL line per session slot to PATH")

    sweep_p = sub.add_parser("sweep", help="run a grid of scenario variants")
    sweep_p.add_argument("config", help="path to the template scenario file")
    sweep_p.add_argument("--grid", action="append", default=[],
                         metavar="SECTION.KEY=V1,V2,...",
                         help="one axis of the grid; repeatable")
    sweep_p.add_argument("--seed", default=None,
                         help="override the template's base seed")
    sweep_p.add_argument("--out", default=None,
                         help="output records path (default: <config>-sweep.jsonl)")

    sub.add_parser("presets", help="list built-in presets and their settings")

    val_p = sub.add_parser("validate", help="parse and check a scenario file")
    val_p.add_argument("config", help="path to a scenario file")

    return parser


def _load_scenario(path: str, seed):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading BOM
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path} is not UTF-8 text (byte "
                          f"0x{exc.object[exc.start]:02x})", line) from None
    return parse_config(text, seed=seed)


def _out_path(explicit, config_path: str, suffix: str) -> str:
    if explicit is not None:
        name = explicit
    else:
        name = f"{Path(config_path).stem}-{suffix}.jsonl"
    directory = os.environ.get("MSCSIM_OUT_DIR")
    if directory and not os.path.isabs(name):
        return str(Path(directory) / name)
    return name


def _parse_grid(axes: list[str]) -> dict:
    grid = {}
    for axis in axes:
        if "=" not in axis:
            raise ConfigError(f"grid axis {axis!r} is not SECTION.KEY=V1,V2,...")
        dotted, _, values = axis.partition("=")
        dotted = dotted.strip()
        if dotted in grid:
            raise ConfigError(f"grid axis {dotted!r} given twice")
        grid[dotted] = [v.strip() for v in values.split(",") if v.strip()]
    return grid


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.config, args.seed)
    out = _out_path(args.out, args.config, "metrics")
    trace = (None if args.trace is None
             else _out_path(args.trace, args.config, "trace"))
    try:
        result = run(scenario, out_path=out, trace_path=trace)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    summary = result.records[-1]
    if summary.get("status") == "ok":
        parts = [f"sessions={summary['sessions']}"]
        if summary["mean_cellular_utilization"] is not None:
            parts.append(
                f"cellular_utilization={summary['mean_cellular_utilization']:.4f}")
            parts.append(f"decoding_ratio={summary['decoding_ratio']:.4f}")
        print(" ".join(parts))
    else:
        print(f"run failed: {summary['error']}: {summary['message']}",
              file=sys.stderr)
    print(f"wrote {len(result.records)} records to {out}")
    if trace is not None:
        print(f"wrote the slot trace to {trace}")
    return EXIT_OK if result.exit_code == 0 else EXIT_RUN_FAILED


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config, args.seed)
    grid = _parse_grid(args.grid)
    out = _out_path(args.out, args.config, "sweep")
    try:
        result = sweep(scenario, grid, out_path=out)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    runs = len({r["run_id"] for r in result.records})
    print(f"{runs} runs, {len(result.records)} records -> {out}")
    return EXIT_OK if result.exit_code == 0 else EXIT_RUN_FAILED


def _cmd_presets() -> int:
    for name in sorted(PRESETS):
        print(f"[{name}]")
        for dotted, value in preset_settings(name).items():
            print(f"  {dotted} = {value}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.config, seed=None)
    print(f"ok {scenario_hash(scenario)}")
    print(serialize_scenario(scenario), end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
