"""Command-line entry point: zeno-qfi <mode> [flags].

Configuration comes from an optional JSON file plus flag overrides, flags
winning.  Exit status: 0 on success, 1 on verification failure (or a failed
in-sweep cross-check), 2 on configuration errors, which include an output
file that cannot be written; that is checked before the run starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .exceptions import ConfigError
from .sweeps import MODES, RUNNERS, SweepConfig, run_verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeno-qfi",
        description=(
            "Zeno dynamics of noisy channels: QFI sweeps, Zeno-time tables, "
            "and a verification suite."
        ),
    )
    parser.add_argument(
        "mode_positional",
        nargs="?",
        metavar="mode",
        choices=MODES,
        help=f"one of {', '.join(MODES)}",
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--mode", choices=MODES, help="mode, if not given positionally")
    parser.add_argument("--omega0-tau", type=float, help="dimensionless omega0*tau")
    parser.add_argument(
        "--gamma", type=float, nargs="+", help="gamma/omega0 values for the sweep"
    )
    parser.add_argument("--n", type=int, nargs="+", help="qubit numbers N")
    parser.add_argument("--m", type=int, help="number of measurements")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--seed", type=int, help="seed for in-sweep cross-checks")
    return parser


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    if args.config:
        cfg = SweepConfig.from_json_file(args.config)
    else:
        mode = args.mode_positional or args.mode
        if mode is None:
            raise ConfigError("a mode is required (positional, --mode, or config file)")
        cfg = SweepConfig(mode=mode)
    overrides = {}
    mode = args.mode_positional or args.mode
    if mode is not None:
        overrides["mode"] = mode
    if args.omega0_tau is not None:
        overrides["omega0_tau"] = args.omega0_tau
    if args.gamma is not None:
        overrides["gamma_over_omega0"] = tuple(args.gamma)
    if args.n is not None:
        overrides["n_list"] = tuple(args.n)
    if args.m is not None:
        overrides["m"] = args.m
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.format is not None:
        overrides["format"] = args.format
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _check_writable(path: str) -> None:
    """Fail before the run when the output file cannot be written, without
    creating or truncating it."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: no such directory {directory}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: is a directory")
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run(cfg: SweepConfig) -> int:
    if cfg.output_path is not None:
        _check_writable(cfg.output_path)
    if cfg.mode == "verify":
        report = run_verify(cfg)
        for line in report.lines():
            print(line)
        if cfg.output_path is not None:
            _write_output(report.to_json_text(), cfg.output_path)
        return 0 if report.all_passed else 1

    try:
        table = RUNNERS[cfg.mode](cfg)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in table.notes:
        print(note, file=sys.stderr)
    text = table.to_csv_text() if cfg.format == "csv" else table.to_json_text(cfg.mode)
    _write_output(text, cfg.output_path)
    return 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(_config_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(run())
