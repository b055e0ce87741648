"""Command-line entry point: zeno-qfi <mode> [flags].

The optional JSON config file and the flags merge into one mapping, flags
winning, which is validated once as a ``SweepConfig``; the mode may come
from either.  Exit status: 0 on success, 1 on verification failure (or a
failed in-sweep cross-check), 2 on configuration errors, which include an
output file that cannot be written; that is checked before the run starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptions import ConfigError
from .sweeps import MODES, RUNNERS, SweepConfig, run_verify


def build_parser() -> argparse.ArgumentParser:
    """Flags whose ``dest`` is the config file key they override."""
    parser = argparse.ArgumentParser(
        prog="zeno-qfi",
        description=(
            "Zeno dynamics of noisy channels: QFI sweeps, Zeno-time tables, "
            "and a verification suite."
        ),
    )
    parser.add_argument(
        "mode", nargs="?", choices=MODES, metavar="mode", help=f"one of {', '.join(MODES)}"
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument(
        "--omega0-tau", dest="omega0_tau", type=float, help="dimensionless omega0*tau"
    )
    parser.add_argument(
        "--gamma", dest="gamma_over_omega0", metavar="GAMMA", type=float, nargs="+",
        help="gamma/omega0 values for the sweep",
    )
    parser.add_argument(
        "--n", dest="N_list", metavar="N", type=int, nargs="+", help="qubit numbers N"
    )
    parser.add_argument("--m", type=int, help="number of measurements")
    parser.add_argument(
        "--out", dest="output_path", metavar="OUT", help="output file (default: stdout)"
    )
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--seed", type=int, help="seed for in-sweep cross-checks")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    """The config file's keys with the given flags laid over them."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    path = flags.pop("config", None)
    data = _read_config_file(path) if path else {}
    return SweepConfig.from_dict({**data, **flags})


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
