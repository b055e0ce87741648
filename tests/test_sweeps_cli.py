import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zeno_qfi
from zeno_qfi import sweeps
from zeno_qfi.channels import build_dephasing_model, generator
from zeno_qfi.cli import run
from zeno_qfi.exceptions import ConfigError, PoleProximityError
from zeno_qfi.qfi import (
    AnalyticParams,
    EnvOperatorBasis,
    minimize_qfi_bound,
    qfi_ghz,
    qfi_separable,
    qfi_sld_oracle,
)
from zeno_qfi.states import SYSTEM, ghz_state, plus_state, tensor_state, zero_environment
from zeno_qfi.sweeps import (
    _CHECKS,
    DEFAULT_TOLERANCES,
    RUNNERS,
    SweepConfig,
    Table,
    _random_pure,
    run_qfi_vs_gamma,
    run_ratio_vs_n,
    run_verify,
    run_zeno_time,
)


# The child process imports the same zeno_qfi as this one, installed or not.
PACKAGE_ROOT = str(Path(zeno_qfi.__file__).resolve().parents[1])


def cli(*argv):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "zeno_qfi", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


# ---- configuration ----


def test_config_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        SweepConfig(mode="frequency-comb")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SweepConfig(mode="ratio-vs-N", omega0_tau=0.0)
    with pytest.raises(ConfigError):
        SweepConfig(mode="ratio-vs-N", format="yaml")
    with pytest.raises(ConfigError):
        SweepConfig(mode="ratio-vs-N", gamma_over_omega0=())
    with pytest.raises(ConfigError):
        SweepConfig(mode="ratio-vs-N", n_list=(0,))
    with pytest.raises(ConfigError):
        SweepConfig(mode="ratio-vs-N", m=0)


def test_config_defaults_resolve_per_mode():
    cfg = SweepConfig(mode="ratio-vs-N")
    assert cfg.gamma_over_omega0 == (1.2, 1.1, 1.0, 0.9, 0.8)
    assert cfg.n_list == tuple(range(1, 501))
    cfg = SweepConfig(mode="qfi-vs-gamma")
    assert cfg.n_list == (3, 5, 7)
    assert cfg.gamma_over_omega0[0] == 0.0
    assert cfg.gamma_over_omega0[-1] == pytest.approx(3.0)
    assert len(cfg.gamma_over_omega0) == 61


def test_config_from_dict_maps_n_list():
    cfg = SweepConfig.from_dict({"mode": "zeno-time", "N_list": [1, 2], "m": 7})
    assert cfg.n_list == (1, 2)
    assert cfg.m == 7


def test_config_rejects_unknown_keys():
    """The keys are the field names, with N_list standing for n_list."""
    for key in ("colour", "n_list"):
        with pytest.raises(ConfigError, match="unknown"):
            SweepConfig.from_dict({"mode": "verify", key: 1})


def test_config_rejects_bad_tolerances():
    for tolerances in (
        {"solver_vs_sdl": 1e-30},
        {"solver_vs_sld": float("nan")},
        {"solver_vs_sld": float("inf")},
        {"solver_vs_sld": "1e-5"},
        {"solver_vs_sld": True},
        [("solver_vs_sld", 1e-5)],
    ):
        with pytest.raises(ConfigError, match="toleran"):
            SweepConfig(mode="verify", tolerances=tolerances)
    cfg = SweepConfig(mode="verify", tolerances={"solver_vs_sld": 1e-6, "zeno_limit": 1})
    assert cfg.tolerances == {"solver_vs_sld": 1e-6, "zeno_limit": 1}


def test_config_caps_n_at_two_to_the_53():
    """2**53 is the largest count a float64 holds exactly, and the sweeps
    carry N as float64."""
    assert SweepConfig(mode="zeno-time", n_list=(2**53,)).n_list == (2**53,)
    for n in (2**53 + 1, 1e200):
        with pytest.raises(ConfigError, match="at most 2"):
            SweepConfig(mode="zeno-time", n_list=(1, n))


def test_float_format_is_twelve_significant_digits():
    table = Table(columns=("x",), rows=[(1.7701511529340699,), (0.0001,)])
    assert table.to_csv_text() == "x\n1.77015115293e+00\n1.00000000000e-04\n"


# ---- tables ----


def test_ratio_table_unit_ratio_at_n_one():
    cfg = SweepConfig(mode="ratio-vs-N", n_list=(1,), gamma_over_omega0=(1.0, 0.8))
    table = run_ratio_vs_n(cfg)
    for row in table.rows:
        assert row[4] == pytest.approx(1.0, abs=1e-12)


def test_ratio_table_rows_sorted_by_n():
    cfg = SweepConfig(mode="ratio-vs-N", n_list=(5, 1, 3), gamma_over_omega0=(1.0,))
    table = run_ratio_vs_n(cfg)
    assert [row[0] for row in table.rows] == [1, 3, 5]


def test_ratio_consistency_within_rows():
    cfg = SweepConfig(mode="ratio-vs-N", n_list=tuple(range(1, 40, 3)))
    table = run_ratio_vs_n(cfg)
    for row in table.rows:
        _, _, f_en, f_se, ratio, _ = row
        assert ratio == pytest.approx(f_en / f_se, rel=1e-12)


def test_ratio_spot_value_near_asymptote_at_large_n():
    cfg = SweepConfig(mode="ratio-vs-N", n_list=(1000,), gamma_over_omega0=(1.0,))
    row = run_ratio_vs_n(cfg).rows[0]
    ratio, asymptote = row[4], row[5]
    assert abs(ratio - asymptote) / asymptote < 0.005


def test_qfi_table_single_qubit_curves_coincide():
    cfg = SweepConfig(
        mode="qfi-vs-gamma", n_list=(1,), gamma_over_omega0=(0.0, 0.7, 2.0)
    )
    for row in run_qfi_vs_gamma(cfg).rows:
        assert row[2] == pytest.approx(row[3], rel=1e-12)


def test_ratio_table_skips_pole_rows_with_note():
    cfg = SweepConfig(mode="ratio-vs-N", n_list=(2,), gamma_over_omega0=(0.0, 1.0))
    table = run_ratio_vs_n(cfg)
    assert len(table.rows) == 1
    assert any("skipped" in note for note in table.notes)


def test_qfi_table_closed_system_column():
    cfg = SweepConfig(
        mode="qfi-vs-gamma", n_list=(1, 3, 5), gamma_over_omega0=(0.0, 0.5)
    )
    table = run_qfi_vs_gamma(cfg)
    by_key = {(row[0], row[1]): row for row in table.rows}
    for n in (1, 3, 5):
        row = by_key[(n, 0.0)]
        assert row[2] == pytest.approx(n**2, rel=1e-12)
        assert row[3] == pytest.approx(n, rel=1e-12)


def test_qfi_table_matches_formulas():
    cfg = SweepConfig(mode="qfi-vs-gamma", n_list=(3,), gamma_over_omega0=(0.4,))
    table = run_qfi_vs_gamma(cfg)
    p = AnalyticParams(n=3, omega0=1.0, gamma=0.4, tau=0.5)
    row = table.rows[0]
    assert row[2] == pytest.approx(qfi_ghz(p), rel=1e-12)
    assert row[3] == pytest.approx(qfi_separable(p), rel=1e-12)


def test_qfi_table_emits_cross_check_notes():
    cfg = SweepConfig(mode="qfi-vs-gamma", n_list=(1, 2, 7), gamma_over_omega0=(0.5,))
    table = run_qfi_vs_gamma(cfg)
    checks = [note for note in table.notes if note.startswith("cross-check")]
    assert len(checks) == 2  # N=1 and N=2 only; 7 is above the solver scope


def test_zeno_table_m_quadrupling_halves_bounds():
    base = SweepConfig(mode="zeno-time", n_list=(2,), gamma_over_omega0=(0.5,), m=50)
    quad = SweepConfig(mode="zeno-time", n_list=(2,), gamma_over_omega0=(0.5,), m=200)
    row_base = run_zeno_time(base).rows[0]
    row_quad = run_zeno_time(quad).rows[0]
    for k in (3, 4, 5):
        assert row_quad[k] == pytest.approx(row_base[k] / 2, rel=1e-12)


def test_zeno_table_weak_and_strong_coupling_limits():
    cfg = SweepConfig(
        mode="zeno-time", n_list=(1,), gamma_over_omega0=(1e-4, 100.0), m=100
    )
    table = run_zeno_time(cfg)
    weak = table.rows[0]
    strong = table.rows[1]
    assert weak[5] == pytest.approx(2.0 / 10.0, rel=1e-4)  # 2/(omega0 sqrt(m))
    assert strong[5] == pytest.approx(2.0 / (100.0 * 10.0), rel=1e-3)


# ---- output formats and determinism ----


def test_csv_deterministic_and_parseable(tmp_path):
    config = {
        "mode": "ratio-vs-N",
        "N_list": list(range(1, 30)),
        "gamma_over_omega0": [1.0, 0.8],
        "output_path": str(tmp_path / "out.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["--config", str(path)]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert run(["--config", str(path)]) == 0
    second = (tmp_path / "out.csv").read_bytes()
    assert first == second

    lines = first.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "N[qubits]"
    assert len(lines) == 1 + 29 * 2
    # parsed ratios still satisfy the row identity after 12-digit rounding
    for line in lines[1:]:
        cells = line.split(",")
        f_en, f_se, ratio = float(cells[2]), float(cells[3]), float(cells[4])
        assert ratio == pytest.approx(f_en / f_se, rel=1e-11)


def test_json_output_round_trips(tmp_path):
    out = tmp_path / "table.json"
    code = run(
        ["qfi-vs-gamma", "--n", "1", "--gamma", "0.5", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "qfi-vs-gamma"
    assert payload["columns"][0] == "N[qubits]"
    assert len(payload["rows"]) == 1


# ---- verification suite ----


def test_verify_passes_on_clean_build():
    report = run_verify(SweepConfig(mode="verify"))
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert {"kraus_completeness", "solver_vs_sld", "solver_vs_closed_form"} <= names
    sld = next(c for c in report.checks if c.name == "solver_vs_sld")
    assert sld.measured <= 1e-5


def test_verify_fails_with_corrupted_tolerance():
    cfg = SweepConfig(mode="verify", tolerances={"kraus_completeness": 1e-30})
    report = run_verify(cfg)
    assert not report.all_passed
    bad = next(c for c in report.checks if c.name == "kraus_completeness")
    assert not bad.passed


@pytest.fixture(scope="module")
def default_report():
    return run_verify(SweepConfig(mode="verify"))


@pytest.mark.parametrize("name", list(DEFAULT_TOLERANCES))
def test_verify_routes_each_tolerance_to_its_own_check(name, default_report):
    """An override that fails its check reaches that check and no other;
    the report lists the checks in the order of ``DEFAULT_TOLERANCES``."""
    assert default_report.all_passed
    default = next(c for c in default_report.checks if c.name == name)
    failing = -1.0 if default.comparison == "le" else 1e9
    report = run_verify(SweepConfig(mode="verify", tolerances={name: failing}))
    assert [c.name for c in report.checks] == list(DEFAULT_TOLERANCES)
    assert next(c for c in report.checks if c.name == name).threshold == failing
    assert [c.name for c in report.checks if not c.passed] == [name]


def test_verify_report_lines_and_json():
    report = run_verify(SweepConfig(mode="verify"))
    lines = report.lines()
    assert lines[-1] == "verification PASSED"
    assert all(line.startswith(("PASS", "FAIL", "verification")) for line in lines)
    payload = json.loads(report.to_json_text())
    assert payload["all_passed"] is True
    seconds = [check["seconds"] for check in payload["checks"]]
    assert len(seconds) == len(lines) - 1
    assert all(s >= 0.0 for s in seconds) and sum(seconds) > 0.0


# ---- CLI process behavior ----


def test_cli_verify_exit_codes(tmp_path):
    result = cli("verify")
    assert result.returncode == 0
    assert "verification PASSED" in result.stdout

    config = {"mode": "verify", "tolerances": {"zeno_limit": 1.5}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(config))
    result = cli("--config", str(path))
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_cli_requires_a_mode(tmp_path, capsys):
    """No mode, given neither positionally nor in the file, is one config
    error line."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N_list": [1]}))
    for argv in ([], ["--config", str(path)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "config error: a mode is required (positional or in the config file)"
        ]
        assert captured.out == ""


def test_cli_rejects_mode_flag():
    result = cli("--mode", "verify")
    assert result.returncode == 2
    assert "unrecognized arguments: --mode" in result.stderr
    assert result.stdout == ""


def test_cli_takes_mode_positionally_over_a_file_without_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N_list": [1, 2], "gamma_over_omega0": [0.5]}))
    assert run(["--config", str(path), "zeno-time"]) == 0
    from_file = capsys.readouterr()
    assert run(["zeno-time", "--n", "1", "2", "--gamma", "0.5"]) == 0
    from_flags = capsys.readouterr()
    assert (from_file.out, from_file.err) == (from_flags.out, from_flags.err)
    assert len(from_file.out.splitlines()) == 3


def test_cli_flag_overrides_a_bad_file_value(tmp_path, capsys):
    """The file and the flags merge before validation, so a flag replaces
    an invalid file value; an invalid value no flag replaces still fails."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "zeno-time", "N_list": [1], "m": -1}))
    assert run(["--config", str(path), "--m", "5"]) == 0
    m_cell = capsys.readouterr().out.splitlines()[1].split(",")[1]
    assert m_cell == "5"
    assert run(["--config", str(path), "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: m must be a positive integer"]
    assert captured.out == ""


def test_cli_file_tolerances_reach_verify(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": {"zeno_limit": 1.5}}))
    assert run(["verify", "--config", str(path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL zeno_limit:")


def test_cli_rejects_bad_config_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = cli("--config", str(path))
    assert result.returncode == 2

    path2 = tmp_path / "unknown.json"
    path2.write_text(json.dumps({"mode": "verify", "wavelength": 7}))
    result = cli("--config", str(path2))
    assert result.returncode == 2


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "cannot read config"), ("[1, 2]", "config file must contain a JSON object")],
)
def test_cli_config_file_must_hold_a_json_object(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {message}")
    assert captured.out == ""


def test_cli_rejects_misspelled_tolerance_key(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"mode": "verify", "tolerances": {"solver_vs_sdl": 1e-30}}))
    assert run(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "solver_vs_sdl" in captured.err
    assert "verification" not in captured.out


def test_cli_flags_override_config(tmp_path):
    config = {
        "mode": "zeno-time",
        "N_list": [1],
        "gamma_over_omega0": [0.5],
        "m": 100,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "table.csv"
    result = cli("--config", str(path), "--m", "400", "--out", str(out))
    assert result.returncode == 0
    m_cell = out.read_text().strip().split("\n")[1].split(",")[1]
    assert m_cell == "400"


def test_cli_writes_notes_to_stderr_not_stdout():
    result = cli("qfi-vs-gamma", "--n", "1", "--gamma", "0.0", "0.5")
    assert result.returncode == 0
    assert "cross-check" in result.stderr
    assert "cross-check" not in result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio-vs-N", "--omega0-tau", "inf", "--n", "1"],
        ["zeno-time", "--omega0-tau", "1e300", "--gamma", "1e10", "--n", "1"],
    ],
)
def test_cli_rejects_non_finite_phase(argv, capsys):
    """omega0_tau = inf, or gamma * omega0_tau overflowing to inf, is a
    config error rather than a traceback from the closed forms."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_cli_rejects_gamma_with_an_infinite_square(tmp_path, capsys):
    """A gamma whose square overflows is a config error, through --gamma
    and through a config file; 1e160 used to end in an OverflowError
    traceback from ``p.gamma**2``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "zeno-time", "N_list": [1], "gamma_over_omega0": [1e160]}))
    assert run(["--config", str(path)]) == 2
    assert run(["zeno-time", "--n", "1", "--gamma", "1e160"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: gamma_over_omega0 squared must be finite"] * 2
    assert captured.out == ""


def test_cli_runs_gamma_with_a_finite_square(capsys):
    """gamma = 1e154 squares to 1e308: it runs, and skips the rows whose
    values overflow."""
    assert run(["ratio-vs-N", "--n", "1", "2", "--gamma", "1e154"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert captured.err.splitlines() == [
        "row skipped (N=2, gamma_over_omega0=1e+154): non-finite value"
    ]


def test_cli_zeno_time_survives_an_overflowing_product(capsys):
    """gamma = 1e154 at m = 100: at N = 1 the bound F is about 1e308 and
    m F overflows, yet the times are the finite 2 / sqrt(m F), about 2e-155,
    not 0.  At N = 2 F itself overflows, so that row is skipped."""
    assert run(["zeno-time", "--n", "1", "2", "--gamma", "1e154"]) == 0
    captured = capsys.readouterr()
    _, row = captured.out.splitlines()
    assert row.split(",")[:3] == ["1", "100", "1.00000000000e+154"]
    assert [float(v) for v in row.split(",")[3:]] == pytest.approx([2e-155] * 3, rel=1e-12)
    assert captured.err.splitlines() == [
        "row skipped (N=2, gamma_over_omega0=1e+154): non-finite value"
    ]


def test_cli_rejects_negative_seed_flag(capsys):
    assert run(["qfi-vs-gamma", "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: seed")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["qfi-vs-gamma", "--seed", "7"], ["zeno-time", "--gamma", "1", "--seed", "7"]],
)
def test_cli_drops_repeated_n(argv, capsys):
    assert run(argv + ["--n", "3"]) == 0
    once = capsys.readouterr()
    assert run(argv + ["--n", "3", "3"]) == 0
    twice = capsys.readouterr()
    assert (twice.out, twice.err) == (once.out, once.err)


@pytest.mark.parametrize(
    "field,value",
    [
        ("omega0_tau", True),
        ("m", True),
        ("m", 2.5),
        ("gamma_over_omega0", [True]),
        ("N_list", [1.7]),
        ("N_list", [False]),
        ("N_list", 3),
        ("gamma_over_omega0", "0.5"),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", -3),
        ("seed", True),
        ("output_path", 7),
        ("output_path", 1),
    ],
)
def test_cli_rejects_json_booleans_and_fractions(tmp_path, capsys, field, value):
    """JSON true is not the number 1, N = 1.7 is not N = 1, a grid is a
    list of numbers, a seed is a whole number >= 0, and an output path is a
    string (7 is not file descriptor 7)."""
    config = {"mode": "zeno-time", "omega0_tau": 0.5, "N_list": [1], "gamma_over_omega0": [1]}
    config[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


@pytest.mark.parametrize("n", [2**53 + 1, 1e200])
def test_cli_rejects_n_above_two_to_the_53(tmp_path, capsys, n):
    """A huge N is a config error (exit 2), through --n and through a
    config file; 1e200 used to end in an OverflowError traceback from
    ``qfi_ghz``."""
    config = {"mode": "zeno-time", "N_list": [n], "gamma_over_omega0": [1.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["--config", str(path)]) == 2
    assert run(["zeno-time", "--gamma", "1", "--n", str(int(n))]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"config error: N_list entries must be at most 2**53 = {2**53}"
    ] * 2
    assert captured.out == ""


@pytest.mark.parametrize("flag, key", [("--m", "m"), ("--n", "N_list"), ("--seed", "seed")])
def test_cli_rejects_a_400_digit_count(capsys, flag, key):
    """A count no float holds is one config error line, not an
    OverflowError traceback."""
    assert run(["zeno-time", "--gamma", "1", "--n", "1", flag, str(10**400)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {key} ")
    assert captured.out == ""


def test_config_caps_m_at_two_to_the_53():
    """The Zeno time is computed from float(m), so m has N's cap: 2**53 + 1
    used to run and print an m the times were not computed for."""
    assert SweepConfig(mode="zeno-time", m=2**53).m == 2**53
    for m in (2**53 + 1, 1e200, 10**400):
        with pytest.raises(ConfigError, match=f"m must be at most 2\\*\\*53 = {2**53}"):
            SweepConfig(mode="zeno-time", m=m)


def test_cli_accepts_whole_floats_for_m_and_n(tmp_path, capsys):
    """m and the entries of N_list pass the same check: 2.0 runs as 2."""
    outputs = []
    for m, n in ((2, 1), (2.0, 1.0)):
        config = {"mode": "zeno-time", "omega0_tau": 0.5, "N_list": [n], "m": m,
                  "gamma_over_omega0": [1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run(["--config", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert (outputs[1].out, outputs[1].err) == (outputs[0].out, outputs[0].err)


@pytest.mark.parametrize("mode", ["verify", "zeno-time"])
def test_cli_rejects_empty_output_path(tmp_path, capsys, mode):
    """An empty output path is a config error in every mode; verify used to
    skip its JSON report silently."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": mode, "N_list": [1], "output_path": ""}))
    assert run(["--config", str(path)]) == 2
    assert run([mode, "--n", "1", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: output_path must be a nonempty string or null"
    ] * 2
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["verify", "zeno-time"])
def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys, mode):
    """An output file that cannot be opened (its directory is missing, or
    it is a directory) gives one config error line and exit 2 before the
    run starts: nothing is printed and nothing is created."""
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run([mode, "--n", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: cannot write {out}: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("mode", ["verify", "qfi-vs-gamma"])
def test_cli_failed_write_is_a_config_error(capsys, mode):
    """/dev/full opens but refuses the write: exit 2, with the config error
    as the last stderr line, after any notes."""
    assert run([mode, "--n", "1", "--out", "/dev/full"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("config error: cannot write /dev/full: ")


def test_cli_failed_cross_check_exits_one(monkeypatch, capsys):
    """A solver that disagrees with the closed forms stops the qfi-vs-gamma
    sweep: exit 1, one ``error:`` line and no table."""
    monkeypatch.setattr(sweeps, "_solver_vs_closed_form", lambda grid, taus: (1.0, None))
    assert run(["qfi-vs-gamma", "--n", "1"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: solver cross-check failed at N=1")
    assert captured.out == ""


def test_cli_verify_writes_its_json_report(tmp_path, capsys):
    """verify --out prints the same lines and writes the JSON report: the
    nine checks in order, each with its seconds and worst point."""
    assert run(["verify"]) == 0
    plain = capsys.readouterr()
    path = tmp_path / "report.json"
    assert run(["verify", "--out", str(path)]) == 0
    written = capsys.readouterr()
    assert (written.out, written.err) == (plain.out, "")
    payload = json.loads(path.read_text())
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["checks"]] == list(DEFAULT_TOLERANCES)
    assert len(payload["checks"]) == 9
    for check in payload["checks"]:
        assert check["seconds"] >= 0.0 and "worst_at" in check


def test_module_entry_point_runs_verify(monkeypatch, capsys):
    """``python -m zeno_qfi verify``, run in this process."""
    monkeypatch.setattr(sys, "argv", ["zeno_qfi", "verify"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("zeno_qfi", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verification PASSED"


# ---- the N-axis grid against the per-row loop ----


def _format_cell(value) -> str:
    """The per-cell CSV formatting the one-template rows must reproduce."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return sweeps._FLOAT_FORMAT % float(value)
    return str(value)


def _per_row_grid_table(columns, n_values, cfg, row):
    """The reference grid loop: one AnalyticParams with an int N, and so
    scalar closed-form calls, per (N, gamma) point, in grid order."""
    table = Table(columns=columns, rows=[])
    kept = {}
    for n in n_values:
        kept[n] = []
        for g in cfg.gamma_over_omega0:
            skipped = f"row skipped (N={n}, gamma_over_omega0={g:g})"
            try:
                p = AnalyticParams(n=n, omega0=1.0, gamma=g, tau=cfg.omega0_tau)
                values = (n, *row(p))
            except PoleProximityError as exc:
                table.notes.append(f"{skipped}: {exc}")
                continue
            if not all(math.isfinite(float(v)) for v in values):
                table.notes.append(f"{skipped}: non-finite value")
                continue
            table.rows.append(values)
            kept[n].append(g)
    return table, kept


def _bits(rows):
    return [tuple(v if isinstance(v, int) else float(v).hex() for v in row) for row in rows]


@pytest.mark.parametrize("mode", list(RUNNERS))
def test_n_axis_grid_matches_per_row_loop(mode, monkeypatch):
    """Rows bit-equal to the per-row loop's, the same notes in the same
    order and the same CSV text, on a grid with both poles (gamma = 0 for
    the cotangent, gamma tau = pi/2 for the tangent), an overflow to inf
    (gamma = 1e154) and N up to 2**53.  At N = 3037000500 an int64 N**2
    wraps negative."""
    cfg = SweepConfig(
        mode=mode,
        n_list=(1, 2, 500, 3037000500, 2**53),
        gamma_over_omega0=(0.0, 1.0, math.pi, 0.3, 1e154),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = RUNNERS[mode](cfg)
    monkeypatch.setattr(sweeps, "_grid_table", _per_row_grid_table)
    reference = RUNNERS[mode](cfg)

    assert table.rows and any("pole" in note for note in table.notes)
    assert all(type(v) in (int, float) for row in table.rows for v in row)
    assert _bits(table.rows) == _bits(reference.rows)
    assert table.notes == reference.notes
    lines = [",".join(reference.columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in reference.rows]
    assert table.to_csv_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", list(RUNNERS))
def test_json_rows_are_the_csv_rows(mode, capsys):
    """At each sweep's default grid, the JSON rows printed through the CSV
    formats give the CSV lines, with ints in the int columns."""
    assert run([mode]) == 0
    csv_lines = capsys.readouterr().out.splitlines()
    assert run([mode, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ",".join(payload["columns"]) == csv_lines[0]
    assert len(payload["rows"]) == len(csv_lines) - 1 > 0
    for row, line in zip(payload["rows"], csv_lines[1:]):
        assert ",".join(_format_cell(v) for v in row) == line


def _solver_gap(point, system, reference) -> float:
    """Relative gap of the per-qubit-basis minimum at one point."""
    n, omega0, gamma, tau = point
    model = build_dephasing_model(n, omega0, gamma)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    full = tensor_state(system, zero_environment(n))
    solved = minimize_qfi_bound(generator(model), basis, full, tau).qfi
    return (solved - reference) / abs(reference)


def test_survival_check_names_an_interleaved_worst_point():
    """At seed 5 the survival check's largest gap sits on the interleaved
    (S, E, S, E) register at m = 50; the line and the JSON say so."""
    report = run_verify(SweepConfig(mode="verify", seed=5))
    check = next(c for c in report.checks if c.name == "survival_closed_vs_collapse")
    assert check.worst_at[0] == 2 and check.worst_at[4:] == (50, True)
    assert check.line().endswith(", 50, True)]")
    payload = {c["name"]: c for c in json.loads(report.to_json_text())["checks"]}
    point = payload["survival_closed_vs_collapse"]["worst_at"]
    assert (point["N"], point["m"], point["interleaved"]) == (2, 50, True)


def test_verify_reports_the_worst_point(default_report):
    """The three solver checks, the channel check and the survival check
    name the (N, omega0, gamma, tau) of their measured value, in the line
    and in the JSON, and the survival check also its m and whether its
    register was the interleaved one; re-solving a solver check there gives
    the measured value back."""
    by_name = {c.name: c for c in default_report.checks}
    payload = {c["name"]: c for c in json.loads(default_report.to_json_text())["checks"]}
    located = (
        "channel_vs_partial_trace",
        "solver_vs_sld",
        "solver_vs_closed_form",
        "ansatz_bounds_true_qfi",
        "survival_closed_vs_collapse",
    )
    for check in default_report.checks:
        if check.name not in located:
            assert check.worst_at is None and payload[check.name]["worst_at"] is None
            continue
        at = check.worst_at
        extra = ("m", "interleaved") if check.name == "survival_closed_vs_collapse" else ()
        keys = ("N", "omega0", "gamma", "tau") + extra
        assert f"worst at ({', '.join(keys)})={at}" in check.line()
        assert payload[check.name]["worst_at"] == dict(zip(keys, at, strict=True))

    assert by_name["channel_vs_partial_trace"].worst_at[:3] == (1, 1.0, 1.0)
    n, omega0, gamma, tau, m, interleaved = by_name["survival_closed_vs_collapse"].worst_at
    assert n in (1, 2, 3) and 0.5 <= min(omega0, gamma) <= max(omega0, gamma) <= 1.5
    assert 0.05 <= tau <= 0.3
    assert m in (1, 50) and interleaved in (False, True) and (n == 2 or not interleaved)

    at = by_name["ansatz_bounds_true_qfi"].worst_at
    model = build_dephasing_model(*at[:3])
    ghz = ghz_state(at[0])
    gap = _solver_gap(at, ghz, qfi_sld_oracle(model, ghz, at[3]))
    assert gap == by_name["ansatz_bounds_true_qfi"].measured

    at = by_name["solver_vs_sld"].worst_at
    model = build_dephasing_model(*at[:3])
    drawn = _random_pure(np.random.default_rng(0), 1, SYSTEM)
    systems = [plus_state(at[0])] + ([drawn] if at[0] == 1 else [])
    gaps = [abs(_solver_gap(at, s, qfi_sld_oracle(model, s, at[3]))) for s in systems]
    assert max(gaps) == by_name["solver_vs_sld"].measured

    at = by_name["solver_vs_closed_form"].worst_at
    p = AnalyticParams(at[0], at[1], at[2], at[3])
    gaps = [
        abs(_solver_gap(at, ghz_state(at[0]), qfi_ghz(p))),
        abs(_solver_gap(at, plus_state(at[0]), qfi_separable(p))),
    ]
    assert max(gaps) == by_name["solver_vs_closed_form"].measured


SOLVER_CHECKS = ("solver_vs_sld", "solver_vs_closed_form", "ansatz_bounds_true_qfi")


def _captured_gap_calls(monkeypatch, seed):
    """The (grid, taus, inputs) each solver check of ``verify`` hands to
    ``_relative_gaps`` at ``seed``, by check name."""
    calls, real = [], sweeps._relative_gaps

    def record(grid, taus, inputs):
        grid = list(grid)
        calls.append((grid, taus, inputs))
        return real(grid, taus, inputs)

    monkeypatch.setattr(sweeps, "_relative_gaps", record)
    captured = {}
    for check in _CHECKS:
        if check.name in SOLVER_CHECKS:
            check.measure(seed)
            captured[check.name] = calls.pop()
    monkeypatch.setattr(sweeps, "_relative_gaps", real)
    return captured


def _per_point_gaps(grid, taus, inputs):
    """The gaps of ``_relative_gaps``, one ``minimize_qfi_bound`` call and
    one reference a point (``qfi_sld_oracle`` where the input names
    none): the grid point, then the interval, then the input."""
    for n, omega0, gamma in grid:
        model = build_dephasing_model(n, omega0, gamma)
        basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
        for tau in taus:
            p = AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
            for system, reference in inputs(n):
                full = tensor_state(system, zero_environment(n))
                solved = minimize_qfi_bound(generator(model), basis, full, tau).qfi
                if reference is None:
                    value = qfi_sld_oracle(model, system, tau)
                else:
                    value = reference(p)
                yield (solved - value) / abs(value), (n, omega0, gamma, tau)


def test_stacked_gaps_match_a_per_point_loop(monkeypatch):
    """On the grids of the three solver checks, the stacked solve per N
    yields the same points in the same order as one solve a point, and
    each gap agrees to 1e-13."""
    calls = _captured_gap_calls(monkeypatch, 0)
    assert set(calls) == set(SOLVER_CHECKS)
    for name, (grid, taus, inputs) in calls.items():
        stacked = list(sweeps._relative_gaps(grid, taus, inputs))
        looped = list(_per_point_gaps(grid, taus, inputs))
        assert [at for _, at in stacked] == [at for _, at in looped], name
        gaps = np.array([[a, b] for (a, _), (b, _) in zip(stacked, looped)])
        np.testing.assert_allclose(gaps[:, 0], gaps[:, 1], rtol=0, atol=1e-13)


def test_solver_vs_sld_draws_its_second_qubit_from_the_seed(monkeypatch):
    """At N = 1 the check solves |+> and a qubit drawn from the seed: two
    different states, and another seed draws another qubit.  At N > 1 it
    solves |+> alone."""
    drawn = []
    for seed in (0, 1):
        _, _, inputs = _captured_gap_calls(monkeypatch, seed)["solver_vs_sld"]
        (plus, _), (other, _) = inputs(1)
        assert np.array_equal(plus.amplitudes, plus_state(1).amplitudes)
        assert not np.allclose(np.abs(other.amplitudes), np.abs(plus.amplitudes))
        drawn.append(other.amplitudes)
        assert len(inputs(2)) == 1
    assert not np.allclose(drawn[0], drawn[1])


def per_draw_channel_gaps(seed):
    """``_channel_vs_partial_trace`` as it was, a draw at a time: each draw's
    two embedded columns evolved by ``evolve``, U rho U^dag formed, and the
    partial trace compared with the Kraus route."""
    from zeno_qfi.channels import apply_channel, evolve, kraus_from_dilation
    from zeno_qfi.dense import DenseOperator, partial_trace
    from zeno_qfi.states import basis_state

    rng = np.random.default_rng(seed)
    model = build_dephasing_model(1, 1.0, 1.0)
    env0 = zero_environment(1)
    embedded = [tensor_state(basis_state(s, (SYSTEM,)), env0) for s in range(2)]
    gaps = []
    for _ in range(50):
        rho = sweeps._random_density(rng, 2)
        t = float(rng.uniform(1e-3, 2 * math.pi))
        via_kraus = apply_channel(kraus_from_dilation(model, t), rho).matrix
        cols = np.column_stack([evolve(model, e, t).amplitudes for e in embedded])
        via_trace = partial_trace(
            DenseOperator(cols @ rho.matrix @ cols.conj().T), model.labels, SYSTEM
        ).matrix
        gaps.append((float(np.abs(via_kraus - via_trace).max()), (1, 1.0, 1.0, t)))
    return sweeps._largest_gap(gaps)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_channel_check_equals_a_per_draw_loop(seed):
    """The partial-trace route, evolved for all 50 draws in one pass, gives
    the per-draw loop's largest gap to the bit, at the same draw."""
    assert sweeps._channel_vs_partial_trace(seed) == per_draw_channel_gaps(seed)


def test_channel_check_evolves_the_kraus_columns_of_its_draws_in_one_pass(monkeypatch):
    """The Kraus route takes the sets of all 50 draws from one
    ``_evolved_columns`` pass over the draws' times."""
    from zeno_qfi import channels

    shapes, real = [], channels._evolved_columns
    monkeypatch.setattr(
        channels,
        "_evolved_columns",
        lambda labels, rotations, columns: shapes.append(columns.shape) or real(labels, rotations, columns),
    )
    sweeps._channel_vs_partial_trace(0)
    assert shapes == [(50, 2, 2)]


def test_gaps_build_closed_form_parameters_only_for_closed_form_references(monkeypatch):
    """The checks against the SLD oracle build no ``AnalyticParams``; the
    check against the closed forms builds one per rate pair and interval,
    shared by its two inputs."""
    built = []
    monkeypatch.setattr(
        sweeps, "AnalyticParams", lambda **kwargs: built.append(kwargs) or AnalyticParams(**kwargs)
    )
    for check in (sweeps._solver_vs_sld, sweeps._ansatz_bounds_true_qfi):
        check(0)
    assert built == []
    grid = [(n, 1.0, gamma) for n in (1, 2) for gamma in (0.5, 1.2)]
    sweeps._solver_vs_closed_form(grid, (0.1, 0.5, 1.0))
    assert len(built) == len(grid) * 3
