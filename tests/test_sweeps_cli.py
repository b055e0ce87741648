import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeno_qfi
from zeno_qfi.cli import run
from zeno_qfi.exceptions import ConfigError
from zeno_qfi.qfi import AnalyticParams, qfi_ghz, qfi_separable
from zeno_qfi.sweeps import (
    SweepConfig,
    format_float,
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
    cfg = SweepConfig(mode="ratio-vs-N").resolved()
    assert cfg.gamma_over_omega0 == (1.2, 1.1, 1.0, 0.9, 0.8)
    assert cfg.n_list == tuple(range(1, 501))
    cfg = SweepConfig(mode="qfi-vs-gamma").resolved()
    assert cfg.n_list == (3, 5, 7)
    assert cfg.gamma_over_omega0[0] == 0.0
    assert cfg.gamma_over_omega0[-1] == pytest.approx(3.0)
    assert len(cfg.gamma_over_omega0) == 61


def test_config_from_dict_maps_n_list():
    cfg = SweepConfig.from_dict({"mode": "zeno-time", "N_list": [1, 2], "m": 7})
    assert cfg.n_list == (1, 2)
    assert cfg.m == 7


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        SweepConfig.from_dict({"mode": "verify", "colour": "red"})


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


def test_float_format_is_twelve_significant_digits():
    assert format_float(1.7701511529340699) == "1.77015115293e+00"
    assert format_float(0.0001) == "1.00000000000e-04"


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


def test_verify_report_lines_and_json():
    report = run_verify(SweepConfig(mode="verify"))
    lines = report.lines()
    assert lines[-1] == "verification PASSED"
    assert all(line.startswith(("PASS", "FAIL", "verification")) for line in lines)
    payload = json.loads(report.to_json_text())
    assert payload["all_passed"] is True


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


def test_cli_requires_a_mode():
    result = cli()
    assert result.returncode == 2
    assert "mode" in result.stderr


def test_cli_rejects_bad_config_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = cli("--config", str(path))
    assert result.returncode == 2

    path2 = tmp_path / "unknown.json"
    path2.write_text(json.dumps({"mode": "verify", "wavelength": 7}))
    result = cli("--config", str(path2))
    assert result.returncode == 2


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
