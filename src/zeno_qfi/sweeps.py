"""Parameter sweeps and the verification suite behind the CLI.

All sweeps set omega0 = 1 and express results in units of omega0, so the
independent variables are the dimensionless product omega0*tau and the
ratio gamma/omega0.  Output is deterministic: fixed row order, floats
printed with 12 significant digits, and any randomness seeded from the
configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    apply_channel,
    build_dephasing_model,
    evolve,
    generator,
    kraus_from_dilation,
)
from .dense import DenseOperator, partial_trace
from .exceptions import ConfigError, PoleProximityError
from .qfi import (
    AnalyticParams,
    EnvOperatorBasis,
    minimize_qfi_bound,
    qfi_ghz,
    qfi_ratio_asymptote,
    qfi_separable,
    qfi_sld_oracle,
    zeno_time_bound,
)
from .states import SYSTEM, basis_state, ghz_state, plus_state, tensor_state, zero_environment
from .zeno import (
    ZenoProjector,
    ZenoSchedule,
    survival_probability_exact,
    survival_probability_quadratic,
    zeno_hamiltonian,
)

MODES = ("ratio-vs-N", "qfi-vs-gamma", "zeno-time", "verify")

_DEFAULT_GAMMA = {
    "ratio-vs-N": (1.2, 1.1, 1.0, 0.9, 0.8),
    "qfi-vs-gamma": tuple(round(0.05 * k, 10) for k in range(61)),
    "zeno-time": (0.1, 0.5, 1.0, 2.0, 3.0),
    "verify": (),
}

_DEFAULT_N = {
    "ratio-vs-N": tuple(range(1, 501)),
    "qfi-vs-gamma": (3, 5, 7),
    "zeno-time": (1, 2, 4, 8),
    "verify": (),
}

DEFAULT_TOLERANCES = {
    "kraus_completeness": 1e-10,
    "channel_vs_partial_trace": 1e-10,
    "solver_vs_sld": 1e-5,
    "solver_vs_closed_form": 1e-8,
    "ansatz_bounds_true_qfi": -1e-8,
    "zeno_monotonic": -1e-12,
    "zeno_limit": 0.98,
    "quadratic_order": 1.1,
}


@dataclass(frozen=True)
class SweepConfig:
    """One CLI invocation: mode, physical grid, and output destination."""

    mode: str
    omega0_tau: float = 0.5
    gamma_over_omega0: tuple[float, ...] | None = None
    n_list: tuple[int, ...] | None = None
    m: int = 100
    output_path: str | None = None
    format: str = "csv"
    seed: int = 0
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not (isinstance(self.omega0_tau, (int, float)) and 0 < self.omega0_tau < math.inf):
            raise ConfigError("omega0_tau must be a positive finite number")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ConfigError("m must be a positive integer")
        if self.gamma_over_omega0 is not None:
            gam = tuple(float(g) for g in self.gamma_over_omega0)
            if not gam:
                raise ConfigError("gamma_over_omega0 must be nonempty")
            if any(not math.isfinite(g) for g in gam):
                raise ConfigError("gamma_over_omega0 values must be finite")
            object.__setattr__(self, "gamma_over_omega0", gam)
        gammas = self.gamma_over_omega0 or _DEFAULT_GAMMA[self.mode]
        if any(not math.isfinite(g * self.omega0_tau) for g in gammas):
            raise ConfigError("gamma_over_omega0 * omega0_tau must be finite")
        if self.n_list is not None:
            ns = tuple(dict.fromkeys(int(n) for n in self.n_list))
            if not ns or any(n < 1 for n in ns):
                raise ConfigError("N_list must be a nonempty list of positive integers")
            object.__setattr__(self, "n_list", ns)
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object mapping names to numbers")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(DEFAULT_TOLERANCES)
                raise ConfigError(f"unknown tolerance {name!r}; expected one of {known}")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value)):
                raise ConfigError(f"tolerance {name!r} must be a finite number")

    def resolved(self) -> "SweepConfig":
        """Fill per-mode defaults for any grid left unspecified."""
        cfg = self
        if cfg.gamma_over_omega0 is None:
            cfg = replace(cfg, gamma_over_omega0=_DEFAULT_GAMMA[cfg.mode])
        if cfg.n_list is None:
            cfg = replace(cfg, n_list=_DEFAULT_N[cfg.mode])
        return cfg

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        known = {
            "mode",
            "omega0_tau",
            "gamma_over_omega0",
            "N_list",
            "m",
            "output_path",
            "format",
            "seed",
            "tolerances",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "mode" not in data:
            raise ConfigError("config must specify a mode")
        kwargs = dict(data)
        if "N_list" in kwargs:
            kwargs["n_list"] = kwargs.pop("N_list")
        if kwargs.get("gamma_over_omega0") is not None:
            kwargs["gamma_over_omega0"] = tuple(kwargs["gamma_over_omega0"])
        if kwargs.get("n_list") is not None:
            kwargs["n_list"] = tuple(kwargs["n_list"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "SweepConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        return cls.from_dict(data)


def format_float(value: float) -> str:
    """12 significant digits, scientific notation: the one true format."""
    return f"{value:.11e}"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    return str(value)


@dataclass
class Table:
    """Column-labeled rows plus per-row notes (skips, cross-checks)."""

    columns: tuple[str, ...]
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_text(self, mode: str) -> str:
        payload = {
            "mode": mode,
            "columns": list(self.columns),
            "rows": [[_json_cell(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2) + "\n"


def _json_cell(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _grid_table(columns, n_values, cfg: SweepConfig, row) -> tuple[Table, dict]:
    """One row ``row(p)`` per (N, gamma) grid point, in grid order.

    A point where a formula sits on a pole or yields a non-finite value is
    skipped with a note.  Also returns the gamma values kept for each N.
    """
    table = Table(columns=columns, rows=[])
    kept: dict[int, list[float]] = {}
    for n in n_values:
        kept[n] = []
        for g in cfg.gamma_over_omega0:
            skipped = f"row skipped (N={n}, gamma_over_omega0={g:g})"
            try:
                values = row(AnalyticParams(n=n, omega0=1.0, gamma=g, tau=cfg.omega0_tau))
            except PoleProximityError as exc:
                table.notes.append(f"{skipped}: {exc}")
                continue
            if not all(math.isfinite(float(v)) for v in values):
                table.notes.append(f"{skipped}: non-finite value")
                continue
            table.rows.append(values)
            kept[n].append(g)
    return table, kept


def _ratio_row(p: AnalyticParams) -> tuple:
    f_en = qfi_ghz(p)
    f_se = qfi_separable(p)
    asym = qfi_ratio_asymptote(p)
    return (p.n, p.gamma, f_en, f_se, f_en / f_se, asym)


def run_ratio_vs_n(cfg: SweepConfig) -> Table:
    """Entangled/separable QFI ratio against qubit number, per gamma ratio,
    with the large-N asymptote alongside.  Rows are sorted by N."""
    cfg = cfg.resolved()
    table, _ = _grid_table(
        (
            "N[qubits]",
            "gamma_over_omega0[1]",
            "qfi_entangled_over_omega0sq[1]",
            "qfi_separable_over_omega0sq[1]",
            "ratio_entangled_over_separable[1]",
            "ratio_asymptote[1]",
        ),
        sorted(cfg.n_list),
        cfg,
        _ratio_row,
    )
    return table


def _cross_check_against_solver(n: int, g: float, tau: float) -> float:
    """Max relative error of the variational solver against the closed
    forms for one (N, gamma) point; both state families."""
    model = build_dephasing_model(n, 1.0, g)
    h_hat = generator(model)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    p = AnalyticParams(n=n, omega0=1.0, gamma=g, tau=tau)
    worst = 0.0
    for state, reference in (
        (tensor_state(ghz_state(n), zero_environment(n)), qfi_ghz(p)),
        (tensor_state(plus_state(n), zero_environment(n)), qfi_separable(p)),
    ):
        solved = minimize_qfi_bound(h_hat, basis, state, tau).qfi
        worst = max(worst, abs(solved - reference) / abs(reference))
    return worst


def run_qfi_vs_gamma(cfg: SweepConfig) -> Table:
    """Entangled and separable QFI (units of omega0^2) over the gamma grid,
    one block per N; one seeded row per N <= 3 is re-derived with the
    variational solver as a consistency check."""
    cfg = cfg.resolved()
    tau = cfg.omega0_tau
    table, usable_gammas = _grid_table(
        (
            "N[qubits]",
            "gamma_over_omega0[1]",
            "qfi_entangled_over_omega0sq[1]",
            "qfi_separable_over_omega0sq[1]",
        ),
        cfg.n_list,
        cfg,
        lambda p: (p.n, p.gamma, qfi_ghz(p), qfi_separable(p)),
    )

    rng = np.random.default_rng(cfg.seed)
    for n in cfg.n_list:
        if n > 3 or not usable_gammas[n]:
            continue
        g = float(rng.choice(usable_gammas[n]))
        err = _cross_check_against_solver(n, g, tau)
        if err > DEFAULT_TOLERANCES["solver_vs_closed_form"]:
            raise RuntimeError(
                f"solver cross-check failed at N={n}, gamma={g:g}: "
                f"relative error {err:.3e}"
            )
        table.notes.append(
            f"cross-check N={n} gamma_over_omega0={g:g}: solver matches closed "
            f"forms (max relative error {err:.3e})"
        )
    return table


def run_zeno_time(cfg: SweepConfig) -> Table:
    """Zeno-time upper bounds (units of 1/omega0) for both state families
    over the (N, gamma) grid at the configured measurement count."""
    cfg = cfg.resolved()
    table, _ = _grid_table(
        (
            "N[qubits]",
            "m[1]",
            "gamma_over_omega0[1]",
            "tau_qz_entangled[1/omega0]",
            "tau_qz_entangled_largeN[1/omega0]",
            "tau_qz_separable[1/omega0]",
        ),
        cfg.n_list,
        cfg,
        lambda p: (
            p.n,
            cfg.m,
            p.gamma,
            zeno_time_bound(p, cfg.m, entangled=True),
            zeno_time_bound(p, cfg.m, entangled=True, asymptotic=True),
            zeno_time_bound(p, cfg.m, entangled=False),
        ),
    )
    return table


@dataclass(frozen=True)
class VerifyCheck:
    """One verification outcome: measured value against its threshold."""

    name: str
    measured: float
    threshold: float
    comparison: str  # "le" or "ge"
    detail: str = ""

    @property
    def passed(self) -> bool:
        if self.comparison == "le":
            return self.measured <= self.threshold
        return self.measured >= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        op = "<=" if self.comparison == "le" else ">="
        text = (
            f"{status} {self.name}: measured {self.measured:.6e} "
            f"(required {op} {self.threshold:.6e})"
        )
        if self.detail:
            text += f" [{self.detail}]"
        return text


@dataclass
class VerifyReport:
    checks: list[VerifyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(
            "verification " + ("PASSED" if self.all_passed else "FAILED")
        )
        return out

    def to_json_text(self) -> str:
        payload = {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "threshold": c.threshold,
                    "comparison": c.comparison,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def _random_density(rng: np.random.Generator, dim: int) -> DenseOperator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DenseOperator(rho / np.trace(rho))


def _check_kraus_completeness(tol: float) -> VerifyCheck:
    model = build_dephasing_model(1, 1.0, 1.0)
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, math.pi, 5.0):
        worst = max(worst, kraus_from_dilation(model, t).completeness_residual)
    return VerifyCheck("kraus_completeness", worst, tol, "le", "one-qubit model, 6 times")


def _check_channel_vs_partial_trace(tol: float, seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed)
    model = build_dephasing_model(1, 1.0, 1.0)
    # The environment starts in |0>, so U rho U^dag on the register needs
    # only the columns U|s,0>: it is cols rho cols^dag.
    env0 = zero_environment(1)
    embedded = [tensor_state(basis_state(s, (SYSTEM,)), env0) for s in range(2)]
    worst = 0.0
    for _ in range(50):
        rho = _random_density(rng, 2)
        t = float(rng.uniform(1e-3, 2 * math.pi))
        via_kraus = apply_channel(kraus_from_dilation(model, t), rho).matrix
        cols = np.column_stack([evolve(model, e, t).amplitudes for e in embedded])
        via_trace = partial_trace(
            DenseOperator(cols @ rho.matrix @ cols.conj().T), model.labels, SYSTEM
        ).matrix
        worst = max(worst, float(np.abs(via_kraus - via_trace).max()))
    return VerifyCheck(
        "channel_vs_partial_trace", worst, tol, "le", "50 random density matrices"
    )


def _check_solver_vs_sld(tol: float) -> VerifyCheck:
    """Variational minimum against the SLD oracle where the per-qubit basis
    is exhaustive: any state at N=1, product states at any N."""
    worst = 0.0
    for n in (1, 2, 3):
        for omega0 in (0.5, 1.0, 1.2):
            for gamma in (0.5, 1.0, 1.2):
                model = build_dephasing_model(n, omega0, gamma)
                h = generator(model)
                basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
                systems = [plus_state(n)] + ([ghz_state(n)] if n == 1 else [])
                for tau in (0.1, 0.5):
                    for system in systems:
                        full = tensor_state(system, zero_environment(n))
                        solved = minimize_qfi_bound(h, basis, full, tau).qfi
                        oracle = qfi_sld_oracle(model, system, tau)
                        worst = max(worst, abs(solved - oracle) / abs(oracle))
    return VerifyCheck(
        "solver_vs_sld", worst, tol, "le", "N<=3 grid, product inputs and N=1"
    )


def _check_ansatz_bounds_true_qfi(tol: float) -> VerifyCheck:
    """On entangled inputs the per-qubit ansatz minimum may exceed the
    channel QFI but can never undercut it; measure the most negative
    (solver - oracle) gap."""
    most_negative = math.inf
    for n in (2, 3):
        for gamma in (0.5, 1.0):
            model = build_dephasing_model(n, 1.0, gamma)
            h = generator(model)
            basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
            for tau in (0.1, 0.5):
                full = tensor_state(ghz_state(n), zero_environment(n))
                solved = minimize_qfi_bound(h, basis, full, tau).qfi
                oracle = qfi_sld_oracle(model, ghz_state(n), tau)
                most_negative = min(most_negative, (solved - oracle) / abs(oracle))
    return VerifyCheck(
        "ansatz_bounds_true_qfi",
        most_negative,
        tol,
        "ge",
        "entangled inputs, N in {2,3}",
    )


def _check_solver_vs_closed_form(tol: float) -> VerifyCheck:
    worst = 0.0
    for n in (1, 2, 3, 4):
        for omega0 in (0.5, 1.0, 1.2):
            for gamma in (0.5, 1.0, 1.2):
                model = build_dephasing_model(n, omega0, gamma)
                h_hat = generator(model)
                basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
                for tau in (0.1, 0.5, 1.0):
                    p = AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
                    for system, reference in (
                        (ghz_state(n), qfi_ghz(p)),
                        (plus_state(n), qfi_separable(p)),
                    ):
                        full = tensor_state(system, zero_environment(n))
                        solved = minimize_qfi_bound(h_hat, basis, full, tau).qfi
                        worst = max(worst, abs(solved - reference) / abs(reference))
    return VerifyCheck(
        "solver_vs_closed_form", worst, tol, "le", "N<=4 grid, both state families"
    )


def _zeno_survivals() -> list[float]:
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    total_time = 1.0
    values = []
    for m in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        values.append(
            survival_probability_exact(
                model, projector, env0, ZenoSchedule(m, total_time / m)
            )
        )
    return values


def _check_zeno_monotonic(tol: float) -> VerifyCheck:
    values = _zeno_survivals()
    smallest_step = min(b - a for a, b in zip(values, values[1:]))
    return VerifyCheck(
        "zeno_monotonic", smallest_step, tol, "ge", "m doubling from 1 to 256"
    )


def _check_zeno_limit(tol: float) -> VerifyCheck:
    return VerifyCheck("zeno_limit", _zeno_survivals()[-1], tol, "ge", "P at m=256")


def _check_quadratic_order(tol: float) -> VerifyCheck:
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    h_hat = zeno_hamiltonian(generator(model), projector, model.labels)
    psi_full = tensor_state(projector.psi0, env0)
    m = 20
    ratios = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        schedule = ZenoSchedule(m, tau)
        exact = survival_probability_exact(model, projector, env0, schedule)
        quad = survival_probability_quadratic(h_hat, psi_full, schedule)
        ratios.append(abs(exact - quad) / (m * tau**3))
    measured = max(r / ratios[0] for r in ratios) if ratios[0] > 0 else 0.0
    return VerifyCheck(
        "quadratic_order",
        measured,
        tol,
        "le",
        "error/(m tau^3) ratio across tau halvings",
    )


def run_verify(cfg: SweepConfig) -> VerifyReport:
    """Run the cross-module oracle suite with (possibly overridden)
    tolerances and collect pass/fail results."""
    tol = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    checks = [
        _check_kraus_completeness(tol["kraus_completeness"]),
        _check_channel_vs_partial_trace(tol["channel_vs_partial_trace"], cfg.seed),
        _check_solver_vs_sld(tol["solver_vs_sld"]),
        _check_solver_vs_closed_form(tol["solver_vs_closed_form"]),
        _check_ansatz_bounds_true_qfi(tol["ansatz_bounds_true_qfi"]),
        _check_zeno_monotonic(tol["zeno_monotonic"]),
        _check_zeno_limit(tol["zeno_limit"]),
        _check_quadratic_order(tol["quadratic_order"]),
    ]
    return VerifyReport(checks)


RUNNERS = {
    "ratio-vs-N": run_ratio_vs_n,
    "qfi-vs-gamma": run_qfi_vs_gamma,
    "zeno-time": run_zeno_time,
}
