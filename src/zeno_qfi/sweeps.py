"""Parameter sweeps and the verification suite behind the CLI.

All sweeps set omega0 = 1 and express results in units of omega0, so the
independent variables are the dimensionless product omega0*tau and the
ratio gamma/omega0.  Output is deterministic: fixed row order, floats
printed with 12 significant digits, and any randomness seeded from the
configuration.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .channels import (
    DilatedEvolution,
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
    qfi_ghz_large_n,
    qfi_ratio_asymptote,
    qfi_separable,
    qfi_sld_oracle,
)
from .paulis import PauliTerm
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    basis_state,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)
from .zeno import (
    ZenoProjector,
    ZenoSchedule,
    _COUNT_MAX,
    _is_finite_number,
    _is_whole,
    _survival_by_collapse,
    survival_probability_exact,
    survival_probability_quadratic,
    zeno_hamiltonian,
    zeno_time,
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

def _above_count_max(value) -> bool:
    """A number above 2**53, an int too large for a float included."""
    return isinstance(value, numbers.Real) and value > _COUNT_MAX


@dataclass(frozen=True)
class SweepConfig:
    """One CLI invocation: mode, physical grid, and output destination.

    A grid left as None is filled with the mode's default.
    """

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
        if not (_is_finite_number(self.omega0_tau) and self.omega0_tau > 0):
            raise ConfigError("omega0_tau must be a positive finite number")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if _above_count_max(self.m):
            raise ConfigError(f"m must be at most 2**53 = {_COUNT_MAX}")
        if not _is_whole(self.m):
            raise ConfigError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if not _is_whole(self.seed, least=0):
            raise ConfigError("seed must be a non-negative integer in the float64 range")
        object.__setattr__(self, "seed", int(self.seed))
        path = self.output_path
        if not (path is None or (isinstance(path, str) and path)):
            raise ConfigError("output_path must be a nonempty string or null")
        if self.gamma_over_omega0 is None:
            object.__setattr__(self, "gamma_over_omega0", _DEFAULT_GAMMA[self.mode])
        else:
            gam = self.gamma_over_omega0
            gam = tuple(gam) if isinstance(gam, Iterable) else ()
            if not (gam and all(_is_finite_number(g) for g in gam)):
                raise ConfigError("gamma_over_omega0 must be a nonempty list of finite numbers")
            object.__setattr__(self, "gamma_over_omega0", tuple(float(g) for g in gam))
        # The closed forms square gamma; a Python float ** overflow raises.
        if any(not math.isfinite(g * g) for g in self.gamma_over_omega0):
            raise ConfigError("gamma_over_omega0 squared must be finite")
        if any(not math.isfinite(g * self.omega0_tau) for g in self.gamma_over_omega0):
            raise ConfigError("gamma_over_omega0 * omega0_tau must be finite")
        if self.n_list is None:
            object.__setattr__(self, "n_list", _DEFAULT_N[self.mode])
        else:
            ns = tuple(self.n_list) if isinstance(self.n_list, Iterable) else ()
            if any(_above_count_max(n) for n in ns):
                raise ConfigError(f"N_list entries must be at most 2**53 = {_COUNT_MAX}")
            if not (ns and all(_is_whole(n) for n in ns)):
                raise ConfigError("N_list must be a nonempty list of positive integers")
            object.__setattr__(self, "n_list", tuple(dict.fromkeys(int(n) for n in ns)))
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object mapping names to numbers")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(DEFAULT_TOLERANCES)
                raise ConfigError(f"unknown tolerance {name!r}; expected one of {known}")
            if not _is_finite_number(value):
                raise ConfigError(f"tolerance {name!r} must be a finite number")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Build from a config mapping: the field names, with ``N_list``
        standing for ``n_list``."""
        known = {"N_list" if f.name == "n_list" else f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "mode" not in data:
            raise ConfigError("a mode is required (positional or in the config file)")
        return cls(**{("n_list" if key == "N_list" else key): v for key, v in data.items()})


_FLOAT_FORMAT = "%.11e"  # 12 significant digits, scientific notation


@dataclass
class Table:
    """Column-labeled rows of Python ints and floats, plus per-row notes
    (skips, cross-checks)."""

    columns: tuple[str, ...]
    rows: list[tuple]
    notes: list[str] = field(default_factory=list)

    def to_csv_text(self) -> str:
        """Header, then each row through one template built from the first
        row's types: ``%d`` for integers, ``_FLOAT_FORMAT`` for the rest."""
        lines = [",".join(self.columns)]
        if self.rows:
            template = ",".join(
                "%d" if isinstance(v, numbers.Integral) else _FLOAT_FORMAT
                for v in self.rows[0]
            )
            lines.extend(template % row for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_text(self, mode: str) -> str:
        payload = {
            "mode": mode,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2) + "\n"


def _grid_table(columns, n_values, cfg: SweepConfig, row) -> tuple[Table, dict]:
    """Rows (N, *row(p)) over the (N, gamma) grid, N-major.

    ``row(p)`` gives the columns after N, each a scalar or an array over N:
    it runs once per gamma, with ``p.n`` a float64 array of every N.  A
    point where a formula sits on a pole (a check on gamma * tau, so it
    drops that gamma at every N) or yields a non-finite value is skipped
    with a note, in grid order.  Also returns the gamma values kept for
    each N.
    """
    ns = np.array(n_values, dtype=float)
    per_gamma = []  # (gamma, pole message or None, rows, finite per N)
    # Overflow to inf is reported below as a non-finite value.
    with np.errstate(over="ignore", invalid="ignore"):
        for g in cfg.gamma_over_omega0:
            try:
                p = AnalyticParams(n=ns, omega0=1.0, gamma=g, tau=cfg.omega0_tau)
                values = row(p)
            except PoleProximityError as exc:
                per_gamma.append((g, str(exc), None, None))
                continue
            cells, finite = [list(n_values)], np.isfinite(ns)
            for v in values:
                if isinstance(v, np.ndarray):
                    cells.append(v.tolist())
                    finite &= np.isfinite(v)
                else:
                    cells.append([v] * len(ns))
                    finite &= math.isfinite(v)
            per_gamma.append((g, None, list(zip(*cells)), finite.tolist()))

    table = Table(columns=columns, rows=[])
    kept: dict[int, list[float]] = {n: [] for n in n_values}
    for i, n in enumerate(n_values):
        for g, pole, rows, finite in per_gamma:
            if pole is None and finite[i]:
                table.rows.append(rows[i])
                kept[n].append(g)
            else:
                table.notes.append(
                    f"row skipped (N={n}, gamma_over_omega0={g:g}): "
                    f"{pole or 'non-finite value'}"
                )
    return table, kept


def _ratio_row(p: AnalyticParams) -> tuple:
    f_en = qfi_ghz(p)
    f_se = qfi_separable(p)
    asym = qfi_ratio_asymptote(p)
    return (p.gamma, f_en, f_se, f_en / f_se, asym)


def run_ratio_vs_n(cfg: SweepConfig) -> Table:
    """Entangled/separable QFI ratio against qubit number, per gamma ratio,
    with the large-N asymptote alongside.  Rows are sorted by N."""
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


def _relative_gaps(grid, taus, inputs):
    """(minimum - reference) / |reference| of the per-qubit-basis minimum
    at each (N, omega0, gamma) grid point, interval and input, each paired
    with its point (N, omega0, gamma, tau).

    ``inputs(model, p)`` lists (system state, reference value) pairs; each
    state is paired with |0...0>_E.  The generator is built once per model,
    the basis, whose product table the solver builds on first use, once
    per register size.
    """
    bases: dict[int, EnvOperatorBasis] = {}
    for n, omega0, gamma in grid:
        model = build_dephasing_model(n, omega0, gamma)
        h_hat = generator(model)
        if n not in bases:
            bases[n] = EnvOperatorBasis.single_qubit_paulis(model.labels)
        basis = bases[n]
        for tau in taus:
            p = AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
            for system, reference in inputs(model, p):
                full = tensor_state(system, zero_environment(n))
                solved = minimize_qfi_bound(h_hat, basis, full, tau).qfi
                yield (solved - reference) / abs(reference), (n, omega0, gamma, tau)


def _largest_gap(gaps) -> tuple[float, tuple]:
    """The largest |gap| of ``_relative_gaps`` and the point where it sits."""
    gap, at = max(gaps, key=lambda item: abs(item[0]))
    return abs(gap), at


def _solver_vs_closed_form(grid, taus) -> tuple[float, tuple]:
    """Max relative error of the solver against the closed forms on both
    state families, and the point where it sits."""

    def inputs(model, p):
        return ((ghz_state(p.n), qfi_ghz(p)), (plus_state(p.n), qfi_separable(p)))

    return _largest_gap(_relative_gaps(grid, taus, inputs))


def run_qfi_vs_gamma(cfg: SweepConfig) -> Table:
    """Entangled and separable QFI (units of omega0^2) over the gamma grid,
    one block per N; one seeded row per N <= 3 is re-derived with the
    variational solver as a consistency check."""
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
        lambda p: (p.gamma, qfi_ghz(p), qfi_separable(p)),
    )

    rng = np.random.default_rng(cfg.seed)
    for n in cfg.n_list:
        if n > 3 or not usable_gammas[n]:
            continue
        g = float(rng.choice(usable_gammas[n]))
        err, _ = _solver_vs_closed_form([(n, 1.0, g)], [tau])
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
    """Zeno times 2 / sqrt(m F) (units of 1/omega0) for both state families
    over the (N, gamma) grid at the configured measurement count, from the
    closed forms evaluated on an array of every N per gamma.

    With P ~ 1 - m tau^2 F / 4 a larger F gives a shorter time, so the
    entangled columns, whose F is an upper bound on the channel QFI for
    N >= 2, are lower bounds on the times the exact channel QFI gives.
    """
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
            cfg.m,
            p.gamma,
            zeno_time(cfg.m, qfi_ghz(p)),
            zeno_time(cfg.m, qfi_ghz_large_n(p)),
            zeno_time(cfg.m, qfi_separable(p)),
        ),
    )
    return table


_POINT = ("N", "omega0", "gamma", "tau")
_SURVIVAL_POINT = _POINT + ("m", "interleaved")  # interleaved: the (S, E, S, E) register


@dataclass(frozen=True)
class VerifyCheck:
    """One verification outcome: measured value against its threshold, and
    the wall time ``run_verify`` measured for the check."""

    name: str
    measured: float
    threshold: float
    comparison: str  # "le" or "ge"
    detail: str = ""
    seconds: float = 0.0
    worst_at: tuple | None = None  # the point of the measured value, named by ``point``
    point: tuple[str, ...] = _POINT

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
        notes = [self.detail] if self.detail else []
        if self.worst_at is not None:
            notes.append(f"worst at ({', '.join(self.point)})={self.worst_at}")
        if notes:
            text += f" [{'; '.join(notes)}]"
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
                    "seconds": c.seconds,
                    "worst_at": c.worst_at and dict(zip(c.point, c.worst_at)),
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def _random_density(rng: np.random.Generator, dim: int) -> DenseOperator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DenseOperator(rho / np.trace(rho))


def _kraus_completeness(seed: int) -> tuple[float, None]:
    model = build_dephasing_model(1, 1.0, 1.0)
    times = (0.1, 0.5, 1.0, 2.0, math.pi, 5.0)
    return max(kraus_from_dilation(model, t).completeness_residual for t in times), None


def _channel_vs_partial_trace(seed: int) -> tuple[float, tuple]:
    """Largest entry of the Kraus route minus the partial-trace route over
    random density matrices and intervals, and the point where it sits."""
    rng = np.random.default_rng(seed)
    model = build_dephasing_model(1, 1.0, 1.0)
    # The environment starts in |0>, so U rho U^dag on the register needs
    # only the columns U|s,0>: it is cols rho cols^dag.
    env0 = zero_environment(1)
    embedded = [tensor_state(basis_state(s, (SYSTEM,)), env0) for s in range(2)]
    gaps = []
    for _ in range(50):
        rho = _random_density(rng, 2)
        t = float(rng.uniform(1e-3, 2 * math.pi))
        via_kraus = apply_channel(kraus_from_dilation(model, t), rho).matrix
        cols = np.column_stack([evolve(model, e, t).amplitudes for e in embedded])
        via_trace = partial_trace(
            DenseOperator(cols @ rho.matrix @ cols.conj().T), model.labels, SYSTEM
        ).matrix
        gaps.append((float(np.abs(via_kraus - via_trace).max()), (1, 1.0, 1.0, t)))
    return _largest_gap(gaps)


_RATES = (0.5, 1.0, 1.2)


def _solver_vs_sld(seed: int) -> tuple[float, tuple]:
    """Solver against the SLD oracle where the per-qubit basis is
    exhaustive (any state at N=1, product states at any N): the largest
    relative gap and the point where it sits."""

    def inputs(model, p):
        systems = [plus_state(p.n)] + ([ghz_state(p.n)] if p.n == 1 else [])
        return [(s, qfi_sld_oracle(model, s, p.tau)) for s in systems]

    grid = itertools.product((1, 2, 3), _RATES, _RATES)
    return _largest_gap(_relative_gaps(grid, (0.1, 0.5), inputs))


def _ansatz_bounds_true_qfi(seed: int) -> tuple[float, tuple]:
    """On entangled inputs the per-qubit ansatz minimum may exceed the
    channel QFI but can never undercut it: the most negative gap, and the
    point where it sits."""

    def inputs(model, p):
        ghz = ghz_state(p.n)
        return [(ghz, qfi_sld_oracle(model, ghz, p.tau))]

    grid = itertools.product((2, 3), (1.0,), (0.5, 1.0))
    return min(_relative_gaps(grid, (0.1, 0.5), inputs), key=lambda item: item[0])


def _random_pure(rng: np.random.Generator, n: int, label: Subsystem) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps, (label,) * n).normalized()


def _survival_closed_vs_collapse(seed: int) -> tuple[float, tuple]:
    """The closed-form survival against the collapse loop, on random system
    and environment states, N in {1, 2, 3} and the two-pair model on an
    interleaved (S, E, S, E) register: the largest relative gap, and the
    point where it sits, with its m and whether the register was the
    interleaved one (which shares N = 2's rates)."""
    rng = np.random.default_rng(seed)
    rates = [tuple(map(float, rng.uniform(0.5, 1.5, 2))) for _ in range(3)]
    models = [build_dephasing_model(n, *r) for n, r in zip((1, 2, 3), rates)]
    # Block positions S0, S1, E0, E1 move to interleaved positions 0, 2, 1, 3.
    models.append(
        DilatedEvolution(
            (SYSTEM, ENVIRONMENT) * 2,
            [
                (rate, PauliTerm(1.0, "".join(p.factors[i] for i in (0, 2, 1, 3))))
                for rate, p in models[1].rotations
            ],
        )
    )
    gaps = []
    interleaved = (False, False, False, True)
    for model, (omega0, gamma), mixed in zip(models, rates + [rates[1]], interleaved):
        n = model.n_qubits // 2
        projector = ZenoProjector(_random_pure(rng, n, SYSTEM))
        env0 = _random_pure(rng, n, ENVIRONMENT)
        tau = float(rng.uniform(0.05, 0.3))
        for m in (1, 50):
            schedule = ZenoSchedule(m, tau)
            closed = survival_probability_exact(model, projector, env0, schedule)
            loop = _survival_by_collapse(model, projector, env0, schedule)
            gaps.append((abs(closed - loop) / loop, (n, omega0, gamma, tau, m, mixed)))
    return _largest_gap(gaps)


def _zeno_survivals() -> list[float]:
    """Survival over unit total time, m doubling from 1 to 256."""
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    return [
        survival_probability_exact(model, projector, env0, ZenoSchedule(m, 1.0 / m))
        for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    ]


def _quadratic_order(seed: int) -> tuple[float, None]:
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
    return (max(r / ratios[0] for r in ratios) if ratios[0] > 0 else 0.0), None


class _Check(NamedTuple):
    """One row of the verification suite; ``measure(seed)`` returns the
    value compared against the threshold and the point where it sits, with
    the keys ``point`` names, or None for a check without one worst point."""

    name: str
    threshold: float
    comparison: str
    detail: str
    measure: Callable[[int], tuple[float, tuple | None]]
    point: tuple[str, ...] = _POINT


_CHECKS = (
    _Check(
        "kraus_completeness", 1e-10, "le", "one-qubit model, 6 times",
        _kraus_completeness,
    ),
    _Check(
        "channel_vs_partial_trace", 1e-10, "le", "50 random density matrices",
        _channel_vs_partial_trace,
    ),
    _Check(
        "solver_vs_sld", 1e-5, "le", "N<=3 grid, product inputs and N=1",
        _solver_vs_sld,
    ),
    _Check(
        "solver_vs_closed_form", 1e-8, "le", "N<=4 grid, both state families",
        lambda seed: _solver_vs_closed_form(
            itertools.product((1, 2, 3, 4), _RATES, _RATES), (0.1, 0.5, 1.0)
        ),
    ),
    _Check(
        "ansatz_bounds_true_qfi", -1e-8, "ge", "entangled inputs, N in {2,3}",
        _ansatz_bounds_true_qfi,
    ),
    _Check(
        "survival_closed_vs_collapse", 1e-12, "le",
        "N<=3 and (S,E,S,E), m in {1,50}, random states",
        _survival_closed_vs_collapse,
        _SURVIVAL_POINT,
    ),
    _Check(
        "zeno_monotonic", -1e-12, "ge", "m doubling from 1 to 256",
        lambda seed: (min(b - a for a, b in itertools.pairwise(_zeno_survivals())), None),
    ),
    _Check(
        "zeno_limit", 0.98, "ge", "P at m=256",
        lambda seed: (_zeno_survivals()[-1], None),
    ),
    _Check(
        "quadratic_order", 1.1, "le", "error/(m tau^3) ratio across tau halvings",
        _quadratic_order,
    ),
)

DEFAULT_TOLERANCES = {check.name: check.threshold for check in _CHECKS}


def run_verify(cfg: SweepConfig) -> VerifyReport:
    """Run the cross-module oracle suite in table order with (possibly
    overridden) thresholds, timing each check's measure."""
    tol = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    checks = []
    for check in _CHECKS:
        start = time.perf_counter()
        measured, worst_at = check.measure(cfg.seed)
        seconds = time.perf_counter() - start
        checks.append(
            VerifyCheck(
                check.name, measured, tol[check.name], check.comparison,
                check.detail, seconds, worst_at, check.point,
            )
        )
    return VerifyReport(checks)


RUNNERS = {
    "ratio-vs-N": run_ratio_vs_n,
    "qfi-vs-gamma": run_qfi_vs_gamma,
    "zeno-time": run_zeno_time,
}
