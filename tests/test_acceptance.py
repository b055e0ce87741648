"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline; failures always
show them).

Criterion 2's oracle clause is expected to fail: the closed-form
entangled-state value is the minimum over per-qubit environment operators,
while the SLD oracle computes the channel QFI itself, which for N >= 2 is
strictly smaller (correlated environment operators tighten the bound
further; compare test_qfi.test_oracle_matches_exact_entangled_qfi, where
the oracle, the complete-basis solver, and a rank-2 closed form agree).
The solver clause of the same criterion passes.
"""

import math

import numpy as np

from zeno_qfi.channels import (
    apply_channel,
    build_dephasing_model,
    evolve,
    generator,
    kraus_from_dilation,
)
from zeno_qfi.dense import DenseOperator, partial_trace
from zeno_qfi.paulis import variance
from zeno_qfi.qfi import (
    AnalyticParams,
    EnvOperatorBasis,
    minimize_qfi_bound,
    optimal_env_coefficients,
    qfi_ghz,
    qfi_one_qubit,
    qfi_sld_oracle,
)
from zeno_qfi.states import (
    SYSTEM,
    StateVector,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)
from zeno_qfi.sweeps import SweepConfig, run_qfi_vs_gamma, run_ratio_vs_n
from zeno_qfi.zeno import (
    ZenoProjector,
    ZenoSchedule,
    survival_probability_exact,
    survival_probability_quadratic,
    zeno_hamiltonian,
)

RATES = (0.5, 0.8, 1.0, 1.2)
TAUS = (0.1, 0.5, 1.0)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def _solver_qfi(n, omega0, gamma, tau, system_state):
    model = build_dephasing_model(n, omega0, gamma)
    h_hat = generator(model)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    full = tensor_state(system_state, zero_environment(n))
    return minimize_qfi_bound(h_hat, basis, full, tau).qfi


def test_criterion_1_one_qubit_closed_form():
    """Solver reproduces omega0^2 cos^2(gamma tau) + gamma^2 to 1e-8 over a
    4x4x3 grid; the SLD oracle agrees to 1e-5."""
    worst_solver = worst_oracle = 0.0
    for omega0 in RATES:
        for gamma in RATES:
            for tau in TAUS:
                reference = qfi_one_qubit(
                    AnalyticParams(n=1, omega0=omega0, gamma=gamma, tau=tau)
                )
                solved = _solver_qfi(1, omega0, gamma, tau, plus_state(1))
                oracle = qfi_sld_oracle(
                    build_dephasing_model(1, omega0, gamma), plus_state(1), tau
                )
                worst_solver = max(worst_solver, abs(solved - reference) / reference)
                worst_oracle = max(worst_oracle, abs(oracle - reference) / reference)
    passed = worst_solver <= 1e-8 and worst_oracle <= 1e-5
    _report(
        "1 (one-qubit closed form)",
        passed,
        f"solver err {worst_solver:.2e} (<=1e-8), oracle err {worst_oracle:.2e} (<=1e-5)",
    )
    assert worst_solver <= 1e-8
    assert worst_oracle <= 1e-5


def test_criterion_2_ghz_closed_form_solver():
    """Solver matches the entangled-state closed form for N in {1,2,3,4}
    to 1e-8."""
    worst = 0.0
    for n in (1, 2, 3, 4):
        for omega0 in RATES:
            for gamma in RATES:
                for tau in TAUS:
                    reference = qfi_ghz(
                        AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
                    )
                    solved = _solver_qfi(n, omega0, gamma, tau, ghz_state(n))
                    worst = max(worst, abs(solved - reference) / reference)
    passed = worst <= 1e-8
    _report("2 (GHZ closed form, solver)", passed, f"solver err {worst:.2e} (<=1e-8)")
    assert worst <= 1e-8


def test_criterion_2_ghz_closed_form_sld_oracle():
    """SLD oracle against the entangled-state closed form for N in {1,2,3}
    at 1e-5.

    Expected to fail at N in {2,3}: the closed form minimizes over
    per-qubit environment operators only, and the actual channel QFI
    (which the oracle measures, confirmed independently by the
    complete-basis solver and a rank-2 closed form) is strictly smaller
    once correlated environment operators matter.
    """
    worst = 0.0
    worst_at = None
    for n in (1, 2, 3):
        for omega0 in RATES:
            for gamma in RATES:
                for tau in TAUS:
                    reference = qfi_ghz(
                        AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
                    )
                    oracle = qfi_sld_oracle(
                        build_dephasing_model(n, omega0, gamma), ghz_state(n), tau
                    )
                    err = abs(oracle - reference) / reference
                    if err > worst:
                        worst, worst_at = err, (n, omega0, gamma, tau)
    passed = worst <= 1e-5
    _report(
        "2 (GHZ closed form, SLD oracle)",
        passed,
        f"oracle err {worst:.2e} (<=1e-5), worst at (N, omega0, gamma, tau)={worst_at}",
    )
    assert worst <= 1e-5, (
        f"SLD oracle disagrees with the per-qubit-ansatz closed form by "
        f"{worst:.2e} at {worst_at}; for N >= 2 that closed form is an upper "
        f"bound, not the channel QFI (the oracle, the complete-basis solver, "
        f"and the rank-2 closed form all agree on the smaller value)"
    )


def test_criterion_3_separable_additivity():
    """Solver on the |+>^N product input equals N times the one-qubit value
    to 1e-8 for N <= 4."""
    worst = 0.0
    for n in (1, 2, 3, 4):
        for omega0, gamma, tau in ((1.0, 1.0, 0.5), (0.8, 1.2, 0.1), (1.2, 0.5, 1.0)):
            single = qfi_one_qubit(
                AnalyticParams(n=1, omega0=omega0, gamma=gamma, tau=tau)
            )
            solved = _solver_qfi(n, omega0, gamma, tau, plus_state(n))
            worst = max(worst, abs(solved - n * single) / (n * single))
    passed = worst <= 1e-8
    _report("3 (separable additivity)", passed, f"solver err {worst:.2e} (<=1e-8)")
    assert worst <= 1e-8


def test_criterion_4_symmetric_ansatz_optimum():
    """Symmetric-ansatz coefficients: the X and Z components vanish to
    1e-9 absolute and the Y component matches
    omega0 N sin / 2[N sin^2 + cos^2] to 1e-8, N in {1,2,3}."""
    worst_off = 0.0
    worst_beta = 0.0
    for n in (1, 2, 3):
        for omega0, gamma, tau in ((1.0, 1.0, 0.5), (0.8, 1.2, 0.3)):
            model = build_dephasing_model(n, omega0, gamma)
            h_hat = generator(model)
            basis = EnvOperatorBasis.symmetric(model.labels)
            full = tensor_state(ghz_state(n), zero_environment(n))
            sol = minimize_qfi_bound(h_hat, basis, full, tau)
            _, beta, _ = optimal_env_coefficients(
                AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
            )
            worst_off = max(
                worst_off, abs(sol.coefficients[0]), abs(sol.coefficients[2])
            )
            worst_beta = max(worst_beta, abs(sol.coefficients[1] - beta) / abs(beta))
    passed = worst_off <= 1e-9 and worst_beta <= 1e-8
    _report(
        "4 (symmetric-ansatz optimum)",
        passed,
        f"off-axis {worst_off:.2e} (<=1e-9), beta err {worst_beta:.2e} (<=1e-8)",
    )
    assert worst_off <= 1e-9
    assert worst_beta <= 1e-8


def test_criterion_5_ratio_curves_approach_asymptotes():
    """At omega0 tau = 0.5 each of the five gamma/omega0 series climbs
    monotonically toward its large-N asymptote and sits within 1% of it by
    N = 500."""
    cfg = SweepConfig(mode="ratio-vs-N")
    table = run_ratio_vs_n(cfg)
    gammas = (1.2, 1.1, 1.0, 0.9, 0.8)
    worst_gap = 0.0
    monotone = True
    for g in gammas:
        series = [
            (row[0], row[4], row[5]) for row in table.rows if row[1] == g
        ]
        series.sort()
        ratios = [r for _, r, _ in series]
        asymptote = series[-1][2]
        monotone = monotone and all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert series[-1][0] == 500
        worst_gap = max(worst_gap, abs(ratios[-1] - asymptote) / asymptote)
    passed = monotone and worst_gap <= 0.01
    _report(
        "5 (ratio curves vs N)",
        passed,
        f"monotone={monotone}, worst relative gap at N=500 {worst_gap:.4f} (<=0.01)",
    )
    assert monotone
    assert worst_gap <= 0.01


def test_criterion_6_qfi_gap_closes_with_coupling():
    """At omega0 tau = 0.5 and N in {3,5,7}: entangled beats separable at
    gamma/omega0 = 0.1, and the relative gap at 3.0 is smaller."""
    cfg = SweepConfig(
        mode="qfi-vs-gamma", n_list=(3, 5, 7), gamma_over_omega0=(0.1, 3.0)
    )
    table = run_qfi_vs_gamma(cfg)
    by_key = {(row[0], row[1]): row for row in table.rows}
    ok = True
    detail = []
    for n in (3, 5, 7):
        f_en_weak, f_se_weak = by_key[(n, 0.1)][2], by_key[(n, 0.1)][3]
        f_en_strong, f_se_strong = by_key[(n, 3.0)][2], by_key[(n, 3.0)][3]
        gap_weak = (f_en_weak - f_se_weak) / f_se_weak
        gap_strong = (f_en_strong - f_se_strong) / f_se_strong
        ok = ok and f_en_weak > f_se_weak and gap_strong < gap_weak
        detail.append(f"N={n}: gap {gap_weak:.3f} -> {gap_strong:.2e}")
    _report("6 (coupling closes the QFI gap)", ok, "; ".join(detail))
    assert ok


def test_criterion_7_zeno_limit_and_quadratic_order():
    """P(t) climbs with the measurement count at fixed total time, reaching
    0.98 by m = 256; the quadratic-expansion error is O(m tau^3)."""
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    values = [
        survival_probability_exact(model, projector, env0, ZenoSchedule(m, 1.0 / m))
        for m in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    ]
    monotone = all(b >= a for a, b in zip(values, values[1:]))

    h_hat = zeno_hamiltonian(generator(model), projector, model.labels)
    psi_full = tensor_state(projector.psi0, env0)
    m = 20
    ratios = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        schedule = ZenoSchedule(m, tau)
        exact = survival_probability_exact(model, projector, env0, schedule)
        quad = survival_probability_quadratic(h_hat, psi_full, schedule)
        ratios.append(abs(exact - quad) / (m * tau**3))
    bounded = max(ratios) <= ratios[0] * 1.1 + 1e-12

    passed = monotone and values[-1] >= 0.98 and bounded
    _report(
        "7 (Zeno limit)",
        passed,
        f"monotone={monotone}, P(256)={values[-1]:.4f} (>=0.98), "
        f"error/(m tau^3) ratios {[f'{r:.3e}' for r in ratios]}",
    )
    assert monotone
    assert values[-1] >= 0.98
    assert bounded


def test_criterion_8_channel_consistency():
    """Kraus extraction is trace-preserving to 1e-10 and agrees with the
    partial-trace route on 50 random density matrices to 1e-10."""
    rng = np.random.default_rng(0)
    model = build_dephasing_model(1, 1.0, 1.0)
    worst_residual = 0.0
    worst_err = 0.0
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        t = float(rng.uniform(1e-3, 2 * math.pi))
        kset = kraus_from_dilation(model, t)
        worst_residual = max(worst_residual, kset.completeness_residual)
        via_kraus = apply_channel(kset, DenseOperator(rho)).matrix

        cols = []
        for s in range(4):
            e = np.zeros(4, dtype=complex)
            e[s] = 1.0
            cols.append(evolve(model, StateVector(e, model.labels), t).amplitudes)
        u = np.column_stack(cols)
        rho_full = np.zeros((4, 4), dtype=complex)
        rho_full[np.ix_([0, 2], [0, 2])] = rho
        via_trace = partial_trace(
            DenseOperator(u @ rho_full @ u.conj().T), model.labels, SYSTEM
        ).matrix
        worst_err = max(worst_err, float(np.abs(via_kraus - via_trace).max()))
    passed = worst_residual <= 1e-10 and worst_err <= 1e-10
    _report(
        "8 (channel consistency)",
        passed,
        f"completeness {worst_residual:.2e} (<=1e-10), "
        f"kraus-vs-trace {worst_err:.2e} (<=1e-10)",
    )
    assert worst_residual <= 1e-10
    assert worst_err <= 1e-10


def test_criterion_9_variational_monotonicity():
    """The minimized bound never exceeds the unoptimized 4 Var(H), and is
    strictly below it at N=1 whenever gamma tau avoids 0 and pi."""
    ok = True
    strict_margin = math.inf
    for n in (1, 2, 3):
        for omega0 in RATES:
            for gamma in RATES:
                for tau in TAUS:
                    model = build_dephasing_model(n, omega0, gamma)
                    h_hat = generator(model)
                    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
                    for system in (ghz_state(n), plus_state(n)):
                        full = tensor_state(system, zero_environment(n))
                        unopt = 4.0 * variance(h_hat, full)
                        sol = minimize_qfi_bound(h_hat, basis, full, tau)
                        ok = ok and sol.qfi <= unopt + 1e-9
                        if n == 1 and gamma * tau not in (0.0, math.pi):
                            strict_margin = min(strict_margin, unopt - sol.qfi)
    passed = ok and strict_margin > 1e-7
    _report(
        "9 (variational monotonicity)",
        passed,
        f"bound respected everywhere, strict margin at N=1 {strict_margin:.2e}",
    )
    assert ok
    assert strict_margin > 1e-7
