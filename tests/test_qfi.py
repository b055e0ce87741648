import math

import numpy as np
import pytest

from zeno_qfi.channels import DilatedEvolution, build_dephasing_model, generator
from zeno_qfi.dense import DENSE_QUBIT_CAP, DenseOperator
from zeno_qfi.exceptions import DenseCapError, PoleProximityError
from zeno_qfi.paulis import OperatorSum, PauliTerm, to_dense
from zeno_qfi.qfi import (
    SLD_EIGENVALUE_FLOOR,
    AnalyticParams,
    EnvOperatorBasis,
    VariationalSolution,
    _bound_at,
    _normal_equations,
    _sld_information,
    conjugate_env_operator,
    fisher_from_survival,
    minimize_qfi_bound,
    optimal_env_coefficients,
    qfi_ghz,
    qfi_ghz_large_n,
    qfi_one_qubit,
    qfi_ratio_asymptote,
    qfi_separable,
    qfi_sld_oracle,
    qfi_upper_bound,
    zeno_time_bound,
)
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    basis_state,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)
from zeno_qfi.zeno import ZenoProjector


def model_setup(n, omega0, gamma):
    model = build_dephasing_model(n, omega0, gamma)
    h_hat = generator(model)
    return model, h_hat


def ghz_input(n):
    return tensor_state(ghz_state(n), zero_environment(n))


def product_input(n):
    return tensor_state(plus_state(n), zero_environment(n))


def minimize_by_gradient_descent(
    h_hat, basis, psi_full, tau, steps=2000, learning_rate=0.05
):
    """Oracle: plain gradient descent on the solver's own quadratic, so only
    the solve differs from minimize_qfi_bound."""
    base_vec, vecs, gram, cross = _normal_equations(h_hat, basis, psi_full, tau)
    scale = max(float(np.abs(gram).max()), 1.0)
    coeff = np.zeros(len(cross))
    for _ in range(steps):
        coeff = coeff - learning_rate * (gram @ coeff + cross) / scale
    return VariationalSolution(
        coeff, _bound_at(coeff, base_vec, vecs, psi_full), float("nan")
    )


def true_ghz_qfi(n, omega0, gamma, tau):
    """Exact channel QFI of the entangled family.  The reduced state is a
    rank-2 qubit family with radius cos^N(gamma tau) and phase N omega0 tau,
    so the Bloch-vector QFI formula applies verbatim."""
    c, s = math.cos(gamma * tau), math.sin(gamma * tau)
    radius = c**n
    d_radius = -n * gamma * c ** (n - 1) * s
    out = d_radius**2 + radius**2 * (n * omega0) ** 2
    if radius**2 < 1.0:
        out += radius**2 * d_radius**2 / (1.0 - radius**2)
    return out


# ---- the unoptimized bound ----


def test_bound_vanishes_on_eigenstate():
    h = OperatorSum.from_term(1.0, "ZI")
    psi = tensor_state(basis_state(0, (SYSTEM,)), zero_environment(1))
    assert qfi_upper_bound(h, psi) == pytest.approx(0.0, abs=1e-14)


def test_bound_one_pair_value():
    for omega0, gamma in ((1.0, 1.0), (0.6, 1.4)):
        _, h_hat = model_setup(1, omega0, gamma)
        psi = product_input(1)
        assert qfi_upper_bound(h_hat, psi) == pytest.approx(
            omega0**2 + gamma**2, rel=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bound_ghz_value(n):
    omega0, gamma = 1.1, 0.7
    _, h_hat = model_setup(n, omega0, gamma)
    assert qfi_upper_bound(h_hat, ghz_input(n)) == pytest.approx(
        n**2 * omega0**2 + n * gamma**2, rel=1e-12
    )


# ---- conjugation ----


def test_conjugation_at_zero_interval():
    _, h_hat = model_setup(1, 1.0, 1.0)
    h_env = OperatorSum.from_term(1.0, "IY")
    out = conjugate_env_operator(h_env, h_hat, 0.0)
    assert out.coefficient_of("IY") == pytest.approx(1.0)
    assert len(out.terms) == 1


def test_conjugation_leaves_x_alone():
    # X_E commutes with both Z_S and Z_S X_E, so it never rotates
    _, h_hat = model_setup(1, 1.0, 1.0)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, "IX"), h_hat, 0.8)
    assert out.coefficient_of("IX") == pytest.approx(1.0)
    assert len(out.terms) == 1


def test_conjugation_rotates_y_into_zz():
    omega0, gamma, tau = 1.0, 1.0, 0.5
    _, h_hat = model_setup(1, omega0, gamma)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, "IY"), h_hat, tau)
    assert out.coefficient_of("IY") == pytest.approx(math.cos(gamma * tau), rel=1e-12)
    assert out.coefficient_of("ZZ") == pytest.approx(-math.sin(gamma * tau), rel=1e-12)
    assert len(out.terms) == 2


@pytest.mark.parametrize("factors", ["IX", "IY", "IZ"])
def test_conjugation_matches_dense_oracle(factors):
    omega0, gamma, tau = 0.9, 1.3, 0.7
    _, h_hat = model_setup(1, omega0, gamma)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, factors), h_hat, tau)
    w, v = np.linalg.eigh(to_dense(h_hat).matrix)
    u = (v * np.exp(-1j * w * tau)) @ v.conj().T
    oracle = u.conj().T @ to_dense(OperatorSum.from_term(1.0, factors)).matrix @ u
    np.testing.assert_allclose(to_dense(out).matrix, oracle, atol=1e-12)


def test_conjugation_dense_fallback_for_noncommuting_generator():
    # Z_S + X_S do not commute, so the Pauli-rotation path is unavailable
    h_hat = OperatorSum([PauliTerm(0.5, "ZI"), PauliTerm(0.5, "XI")])
    h_env = OperatorSum.from_term(1.0, "IY")
    out = conjugate_env_operator(h_env, h_hat, 0.6)
    assert isinstance(out, DenseOperator)
    w, v = np.linalg.eigh(to_dense(h_hat).matrix)
    u = (v * np.exp(-1j * w * 0.6)) @ v.conj().T
    oracle = u.conj().T @ to_dense(h_env).matrix @ u
    np.testing.assert_allclose(out.matrix, oracle, atol=1e-12)


# ---- variational minimization ----


def test_minimize_decoupled_environment_changes_nothing():
    model, h_hat = model_setup(1, 1.0, 0.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)
    assert sol.qfi == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(sol.coefficients, 0.0, atol=1e-12)


def test_minimize_one_pair_frozen_value():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)
    assert sol.qfi == pytest.approx(1.7701511529340699, rel=1e-10)


def test_symmetric_and_per_qubit_bases_agree_on_ghz():
    for n in (2, 3):
        model, h_hat = model_setup(n, 1.0, 1.0)
        psi = ghz_input(n)
        full = minimize_qfi_bound(
            h_hat, EnvOperatorBasis.single_qubit_paulis(model.labels), psi, 0.5
        )
        sym = minimize_qfi_bound(
            h_hat, EnvOperatorBasis.symmetric(model.labels), psi, 0.5
        )
        assert full.qfi == pytest.approx(sym.qfi, rel=1e-10)


def test_minimum_is_a_local_minimum():
    """Perturbing the solved coefficients in any direction cannot lower the
    quadratic; convexity then makes it global."""
    model, h_hat = model_setup(2, 1.0, 1.0)
    basis = EnvOperatorBasis.symmetric(model.labels)
    psi = ghz_input(2)
    tau = 0.5
    sol = minimize_qfi_bound(h_hat, basis, psi, tau)

    def value_at(coeffs):
        shifted = h_hat
        for c, element in zip(coeffs, basis.elements):
            conj = conjugate_env_operator(element, h_hat, tau)
            shifted = shifted + float(c) * conj
        return qfi_upper_bound(shifted, psi)

    base = value_at(sol.coefficients)
    assert base == pytest.approx(sol.qfi, rel=1e-9)
    for k in range(len(sol.coefficients)):
        for delta in (-1e-3, 1e-3):
            bumped = np.array(sol.coefficients)
            bumped[k] += delta
            assert value_at(bumped) >= base - 1e-12


def test_gradient_descent_cross_check():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    exact = minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)
    descent = minimize_by_gradient_descent(h_hat, basis, product_input(1), 0.5)
    assert descent.qfi == pytest.approx(exact.qfi, rel=1e-8)
    np.testing.assert_allclose(descent.coefficients, exact.coefficients, atol=1e-6)


def test_minimum_never_exceeds_unoptimized_bound():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        omega0 = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.0, 1.5))
        tau = float(rng.uniform(0.05, 1.2))
        model, h_hat = model_setup(n, omega0, gamma)
        basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
        psi = ghz_input(n) if rng.integers(2) else product_input(n)
        sol = minimize_qfi_bound(h_hat, basis, psi, tau)
        assert sol.qfi <= qfi_upper_bound(h_hat, psi) + 1e-9


def test_minimum_strictly_below_bound_off_the_poles():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    psi = product_input(1)
    for tau in (0.1, 0.5, 1.0):
        sol = minimize_qfi_bound(h_hat, basis, psi, tau)
        assert sol.qfi < qfi_upper_bound(h_hat, psi) - 1e-6


def test_minimum_equals_bound_at_gamma_tau_pi():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    psi = product_input(1)
    sol = minimize_qfi_bound(h_hat, basis, psi, math.pi)
    assert sol.qfi == pytest.approx(qfi_upper_bound(h_hat, psi), rel=1e-9)


def test_complete_basis_reaches_the_true_qfi():
    """With every environment Pauli string available the variational
    minimum drops to the exact channel QFI of the entangled family, below
    the per-qubit ansatz value."""
    for n, omega0, gamma, tau in ((2, 1.0, 1.0, 0.5), (3, 1.2, 0.8, 1.0)):
        model, h_hat = model_setup(n, omega0, gamma)
        psi = ghz_input(n)
        complete = minimize_qfi_bound(
            h_hat, EnvOperatorBasis.complete(model.labels), psi, tau
        )
        restricted = minimize_qfi_bound(
            h_hat, EnvOperatorBasis.single_qubit_paulis(model.labels), psi, tau
        )
        truth = true_ghz_qfi(n, omega0, gamma, tau)
        assert complete.qfi == pytest.approx(truth, rel=1e-9)
        assert restricted.qfi > complete.qfi + 1e-3


def test_gram_condition_reported():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)
    assert sol.gram_condition >= 1.0


# ---- closed-form optimum ----


def test_optimal_coefficients_vanish_with_coupling():
    p = AnalyticParams(n=2, omega0=1.0, gamma=1.0, tau=1e-9)
    alpha, beta, gamma_c = optimal_env_coefficients(p)
    assert alpha == 0.0 and gamma_c == 0.0
    assert abs(beta) < 1e-8


def test_optimal_coefficients_frozen_value():
    p = AnalyticParams(n=1, omega0=1.0, gamma=1.0, tau=0.5)
    _, beta, _ = optimal_env_coefficients(p)
    assert beta == pytest.approx(0.2397127693021015, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solver_coefficients_match_closed_form(n):
    omega0, gamma, tau = 1.0, 1.0, 0.5
    model, h_hat = model_setup(n, omega0, gamma)
    basis = EnvOperatorBasis.symmetric(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, ghz_input(n), tau)
    alpha, beta, gamma_c = optimal_env_coefficients(
        AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
    )
    assert abs(sol.coefficients[0]) <= 1e-9
    assert abs(sol.coefficients[2]) <= 1e-9
    assert sol.coefficients[1] == pytest.approx(beta, rel=1e-8)


# ---- analytic formulas ----


def test_params_reject_non_finite_phase():
    with pytest.raises(ValueError, match="finite"):
        AnalyticParams(n=1, omega0=1.0, gamma=1.0, tau=math.inf)
    with pytest.raises(ValueError, match="finite"):
        AnalyticParams(n=1, omega0=1.0, gamma=1e10, tau=1e300)


def test_one_qubit_formula_limits():
    assert qfi_one_qubit(
        AnalyticParams(n=1, omega0=1.3, gamma=0.0, tau=0.7)
    ) == pytest.approx(1.3**2)
    gamma = 0.9
    tau = (math.pi / 2) / gamma
    assert qfi_one_qubit(
        AnalyticParams(n=1, omega0=1.0, gamma=gamma, tau=tau)
    ) == pytest.approx(gamma**2, abs=1e-12)


def test_ghz_formula_reduces_to_one_qubit():
    rng = np.random.default_rng(73)
    for _ in range(100):
        p = AnalyticParams(
            n=1,
            omega0=float(rng.uniform(0.1, 2.0)),
            gamma=float(rng.uniform(0.0, 2.0)),
            tau=float(rng.uniform(0.05, 1.0)),
        )
        assert qfi_ghz(p) == pytest.approx(qfi_one_qubit(p), rel=1e-12)


def test_ghz_formula_heisenberg_limit():
    for n in (2, 5, 20):
        p = AnalyticParams(n=n, omega0=1.0, gamma=0.0, tau=0.5)
        assert qfi_ghz(p) == pytest.approx(n**2, rel=1e-12)


def test_ghz_large_n_behavior():
    gamma, tau = 1.0, 0.5
    for n in (10**2, 10**4, 10**6):
        p = AnalyticParams(n=n, omega0=1.0, gamma=gamma, tau=tau)
        assert qfi_ghz(p) / qfi_ghz_large_n(p) == pytest.approx(
            1.0, abs=10.0 / n
        )


def test_ghz_formula_pole_flagged():
    gamma = 1.0
    tau = math.pi / 2 / gamma
    with pytest.raises(PoleProximityError):
        qfi_ghz(AnalyticParams(n=3, omega0=1.0, gamma=gamma, tau=tau))
    with pytest.raises(PoleProximityError):
        qfi_ratio_asymptote(AnalyticParams(n=3, omega0=1.0, gamma=1e-12, tau=0.5))


def test_separable_formula_additivity():
    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        p = AnalyticParams(
            n=n,
            omega0=float(rng.uniform(0.1, 2.0)),
            gamma=float(rng.uniform(0.0, 2.0)),
            tau=float(rng.uniform(0.05, 1.0)),
        )
        single = AnalyticParams(n=1, omega0=p.omega0, gamma=p.gamma, tau=p.tau)
        assert qfi_separable(p) == pytest.approx(n * qfi_one_qubit(single), rel=1e-12)


def test_separable_standard_quantum_limit():
    p = AnalyticParams(n=7, omega0=1.0, gamma=0.0, tau=0.4)
    assert qfi_separable(p) == pytest.approx(7.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solver_matches_separable_formula(n):
    omega0, gamma, tau = 1.0, 0.9, 0.5
    model, h_hat = model_setup(n, omega0, gamma)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, product_input(n), tau)
    p = AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
    assert sol.qfi == pytest.approx(qfi_separable(p), rel=1e-8)


def test_entanglement_witness_threshold():
    """Without coupling the entangled formula beats the separable bound
    N omega0^2 for every N >= 2."""
    for n in range(2, 30):
        p = AnalyticParams(n=n, omega0=1.0, gamma=0.0, tau=0.5)
        assert qfi_ghz(p) > n * 1.0**2


def test_entangled_advantage_shrinks_with_coupling():
    """F_en > F_se at weak coupling; the difference decays monotonically as
    gamma/omega0 grows."""
    tau = 0.5
    grid = [round(0.1 * k, 10) for k in range(1, 31)]
    for n in (3, 5, 7):
        diffs = []
        for g in grid:
            p = AnalyticParams(n=n, omega0=1.0, gamma=g, tau=tau)
            diffs.append(qfi_ghz(p) - qfi_separable(p))
        assert diffs[0] > 0
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_linear_scaling_at_large_n():
    gamma, tau = 1.0, 0.5
    per_qubit = []
    for n in (64, 128, 256):
        p = AnalyticParams(n=n, omega0=1.0, gamma=gamma, tau=tau)
        per_qubit.append(qfi_ghz(p) / n)
    first_gap = abs(per_qubit[1] - per_qubit[0])
    second_gap = abs(per_qubit[2] - per_qubit[1])
    assert second_gap < first_gap


# ---- SLD oracle ----


def test_oracle_closed_system_pure_state():
    model = build_dephasing_model(1, 1.0, 0.0)
    value = qfi_sld_oracle(model, plus_state(1), 0.5)
    assert value == pytest.approx(1.0, rel=1e-6)


def test_oracle_one_pair_frozen_value():
    model = build_dephasing_model(1, 1.0, 1.0)
    value = qfi_sld_oracle(model, plus_state(1), 0.5)
    assert value == pytest.approx(1.7701511529340699, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_separable_formula(n):
    omega0, gamma, tau = 1.0, 0.8, 0.5
    model = build_dephasing_model(n, omega0, gamma)
    value = qfi_sld_oracle(model, plus_state(n), tau)
    p = AnalyticParams(n=n, omega0=omega0, gamma=gamma, tau=tau)
    assert value == pytest.approx(qfi_separable(p), rel=1e-5)


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matches_exact_entangled_qfi(n):
    """Three independent routes agree on the entangled family: the SLD
    oracle, the complete-basis variational minimum, and the rank-2 Bloch
    closed form."""
    omega0, gamma, tau = 1.0, 1.0, 0.5
    model, h_hat = model_setup(n, omega0, gamma)
    oracle = qfi_sld_oracle(model, ghz_state(n), tau)
    truth = true_ghz_qfi(n, omega0, gamma, tau)
    complete = minimize_qfi_bound(
        h_hat, EnvOperatorBasis.complete(model.labels), ghz_input(n), tau
    )
    assert oracle == pytest.approx(truth, rel=1e-6)
    assert complete.qfi == pytest.approx(truth, rel=1e-9)


def test_oracle_accepts_density_matrix_input():
    model = build_dephasing_model(1, 1.0, 1.0)
    amps = plus_state(1).amplitudes
    rho = DenseOperator(np.outer(amps, amps.conj()))
    via_state = qfi_sld_oracle(model, plus_state(1), 0.5)
    via_density = qfi_sld_oracle(model, rho, 0.5)
    assert via_density == pytest.approx(via_state, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_matches_rank_two_formula_up_to_eight_pairs(n):
    """The exact derivative reaches the rank-2 closed form at rounding level,
    also at N = 7 and 8 once the cap admits 16 qubits."""
    omega0, gamma, tau = 1.0, 1.0, 0.5
    cap = 16 if n > 6 else DENSE_QUBIT_CAP
    model = build_dephasing_model(n, omega0, gamma)
    oracle = qfi_sld_oracle(model, ghz_state(n), tau, dense_cap=cap)
    assert oracle == pytest.approx(true_ghz_qfi(n, omega0, gamma, tau), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_dense_generator_matches_rotations(n):
    """A dense-generator dilation of the same model, which bypasses the
    Pauli kernel, gives the same oracle value on pure and mixed inputs."""
    model = build_dephasing_model(n, 1.0, 0.8)
    dense_model = DilatedEvolution.from_generator(model.labels, to_dense(generator(model)))
    rng = np.random.default_rng(83)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    for initial in (ghz_state(n), DenseOperator(rho / np.trace(rho))):
        via_rotations = qfi_sld_oracle(model, initial, 0.5)
        via_dense = qfi_sld_oracle(dense_model, initial, 0.5)
        assert via_dense == pytest.approx(via_rotations, rel=1e-12)


def test_sld_information_matches_double_loop():
    """The masked sum equals the per-pair loop it replaced, also on a
    rank-deficient state whose zero eigenvalues fall under the floor."""
    rng = np.random.default_rng(89)
    for rank in (1, 2, 4):
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        drho = b + b.conj().T
        lam, vecs = np.linalg.eigh(rho)
        d = vecs.conj().T @ drho @ vecs
        loop = 0.0
        for i in range(4):
            for j in range(4):
                if lam[i] + lam[j] > SLD_EIGENVALUE_FLOOR:
                    loop += 2.0 * abs(d[i, j]) ** 2 / (lam[i] + lam[j])
        assert _sld_information(rho, drho) == pytest.approx(loop, rel=1e-12)


def test_oracle_rejects_non_commuting_rotations():
    model = DilatedEvolution.from_rotations(
        (SYSTEM, ENVIRONMENT),
        ((1.0, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "XX"))),
    )
    with pytest.raises(ValueError, match="commuting"):
        qfi_sld_oracle(model, plus_state(1), 0.5)


def test_oracle_dense_cap():
    model = build_dephasing_model(4, 1.0, 1.0)
    with pytest.raises(DenseCapError):
        qfi_sld_oracle(model, plus_state(4), 0.5, dense_cap=6)


# ---- zeno-time bounds ----


def test_zeno_bound_closed_system():
    p = AnalyticParams(n=1, omega0=1.0, gamma=0.0, tau=0.5)
    for m in (1, 25, 100):
        assert zeno_time_bound(p, m, entangled=False) == pytest.approx(
            2.0 / math.sqrt(m), rel=1e-12
        )


def test_zeno_bound_frozen_value():
    p = AnalyticParams(n=1, omega0=1.0, gamma=1.0, tau=0.5)
    assert zeno_time_bound(p, 100, entangled=False) == pytest.approx(
        0.15032278716969957, rel=1e-12
    )
    assert abs(zeno_time_bound(p, 100, entangled=False) - 0.1503) < 1e-4


def test_zeno_bound_quadrupled_m_halves():
    p = AnalyticParams(n=3, omega0=1.0, gamma=0.7, tau=0.5)
    for entangled in (True, False):
        one = zeno_time_bound(p, 50, entangled=entangled)
        four = zeno_time_bound(p, 200, entangled=entangled)
        assert four == pytest.approx(one / 2, rel=1e-12)


def test_zeno_bound_family_ratio_converges():
    gamma, tau = 1.0, 0.5
    c, s = math.cos(gamma * tau), math.sin(gamma * tau)
    const = math.sqrt((c**2 + gamma**2) / (gamma**2 + (c / s) ** 2))
    p = AnalyticParams(n=10**6, omega0=1.0, gamma=gamma, tau=tau)
    ratio = zeno_time_bound(p, 100, entangled=True) / zeno_time_bound(
        p, 100, entangled=False
    )
    assert ratio == pytest.approx(const, rel=1e-4)


def test_zeno_bound_asymptotic_variant():
    p = AnalyticParams(n=100, omega0=1.0, gamma=1.0, tau=0.5)
    exact = zeno_time_bound(p, 10, entangled=True)
    asym = zeno_time_bound(p, 10, entangled=True, asymptotic=True)
    assert asym == pytest.approx(2.0 / math.sqrt(10 * qfi_ghz_large_n(p)), rel=1e-12)
    assert abs(exact - asym) / asym < 0.02
    with pytest.raises(ValueError):
        zeno_time_bound(p, 10, entangled=False, asymptotic=True)


# ---- survival-derivative information ----


def test_survival_fisher_matches_variance_bound_at_small_tau():
    """[dP/dtau]^2 / P(1-P) approaches 4 Var(H) as tau -> 0; at
    tau * rate ~ 0.07 they agree to better than one percent."""
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(plus_state(1))
    env0 = zero_environment(1)
    value = fisher_from_survival(model, projector, env0, 0.05)
    assert abs(value - 2.0) / 2.0 < 0.01


def test_survival_fisher_rejects_saturated_probability():
    model = build_dephasing_model(1, 1.0, 1.0)
    projector = ZenoProjector(basis_state(0, (SYSTEM,)))
    with pytest.raises(ValueError, match="too close"):
        fisher_from_survival(model, projector, zero_environment(1), 0.3)


# ---- basis validation ----


def test_basis_rejects_system_action():
    labels = (SYSTEM, ENVIRONMENT)
    with pytest.raises(ValueError, match="trivially"):
        EnvOperatorBasis((OperatorSum.from_term(1.0, "ZI"),), labels)


def test_basis_rejects_empty():
    with pytest.raises(ValueError):
        EnvOperatorBasis((), (SYSTEM, ENVIRONMENT))


def test_basis_sizes():
    labels = (SYSTEM, SYSTEM, ENVIRONMENT, ENVIRONMENT)
    assert len(EnvOperatorBasis.single_qubit_paulis(labels).elements) == 6
    assert len(EnvOperatorBasis.symmetric(labels).elements) == 3
    assert len(EnvOperatorBasis.complete(labels).elements) == 15
