import math
import tracemalloc

import numpy as np
import pytest

from zeno_qfi import paulis, qfi
from zeno_qfi.channels import (
    DilatedEvolution,
    build_dephasing_model,
    generator,
    kraus_from_dilation,
)
from zeno_qfi.dense import DenseOperator, hermitian_expm
from zeno_qfi.exceptions import (
    DenseCapError,
    DimensionMismatchError,
    HermiticityError,
    PoleProximityError,
)
from zeno_qfi.paulis import OperatorSum, PauliTerm, _applied_vector, to_dense, variance
from zeno_qfi.qfi import (
    GRAM_CUTOFF,
    SLD_EIGENVALUE_FLOOR,
    AnalyticParams,
    EnvOperatorBasis,
    VariationalSolution,
    _bound_at,
    _normal_equations,
    _sld_information,
    conjugate_env_operator,
    minimize_qfi_bound,
    optimal_env_coefficients,
    qfi_ghz,
    qfi_ghz_large_n,
    qfi_one_qubit,
    qfi_ratio_asymptote,
    qfi_separable,
    qfi_sld_oracle,
)
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    basis_state,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)
from zeno_qfi.zeno import zeno_time


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
    h_variance, gram, cross = _normal_equations(h_hat, basis, psi_full, tau)
    scale = max(float(np.abs(gram).max()), 1.0)
    coeff = np.zeros(len(cross))
    for _ in range(steps):
        coeff = coeff - learning_rate * (gram @ coeff + cross) / scale
    return VariationalSolution(
        coeff,
        _bound_at(coeff, h_variance, gram, cross),
        float("nan"),
        int(np.linalg.matrix_rank(gram, rtol=GRAM_CUTOFF, hermitian=True)),
        float(np.linalg.norm(gram @ coeff + cross)),
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
    assert 4.0 * variance(h, psi) == pytest.approx(0.0, abs=1e-14)


def test_bound_one_pair_value():
    for omega0, gamma in ((1.0, 1.0), (0.6, 1.4)):
        _, h_hat = model_setup(1, omega0, gamma)
        psi = product_input(1)
        assert 4.0 * variance(h_hat, psi) == pytest.approx(
            omega0**2 + gamma**2, rel=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bound_ghz_value(n):
    omega0, gamma = 1.1, 0.7
    _, h_hat = model_setup(n, omega0, gamma)
    assert 4.0 * variance(h_hat, ghz_input(n)) == pytest.approx(
        n**2 * omega0**2 + n * gamma**2, rel=1e-12
    )


# ---- conjugation ----


def test_conjugation_at_zero_interval():
    _, h_hat = model_setup(1, 1.0, 1.0)
    h_env = OperatorSum.from_term(1.0, "IY")
    out = conjugate_env_operator(h_env, h_hat, 0.0)
    assert [t.factors for t in out.terms] == ["IY"]
    assert out.terms[0].coefficient == pytest.approx(1.0)


def test_conjugation_leaves_x_alone():
    # X_E commutes with both Z_S and Z_S X_E, so it never rotates
    _, h_hat = model_setup(1, 1.0, 1.0)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, "IX"), h_hat, 0.8)
    assert out.terms == (PauliTerm(1.0, "IX"),)


def test_conjugation_rotates_y_into_zz():
    omega0, gamma, tau = 1.0, 1.0, 0.5
    _, h_hat = model_setup(1, omega0, gamma)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, "IY"), h_hat, tau)
    assert [t.factors for t in out.terms] == ["IY", "ZZ"]
    assert [t.coefficient for t in out.terms] == pytest.approx(
        [math.cos(gamma * tau), -math.sin(gamma * tau)], rel=1e-12
    )


@pytest.mark.parametrize("factors", ["IX", "IY", "IZ"])
def test_conjugation_matches_dense_oracle(factors):
    omega0, gamma, tau = 0.9, 1.3, 0.7
    _, h_hat = model_setup(1, omega0, gamma)
    out = conjugate_env_operator(OperatorSum.from_term(1.0, factors), h_hat, tau)
    w, v = np.linalg.eigh(to_dense(h_hat).matrix)
    u = (v * np.exp(-1j * w * tau)) @ v.conj().T
    oracle = u.conj().T @ to_dense(OperatorSum.from_term(1.0, factors)).matrix @ u
    np.testing.assert_allclose(to_dense(out).matrix, oracle, atol=1e-12)


def test_conjugation_keeps_hermitian_elements_hermitian():
    """The Pauli-algebra conjugation of every Hermitian element of the
    complete basis is again a Hermitian sum, at random rates and intervals."""
    rng = np.random.default_rng(47)
    for _ in range(5):
        model, h_hat = model_setup(2, *rng.uniform(0.1, 2.0, size=2))
        tau = float(rng.uniform(0.05, 3.0))
        for element in EnvOperatorBasis.complete(model.labels).elements:
            assert conjugate_env_operator(element, h_hat, tau).hermitian


def test_conjugation_refuses_a_noncommuting_or_dense_generator():
    """Z_S + X_S do not commute, so the evolution is no product of Pauli
    rotations, and a dense matrix is not a Pauli sum: both are refused."""
    h_hat = OperatorSum([PauliTerm(0.5, "ZI"), PauliTerm(0.5, "XI")])
    h_env = OperatorSum.from_term(1.0, "IY")
    with pytest.raises(ValueError, match="commute"):
        conjugate_env_operator(h_env, h_hat, 0.6)
    with pytest.raises(TypeError, match="OperatorSum"):
        conjugate_env_operator(h_env, to_dense(h_hat), 0.6)


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
        terms = list(h_hat.terms)
        for c, element in zip(coeffs, basis.elements):
            conj = conjugate_env_operator(element, h_hat, tau)
            terms += [PauliTerm(float(c) * t.coefficient, t.factors) for t in conj.terms]
        return 4.0 * variance(OperatorSum(terms), psi)

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
        assert sol.qfi <= 4.0 * variance(h_hat, psi) + 1e-9


def test_minimum_strictly_below_bound_off_the_poles():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    psi = product_input(1)
    for tau in (0.1, 0.5, 1.0):
        sol = minimize_qfi_bound(h_hat, basis, psi, tau)
        assert sol.qfi < 4.0 * variance(h_hat, psi) - 1e-6


def test_minimum_equals_bound_at_gamma_tau_pi():
    model, h_hat = model_setup(1, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    psi = product_input(1)
    sol = minimize_qfi_bound(h_hat, basis, psi, math.pi)
    assert sol.qfi == pytest.approx(4.0 * variance(h_hat, psi), rel=1e-9)


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


@pytest.mark.parametrize(
    "n, gamma, input_state, basis_kind, rank",
    [
        (1, 0.0, product_input, EnvOperatorBasis.single_qubit_paulis, 2),
        (2, 1.0, ghz_input, EnvOperatorBasis.complete, 11),
    ],
)
def test_solver_reports_rank_and_residual(n, gamma, input_state, basis_kind, rank):
    """Decoupled, the environment stays in |0>, an eigenstate of Z_E, so
    that element carries no covariance and the rank is 2 of 3.  On GHZ at
    N = 2 the complete basis keeps 11 of its 15 directions."""
    model, h_hat = model_setup(n, 1.0, gamma)
    basis = basis_kind(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, input_state(n), 0.5)
    assert sol.rank == rank < len(basis.elements)
    assert 0.0 <= sol.residual < 1e-12


def test_solver_on_an_all_zero_gram():
    """Decoupled, with Z_E alone as the basis: the environment stays in
    |0>, so the one element has no covariance and every |lambda| is 0.
    Nothing is kept: rank 0, an infinite condition, a zero coefficient and
    the bare bound 4 Var(Z_S / 2) = 1 on |+>."""
    model, h_hat = model_setup(1, 1.0, 0.0)
    basis = EnvOperatorBasis((OperatorSum.from_term(1.0, "IZ"),), model.labels)
    sol = minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)
    assert (sol.rank, sol.gram_condition) == (0, math.inf)
    np.testing.assert_array_equal(sol.coefficients, [0.0])
    assert sol.qfi == 1.0 and 0.0 <= sol.residual < 1e-15


def stack_reference(state, base_vec, vecs):
    """Reference quadratic from an explicit k x 2^n stack V of applied
    vectors: G = Re V V^dag - m m^T, the cross covariances with the
    generator's vector ``base_vec``, and the bound
    4 Var(H_hat + sum_k c_k h_k) from the combined vector."""
    means = (vecs.conj() @ state).real
    base_mean = float(np.vdot(state, base_vec).real)
    gram = (vecs.conj() @ vecs.T).real - np.outer(means, means)
    cross = (vecs.conj() @ base_vec).real - base_mean * means

    def bound(coeff):
        combined = base_vec + coeff @ vecs
        mean = float(np.vdot(state, combined).real)
        return 4.0 * (float(np.vdot(combined, combined).real) - mean**2)

    return gram, cross, bound


def assert_solver_matches_reference(h_hat, basis, psi, tau, reference, rng):
    """The solver's G, b and bound equal the reference to 1e-12, at random
    coefficients and at its own, and its G is exactly symmetric."""
    gram, cross, bound = reference
    got_variance, got_gram, got_cross = _normal_equations(h_hat, basis, psi, tau)
    assert np.array_equal(got_gram, got_gram.T)
    np.testing.assert_allclose(got_gram, gram, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_cross, cross, rtol=0, atol=1e-12)
    no_shift = bound(np.zeros_like(cross))
    assert 4.0 * got_variance == pytest.approx(no_shift, rel=0, abs=1e-12)
    coeff = rng.normal(size=len(basis.elements))
    assert _bound_at(coeff, got_variance, got_gram, got_cross) == pytest.approx(
        bound(coeff), rel=0, abs=1e-12
    )
    sol = minimize_qfi_bound(h_hat, basis, psi, tau)
    assert sol.qfi == pytest.approx(bound(sol.coefficients), rel=0, abs=1e-12)


def dense_evolution_reference(h_hat, basis, psi, tau):
    """``stack_reference`` on phi from one dense exponential of H_hat."""
    phi = hermitian_expm(to_dense(h_hat), tau).matrix @ psi.amplitudes
    vecs = np.stack([_applied_vector(h, phi) for h in basis.elements])
    return stack_reference(phi, _applied_vector(h_hat, phi), vecs)


def _interleaved_generator():
    """Two dephasing-coupled pairs on (S, E, S, E)."""
    terms = [(0.45, "ZIII"), (0.55, "IIZI"), (0.6, "ZXII"), (0.35, "IIZX")]
    return OperatorSum([PauliTerm(c, f) for c, f in terms])


@pytest.mark.parametrize(
    "kind, n, generator_kind",
    [
        ("complete", 2, "commuting"),
        ("complete", 3, "commuting"),
        ("single_qubit_paulis", 4, "commuting"),
        ("single_qubit_paulis", 5, "commuting"),
        ("symmetric", 3, "commuting"),
        ("symmetric", 5, "commuting"),
        ("complete", 2, "interleaved"),
        ("symmetric", 2, "interleaved"),
    ],
)
def test_normal_equations_match_the_applied_stack(kind, n, generator_kind):
    """G, b and the bound read off the two reduced environment operators
    equal the explicit stack build [h_k phi] on phi = U|psi> to 1e-12, on
    random states of the whole register (environment not in |0...0>).  The
    reference evolves psi by one dense exponential."""
    rng = np.random.default_rng(7 * n + len(generator_kind))
    model, h_hat = model_setup(n, 0.9, 1.3)
    labels = model.labels
    if generator_kind == "interleaved":
        labels = (SYSTEM, ENVIRONMENT, SYSTEM, ENVIRONMENT)
        h_hat = _interleaved_generator()
    dim = 2 ** len(labels)
    psi = StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim), labels)
    psi = psi.normalized()
    basis = getattr(EnvOperatorBasis, kind)(labels)
    tau = 0.6

    reference = dense_evolution_reference(h_hat, basis, psi, tau)
    assert_solver_matches_reference(h_hat, basis, psi, tau, reference, rng)


def random_qubitwise_generator(rng, labels, coefficient=None):
    """4 to 7 strings of weight 1 to 3 with random real coefficients (the
    first one ``coefficient`` when given) over one letter per qubit; the
    letters are X, Y and Z in random order on the system qubits and again
    on the environment qubits."""
    letters = {}
    for side in (SYSTEM, ENVIRONMENT):
        qubits = [p for p, l in enumerate(labels) if l is side]
        letters.update(zip(qubits, rng.permutation(list("XYZ"))))
    terms = []
    for k in range(rng.integers(4, 8)):
        support = rng.choice(len(labels), size=rng.integers(1, 4), replace=False)
        chosen = (letters[p] if p in support else "I" for p in range(len(labels)))
        factors = "".join(chosen)
        c = coefficient if k == 0 and coefficient is not None else rng.normal()
        terms.append(PauliTerm(c, factors))
    return OperatorSum(terms)


ORDERS = {
    "block": (SYSTEM,) * 3 + (ENVIRONMENT,) * 3,
    "interleaved": (SYSTEM, ENVIRONMENT) * 3,
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(4))
def test_eigenframe_matches_the_dense_reference_on_random_generators(seed, order):
    """Random qubit-wise commuting generators with X, Y and Z letters on
    system and environment qubits take the eigenframe, and their G, b,
    Var H_hat and bound equal the stack build on a densely evolved phi to
    1e-12, on random states of the whole register."""
    rng = np.random.default_rng(seed)
    labels = ORDERS[order]
    h_hat = random_qubitwise_generator(rng, labels)
    assert h_hat._frame is not None
    psi = StateVector(rng.normal(size=64) + 1j * rng.normal(size=64), labels)
    psi = psi.normalized()
    basis = EnvOperatorBasis.complete(labels)
    tau = float(rng.uniform(0.2, 1.5))
    reference = dense_evolution_reference(h_hat, basis, psi, tau)
    assert_solver_matches_reference(h_hat, basis, psi, tau, reference, rng)


def test_commuting_generator_without_an_eigenframe_is_refused(monkeypatch):
    """Z_S Z_E + X_S X_E on each of two pairs commutes but puts two letters
    on every qubit, so it has no eigenframe: the solver refuses it before
    any Pauli-string kernel runs, and its dense form as not a Pauli sum."""
    terms = [(0.7, "ZIZI"), (0.4, "XIXI"), (0.5, "IZIZ"), (0.3, "IXIX")]
    h_hat = OperatorSum([PauliTerm(c, f) for c, f in terms])
    assert h_hat.mutually_commuting and h_hat._frame is None

    def forbidden(*args, **kwargs):
        raise AssertionError("Pauli-string kernel called")

    monkeypatch.setattr(paulis, "_apply_string", forbidden)
    labels = (SYSTEM, SYSTEM, ENVIRONMENT, ENVIRONMENT)
    psi = tensor_state(plus_state(2), zero_environment(2))
    basis = EnvOperatorBasis.complete(labels)
    with pytest.raises(ValueError, match="one Pauli letter per qubit"):
        minimize_qfi_bound(h_hat, basis, psi, 0.8)
    with pytest.raises(TypeError, match="OperatorSum"):
        minimize_qfi_bound(to_dense(h_hat), basis, psi, 0.8)


@pytest.mark.parametrize("seed", range(3))
def test_eigenframe_refuses_a_non_hermitian_generator(seed):
    """A qubit-wise commuting sum with one complex coefficient has an
    eigenframe, and the solver still raises ``HermiticityError``."""
    rng = np.random.default_rng(seed)
    labels = ORDERS["block"]
    h_hat = random_qubitwise_generator(rng, labels, coefficient=0.5 + 0.25j)
    assert h_hat._frame is not None and not h_hat.hermitian
    psi = tensor_state(plus_state(3), zero_environment(3))
    with pytest.raises(HermiticityError):
        minimize_qfi_bound(h_hat, EnvOperatorBasis.complete(labels), psi, 0.5)


@pytest.mark.parametrize("n", range(1, 7))
def test_library_generators_have_an_eigenframe(n):
    """Every generator the library builds takes the solver's one path: the
    dephasing model at N = 1-6, and its two-pair form on the interleaved
    (S, E, S, E) register that ``verify`` runs."""
    model = build_dephasing_model(n, 0.9, 1.3)
    assert generator(model)._frame is not None
    if n == 2:
        interleaved = DilatedEvolution(
            (SYSTEM, ENVIRONMENT) * 2,
            [
                (rate, PauliTerm(1.0, "".join(p.factors[i] for i in (0, 2, 1, 3))))
                for rate, p in model.rotations
            ],
        )
        assert generator(interleaved)._frame is not None


def test_oracle_and_kraus_extraction_never_build_an_eigenframe(monkeypatch):
    """The SLD oracle and the Kraus extraction evolve columns by rotations,
    so with the frame builder raising they return the same values, while
    the solver, which uses the frame, fails."""
    model = build_dephasing_model(2, 0.9, 1.3)
    oracle = qfi_sld_oracle(model, ghz_state(2), 0.6)
    kraus = [k.matrix for k in kraus_from_dilation(model, 0.6).operators]

    def no_frame(op):
        raise AssertionError("eigenframe built")

    monkeypatch.setattr(paulis, "_qubitwise_frame", no_frame)
    model = build_dephasing_model(2, 0.9, 1.3)
    assert qfi_sld_oracle(model, ghz_state(2), 0.6) == oracle
    again = [k.matrix for k in kraus_from_dilation(model, 0.6).operators]
    assert all(np.array_equal(a, b) for a, b in zip(again, kraus, strict=True))
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    with pytest.raises(AssertionError, match="eigenframe built"):
        minimize_qfi_bound(generator(model), basis, ghz_input(2), 0.6)


def test_solves_with_the_same_environment_letters_share_one_table(monkeypatch):
    """Two solves on one basis with different rates, intervals and inputs,
    but generators with the same environment letters, build one conjugated
    product table between them."""
    gather, calls = qfi._env_gather, []
    monkeypatch.setattr(qfi, "_env_gather", lambda *a: calls.append(a) or gather(*a))
    basis = EnvOperatorBasis.single_qubit_paulis(ORDERS["block"])
    for omega0, gamma, tau, state, closed_form in (
        (0.9, 1.3, 0.4, ghz_input, qfi_ghz),
        (1.4, 0.6, 0.9, product_input, qfi_separable),
    ):
        _, h_hat = model_setup(3, omega0, gamma)
        sol = minimize_qfi_bound(h_hat, basis, state(3), tau)
        expected = closed_form(AnalyticParams(3, omega0, gamma, tau))
        assert sol.qfi == pytest.approx(expected, rel=1e-9)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["commuting"])
def test_evolved_frame_matches_heisenberg_picture(kind):
    """Gram matrix, cross covariances and bound built on phi = U|psi> with
    the plain basis equal the ones built on psi from the conjugated basis
    U^dag h_k U of ``conjugate_env_operator``, for the commuting Pauli sum
    of the dephasing model."""
    rng = np.random.default_rng(101)
    model, h_hat = model_setup(2, 0.9, 1.3)
    labels = model.labels
    amps = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    psi = StateVector(amps, labels).normalized()
    basis = EnvOperatorBasis.complete(labels)
    tau = 0.7

    heisenberg = np.stack(
        [
            _applied_vector(conjugate_env_operator(h, h_hat, tau), psi.amplitudes)
            for h in basis.elements
        ]
    )
    reference = stack_reference(
        psi.amplitudes, _applied_vector(h_hat, psi.amplitudes), heisenberg
    )
    assert_solver_matches_reference(h_hat, basis, psi, tau, reference, rng)


@pytest.mark.parametrize(
    "kind, n",
    [
        ("complete", 2),
        ("complete", 4),
        ("single_qubit_paulis", 4),
        ("single_qubit_paulis", 5),
        ("symmetric", 3),
        ("symmetric", 5),
    ],
)
def test_basis_stack_matches_element_by_element(kind, n):
    """Each basis element applied as one sum equals its terms applied one
    by one and added in term order, to the last bit; the symmetric elements
    are sums of several strings."""
    model, _ = model_setup(n, 1.0, 1.0)
    basis = getattr(EnvOperatorBasis, kind)(model.labels)
    rng = np.random.default_rng(n)
    phi = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
    for h in basis.elements:
        first, *rest = h.terms
        expected = _applied_vector(first, phi)
        for t in rest:
            expected = expected + _applied_vector(t, phi)
        assert np.array_equal(_applied_vector(h, phi), expected)


def test_solver_leaves_the_flip_kernel_to_large_registers(monkeypatch):
    """A per-qubit solve at N = 5 (10 qubits) evolves psi and applies H_hat
    in the generator's eigenframe, so it calls no rotation or flip kernel.
    A generator on 10 qubits that commutes but carries Z and X on every
    qubit (Z_S X_E + X_S Z_E per pair) has no eigenframe: it is refused
    before any kernel call."""

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    for name in ("_rotate", "_apply_string"):
        monkeypatch.setattr(paulis, name, forbidden(name))
    model, h_hat = model_setup(5, 1.0, 1.0)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    sol = minimize_qfi_bound(h_hat, basis, ghz_input(5), 0.5)
    assert sol.qfi == pytest.approx(qfi_ghz(AnalyticParams(5, 1.0, 1.0, 0.5)), rel=1e-9)
    swapped = [
        PauliTerm(c, "I" * i + a + "I" * 4 + b + "I" * (4 - i))
        for i in range(5)
        for c, a, b in ((0.5, "Z", "X"), (0.3, "X", "Z"))
    ]
    h_swapped = OperatorSum(swapped)
    assert h_swapped.mutually_commuting and h_swapped._frame is None
    with pytest.raises(ValueError, match="one Pauli letter per qubit"):
        minimize_qfi_bound(h_swapped, basis, ghz_input(5), 0.5)


@pytest.mark.parametrize(
    "kind, n, input_state",
    [
        ("complete", 2, ghz_input),
        ("complete", 3, product_input),
        ("single_qubit_paulis", 4, ghz_input),
        ("symmetric", 3, ghz_input),
    ],
)
def test_solver_equals_hermitian_svd_pseudo_inverse(kind, n, input_state):
    """The eigh-based solve returns the coefficients of the pseudo-inverse
    built from np.linalg.svd(gram, hermitian=True) to the last bit, also on
    rank-deficient Gram matrices, with the same rank and condition."""
    model, h_hat = model_setup(n, 1.0, 0.9)
    basis = getattr(EnvOperatorBasis, kind)(model.labels)
    psi = input_state(n)
    _, gram, cross = _normal_equations(h_hat, basis, psi, 0.5)
    u, s, vt = np.linalg.svd(gram, hermitian=True)
    kept = s > GRAM_CUTOFF * s[0]
    inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    coeff = -(vt.T @ (inv * (u.T @ cross)))
    sol = minimize_qfi_bound(h_hat, basis, psi, 0.5)
    assert np.array_equal(sol.coefficients, coeff)
    assert sol.rank == int(kept.sum())
    assert sol.gram_condition == s[0] / s[-1]


@pytest.mark.parametrize("generator_off", [False, True])
def test_minimize_rejects_state_on_wrong_register(generator_off):
    """A state off the basis's register is refused by the label check;
    with basis and state on one register, a generator on another is
    refused where the state is evolved."""
    model, h_hat = model_setup(2, 1.0, 1.0)
    labels, match = model.labels, "basis register does not match"
    if generator_off:
        labels = build_dephasing_model(1, 1.0, 1.0).labels
        match = "generator does not match the state register"
    basis = EnvOperatorBasis.single_qubit_paulis(labels)
    with pytest.raises(DimensionMismatchError, match=match):
        minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)


def test_minimize_rejects_non_hermitian_commuting_generator():
    """0.5i ZI + 0.5 ZX commutes term by term; the rotation path kept only
    the real parts of its coefficients and returned qfi = 2.0."""
    h_hat = OperatorSum([PauliTerm(0.5j, "ZI"), PauliTerm(0.5, "ZX")])
    assert h_hat.mutually_commuting and not h_hat.hermitian
    basis = EnvOperatorBasis.single_qubit_paulis((SYSTEM, ENVIRONMENT))
    with pytest.raises(HermiticityError):
        minimize_qfi_bound(h_hat, basis, product_input(1), 0.5)


def test_conjugation_rejects_non_hermitian_commuting_generator():
    """0.5i ZI + 0.5 ZX commutes term by term; the rotation path kept only
    the real parts of its coefficients and returned 0.878 IY - 0.479 ZZ."""
    h_hat = OperatorSum([PauliTerm(0.5j, "ZI"), PauliTerm(0.5, "ZX")])
    assert h_hat.mutually_commuting and not h_hat.hermitian
    with pytest.raises(HermiticityError):
        conjugate_env_operator(OperatorSum.from_term(1.0, "IY"), h_hat, 0.5)


def test_minimize_rejects_basis_for_another_register_order():
    """Two GHZ pairs on (S, E, S, E): the basis built for (S, S, E, E) has
    "environment" operators on the second system qubit and gave 2.000,
    below the channel QFI 4.113; the matching basis gives the bound 4.505."""
    block = build_dephasing_model(2, 1.0, 1.0)
    model = DilatedEvolution(
        (SYSTEM, ENVIRONMENT) * 2,
        [
            (rate, PauliTerm(1.0, "".join(p.factors[i] for i in (0, 2, 1, 3))))
            for rate, p in block.rotations
        ],
    )
    amps = np.zeros(16)
    amps[0b0000] = amps[0b1010] = 2**-0.5
    psi = StateVector(amps, model.labels)
    h_hat = generator(model)
    oracle = qfi_sld_oracle(model, ghz_state(2), 0.5)
    matching = EnvOperatorBasis.single_qubit_paulis(model.labels)
    assert minimize_qfi_bound(h_hat, matching, psi, 0.5).qfi >= oracle
    blocked = EnvOperatorBasis.single_qubit_paulis(block.labels)
    with pytest.raises(DimensionMismatchError, match="basis register"):
        minimize_qfi_bound(h_hat, blocked, psi, 0.5)


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


def test_params_check_every_n_of_an_array():
    """A bool, a non-finite or a fractional N is refused as a scalar and in
    an array alike: N = 2.5 once gave qfi_ghz 6.079, True 1.770 and nan a
    nan."""
    bad = (0, 2.5, True, np.True_, math.nan, math.inf, 10**400)
    arrays = [np.array([3.0, n]) for n in (0.0, 2.5, math.nan, math.inf)]
    for n in (*bad, *arrays, np.array([True, True])):
        with pytest.raises(ValueError, match="qubit"):
            AnalyticParams(n=n, omega0=1.0, gamma=1.0, tau=0.5)


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
    for n in (3, np.array([1.0, 3.0])):
        with pytest.raises(PoleProximityError):
            qfi_ghz(AnalyticParams(n=n, omega0=1.0, gamma=gamma, tau=tau))
        with pytest.raises(PoleProximityError):
            qfi_ratio_asymptote(AnalyticParams(n=n, omega0=1.0, gamma=1e-12, tau=0.5))


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


@pytest.mark.parametrize(
    "initial, match",
    [
        (DenseOperator([[1.0, 1.0], [1.0, 1.0]]), "trace"),
        (StateVector([1.0, 1.0], (SYSTEM,)), "normalized"),
        (DenseOperator([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (DenseOperator(np.diag([1.5, -0.5])), "eigenvalue"),
    ],
    ids=["twice-a-state", "unnormalized-vector", "non-hermitian", "negative"],
)
def test_oracle_rejects_inputs_that_are_not_states(initial, match):
    """Each of these used to return a number (3.540, 3.540, 0.250, 8e-34
    against 1.770 for |+><+|); a rank-deficient density matrix stays valid
    (``test_oracle_accepts_density_matrix_input``)."""
    model = build_dephasing_model(1, 1.0, 1.0)
    with pytest.raises(ValueError, match=match):
        qfi_sld_oracle(model, initial, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_oracle_matches_rank_two_formula_up_to_eight_pairs(n):
    """The exact derivative reaches the rank-2 closed form at rounding level,
    also at N = 7 and 8, where one evolved column of 2^16 amplitudes fits
    in the dense budget."""
    omega0, gamma, tau = 1.0, 1.0, 0.5
    model = build_dephasing_model(n, omega0, gamma)
    oracle = qfi_sld_oracle(model, ghz_state(n), tau)
    assert oracle == pytest.approx(true_ghz_qfi(n, omega0, gamma, tau), rel=1e-10)


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
    model = DilatedEvolution(
        (SYSTEM, ENVIRONMENT),
        ((1.0, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "XX"))),
    )
    with pytest.raises(ValueError, match="commuting"):
        qfi_sld_oracle(model, plus_state(1), 0.5)


def test_oracle_memory_on_a_pure_input_at_eight_pairs():
    """On a pure GHZ input at N = 8 the oracle's traced peak stays within
    6 evolved columns of 2^16 amplitudes (it read 11 with wrapped and
    stacked copies of every column)."""
    model = build_dephasing_model(8, 1.0, 0.9)
    ghz = ghz_state(8)
    column = 16 * 4**8
    tracemalloc.start()
    try:
        qfi_sld_oracle(model, ghz, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * column


def test_solver_memory_on_the_per_qubit_basis_at_eight_pairs():
    """A per-qubit solve at N = 8 (24 elements on 2^16 amplitudes), product
    table included, stays within 8 vectors of the register: it forms no
    k x 2^n stack of applied vectors, which alone took 24."""
    model, h_hat = model_setup(8, 1.0, 0.9)
    basis = EnvOperatorBasis.single_qubit_paulis(model.labels)
    psi = ghz_input(8)
    vector = 16 * 4**8
    tracemalloc.start()
    try:
        sol = minimize_qfi_bound(h_hat, basis, psi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.qfi == pytest.approx(qfi_ghz(AnalyticParams(8, 1.0, 0.9, 0.5)), rel=1e-9)
    assert peak <= 8 * vector


def test_oracle_dense_cap():
    """Evolved columns above 4^12 entries are refused before any is built:
    a mixed N = 9 input has 2^9 columns of 2^18, a pure N = 13 input one
    column of 2^26."""
    mixed = DenseOperator(np.eye(2**9) / 2**9)
    for n, initial in ((9, mixed), (13, plus_state(13))):
        with pytest.raises(DenseCapError):
            qfi_sld_oracle(build_dephasing_model(n, 1.0, 1.0), initial, 0.5)


# ---- zeno-time bounds ----


def test_zeno_bound_closed_system():
    p = AnalyticParams(n=1, omega0=1.0, gamma=0.0, tau=0.5)
    for m in (1, 25, 100):
        assert zeno_time(m, qfi_separable(p)) == pytest.approx(2.0 / math.sqrt(m), rel=1e-12)


def test_zeno_bound_frozen_value():
    p = AnalyticParams(n=1, omega0=1.0, gamma=1.0, tau=0.5)
    assert zeno_time(100, qfi_separable(p)) == pytest.approx(0.15032278716969957, rel=1e-12)
    assert abs(zeno_time(100, qfi_separable(p)) - 0.1503) < 1e-4


def test_zeno_bound_quadrupled_m_halves():
    p = AnalyticParams(n=3, omega0=1.0, gamma=0.7, tau=0.5)
    for qfi_family in (qfi_ghz, qfi_separable):
        one = zeno_time(50, qfi_family(p))
        four = zeno_time(200, qfi_family(p))
        assert four == pytest.approx(one / 2, rel=1e-12)


def test_zeno_bound_family_ratio_converges():
    gamma, tau = 1.0, 0.5
    c, s = math.cos(gamma * tau), math.sin(gamma * tau)
    const = math.sqrt((c**2 + gamma**2) / (gamma**2 + (c / s) ** 2))
    p = AnalyticParams(n=10**6, omega0=1.0, gamma=gamma, tau=tau)
    ratio = zeno_time(100, qfi_ghz(p)) / zeno_time(100, qfi_separable(p))
    assert ratio == pytest.approx(const, rel=1e-4)


def test_zeno_bound_asymptotic_variant():
    p = AnalyticParams(n=100, omega0=1.0, gamma=1.0, tau=0.5)
    exact = zeno_time(10, qfi_ghz(p))
    asym = zeno_time(10, qfi_ghz_large_n(p))
    large_n = 100 * (1.0 + 1.0 / math.tan(0.5) ** 2)  # N [Gamma^2 + omega0^2 cot^2]
    assert asym == pytest.approx(2.0 / math.sqrt(10 * large_n), rel=1e-12)
    assert abs(exact - asym) / asym < 0.02


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
