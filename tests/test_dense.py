import numpy as np
import pytest

from zeno_qfi.dense import (
    DenseOperator,
    hermitian_expm,
    partial_trace,
)
from zeno_qfi.exceptions import DimensionMismatchError, HermiticityError
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def series_expm(h, t, order=40):
    """Truncated Taylor series for exp(-i h t), the slow oracle."""
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ (-1j * t * h) / k
        acc = acc + term
    return acc


def loop_partial_trace_env(rho, n_sys, n_env):
    """Index-summation partial trace for block-ordered (S, E) registers."""
    d_s, d_e = 2**n_sys, 2**n_env
    out = np.zeros((d_s, d_s), dtype=complex)
    for s1 in range(d_s):
        for s2 in range(d_s):
            for e in range(d_e):
                out[s1, s2] += rho[s1 * d_e + e, s2 * d_e + e]
    return out


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---- hermitian_expm ----


def test_expm_at_zero_time():
    h = DenseOperator(PAULI["Z"])
    np.testing.assert_allclose(hermitian_expm(h, 0.0).matrix, np.eye(2), atol=1e-15)


def test_expm_z_by_pi_is_minus_identity():
    out = hermitian_expm(DenseOperator(PAULI["Z"]), np.pi)
    np.testing.assert_allclose(out.matrix, -np.eye(2), atol=1e-14)


def test_expm_against_series_oracle():
    rng = np.random.default_rng(2)
    for dim in (2, 4, 8):
        h = random_hermitian(rng, dim)
        t = float(rng.uniform(0, 1))
        fast = hermitian_expm(DenseOperator(h), t).matrix
        slow = series_expm(h, t)
        assert np.abs(fast - slow).max() <= 1e-10


def test_expm_output_is_unitary():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 8)
    u = hermitian_expm(DenseOperator(h), 2.7).matrix
    assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-10


def test_expm_rejects_non_hermitian():
    bad = DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermiticityError):
        hermitian_expm(bad, 1.0)


# ---- partial_trace ----


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    rho_s = random_density(rng, 4)
    env = np.zeros((2, 2), dtype=complex)
    env[0, 0] = 1.0
    full = DenseOperator(np.kron(rho_s, env))
    labels = (SYSTEM, SYSTEM, ENVIRONMENT)
    out = partial_trace(full, labels, SYSTEM)
    np.testing.assert_allclose(out.matrix, rho_s, atol=1e-14)


def test_partial_trace_bell_is_maximally_mixed():
    bell = ghz_state(2).amplitudes
    rho = DenseOperator(np.outer(bell, bell.conj()))
    out = partial_trace(rho, (SYSTEM, ENVIRONMENT), SYSTEM)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_evolved_plus_state():
    """Dephasing-coupling evolution of |+,0>: the reduced coherence has
    magnitude cos(gamma*tau)/2.  Oracle built from raw kron matrices and an
    index-summation trace."""
    omega0 = gamma = 1.0
    tau = 0.5
    h = omega0 * np.kron(PAULI["Z"], PAULI["I"]) / 2 + gamma * np.kron(
        PAULI["Z"], PAULI["X"]
    ) / 2
    u = series_expm(h, tau, order=60)
    psi0 = tensor_state(plus_state(1), zero_environment(1)).amplitudes
    evolved = u @ psi0
    rho_full = np.outer(evolved, evolved.conj())
    oracle = loop_partial_trace_env(rho_full, 1, 1)
    out = partial_trace(DenseOperator(rho_full), (SYSTEM, ENVIRONMENT), SYSTEM)
    np.testing.assert_allclose(out.matrix, oracle, atol=1e-12)
    assert abs(out.matrix[0, 1]) == pytest.approx(np.cos(gamma * tau) / 2, abs=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    labels = (SYSTEM, ENVIRONMENT, SYSTEM, ENVIRONMENT)
    rho = random_density(rng, 16)
    out = partial_trace(DenseOperator(rho), labels, SYSTEM)
    assert out.trace.real == pytest.approx(1.0, abs=1e-12)
    assert abs(out.trace.imag) < 1e-12
    assert out.is_hermitian(1e-10)
    assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


def test_partial_trace_keep_environment():
    rng = np.random.default_rng(21)
    rho_s = random_density(rng, 2)
    rho_e = random_density(rng, 2)
    full = DenseOperator(np.kron(rho_s, rho_e))
    out = partial_trace(full, (SYSTEM, ENVIRONMENT), ENVIRONMENT)
    np.testing.assert_allclose(out.matrix, rho_e, atol=1e-14)


def test_partial_trace_interleaved_labels():
    rng = np.random.default_rng(29)
    rho_s = random_density(rng, 2)
    rho_e = random_density(rng, 2)
    # register ordered (E, S): kron(rho_e, rho_s)
    full = DenseOperator(np.kron(rho_e, rho_s))
    out = partial_trace(full, (ENVIRONMENT, SYSTEM), SYSTEM)
    np.testing.assert_allclose(out.matrix, rho_s, atol=1e-14)


def test_partial_trace_then_tensor_identity():
    """Tracing the environment out of rho_S x |e><e| recovers rho_S for any
    pure environment state."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho_s = random_density(rng, 4)
        e = rng.normal(size=2) + 1j * rng.normal(size=2)
        e /= np.linalg.norm(e)
        full = DenseOperator(np.kron(rho_s, np.outer(e, e.conj())))
        out = partial_trace(full, (SYSTEM, SYSTEM, ENVIRONMENT), SYSTEM)
        np.testing.assert_allclose(out.matrix, rho_s, atol=1e-13)


def test_partial_trace_dimension_mismatch():
    rho = DenseOperator(np.eye(4) / 4)
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, (SYSTEM, ENVIRONMENT, ENVIRONMENT), SYSTEM)


def dense_apply(op: DenseOperator, state: StateVector) -> StateVector:
    """Matrix-vector product, returned as an (unnormalized) state."""
    if op.dim != state.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} does not match state dimension {state.dim}"
        )
    return StateVector(op.matrix @ state.amplitudes, state.labels)


def test_dense_apply_matches_matmul():
    rng = np.random.default_rng(37)
    mat = random_hermitian(rng, 4)
    state = StateVector(
        np.array([0.5, 0.5, 0.5, 0.5], dtype=complex), (SYSTEM, SYSTEM)
    )
    out = dense_apply(DenseOperator(mat), state)
    np.testing.assert_allclose(out.amplitudes, mat @ state.amplitudes)


def test_dense_operator_must_be_square():
    with pytest.raises(DimensionMismatchError):
        DenseOperator(np.zeros((2, 3)))
