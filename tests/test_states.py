import itertools

import numpy as np
import pytest

from zeno_qfi.channels import DilatedEvolution, build_dephasing_model, evolve
from zeno_qfi.exceptions import DimensionMismatchError
from zeno_qfi.paulis import PauliTerm
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    basis_state,
    from_system_env_matrix,
    ghz_state,
    plus_state,
    register_order,
    system_env_matrix,
    tensor_state,
    zero_environment,
)

INV_SQRT2 = 2**-0.5


def test_tensor_basis_states():
    out = tensor_state(basis_state(0, (SYSTEM,)), basis_state(0, (ENVIRONMENT,)))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])
    assert out.labels == (SYSTEM, ENVIRONMENT)


def test_tensor_plus_with_zero():
    out = tensor_state(plus_state(1), zero_environment(1))
    np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])


def test_tensor_bell_with_environment():
    # (|00> + |11>)/sqrt(2) x |0> puts weight at indices 000 and 110
    out = tensor_state(ghz_state(2), zero_environment(1))
    expected = np.zeros(8)
    expected[0] = expected[6] = INV_SQRT2
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_tensor_state_equals_kron_to_the_last_bit():
    rng = np.random.default_rng(3)
    for n_a, n_b in ((1, 1), (2, 3), (4, 4)):
        a = StateVector(rng.normal(size=2**n_a) + 1j, (SYSTEM,) * n_a).normalized()
        b = StateVector(rng.normal(size=2**n_b) - 1j, (ENVIRONMENT,) * n_b).normalized()
        kron = StateVector(np.kron(a.amplitudes, b.amplitudes), a.labels + b.labels)
        got = tensor_state(a, b).amplitudes
        assert np.array_equal(got, kron.normalized().amplitudes)


def test_tensor_requires_normalized_inputs():
    crooked = StateVector([1.0, 1.0], (SYSTEM,))
    with pytest.raises(ValueError, match="normalized"):
        tensor_state(crooked, zero_environment(1))


def test_constructors_are_normalized():
    for state in (plus_state(3), ghz_state(4), zero_environment(2)):
        assert state.is_normalized()
        assert state.dim == 2**state.n_qubits


def test_amplitude_length_must_match_labels():
    with pytest.raises(DimensionMismatchError):
        StateVector([1.0, 0.0, 0.0], (SYSTEM, SYSTEM))


def test_amplitudes_are_read_only():
    state = plus_state(1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_normalized_rescales():
    state = StateVector([3.0, 4.0], (SYSTEM,)).normalized()
    np.testing.assert_allclose(state.amplitudes, [0.6, 0.8])


def test_register_order_identity_for_block_layout():
    labels = (SYSTEM, SYSTEM, ENVIRONMENT)
    np.testing.assert_array_equal(register_order(labels), np.arange(8))


def test_register_order_interleaved_layout():
    # qubit order (S, E): full index s*2 + e must map to itself; order for
    # (E, S) swaps the roles.
    labels = (ENVIRONMENT, SYSTEM)
    order = register_order(labels)
    # (s, e) pair index s*2 + e -> full index e*2 + s
    np.testing.assert_array_equal(order, [0, 2, 1, 3])


def bit_packed_register_order(labels):
    """Reference: register_order by packing the system and environment bits
    of every basis index, MSB first."""
    n = len(labels)
    idx = np.arange(2**n, dtype=np.int64)

    def subindex(positions):
        out = np.zeros_like(idx)
        for j, p in enumerate(positions):
            out |= ((idx >> (n - 1 - p)) & 1) << (len(positions) - 1 - j)
        return out

    sys_pos = [i for i, l in enumerate(labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
    order = np.empty(2**n, dtype=np.int64)
    order[(subindex(sys_pos) << len(env_pos)) | subindex(env_pos)] = idx
    return order


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_register_order_matches_bit_packing(n):
    for labels in itertools.product((SYSTEM, ENVIRONMENT), repeat=n):
        np.testing.assert_array_equal(
            register_order(labels), bit_packed_register_order(labels), err_msg=str(labels)
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_system_env_matrix_matches_bit_packing(n):
    """Both reshapes against the bit-packed order, for every label order
    (the inverse permutation differs from the forward one for most)."""
    rng = np.random.default_rng(n)
    for labels in itertools.product((SYSTEM, ENVIRONMENT), repeat=n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        n_sys = labels.count(SYSTEM)
        expected = amps[bit_packed_register_order(labels)].reshape(2**n_sys, -1)
        mat = system_env_matrix(StateVector(amps, labels))
        np.testing.assert_array_equal(mat, expected, err_msg=str(labels))
        back = from_system_env_matrix(expected, labels).amplitudes
        np.testing.assert_array_equal(back, amps, err_msg=str(labels))


def test_evolve_on_interleaved_register_matches_block_layout():
    """The dephasing model on (S, E, S, E) gives the block-layout state,
    read through register_order."""
    rng = np.random.default_rng(3)
    block = build_dephasing_model(2, 0.9, 1.3)
    # Block positions S0, S1, E0, E1 sit at interleaved positions 0, 2, 1, 3.
    where = (0, 2, 1, 3)
    rotations = []
    for rate, pauli in block.rotations:
        chars = ["I"] * 4
        for pos, ch in zip(where, pauli.factors):
            chars[pos] = ch
        rotations.append((rate, PauliTerm(1.0, "".join(chars))))
    labels = (SYSTEM, ENVIRONMENT, SYSTEM, ENVIRONMENT)
    interleaved = DilatedEvolution(labels, rotations)

    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    start = tensor_state(StateVector(psi, (SYSTEM,) * 2).normalized(), zero_environment(2))
    order = register_order(labels)
    amps = np.empty(16, dtype=complex)
    amps[order] = start.amplitudes
    out_block = evolve(block, start, 0.7)
    out_interleaved = evolve(interleaved, StateVector(amps, labels), 0.7)
    np.testing.assert_allclose(
        out_interleaved.amplitudes[order], out_block.amplitudes, rtol=0, atol=1e-15
    )


@pytest.mark.parametrize(
    "labels",
    [(SYSTEM, SYSTEM, ENVIRONMENT), (ENVIRONMENT, SYSTEM, ENVIRONMENT, SYSTEM)],
)
def test_system_env_matrix_is_read_only(labels):
    state = basis_state(1, labels)
    mat = system_env_matrix(state)
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0


def test_system_env_matrix_roundtrip():
    rng = np.random.default_rng(7)
    labels = (SYSTEM, ENVIRONMENT, SYSTEM, ENVIRONMENT)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(amps / np.linalg.norm(amps), labels)
    mat = system_env_matrix(state)
    assert mat.shape == (4, 4)
    back = from_system_env_matrix(mat, labels)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)


def test_system_env_matrix_contracts_correctly():
    # |s=1> x |e=0> on (S, E) labels: matrix has a single 1 at [1, 0]
    state = basis_state(2, (SYSTEM, ENVIRONMENT))
    mat = system_env_matrix(state)
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0
    np.testing.assert_allclose(mat, expected)
