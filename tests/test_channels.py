import numpy as np
import pytest

from zeno_qfi.channels import (
    DilatedEvolution,
    KrausSet,
    _evolved_amplitudes,
    _evolved_columns,
    _kraus_sets,
    _rotations_at,
    apply_channel,
    build_dephasing_model,
    evolve,
    generator,
    kraus_from_dilation,
)
from zeno_qfi.dense import DenseOperator, partial_trace
from zeno_qfi.exceptions import (
    DenseCapError,
    DimensionMismatchError,
    HermiticityError,
    TracePreservationError,
)
from zeno_qfi.paulis import OperatorSum, PauliTerm, to_dense
from zeno_qfi.states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    basis_state,
    ghz_state,
    plus_state,
    register_order,
    tensor_state,
    zero_environment,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(factors):
    out = PAULI[factors[0]]
    for ch in factors[1:]:
        out = np.kron(out, PAULI[ch])
    return out


def eigh_expm(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def dense_unitary(u, t):
    """Columns of U(t) via repeated evolution of basis states."""
    dim = 2**u.n_qubits
    cols = []
    for s in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[s] = 1.0
        cols.append(evolve(u, StateVector(amps, u.labels), t).amplitudes)
    return np.column_stack(cols)


def finite_difference_generator(u_of_t, h, residual_tol=1e-6):
    """Oracle: Hermitian generator of a unitary family from a central
    difference with one Richardson step, G = i (U(h) - U(-h)) / 2h + O(h^4).
    A non-Hermitian residue above ``residual_tol`` raises."""

    def estimate(step):
        return 1j * (u_of_t(step) - u_of_t(-step)) / (2.0 * step)

    gen = (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0
    residue = float(np.abs(gen - gen.conj().T).max())
    if residue > residual_tol:
        raise HermiticityError(
            f"finite-difference generator has non-Hermitian residue {residue:.3e}"
        )
    return (gen + gen.conj().T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---- model construction ----


def test_one_pair_model_structure():
    model = build_dephasing_model(1, 2.0, 0.7)
    assert model.labels == (SYSTEM, ENVIRONMENT)
    assert len(model.rotations) == 2
    rates = [(rate, p.factors) for rate, p in model.rotations]
    assert rates == [(2.0, "ZI"), (0.7, "ZX")]


def test_model_has_two_rotations_per_pair():
    model = build_dephasing_model(3, 1.0, 1.0)
    assert len(model.rotations) == 6
    assert model.labels == (SYSTEM,) * 3 + (ENVIRONMENT,) * 3


def test_model_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_dephasing_model(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_dephasing_model(1, np.inf, 0.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
def test_non_finite_rate_is_refused_by_the_dilation(rate):
    """A one-pair model whose Z rate is NaN used to be accepted: its
    generator came out as 0.5 ZX alone, the solver returned 1.0, and the
    SLD oracle and the exact survival returned 0.0, all silently."""
    rotations = [(rate, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "ZX"))]
    with pytest.raises(ValueError, match="rates must be finite"):
        DilatedEvolution((SYSTEM, ENVIRONMENT), rotations)
    with pytest.raises(ValueError, match="rates must be finite"):
        build_dephasing_model(1, rate, 1.0)
    with pytest.raises(ValueError, match="rates must be finite"):
        build_dephasing_model(1, 1.0, rate)


def test_decoupled_model_leaves_environment_alone():
    model = build_dephasing_model(1, 1.3, 0.0)
    state = tensor_state(plus_state(1), zero_environment(1))
    out = evolve(model, state, 0.9)
    rho = np.outer(out.amplitudes, out.amplitudes.conj())
    env = partial_trace(DenseOperator(rho), model.labels, ENVIRONMENT).matrix
    np.testing.assert_allclose(env, [[1, 0], [0, 0]], atol=1e-14)


def test_two_pair_model_matches_dense_generator_oracle():
    """N=2 at omega0=gamma=1, t=0.5 against exp(-iGt) built from raw kron
    matrices, G = sum (Z_i + Z_i X_i)/2."""
    model = build_dephasing_model(2, 1.0, 1.0)
    g = (
        kron_chain("ZIII") + kron_chain("IZII")
        + kron_chain("ZIXI") + kron_chain("IZIX")
    ) / 2
    state = tensor_state(plus_state(2), zero_environment(2))
    fast = evolve(model, state, 0.5).amplitudes
    slow = eigh_expm(g, 0.5) @ state.amplitudes
    np.testing.assert_allclose(fast, slow, atol=1e-12)


# ---- evolve ----


def test_evolve_at_zero_time_is_identity():
    model = build_dephasing_model(2, 1.0, 1.0)
    state = tensor_state(ghz_state(2), zero_environment(2))
    out = evolve(model, state, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_closed_system_pi_rotation_flips_plus():
    model = build_dephasing_model(1, 1.0, 0.0)
    state = tensor_state(plus_state(1), zero_environment(1))
    out = evolve(model, state, np.pi)
    minus = tensor_state(
        StateVector(np.array([1, -1]) / np.sqrt(2), (SYSTEM,)), zero_environment(1)
    )
    overlap = abs(np.vdot(minus.amplitudes, out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_survival_amplitude_against_dense_oracle():
    omega0, gamma, tau = 1.0, 1.0, 0.7
    model = build_dephasing_model(1, omega0, gamma)
    state = tensor_state(plus_state(1), zero_environment(1))
    u = dense_unitary(model, tau)
    amp = np.vdot(state.amplitudes, u @ state.amplitudes)
    expected = np.cos(omega0 * tau / 2) * np.cos(gamma * tau / 2)
    assert abs(amp) == pytest.approx(abs(expected), abs=1e-12)


def test_evolve_preserves_norm():
    rng = np.random.default_rng(41)
    model = build_dephasing_model(3, 1.1, 0.6)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    state = StateVector(amps / np.linalg.norm(amps), model.labels)
    out = evolve(model, state, 2.3)
    assert abs(out.norm - 1.0) < 1e-12


def test_evolve_register_mismatch():
    model = build_dephasing_model(1, 1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        evolve(model, plus_state(2), 0.1)


# ---- kraus extraction ----


def test_kraus_at_zero_time_is_identity():
    model = build_dephasing_model(1, 1.0, 1.0)
    kset = kraus_from_dilation(model, 0.0)
    assert len(kset.operators) == 1
    np.testing.assert_allclose(kset.operators[0].matrix, np.eye(2), atol=1e-14)


def test_one_qubit_kraus_forms():
    """Two operators: cos(gamma t/2) and sin(gamma t/2) weights times the
    same Z rotation (the second with an extra Z)."""
    omega0, gamma, t = 1.0, 1.0, 0.8
    kset = kraus_from_dilation(build_dephasing_model(1, omega0, gamma), t)
    assert len(kset.operators) == 2
    rz = np.diag([np.exp(-1j * omega0 * t / 2), np.exp(1j * omega0 * t / 2)])
    expected0 = np.cos(gamma * t / 2) * rz
    expected1 = -1j * np.sin(gamma * t / 2) * PAULI["Z"] @ rz
    np.testing.assert_allclose(kset.operators[0].matrix, expected0, atol=1e-12)
    np.testing.assert_allclose(kset.operators[1].matrix, expected1, atol=1e-12)


def test_closed_system_kraus_is_single_unitary():
    kset = kraus_from_dilation(build_dephasing_model(1, 1.0, 0.0), 0.7)
    assert len(kset.operators) == 1
    k = kset.operators[0].matrix
    assert np.abs(k @ k.conj().T - np.eye(2)).max() <= 1e-12


def test_kraus_completeness_residual():
    model = build_dephasing_model(2, 1.0, 0.8)
    for t in (0.1, 1.0, 3.0):
        kset = kraus_from_dilation(model, t)
        assert kset.completeness_residual <= 1e-10


def test_kraus_cap():
    """At N = 9 the 2^9 evolved columns of 2^18 amplitudes exceed 4^12
    entries, so extraction is refused before any column is built."""
    model = build_dephasing_model(9, 1.0, 1.0)
    with pytest.raises(DenseCapError):
        kraus_from_dilation(model, 0.5)


def test_kraus_set_rejects_incomplete_operators():
    half = DenseOperator(np.eye(2) * 0.5)
    with pytest.raises(TracePreservationError):
        KrausSet((half,), time=0.0)


# ---- channel application ----


def test_identity_kraus_leaves_state():
    rng = np.random.default_rng(43)
    kset = KrausSet((DenseOperator(np.eye(2)),), time=0.0)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(
        apply_channel(kset, DenseOperator(rho)).matrix, rho, atol=1e-14
    )


def test_channel_damps_coherence_by_cos():
    omega0, gamma = 1.0, 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    for t in (0.5, np.pi):
        kset = kraus_from_dilation(build_dephasing_model(1, omega0, gamma), t)
        out = apply_channel(kset, DenseOperator(plus)).matrix
        assert abs(out[0, 1]) == pytest.approx(abs(np.cos(gamma * t)) / 2, abs=1e-12)


def test_maximally_mixed_is_fixed_point():
    kset = kraus_from_dilation(build_dephasing_model(1, 1.0, 1.0), 1.3)
    out = apply_channel(kset, DenseOperator(np.eye(2) / 2))
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_channel_output_is_density_matrix():
    rng = np.random.default_rng(47)
    kset = kraus_from_dilation(build_dephasing_model(2, 1.0, 0.7), 0.9)
    rho = random_density(rng, 4)
    out = apply_channel(kset, DenseOperator(rho)).matrix
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out - out.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_channel_dimension_mismatch():
    kset = kraus_from_dilation(build_dephasing_model(1, 1.0, 1.0), 0.2)
    with pytest.raises(DimensionMismatchError):
        apply_channel(kset, DenseOperator(np.eye(4) / 4))


def test_kraus_matches_partial_trace_on_random_densities():
    """Operator-sum action against Tr_E(U rho x |0><0| U^dag) for 50 random
    density matrices and times."""
    rng = np.random.default_rng(53)
    model = build_dephasing_model(1, 1.0, 1.0)
    worst = 0.0
    for _ in range(50):
        rho = random_density(rng, 2)
        t = float(rng.uniform(1e-3, 2 * np.pi))
        via_kraus = apply_channel(kraus_from_dilation(model, t), DenseOperator(rho))
        u = dense_unitary(model, t)
        rho_full = np.zeros((4, 4), dtype=complex)
        rho_full[np.ix_([0, 2], [0, 2])] = rho
        via_trace = partial_trace(
            DenseOperator(u @ rho_full @ u.conj().T), model.labels, SYSTEM
        )
        worst = max(worst, np.abs(via_kraus.matrix - via_trace.matrix).max())
    assert worst <= 1e-10


def test_rewind_through_dense_inverse():
    """Evolving then applying the dense adjoint on the enlarged space must
    restore the initial pure state."""
    model = build_dephasing_model(2, 1.2, 0.9)
    state = tensor_state(ghz_state(2), zero_environment(2))
    t = 1.7
    evolved = evolve(model, state, t)
    u = dense_unitary(model, t)
    restored = u.conj().T @ evolved.amplitudes
    np.testing.assert_allclose(restored, state.amplitudes, atol=1e-12)


# ---- generator extraction ----


def test_generator_of_one_pair_model():
    gen = generator(build_dephasing_model(1, 1.0, 1.0))
    assert isinstance(gen, OperatorSum)
    assert gen.terms == (PauliTerm(0.5, "ZI"), PauliTerm(0.5, "ZX"))


def test_generator_term_by_term_at_larger_n():
    n = 3
    gen = generator(build_dephasing_model(n, 0.8, 1.1))
    width = 2 * n
    expected = []
    for i in range(n):
        z = "I" * i + "Z" + "I" * (width - i - 1)
        zx = list("I" * width)
        zx[i] = "Z"
        zx[n + i] = "X"
        expected += [PauliTerm(0.4, z), PauliTerm(0.55, "".join(zx))]
    assert gen.terms == tuple(sorted(expected, key=lambda t: t.factors))


def test_generator_rejects_non_commuting_rotations():
    """ZI then XX is not exp(-i G t) for G = (ZI + XX)/2, so no Pauli sum
    is returned."""
    model = DilatedEvolution(
        (SYSTEM, ENVIRONMENT),
        ((1.0, PauliTerm(1.0, "ZI")), (1.0, PauliTerm(1.0, "XX"))),
    )
    with pytest.raises(ValueError, match="commuting"):
        generator(model)
    # A cached property stores no exception: the second call raises too.
    with pytest.raises(ValueError, match="commuting"):
        generator(model)


def test_generator_is_built_once_per_evolution():
    """Every call on one evolution returns the same sum, so its eigenframe
    and commutation check are also computed once; another evolution with
    the same rotations gets its own."""
    model = build_dephasing_model(2, 0.8, 1.1)
    assert generator(model) is generator(model)
    assert generator(build_dephasing_model(2, 0.8, 1.1)) is not generator(model)


def test_generator_closed_system_limit():
    gen = generator(build_dephasing_model(1, 1.0, 0.0))
    assert gen.terms == (PauliTerm(0.5, "ZI"),)


def test_generator_dense_round_trip():
    """Finite-difference extraction from the evolved columns of U(t)
    recovers the dense form of the Pauli-sum generator to 1e-7."""
    model = build_dephasing_model(2, 0.9, 1.4)
    g = to_dense(generator(model)).matrix
    fastest = float(np.abs(np.linalg.eigvalsh(g)).max())
    estimated = finite_difference_generator(
        lambda t: dense_unitary(model, t), 1e-4 / fastest
    )
    assert np.abs(estimated - g).max() <= 1e-7


def test_finite_difference_rejects_non_unitary_family():
    rng = np.random.default_rng(61)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(HermiticityError, match="residue"):
        finite_difference_generator(lambda t: np.eye(4) + t * a, 1e-4)


# ---- stacked evolution ----


def stack_models():
    """A two-pair dephasing model in block order, the same rotations on an
    interleaved (S, E, S, E) register, and a list of X, Y and Z strings on
    an (E, S, S) register."""
    block = build_dephasing_model(2, 0.7, 1.3)
    interleaved = DilatedEvolution(
        (SYSTEM, ENVIRONMENT) * 2,
        [
            (rate, PauliTerm(1.0, "".join(p.factors[i] for i in (0, 2, 1, 3))))
            for rate, p in block.rotations
        ],
    )
    strings = (("XYZ", 0.9), ("YIY", -1.4), ("ZXI", 0.3))
    mixed = DilatedEvolution(
        (ENVIRONMENT, SYSTEM, SYSTEM), [(rate, PauliTerm(1.0, s)) for s, rate in strings]
    )
    return block, interleaved, mixed


@pytest.mark.parametrize("model", stack_models(), ids=["block", "interleaved", "mixed"])
def test_stacked_evolution_equals_per_row_evolve(model):
    """``_evolved_amplitudes`` on a (rows, 2^n) stack with a time per row,
    and on (rows, 2, 2^n) with the row's time shared by its pair, equals
    ``evolve`` row by row to the bit."""
    rng = np.random.default_rng(3)
    dim = 2**model.n_qubits
    amps = rng.normal(size=(4, 2, dim)) + 1j * rng.normal(size=(4, 2, dim))
    times = rng.uniform(-3.0, 3.0, size=4)

    def looped(row, t):
        return evolve(model, StateVector(row, model.labels), float(t)).amplitudes

    flat = _evolved_amplitudes(model, amps[:, 0], times)
    assert np.array_equal(flat, [looped(a, t) for a, t in zip(amps[:, 0], times)])
    paired = _evolved_amplitudes(model, amps, times[:, None])
    assert np.array_equal(paired, [[looped(a, t) for a in pair] for pair, t in zip(amps, times)])


@pytest.mark.parametrize("model", stack_models(), ids=["block", "interleaved", "mixed"])
def test_kraus_and_evolved_columns_equal_per_column_evolve(model):
    """Every column of ``_evolved_columns``, in one matrix and in a stack
    of matrices with a time per matrix, and every Kraus operator, equals
    ``evolve`` of f x |0...0>_E column by column to the bit."""
    rng = np.random.default_rng(8)
    n_sys = model.labels.count(SYSTEM)
    env0 = zero_environment(model.n_qubits - n_sys)
    d_sys = 2**n_sys
    # Index i of a system-first vector sits at register_order[i].
    to_register = np.argsort(register_order(model.labels))

    def column(s, t):
        first = tensor_state(basis_state(s, (SYSTEM,) * n_sys), env0).amplitudes
        return evolve(model, StateVector(first[to_register], model.labels), float(t)).amplitudes

    t = 0.8
    eye = _evolved_columns(model.labels, _rotations_at(model, t), np.eye(d_sys))
    assert np.array_equal(eye, [column(s, t) for s in range(d_sys)])
    times = rng.uniform(0.1, 2.0, size=3)
    stacked = np.stack([np.eye(d_sys)] * 3)
    evolved = _evolved_columns(model.labels, _rotations_at(model, times[:, None]), stacked)
    assert np.array_equal(evolved, [[column(s, r) for s in range(d_sys)] for r in times])
    # K_l[s', s] = <s', l| U |s, 0>, read from the columns in system-first
    # order.
    kraus = kraus_from_dilation(model, t)
    cols = np.array([column(s, t) for s in range(d_sys)])[:, register_order(model.labels)]
    blocks = cols.reshape(d_sys, d_sys, -1)
    expected = [blocks[:, :, l].T for l in range(blocks.shape[2])]
    expected = [k for k in expected if np.linalg.norm(k) >= 1e-12]
    assert len(kraus.operators) == len(expected)
    for op, k in zip(kraus.operators, expected):
        assert np.array_equal(op.matrix, k)


@pytest.mark.parametrize("model", [build_dephasing_model(1, 1.0, 1.0), *stack_models()])
def test_kraus_sets_equal_per_time_extraction(model):
    """The Kraus sets of a time array, evolved in one pass, equal one
    ``kraus_from_dilation`` call per time to the bit: the same operators,
    pruned alike, the same residual and time.  On the one-pair model
    gamma t = 2 pi leaves sin(gamma t / 2) at rounding, so K_1 is pruned at
    that time only."""
    times = [0.3, 2 * np.pi, -1.7, 0.0, 5.2]
    sets = _kraus_sets(model, np.array(times))
    assert len(sets) == len(times)
    for kraus, t in zip(sets, times, strict=True):
        one = kraus_from_dilation(model, t)
        assert (kraus.time, kraus.completeness_residual) == (one.time, one.completeness_residual)
        assert len(kraus.operators) == len(one.operators)
        for a, b in zip(kraus.operators, one.operators):
            assert np.array_equal(a.matrix, b.matrix)
    if model.n_qubits == 2:
        assert [len(k.operators) for k in sets] == [2, 1, 2, 1, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kraus_sets_refuse_a_non_finite_time_anywhere(bad):
    model = build_dephasing_model(1, 1.0, 1.0)
    for position in range(3):
        times = [0.2, 0.4, 0.6]
        times[position] = bad
        with pytest.raises(ValueError, match="must be finite"):
            _kraus_sets(model, np.array(times))
    with pytest.raises(ValueError, match="must be finite"):
        kraus_from_dilation(model, bad)
