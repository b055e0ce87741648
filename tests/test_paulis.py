import itertools
import math

import numpy as np
import pytest

from zeno_qfi.dense import DenseOperator, hermitian_expm
from zeno_qfi.exceptions import (
    DenseCapError,
    DimensionMismatchError,
    HermiticityError,
)
from zeno_qfi.paulis import (
    IMAG_RESIDUE_TOL,
    OperatorSum,
    PauliTerm,
    _apply_string,
    _applied_vector,
    _flip_plan,
    _flipped,
    _rotate,
    _string_factor,
    apply_operator,
    pauli_product,
    pauli_rotation_apply,
    paulis_commute,
    to_dense,
    variance,
)
from zeno_qfi.qfi import EnvOperatorBasis, minimize_qfi_bound
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
from zeno_qfi.zeno import ZenoProjector, zeno_hamiltonian


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), (SYSTEM,) * n)


def random_operator(rng, n, hermitian):
    terms = []
    for _ in range(rng.integers(1, 5)):
        factors = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        coeff = rng.normal() if hermitian else rng.normal() + 1j * rng.normal()
        terms.append(PauliTerm(coeff, factors))
    return OperatorSum(terms)


# ---- products and commutation ----


@pytest.mark.parametrize(
    "a,b,phase,result",
    [
        ("X", "Y", 1j, "Z"),
        ("Y", "X", -1j, "Z"),
        ("Z", "Z", 1, "I"),
        ("I", "Y", 1, "Y"),
        ("XY", "YX", 1, "ZZ"),
    ],
)
def test_pauli_product_table(a, b, phase, result):
    got_phase, got = pauli_product(a, b)
    assert got == result
    assert got_phase == phase


def test_pauli_product_matches_matrices():
    """Every ordered pair of 2-qubit strings and 30 random pairs of 3-qubit
    strings: the product's phase and string, and both commutation checks,
    against the dense matrices."""
    rng = np.random.default_rng(3)
    pairs = list(itertools.product(map("".join, itertools.product("IXYZ", repeat=2)), repeat=2))
    for _ in range(30):
        f1 = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        f2 = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        pairs.append((f1, f2))
    assert len(pairs) == 256 + 30
    for f1, f2 in pairs:
        phase, prod = pauli_product(f1, f2)
        lhs = to_dense(PauliTerm(1.0, f1)).matrix @ to_dense(PauliTerm(1.0, f2)).matrix
        rhs = phase * to_dense(PauliTerm(1.0, prod)).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)
        commute = np.allclose(
            lhs, to_dense(PauliTerm(1.0, f2)).matrix @ to_dense(PauliTerm(1.0, f1)).matrix
        )
        assert paulis_commute(f1, f2) == commute
        pair_sum = OperatorSum([PauliTerm(1.0, f1), PauliTerm(1.0, f2)])
        assert pair_sum.mutually_commuting == commute


@pytest.mark.parametrize("check", [pauli_product, paulis_commute])
def test_strings_of_unequal_length_are_refused(check):
    with pytest.raises(DimensionMismatchError):
        check("XY", "XYZ")
    with pytest.raises(DimensionMismatchError):
        check("Z", "IZ")


# ---- apply_operator ----


def test_apply_z_on_zero():
    out = apply_operator(PauliTerm(1.0, "Z"), basis_state(0, (SYSTEM,)))
    np.testing.assert_allclose(out.amplitudes, [1, 0])


def test_apply_x_flips():
    out = apply_operator(PauliTerm(1.0, "X"), basis_state(0, (SYSTEM,)))
    np.testing.assert_allclose(out.amplitudes, [0, 1])


def test_apply_y_phases():
    out = apply_operator(PauliTerm(1.0, "Y"), basis_state(0, (SYSTEM,)))
    np.testing.assert_allclose(out.amplitudes, [0, 1j])
    out = apply_operator(PauliTerm(1.0, "Y"), basis_state(1, (SYSTEM,)))
    np.testing.assert_allclose(out.amplitudes, [-1j, 0])


def test_apply_z_sum_on_bell():
    # (Z1 + Z2) on (|00> + |11>)/sqrt(2): the even-parity branches add to
    # +-2, so amplitudes are (sqrt(2), 0, 0, -sqrt(2))
    op = OperatorSum([PauliTerm(1.0, "ZI"), PauliTerm(1.0, "IZ")])
    out = apply_operator(op, ghz_state(2))
    np.testing.assert_allclose(out.amplitudes, [2**0.5, 0, 0, -(2**0.5)], atol=1e-15)
    dense = to_dense(op).matrix @ ghz_state(2).amplitudes
    np.testing.assert_allclose(out.amplitudes, dense, atol=1e-14)


def test_apply_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_operator(PauliTerm(1.0, "ZZ"), basis_state(0, (SYSTEM,)))


def test_apply_matches_dense_on_random_pairs():
    """Axis-flipping application against the Kronecker matrix on >= 100
    random operator/state pairs over all register sizes up to 6."""
    rng = np.random.default_rng(11)
    checked = 0
    for n in range(1, 7):
        for _ in range(20):
            op = random_operator(rng, n, hermitian=bool(rng.integers(2)))
            state = random_state(rng, n)
            fast = apply_operator(op, state).amplitudes
            slow = to_dense(op).matrix @ state.amplitudes
            np.testing.assert_allclose(fast, slow, atol=1e-12)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_string_matches_dense_on_every_string(n):
    """The flip-and-negate kernel equals the Kronecker matrix on every
    Pauli string of n <= 3 qubits, with complex scales."""
    rng = np.random.default_rng(13 + n)
    v = random_state(rng, n).amplitudes
    strings = ["".join(chars) for chars in itertools.product("IXYZ", repeat=n)]
    scales = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
    for factors, scale in zip(strings, scales):
        slow = scale * (to_dense(PauliTerm(1.0, factors)).matrix @ v)
        fast = _apply_string(factors, v, scale)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-15, err_msg=factors)


@pytest.mark.parametrize("n", [2, 8, 9])
def test_applied_vector_equals_sequential_flip_sum(n):
    """A multi-term sum applied to a vector equals the flip kernel's
    term-by-term sum to the last bit."""
    rng = np.random.default_rng(29 + n)
    v = random_state(rng, n).amplitudes
    for _ in range(5):
        op = random_operator(rng, n, hermitian=False)
        op = OperatorSum(op.terms + random_operator(rng, n, hermitian=False).terms)
        assert len(op.terms) >= 2
        expected = _apply_string(op.terms[0].factors, v, op.terms[0].coefficient)
        for t in op.terms[1:]:
            expected += _apply_string(t.factors, v, t.coefficient)
        assert np.array_equal(_applied_vector(op, v), expected)


def test_applied_vector_of_empty_sum_is_zero():
    for n in (2, 9):
        v = random_state(np.random.default_rng(n), n).amplitudes
        out = _applied_vector(OperatorSum((), n_qubits=n), v)
        assert out.shape == v.shape and not out.any()


def test_mutually_commuting_flag():
    zi, zx, xx = (PauliTerm(1.0, f) for f in ("ZI", "ZX", "XX"))
    assert OperatorSum([zi, zx]).mutually_commuting
    assert not OperatorSum([zi, xx]).mutually_commuting


# ---- expectation and variance ----


def expectation(op, state: StateVector) -> float:
    """Real expectation value <psi|O|psi> of an OperatorSum with real
    coefficients.  An imaginary residue above 1e-10 raises."""
    if not op.hermitian:
        raise HermiticityError("expectation requires a Hermitian operator sum")
    value = complex(np.vdot(state.amplitudes, _applied_vector(op, state.amplitudes)))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise HermiticityError(f"imaginary residue {value.imag:.3e} exceeds tolerance")
    return float(value.real)



def test_expectation_trivials():
    assert expectation(OperatorSum.from_term(1.0, "Z"), plus_state(1)) == pytest.approx(
        0.0, abs=1e-14
    )
    assert expectation(
        OperatorSum.from_term(1.0, "Z"), basis_state(0, (SYSTEM,))
    ) == pytest.approx(1.0)


def test_expectation_ghz_z_sum_cancels():
    for n in (2, 3, 5):
        op = OperatorSum(
            [PauliTerm(1.0, "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
        )
        assert expectation(op, ghz_state(n)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_rejects_non_hermitian():
    op = OperatorSum([PauliTerm(1j, "Z")])
    with pytest.raises(HermiticityError):
        expectation(op, plus_state(1))


def test_variance_rejects_a_bare_term_with_a_complex_coefficient():
    """iZ has mean 0 on |+>, so only the coefficient check can catch it;
    a bare term is refused as the same term in a sum is."""
    for op in (PauliTerm(1j, "Z"), OperatorSum([PauliTerm(1j, "Z")])):
        with pytest.raises(HermiticityError):
            variance(op, plus_state(1))
    assert variance(PauliTerm(1.0, "Z"), plus_state(1)) == pytest.approx(1.0)


def test_variance_and_application_refuse_a_dense_matrix():
    """Operators on the register are Pauli sums: a DenseOperator is refused
    with a TypeError, not applied as a matrix."""
    dense = DenseOperator(np.diag([1.0, -1.0]))
    with pytest.raises(TypeError, match="PauliTerm or an OperatorSum"):
        variance(dense, plus_state(1))
    with pytest.raises(TypeError, match="PauliTerm or an OperatorSum"):
        apply_operator(dense, plus_state(1))


def test_variance_eigenstate_is_zero():
    assert variance(OperatorSum.from_term(1.0, "Z"), basis_state(0, (SYSTEM,))) == 0.0
    assert variance(OperatorSum.from_term(1.0, "X"), plus_state(1)) == 0.0


def test_variance_of_z_on_plus():
    assert variance(OperatorSum.from_term(1.0, "Z"), plus_state(1)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("omega0,gamma", [(1.0, 1.0), (0.7, 1.3)])
def test_variance_of_coupling_generator_on_ghz(n, omega0, gamma):
    """Var of sum_i (omega0 Z_i + gamma Z_i X_i)/2 on GHZ x |0...0> equals
    (N^2 omega0^2 + N gamma^2)/4."""
    width = 2 * n
    terms = []
    for i in range(n):
        z = "I" * i + "Z" + "I" * (width - i - 1)
        zx = list("I" * width)
        zx[i] = "Z"
        zx[n + i] = "X"
        terms.append(PauliTerm(omega0 / 2, z))
        terms.append(PauliTerm(gamma / 2, "".join(zx)))
    op = OperatorSum(terms)
    amps = np.zeros(2**width, dtype=complex)
    amps[0] = 2**-0.5
    amps[(2**n - 1) << n] = 2**-0.5  # |1...1>_S |0...0>_E
    state = StateVector(amps, (SYSTEM,) * width)
    expected = (n**2 * omega0**2 + n * gamma**2) / 4
    assert variance(op, state) == pytest.approx(expected, rel=1e-12)


def test_variance_nonnegative_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        op = random_operator(rng, n, hermitian=True)
        assert variance(op, random_state(rng, n)) >= 0.0


# ---- construction invariants ----


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_coefficient_is_refused(value):
    """A NaN coefficient used to be dropped by the sum as negligible
    (abs(nan) > 1e-15 is False), so 0.5 ZX + nan ZI became 0.5 ZX."""
    with pytest.raises(ValueError, match="must be finite"):
        PauliTerm(value, "ZI")
    with pytest.raises(ValueError, match="must be finite"):
        OperatorSum([PauliTerm(0.5, "ZX"), PauliTerm(value, "ZI")])


@pytest.mark.parametrize("factors", [["Z", "I"], ("Z", "I"), "", "ZA", " Z", b"ZI"])
def test_factors_that_are_not_a_pauli_string_are_refused(factors):
    """A list or a tuple of letters, bytes, an empty string and a string
    with a letter outside IXYZ are refused at construction, before any
    sum hashes or parses them."""
    with pytest.raises(ValueError, match="invalid Pauli factors"):
        PauliTerm(1.0, factors)


def test_operator_sum_merges_duplicates():
    op = OperatorSum([PauliTerm(0.5, "ZX"), PauliTerm(0.25, "ZX")])
    assert op.terms == (PauliTerm(0.75, "ZX"),)


def test_operator_sum_keeps_the_terms_it_does_not_merge():
    """A term whose string occurs once is kept as the same object; merged
    and pruned strings are not."""
    lone, twice = PauliTerm(0.5, "ZX"), PauliTerm(0.25, "IX")
    tiny = PauliTerm(1e-16, "XI")
    op = OperatorSum([twice, lone, tiny, PauliTerm(0.5, "IX")])
    assert [t.factors for t in op.terms] == ["IX", "ZX"]
    assert op.terms[1] is lone and op.terms[0] is not twice
    assert op.terms[0].coefficient == 0.75


def test_operator_sum_rejects_complex_hermitian_coefficients():
    """A 1 + 1e-6i coefficient makes a sum non-Hermitian, and every use that
    needs a Hermitian operator refuses it; the same sum with a real
    coefficient is accepted."""
    labels = (SYSTEM, ENVIRONMENT)
    psi = tensor_state(plus_state(1), zero_environment(1))
    basis = EnvOperatorBasis.single_qubit_paulis(labels)
    good = OperatorSum([PauliTerm(0.5, "ZI"), PauliTerm(0.5, "ZX")], n_qubits=2)
    assert good.hermitian
    assert variance(good, psi) == pytest.approx(0.5)
    bad = OperatorSum([PauliTerm(1.0 + 1e-6j, "ZI"), PauliTerm(0.5, "ZX")])
    assert not bad.hermitian
    with pytest.raises(HermiticityError):
        variance(bad, psi)
    with pytest.raises(HermiticityError):
        EnvOperatorBasis((OperatorSum([PauliTerm(1.0 + 1e-6j, "IX")]),), labels)
    with pytest.raises(HermiticityError):
        zeno_hamiltonian(bad, ZenoProjector(plus_state(1)), labels)
    with pytest.raises(HermiticityError):
        minimize_qfi_bound(bad, basis, psi, 0.5)


def test_hermitian_flag_is_read_off_the_merged_coefficients():
    """Over random sums, ``hermitian`` is True exactly when every merged
    coefficient is real to 1e-12, also when a complex term cancels against
    its negative."""
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 4))
        terms = []
        for _ in range(rng.integers(1, 5)):
            factors = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            imag = rng.choice([0.0, 1e-13, 1e-6, 1.0])
            terms.append(PauliTerm(rng.normal() + 1j * imag, factors))
        if rng.integers(2):
            factors = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            c = rng.normal() + 1j * rng.normal()
            terms += [PauliTerm(c, factors), PauliTerm(-c, factors)]
        merged = {}
        for t in terms:
            merged[t.factors] = merged.get(t.factors, 0.0) + t.coefficient
        expected = all(abs(c.imag) <= 1e-12 for c in merged.values())
        assert OperatorSum(terms).hermitian == expected, terms
        seen.add(expected)
    assert seen == {True, False}


def test_operator_sum_allows_tiny_imaginary_noise():
    op = OperatorSum([PauliTerm(1.0 + 1e-14j, "Z")])
    assert op.hermitian


# ---- to_dense ----


def test_to_dense_single_paulis():
    np.testing.assert_allclose(
        to_dense(PauliTerm(1.0, "Z")).matrix, np.diag([1.0, -1.0])
    )
    np.testing.assert_allclose(
        to_dense(PauliTerm(1.0, "X")).matrix, [[0, 1], [1, 0]]
    )


def test_to_dense_kron_structure():
    zx = to_dense(PauliTerm(1.0, "ZX")).matrix
    x = np.array([[0, 1], [1, 0]])
    np.testing.assert_allclose(zx[:2, :2], x)
    np.testing.assert_allclose(zx[2:, 2:], -x)
    np.testing.assert_allclose(zx[:2, 2:], 0)


def test_to_dense_cap():
    with pytest.raises(DenseCapError):
        to_dense(PauliTerm(1.0, "Z" * 13))


# ---- rotations ----


def test_rotation_zero_angle_is_identity():
    state = plus_state(2)
    out = pauli_rotation_apply(PauliTerm(1.0, "XY"), 0.0, state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_rotation_x_by_pi():
    out = pauli_rotation_apply(PauliTerm(1.0, "X"), np.pi, basis_state(0, (SYSTEM,)))
    np.testing.assert_allclose(out.amplitudes, [0, -1j], atol=1e-15)


def test_rotation_matches_expm_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(10):
        factors = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        if factors == "III":
            factors = "XIZ"
        theta = float(rng.uniform(0, 2 * np.pi))
        state = random_state(rng, 3)
        fast = pauli_rotation_apply(PauliTerm(1.0, factors), theta, state)
        gen = DenseOperator(to_dense(PauliTerm(0.5, factors)).matrix)
        slow = hermitian_expm(gen, theta).matrix @ state.amplitudes
        np.testing.assert_allclose(fast.amplitudes, slow, atol=1e-12)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(23)
    state = random_state(rng, 4)
    out = pauli_rotation_apply(PauliTerm(1.0, "XYZI"), 1.234, state)
    assert abs(out.norm - 1.0) < 1e-12


def test_rotation_requires_unit_coefficient():
    with pytest.raises(ValueError, match="unit"):
        pauli_rotation_apply(PauliTerm(2.0, "X"), 0.3, plus_state(1))


# ---- stacks along leading axes ----


@pytest.mark.parametrize("factors", ["X", "Y", "Z", "XYZ", "IZYX", "YYIZZ"])
def test_stacked_kernel_equals_a_per_row_loop(factors):
    """``_apply_string`` with a scale per row, ``_rotate`` with a theta per
    row and ``_applied_vector`` on a (rows, 2^n) stack equal a loop over the
    rows to the bit; on a (rows, columns, 2^n) stack, a theta per row is
    shared by the row's columns."""
    rng = np.random.default_rng(len(factors) + 7 * factors.count("Y"))
    n = len(factors)
    amps = rng.normal(size=(5, 2**n)) + 1j * rng.normal(size=(5, 2**n))
    scales = rng.normal(size=5) + 1j * rng.normal(size=5)
    thetas = rng.uniform(-7.0, 7.0, size=5)
    looped = [_apply_string(factors, a, complex(c)) for a, c in zip(amps, scales)]
    assert np.array_equal(_apply_string(factors, amps, scales), looped)
    looped = [_rotate(factors, float(t), a) for a, t in zip(amps, thetas)]
    assert np.array_equal(_rotate(factors, thetas, amps), looped)
    op = random_operator(rng, n, hermitian=False)
    assert np.array_equal(_applied_vector(op, amps), [_applied_vector(op, a) for a in amps])
    block = rng.normal(size=(5, 3, 2**n)) + 1j * rng.normal(size=(5, 3, 2**n))
    looped = [[_rotate(factors, float(t), a) for a in row] for row, t in zip(block, thetas)]
    assert np.array_equal(_rotate(factors, thetas[:, None], block), looped)


def negating_kernel(factors, amplitudes, factor):
    """The flip kernel as it was before its negations were folded into one
    sign: reverse the axes under X and Y, multiply by the factor times
    i^{n_Y}, then negate the half with bit 1 of each Z axis and the half
    with bit 0 of each Y axis, one half at a time."""
    n = len(factors)
    tensor = amplitudes.reshape(amplitudes.shape[:-1] + (2,) * n)
    flip = (Ellipsis, *(slice(None, None, -1) if ch in "XY" else slice(None) for ch in factors))
    result = tensor[flip] * (factor * 1j ** factors.count("Y"))
    for j, ch in enumerate(factors):
        if ch in "ZY":
            half = (Ellipsis, slice(1, 2) if ch == "Z" else slice(0, 1)) + (slice(None),) * (n - 1 - j)
            result[half] *= -1.0
    return result.reshape(amplitudes.shape)


@pytest.mark.parametrize("seed", range(6))
def test_flip_kernel_equals_the_per_half_negation_kernel(seed):
    """One multiply by the string's sign gives, to the bit, what negating
    one half-axis per Z or Y letter gave: on random strings of 1 to 7
    qubits, with no, one or two leading axes, and a scale that is a number
    or one per leading row."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        factors = "".join(rng.choice(list("IXYZ"), n))
        lead = tuple(int(k) for k in rng.integers(1, 4, int(rng.integers(0, 3))))
        amps = rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))
        if lead and rng.random() < 0.5:
            scale = rng.normal(size=lead) + 1j * rng.normal(size=lead)
            reference_factor = scale.reshape(lead + (1,) * n)
        else:
            scale = reference_factor = complex(rng.normal(), rng.normal())
        plan = _flip_plan(factors)
        got = _flipped(plan, amps, _string_factor(plan, scale))
        expected = negating_kernel(factors, amps, reference_factor)
        assert np.array_equal(got, expected), factors
        assert (plan.flip is None) == ("X" not in factors and "Y" not in factors)
        assert np.size(plan.sign) == 2 ** sum(ch in "ZY" for ch in factors)


def test_a_stack_of_one_row_equals_the_unstacked_call():
    """A one-row stack with its scale or theta in a one-value array gives
    the unstacked call's values to the bit."""
    rng = np.random.default_rng(5)
    v = random_state(rng, 3).amplitudes
    applied = _apply_string("XYZ", v[None], np.array([0.3 - 1j]))
    assert np.array_equal(applied[0], _apply_string("XYZ", v, 0.3 - 1j))
    rotated = _rotate("YZX", np.array([[1.3]]), v[None, None])
    assert np.array_equal(rotated[0, 0], _rotate("YZX", 1.3, v))
