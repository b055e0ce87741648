"""Pauli-string operators and their action on state vectors.

A string's algebra (products, commutation, supports and the solver's frame
conjugation) reads one representation, the symplectic (x, z) bit masks of
``_masks`` (Aaronson and Gottesman, PRA 70, 052328 (2004)): the string is
i^{n_Y} X^x Z^z, with qubit 0 on the highest bit.

Every Pauli string reaches a state vector through one flip kernel,
``_flipped``: seen as a (2,)*n tensor, the state's axes under X and Y are
reversed, and the whole is multiplied once by the string's sign, i^{n_Y}
times -1 on one half of each axis under Z or Y: a +-1 tensor over those
axes, exact to multiply by.  Which axes and which sign is the string's
plan (``_flip_plan``), read once where a string is applied many times.
It costs one multiply of O(2^n) per string with no index array, and
carries registers past the dense cap.  The amplitudes may carry leading
axes, a stack of vectors evolved in one pass, with a scale per leading
row.  A sum is applied string by string, each added in term order, and a
rotation exp(-i theta P / 2) is cos(theta/2) - i sin(theta/2) times the
kernel's P.

A sum whose terms carry one letter per qubit (qubit-wise commuting, as
every generator the library builds is) also has an eigenframe,
``OperatorSum._frame``: a local Clifford, H on its X qubits and H S^dag on
its Y qubits, makes it diagonal, so its exponential and its action become
elementwise products there.  The frame depends on the sum's strings only,
and takes the coefficients as an array with one row per sum, so every sum
with the same strings shares it.  The variational solver evolves through
it and calls no Pauli-string kernel.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .dense import DenseOperator, check_dense_budget
from .exceptions import DimensionMismatchError, HermiticityError
from .states import StateVector

PAULI_CHARS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

HERMITICITY_TOL = 1e-12
COEFF_PRUNE_TOL = 1e-15
IMAG_RESIDUE_TOL = 1e-10

_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# The letter of one qubit's (x, z) bits, indexed by x + 2 z.
_LETTERS = "IXZY"
_POWERS_OF_I = (1 + 0j, 1j, -1 + 0j, -1j)
# The one-qubit Clifford that turns a qubit's letter into Z:
# H X H = Z and (H S^dag) Y (H S^dag)^dag = Z.
_TO_Z = {
    "X": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / np.sqrt(2),
}
# A frame's Clifford is applied in Kronecker factors of at most this many
# qubits: one 16 x 16 matmul over the register per factor.
_FRAME_WINDOW = 4


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, e.g. 0.5 * Z x I x X (finite weight)."""

    coefficient: complex
    factors: str

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if not isfinite(self.coefficient):
            raise ValueError(f"Pauli coefficient must be finite, got {self.coefficient}")
        factors = self.factors
        if not isinstance(factors, str) or not factors or factors.strip(PAULI_CHARS):
            raise ValueError(f"invalid Pauli factors {factors!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)


def _masks(factors: str) -> tuple[int, int]:
    """The (x, z) bit masks of a Pauli string: the qubits under X or Y and
    those under Z or Y, qubit 0 on the highest bit.  The empty string has
    masks 0."""
    x, z = factors.translate(_X_BITS), factors.translate(_Z_BITS)
    return int(x or "0", 2), int(z or "0", 2)


def _string(x: int, z: int, n: int) -> str:
    """The n-qubit Pauli string with masks x, z (the inverse of ``_masks``)."""
    bits = (n - 1 - q for q in range(n))
    return "".join(_LETTERS[(x >> b & 1) + 2 * (z >> b & 1)] for b in bits)


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the strings with masks a and b commute: they anticommute on
    each qubit in x_a & z_b or in z_a & x_b, but not in both."""
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() % 2 == 0


def pauli_product(f1: str, f2: str) -> tuple[complex, str]:
    """Product of two Pauli strings as (phase, factors), f1 acting first on
    the left: result = f1 . f2.  With each string i^{n_Y} X^x Z^z, the
    product has masks x1 ^ x2, z1 ^ z2 and phase
    i^{n_Y1 + n_Y2 - n_Y + 2 |z1 & x2|}."""
    if len(f1) != len(f2):
        raise DimensionMismatchError("Pauli strings of unequal length")
    (x1, z1), (x2, z2) = _masks(f1), _masks(f2)
    x, z = x1 ^ x2, z1 ^ z2
    power = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x & z).bit_count()
    power += 2 * (z1 & x2).bit_count()
    return _POWERS_OF_I[power % 4], _string(x, z, len(f1))


def paulis_commute(f1: str, f2: str) -> bool:
    """Two Pauli strings commute iff they anticommute on an even number of
    qubit positions."""
    if len(f1) != len(f2):
        raise DimensionMismatchError("Pauli strings of unequal length")
    return _commute(_masks(f1), _masks(f2))


class OperatorSum:
    """Weighted sum of Pauli strings.

    Construction canonicalizes: duplicate strings are merged, negligible
    coefficients dropped, and terms sorted by factor string; a term whose
    string occurs once is kept as it is.  Pauli strings are Hermitian, so
    ``hermitian`` is whether every merged coefficient is real, to
    ``HERMITICITY_TOL``.
    """

    def __init__(self, terms, n_qubits: int | None = None):
        terms = tuple(terms)
        if terms:
            n = terms[0].n_qubits
            if any(t.n_qubits != n for t in terms):
                raise DimensionMismatchError("terms act on different register sizes")
        elif n_qubits is None:
            raise ValueError("empty OperatorSum needs an explicit n_qubits")
        else:
            n = n_qubits
        if n_qubits is not None and n_qubits != n:
            raise DimensionMismatchError("n_qubits does not match the terms")

        # Each string's summed coefficient, and its term while it is the
        # string's only one.
        merged: dict[str, tuple[complex, PauliTerm | None]] = {}
        for t in terms:
            prior = merged.get(t.factors)
            if prior is None:
                merged[t.factors] = (t.coefficient, t)
            else:
                merged[t.factors] = (prior[0] + t.coefficient, None)
        canonical, hermitian = [], True
        for factors, (c, term) in sorted(merged.items()):
            if abs(c) > COEFF_PRUNE_TOL:
                canonical.append(term or PauliTerm(c, factors))
                hermitian &= abs(c.imag) <= HERMITICITY_TOL
        self._terms = tuple(canonical)
        self._hermitian = hermitian
        self._n = n

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        return self._terms

    @property
    def hermitian(self) -> bool:
        """Whether every coefficient is real to ``HERMITICITY_TOL``."""
        return self._hermitian

    @property
    def n_qubits(self) -> int:
        return self._n

    @cached_property
    def mutually_commuting(self) -> bool:
        """Whether every pair of terms commutes."""
        pairs = combinations([_masks(t.factors) for t in self._terms], 2)
        return all(_commute(a, b) for a, b in pairs)

    @cached_property
    def _frame(self) -> "_Eigenframe | None":
        """The sum's eigenframe when it is qubit-wise commuting, else None."""
        return _qubitwise_frame(self)

    def __repr__(self):
        body = " + ".join(f"({t.coefficient:g})*{t.factors}" for t in self._terms)
        return f"OperatorSum[{body or '0'}]"

    @classmethod
    def from_term(cls, coefficient: complex, factors: str):
        return cls((PauliTerm(coefficient, factors),))


_ALL, _REVERSED = slice(None), slice(None, None, -1)


class _FlipPlan(NamedTuple):
    """The index plan of a unit-coefficient Pauli string on the last n axes
    of a (..., 2, ..., 2) tensor: their shape (2,)*n, the index that
    reverses the axes under X and Y (None when there are none), and the
    string's sign.  Z negates the half of its axis with bit 1; Y the half
    with bit 0, because its flip has moved bit 1 there, and carries a
    factor i.  So the sign is (-i)^{n_Y} (-1)^{popcount(b)} over the bits b
    of the k axes under Z or Y: a tensor of 2^k entries, 1 on every other
    axis (a number when k is 0)."""

    tensor: tuple
    flip: tuple | None
    sign: complex | np.ndarray


def _flip_plan(factors: str) -> _FlipPlan:
    n = len(factors)
    flip = None
    if "X" in factors or "Y" in factors:
        flip = (Ellipsis, *(_REVERSED if ch in "XY" else _ALL for ch in factors))
    sign = (-1j) ** factors.count("Y")
    shape = tuple(2 if ch in "ZY" else 1 for ch in factors)
    if 2 in shape:
        # Each Z or Y axis doubles the list: its second half, bit 1 on that
        # axis, takes the opposite sign.
        signs = [sign]
        for _ in range(shape.count(2)):
            signs += [-s for s in signs]
        sign = np.array(signs).reshape(shape)
    return _FlipPlan((2,) * n, flip, sign)


def _per_row(value, trailing: int):
    """A number as it is; an array of values over the leading axes, shaped
    to broadcast against ``trailing`` more axes.  An array of one value
    broadcasts as that value, so it is returned as a number, which numpy
    applies with less overhead."""
    if not isinstance(value, np.ndarray):
        return value
    if value.size == 1:
        return value.item()
    return value.reshape(value.shape + (1,) * trailing)


def _string_factor(plan: _FlipPlan, scale):
    """The factor ``_flipped`` takes for ``scale`` times the planned string:
    the scale times the string's sign, a number or an array that
    broadcasts against the (2,)*n axes, with a leading axis for one scale
    per leading row."""
    return _per_row(scale, len(plan.tensor)) * plan.sign


def _flipped(
    plan: _FlipPlan, amplitudes: np.ndarray, factor, out: np.ndarray | None = None
) -> np.ndarray:
    """The flip kernel: the planned string applied to the last axis of the
    amplitudes, (..., 2^n), by flipping axes of the (2,)*n tensor and one
    multiply by ``factor``, which holds the string's sign (see
    ``_string_factor``), written into ``out`` when given."""
    shape = amplitudes.shape[:-1] + plan.tensor
    target = None if out is None else out.reshape(shape)
    tensor = amplitudes.reshape(shape)
    if plan.flip is not None:
        tensor = tensor[plan.flip]
    return np.multiply(tensor, factor, out=target).reshape(amplitudes.shape)


def _apply_string(factors: str, amplitudes: np.ndarray, scale) -> np.ndarray:
    """``scale`` times a unit-coefficient Pauli string applied to the last
    axis of the amplitudes, the scale a number or one per leading row."""
    plan = _flip_plan(factors)
    return _flipped(plan, amplitudes, _string_factor(plan, scale))


def _rotations(plans, thetas) -> list:
    """Rotations exp(-i theta P / 2) = cos(theta/2) - i sin(theta/2) P, one
    per plan of P, as (plan, cos(theta/2), the flip factor of
    -i sin(theta/2)), shaped to broadcast.  Each theta is a number or an
    array of one value per leading row; all are taken through one call
    of each ufunc."""
    half = np.asarray(thetas, dtype=float) / 2.0
    cos, sin = np.cos(half), -1j * np.sin(half)
    return [
        (plan, _per_row(c, 1), _string_factor(plan, s)) for plan, c, s in zip(plans, cos, sin)
    ]


def _rotated_by(rotations, amplitudes: np.ndarray) -> np.ndarray:
    """The rotations of ``_rotations`` applied in order to the last axis of
    the amplitudes, using P^2 = I."""
    for plan, cos, factor in rotations:
        out = _flipped(plan, amplitudes, factor)
        out += cos * amplitudes
        amplitudes = out
    return amplitudes


def _rotate(factors: str, theta, amplitudes: np.ndarray) -> np.ndarray:
    """exp(-i theta P / 2) applied to the last axis of the amplitudes, theta
    a number or one per leading row."""
    return _rotated_by(_rotations([_flip_plan(factors)], [theta]), amplitudes)


@dataclass(frozen=True, eq=False)
class _Eigenframe:
    """The basis that diagonalises every qubit-wise commuting Pauli sum
    with one set of strings, whatever their coefficients.

    Every string carries the same letter on a qubit, ``letters[q]`` ("I"
    where no string acts).  The local Clifford C, H on the X qubits and
    H S^dag on the Y qubits, turns each string into a Z string, so C H C^dag
    is diagonal for a sum H of them, with eigenvalues
    lambda[j] = sum_k c_k (-1)^{popcount(j & supp_k)} over the real parts
    of the coefficients.  ``windows`` hold C as (first qubit, Kronecker
    factor) pairs over runs of at most ``_FRAME_WINDOW`` qubits.
    ``components`` split lambda by connected sets of qubits (strings that
    share a qubit are connected): each lists its strings as (term index,
    sign) pairs, the sign (-1)^{popcount(j & supp_k)} shaped to broadcast
    over the register's (2,)*n axes.  lambda is the Kronecker sum of the
    components and exp(-i tau lambda) the Kronecker product of their
    exponentials.  ``spectrum`` forms the components from one row of
    coefficients per sum, so one frame serves a stack of sums: ``rotated``
    takes each distinct input once, and each row then takes its own
    ``evolve`` and ``apply``.
    """

    letters: str
    windows: tuple[tuple[int, np.ndarray], ...]
    components: tuple[tuple[tuple[int, np.ndarray], ...], ...]

    def spectrum(self, coefficients: np.ndarray) -> tuple[np.ndarray, ...]:
        """lambda's components for each row of ``coefficients``, real parts
        (rows, terms) in term order: each shaped (rows,) and then to
        broadcast over the (2,)*n axes, summed over its strings in the
        order ``components`` lists them."""
        n = len(self.letters)
        c = coefficients.reshape(coefficients.shape + (1,) * n)
        spectrum = tuple(
            reduce(np.add, (c[:, k] * sign for k, sign in members))
            for members in self.components
        )
        # A sum with no terms is the zero operator.
        return spectrum or (np.zeros((len(coefficients),) + (1,) * n),)

    def rotated(self, amplitudes: np.ndarray) -> np.ndarray:
        """C|psi> for each vector along the last axis of ``amplitudes``, by
        one matmul per window: a new array, or the amplitudes themselves
        when C is the identity."""
        lead, out = amplitudes.shape[:-1], amplitudes
        for lo, factor in self.windows:
            rows = out.reshape(lead + (2**lo, len(factor), -1))
            if rows.shape[-1] == 1:
                out = rows[..., 0] @ factor.T
            else:
                out = np.matmul(factor, rows)
        return out.reshape(amplitudes.shape)

    def evolve(self, rotated: np.ndarray, tau, spectrum) -> None:
        """C exp(-i tau H)|psi> = exp(-i tau lambda) * C|psi>, in place on
        the rows C|psi> of ``rotated``, with ``tau`` one interval or one
        per row and the phase the Kronecker product of the components'
        exponentials."""
        lead, n = rotated.shape[:-1], len(self.letters)
        tau = np.reshape(tau, lead + (1,) * n)
        phase = reduce(np.multiply, (np.exp(-1j * tau * lam) for lam in spectrum))
        tensor = rotated.reshape(lead + (2,) * n)
        tensor *= phase

    def apply(self, amplitudes: np.ndarray, spectrum) -> np.ndarray:
        """C H C^dag applied to amplitudes given in the frame, the last axis
        of ``amplitudes``: lambda times them, with lambda summed from its
        components on each call, so that no 2^n array outlives the call."""
        tensor = amplitudes.reshape(amplitudes.shape[:-1] + (2,) * len(self.letters))
        return (tensor * reduce(np.add, spectrum)).reshape(amplitudes.shape)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices by one broadcast product, without
    its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _qubitwise_frame(op: OperatorSum) -> _Eigenframe | None:
    """The eigenframe of the strings of a sum whose terms carry one letter
    per qubit, or None when two terms carry different letters on a
    qubit."""
    n, masks = op.n_qubits, [_masks(t.factors) for t in op.terms]
    # The frame's letters are the union of the terms' masks, and a term
    # agrees with them when it is that union restricted to its support.
    x = reduce(int.__or__, (m[0] for m in masks), 0)
    z = reduce(int.__or__, (m[1] for m in masks), 0)
    if any((x & (xt | zt), z & (xt | zt)) != (xt, zt) for xt, zt in masks):
        return None
    letters = _string(x, z, n)
    windows, q = [], 0
    while q < n:
        if letters[q] in _TO_Z:
            run = letters[q : q + _FRAME_WINDOW]
            gates = (_TO_Z.get(ch, PAULI_MATRICES["I"]) for ch in run)
            windows.append((q, reduce(_kron, gates)))
            q += len(run)
        else:
            q += 1
    # Terms with overlapping supports share a component, keyed by the
    # union of their support masks.
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, (xt, zt) in enumerate(masks):
        mask, members = xt | zt, [(k, xt | zt)]
        for other in [m for m in groups if m & mask]:
            mask |= other
            members += groups.pop(other)
        groups[mask] = members
    # A term's sign is (1, -1) along each axis of its support, multiplied out.
    sign = np.array([1.0, -1.0])
    signs = [sign.reshape((1,) * q + (2,) + (1,) * (n - q - 1)) for q in range(n)]
    components = tuple(
        tuple(
            (k, reduce(np.multiply, (signs[q] for q in range(n) if support >> (n - 1 - q) & 1), 1.0))
            for k, support in members
        )
        for members in groups.values()
    )
    return _Eigenframe(letters, tuple(windows), components)


def _as_sum(op) -> OperatorSum:
    """A PauliTerm as a one-term sum; an OperatorSum as it is."""
    if isinstance(op, PauliTerm):
        return OperatorSum((op,))
    if not isinstance(op, OperatorSum):
        raise TypeError(f"expected a PauliTerm or an OperatorSum, got {type(op).__name__}")
    return op


def _applied_vector(op, amplitudes: np.ndarray) -> np.ndarray:
    """Amplitudes of O|psi> for a PauliTerm or an OperatorSum, applied to
    the last axis of ``amplitudes`` through the flip kernel: each term
    after the first is added to the first one's output, in term order."""
    op = _as_sum(op)
    if 2**op.n_qubits != amplitudes.shape[-1]:
        raise DimensionMismatchError(
            f"operator on {op.n_qubits} qubits applied to {amplitudes.shape[-1]} amplitudes"
        )
    if not op.terms:
        return np.zeros(amplitudes.shape, dtype=np.complex128)
    first, *rest = op.terms
    out = _apply_string(first.factors, amplitudes, first.coefficient)
    for t in rest:
        out += _apply_string(t.factors, amplitudes, t.coefficient)
    return out


def apply_operator(op, state: StateVector) -> StateVector:
    """Apply a PauliTerm or OperatorSum to a state (result unnormalized).

    Cost is O(terms * 2^n); no dense matrix is formed.
    """
    return StateVector(_applied_vector(op, state.amplitudes), state.labels)


def variance(op, state: StateVector) -> float:
    """Variance <O^2> - <O>^2 of a PauliTerm or an OperatorSum on a state,
    computed as |O psi|^2 - <O>^2.

    The squared-norm form is robust near eigenstates; values in
    [-1e-12, 0) are clamped to zero, anything lower raises.
    """
    op = _as_sum(op)
    if not op.hermitian:
        raise HermiticityError("variance requires a Hermitian operator sum")
    vec = _applied_vector(op, state.amplitudes)
    mean = complex(np.vdot(state.amplitudes, vec))
    if abs(mean.imag) > IMAG_RESIDUE_TOL:
        raise HermiticityError(f"imaginary residue {mean.imag:.3e} exceeds tolerance")
    second = float(np.vdot(vec, vec).real)
    var = second - mean.real**2
    if var < -1e-12:
        raise ValueError(f"variance {var:.3e} below numerical tolerance")
    return max(var, 0.0)


def to_dense(op) -> DenseOperator:
    """Dense matrix of a PauliTerm or OperatorSum (4^n entries, within the
    dense budget)."""
    op = _as_sum(op)
    check_dense_budget(4**op.n_qubits)
    dim = 2**op.n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for t in op.terms:
        mat += t.coefficient * reduce(
            np.kron, (PAULI_MATRICES[c] for c in t.factors)
        )
    return DenseOperator(mat)


def pauli_rotation_apply(
    pauli: PauliTerm, theta: float, state: StateVector
) -> StateVector:
    """Apply exp(-i theta P / 2) for a unit-coefficient Pauli string P.

    Uses P^2 = I, so the rotation is cos(theta/2) - i sin(theta/2) P,
    exactly unitary at any register size.
    """
    if abs(pauli.coefficient - 1.0) > 1e-12:
        raise ValueError("pauli_rotation_apply needs a unit-coefficient Pauli string")
    if pauli.n_qubits != state.n_qubits:
        raise DimensionMismatchError("rotation string does not match register size")
    return StateVector(_rotate(pauli.factors, theta, state.amplitudes), state.labels)
