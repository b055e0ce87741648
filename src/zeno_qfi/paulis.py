"""Pauli-string operators and their action on state vectors.

A string's algebra (products, commutation, supports and the solver's frame
conjugation) reads one representation, the symplectic (x, z) bit masks of
``_masks`` (Aaronson and Gottesman, PRA 70, 052328 (2004)): the string is
i^{n_Y} X^x Z^z, with qubit 0 on the highest bit.

Every Pauli string reaches a state vector through one flip kernel,
``_flipped``: seen as a (2,)*n tensor, the state's axes under X and Y are
reversed, one half of each axis under Z or Y is negated, and the whole is
scaled by i^{n_Y}.  Which axes and halves is the string's plan
(``_flip_plan``), read once where a string is applied many times.  It
costs O(2^n) per string with no index array, and carries registers past
the dense cap.  The amplitudes may carry leading axes, a stack of vectors
evolved in one pass, with a scale per leading row.  A sum is applied
string by string, each added in term order, and a rotation
exp(-i theta P / 2) is cos(theta/2) - i sin(theta/2) times the kernel's P.

A sum whose terms carry one letter per qubit (qubit-wise commuting, as
every generator the library builds is) also has an eigenframe,
``OperatorSum._frame``: a local Clifford, H on its X qubits and H S^dag on
its Y qubits, makes it diagonal, so its exponential and its action become
elementwise products there.  The variational solver evolves through it
and calls no Pauli-string kernel.
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
        if not self.factors or any(c not in PAULI_CHARS for c in self.factors):
            raise ValueError(f"invalid Pauli factors {self.factors!r}")

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
    coefficients dropped, and terms sorted by factor string.  Pauli strings
    are Hermitian, so ``hermitian`` is whether every merged coefficient is
    real, to ``HERMITICITY_TOL``.
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

        merged: dict[str, complex] = {}
        for t in terms:
            merged[t.factors] = merged.get(t.factors, 0.0) + t.coefficient
        canonical, hermitian = [], True
        for factors, c in sorted(merged.items()):
            if abs(c) > COEFF_PRUNE_TOL:
                canonical.append(PauliTerm(c, factors))
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
# Z negates the half of its axis with bit 1; Y the half with bit 0, because
# its flip has already moved bit 1 there.
_NEGATED_HALF = {"Z": slice(1, 2), "Y": slice(0, 1)}


class _FlipPlan(NamedTuple):
    """The index plan of a unit-coefficient Pauli string on the last n axes
    of a (..., 2, ..., 2) tensor: their shape (2,)*n, the axes the string
    reverses (under X and Y), the halves it negates (under Z and Y) and its
    phase i^{n_Y}."""

    tensor: tuple
    flip: tuple
    negated: tuple
    phase: complex


def _flip_plan(factors: str) -> _FlipPlan:
    n = len(factors)
    flip = (Ellipsis, *(_REVERSED if ch in "XY" else _ALL for ch in factors))
    negated = tuple(
        (Ellipsis, _NEGATED_HALF[ch]) + (_ALL,) * (n - 1 - j)
        for j, ch in enumerate(factors)
        if ch in _NEGATED_HALF
    )
    return _FlipPlan((2,) * n, flip, negated, 1j ** factors.count("Y"))


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
    the scale times the string's phase, a number or, for one scale per
    leading row, an array that broadcasts against the (2,)*n axes."""
    return _per_row(scale, len(plan.tensor)) * plan.phase


def _flipped(
    plan: _FlipPlan, amplitudes: np.ndarray, factor, out: np.ndarray | None = None
) -> np.ndarray:
    """The flip kernel: the planned string applied to the last axis of the
    amplitudes, (..., 2^n), by flipping and negating axes of the (2,)*n
    tensor, times ``factor`` (see ``_string_factor``), written into ``out``
    when given."""
    shape = amplitudes.shape[:-1] + plan.tensor
    target = None if out is None else out.reshape(shape)
    result = np.multiply(amplitudes.reshape(shape)[plan.flip], factor, out=target)
    for half in plan.negated:
        view = result[half]
        np.multiply(view, -1.0, out=view)
    return result.reshape(amplitudes.shape)


def _apply_string(
    factors: str, amplitudes: np.ndarray, scale, out: np.ndarray | None = None
) -> np.ndarray:
    """``scale`` times a unit-coefficient Pauli string applied to the last
    axis of the amplitudes, the scale a number or one per leading row."""
    plan = _flip_plan(factors)
    return _flipped(plan, amplitudes, _string_factor(plan, scale), out)


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
    """A qubit-wise commuting Pauli sum in the basis that diagonalises it.

    Every term carries the same letter on a qubit, ``letters[q]`` ("I"
    where no term acts).  The local Clifford C, H on the X qubits and
    H S^dag on the Y qubits, turns each term into a Z string, so C H C^dag
    is diagonal, with eigenvalues
    lambda[j] = sum_k c_k (-1)^{popcount(j & supp_k)} over the real parts
    of the coefficients.  ``windows`` hold C as (first qubit, Kronecker
    factor) pairs over runs of at most ``_FRAME_WINDOW`` qubits.
    ``components`` split lambda by connected sets of qubits (terms that
    share a qubit are connected), each shaped to broadcast over the
    register's (2,)*n axes: lambda is their Kronecker sum and
    exp(-i tau lambda) the Kronecker product of their exponentials.
    """

    letters: str
    windows: tuple[tuple[int, np.ndarray], ...]
    components: tuple[np.ndarray, ...]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """C H C^dag applied to amplitudes given in the frame, the last axis
        of ``amplitudes``: lambda times them, with lambda summed from its
        components on each call, so that no 2^n array outlives the call."""
        tensor = amplitudes.reshape(amplitudes.shape[:-1] + (2,) * len(self.letters))
        return (tensor * reduce(np.add, self.components)).reshape(amplitudes.shape)

    def evolved(self, amplitudes: np.ndarray, tau) -> np.ndarray:
        """C exp(-i tau H)|psi> = exp(-i tau lambda) * C|psi> for each
        vector along the last axis of ``amplitudes``, a new array: C as one
        matmul per window, the phase as the Kronecker product of the
        components' exponentials, applied in place.  ``tau`` is one interval
        or an array of them over the leading axes."""
        lead, n = amplitudes.shape[:-1], len(self.letters)
        out = amplitudes
        for lo, factor in self.windows:
            rows = out.reshape(lead + (2**lo, len(factor), -1))
            if rows.shape[-1] == 1:
                out = rows[..., 0] @ factor.T
            else:
                out = np.matmul(factor, rows)
        if out is amplitudes:
            out = amplitudes.copy()
        tau = np.reshape(tau, lead + (1,) * n)
        phase = reduce(
            np.multiply, (np.exp(-1j * tau * lam) for lam in self.components)
        )
        tensor = out.reshape(lead + (2,) * n)
        tensor *= phase
        return tensor.reshape(amplitudes.shape)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices by one broadcast product, without
    its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _qubitwise_frame(op: OperatorSum) -> _Eigenframe | None:
    """The eigenframe of a sum whose terms carry one letter per qubit, or
    None when two terms carry different letters on a qubit."""
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
    groups: dict[int, list[tuple[int, float]]] = {}
    for t, (xt, zt) in zip(op.terms, masks):
        mask, members = xt | zt, [(xt | zt, t.coefficient.real)]
        for other in [m for m in groups if m & mask]:
            mask |= other
            members += groups.pop(other)
        groups[mask] = members
    # A component's lambda sums, over its terms, the coefficient times
    # (1, -1) along each axis of the term's support, multiplied out.
    sign = np.array([1.0, -1.0])
    signs = [sign.reshape((1,) * q + (2,) + (1,) * (n - q - 1)) for q in range(n)]
    components = []
    for members in groups.values():
        lam = 0.0
        for support, c in members:
            axes = (signs[q] for q in range(n) if support >> (n - 1 - q) & 1)
            lam = lam + reduce(np.multiply, axes, c)
        components.append(lam)
    # A sum with no terms is the zero operator.
    components = components or [np.zeros((1,) * n)]
    return _Eigenframe(letters, tuple(windows), tuple(components))


def _as_sum(op) -> OperatorSum:
    """A PauliTerm as a one-term sum; an OperatorSum as it is."""
    if isinstance(op, PauliTerm):
        return OperatorSum((op,))
    if not isinstance(op, OperatorSum):
        raise TypeError(f"expected a PauliTerm or an OperatorSum, got {type(op).__name__}")
    return op


def _applied_vector(op, amplitudes: np.ndarray, out=None) -> np.ndarray:
    """Amplitudes of O|psi> for a PauliTerm or an OperatorSum, applied to
    the last axis of ``amplitudes`` and written into ``out`` when given,
    through the flip kernel: the first term is written into the output and
    each later one added to it in term order."""
    op = _as_sum(op)
    if 2**op.n_qubits != amplitudes.shape[-1]:
        raise DimensionMismatchError(
            f"operator on {op.n_qubits} qubits applied to {amplitudes.shape[-1]} amplitudes"
        )
    if out is None:
        out = np.empty(amplitudes.shape, dtype=np.complex128)
    if not op.terms:
        out[:] = 0.0
        return out
    first, *rest = op.terms
    _apply_string(first.factors, amplitudes, first.coefficient, out)
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
