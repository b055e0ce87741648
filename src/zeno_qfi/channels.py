"""Unitary dilations of noisy channels and Kraus extraction.

A dilation is a time-parameterized unitary on system + environment whose
partial trace over the environment (started in |0...0>) reproduces the
channel.  It is held as an ordered list of Pauli rotations
exp(-i rate t P / 2), which scales to large registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import NamedTuple

import numpy as np

from .dense import DenseOperator, check_dense_budget
from .exceptions import DimensionMismatchError, TracePreservationError
from .paulis import OperatorSum, PauliTerm, _flip_plan, _rotated_by, _rotations
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    _system_env_join,
    _system_env_split,
)

COMPLETENESS_TOL = 1e-10
KRAUS_PRUNE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DilatedEvolution:
    """Time-parameterized unitary U(t) on a labeled register.

    ``rotations`` are ordered (rate, PauliTerm) pairs, applied
    first-to-last; U(0) = identity by construction.  Every rate must be
    finite.
    """

    labels: tuple[Subsystem, ...]
    rotations: tuple[tuple[float, PauliTerm], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        rots = tuple((float(r), p) for r, p in self.rotations)
        if not all(isfinite(r) for r, _ in rots):
            raise ValueError("rates must be finite")
        for _, p in rots:
            if p.n_qubits != len(self.labels):
                raise DimensionMismatchError("rotation string size mismatch")
            if abs(p.coefficient - 1.0) > 1e-12:
                raise ValueError("rotation Pauli strings must have unit coefficient")
        object.__setattr__(self, "rotations", rots)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @cached_property
    def _plans(self) -> tuple:
        """The flip plan of each rotation string, read once (frozen)."""
        return tuple(_flip_plan(p.factors) for _, p in self.rotations)

    @cached_property
    def _pair_form(self) -> "_PairForm | None":
        """The rotation list's ``_PairForm`` or None, read once (frozen)."""
        return _read_pair_form(self)

    @cached_property
    def _generator(self) -> OperatorSum:
        """The generator of ``generator``, built once (frozen).  A rotation
        list that does not commute raises on every read: a cached property
        stores no exception."""
        terms = [PauliTerm(rate / 2.0, p.factors) for rate, p in self.rotations]
        gen = OperatorSum(terms, n_qubits=self.n_qubits)
        if not gen.mutually_commuting:
            raise ValueError("generator needs mutually commuting rotations")
        return gen


class _PairForm(NamedTuple):
    """What the closed-form survival reads off a rotation list in pair form
    (see ``zeno.survival_probability_exact``): ``theta[a]`` = omega_a +-
    gamma_a in long double, ``rows[a]`` = 2 for a coupled system qubit a
    and 1 for an uncoupled one, ``order`` the transpose from system order to
    environment order of the coupled b, and ``lone`` the uncoupled b."""

    theta: np.ndarray
    rows: tuple[int, ...]
    order: tuple[int, ...]
    lone: tuple[int, ...]


def _read_pair_form(u: DilatedEvolution) -> _PairForm | None:
    """The pair form of a rotation list, or None for any other list
    (parities, Y, two partners): the library builds none of them.  A
    string with no system Z is a phase on the filtered kernel, gone from
    the survival."""
    rank = [u.labels[:j].count(label) for j, label in enumerate(u.labels)]
    n_sys = u.labels.count(SYSTEM)
    omega, gamma, partner = [0.0] * n_sys, [0.0] * n_sys, [None] * n_sys
    for rate, pauli in u.rotations:
        a = b = None
        for label, i, c in zip(u.labels, rank, pauli.factors):
            if c == "I":
                continue
            if c == "Z" and label is SYSTEM and a is None:
                a = i
            elif c == "X" and label is ENVIRONMENT and b is None:
                b = i
            else:
                return None
        if a is None:
            continue
        if b is None:
            omega[a] += rate
        elif partner[a] == b or (partner[a] is None and b not in partner):
            partner[a], gamma[a] = b, gamma[a] + rate
        else:
            return None
    pairs = [b for b in partner if b is not None]
    theta = np.array(omega, np.longdouble)[:, None] + np.multiply.outer(gamma, [1, -1])
    theta.flags.writeable = False  # shared by every call on this evolution
    rows = tuple(1 if b is None else 2 for b in partner)
    lone = tuple(b for b in range(u.labels.count(ENVIRONMENT)) if b not in pairs)
    return _PairForm(theta, rows, tuple(int(j) for j in np.argsort(pairs)), lone)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Finite set of system-space Kraus operators at a fixed time.

    The completeness residual max|sum K^dag K - I| is computed on
    construction and must stay below 1e-10.
    """

    operators: tuple[DenseOperator, ...]
    time: float
    completeness_residual: float = field(init=False)

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        dim = ops[0].dim
        if any(k.dim != dim for k in ops):
            raise DimensionMismatchError("Kraus operators of unequal dimension")
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for k in ops:
            acc += k.matrix.conj().T @ k.matrix
        residual = float(np.abs(acc - np.eye(dim)).max())
        if residual > COMPLETENESS_TOL:
            raise TracePreservationError(
                f"Kraus completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}"
            )
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "completeness_residual", residual)

    @property
    def dim(self) -> int:
        return self.operators[0].dim


def build_dephasing_model(n: int, omega0: float, gamma: float) -> DilatedEvolution:
    """Dilation with N system qubits each dephasing-coupled to one
    environment qubit (system block first, then environment block).

    Per pair the evolution is a local Z rotation at rate ``omega0`` followed
    by a ZX coupling at rate ``gamma``; all 2N rotation terms commute, so the
    ordering is immaterial.
    """
    if n < 1:
        raise ValueError("need at least one qubit pair")
    width = 2 * n
    rotations = []
    for i in range(n):
        z_i = "I" * i + "Z" + "I" * (width - i - 1)
        zx_i = list("I" * width)
        zx_i[i] = "Z"
        zx_i[n + i] = "X"
        rotations.append((omega0, PauliTerm(1.0, z_i)))
        rotations.append((gamma, PauliTerm(1.0, "".join(zx_i))))
    return DilatedEvolution((SYSTEM,) * n + (ENVIRONMENT,) * n, rotations)


def _check_time(t: float) -> None:
    """Any real time is an evolution time; an infinite or NaN one raises."""
    if not isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")


def evolve(u: DilatedEvolution, state: StateVector, t: float) -> StateVector:
    """Apply U(t) to a state; norm is preserved to rounding."""
    _check_time(t)
    if u.labels != state.labels:
        raise DimensionMismatchError("evolution register does not match the state")
    return StateVector(_evolved_amplitudes(u, state.amplitudes, t), state.labels)


def _rotations_at(u: DilatedEvolution, t) -> list:
    """The rotation list of ``u`` at time t, as ``paulis._rotations``."""
    return _rotations(u._plans, [rate * t for rate, _ in u.rotations])


def _evolved_amplitudes(u: DilatedEvolution, amps: np.ndarray, t) -> np.ndarray:
    """U(t) applied to the last axis of raw amplitudes, (..., 2^n), with t
    a number or an array of one time per leading row.  ``DilatedEvolution``
    has checked the size and unit coefficient of every rotation, so the
    kernel runs directly."""
    return _rotated_by(_rotations_at(u, t), amps)


def _evolved_columns(labels, rotations, columns: np.ndarray) -> np.ndarray:
    """Row k is the rotations applied to f_k x |0...0>_E for column f_k of
    a system-space matrix, for each matrix of a stack ``columns`` shaped
    (..., d_S, K): every row of the stack evolved in one pass, with the
    rotations' angles one per leading row where they are arrays.

    The rows of one matrix hold K x 2^n amplitudes, which must fit in the
    dense budget.
    """
    n, (d_sys, k) = len(labels), columns.shape[-2:]
    check_dense_budget(k * 2**n)
    split = np.zeros(columns.shape[:-2] + (k, d_sys, 2**n // d_sys), np.complex128)
    split[..., 0] = np.swapaxes(columns, -1, -2)
    # A view of ``split`` for the system-block-first layout, a copy otherwise.
    return _rotated_by(rotations, _system_env_join(split, labels))


def _kraus_sets(u: DilatedEvolution, times) -> list[KrausSet]:
    """The Kraus set of ``kraus_from_dilation`` at each time of a 1-D
    array: the identity columns are evolved for every time in one
    ``_evolved_columns`` pass, with one angle per time, and each time's
    operators are read off and pruned as there.  A non-finite time
    anywhere in the array raises before any is evolved."""
    times = np.asarray(times, dtype=float)
    values = times.tolist()
    for t in values:
        _check_time(t)
    d_sys = 2 ** u.labels.count(SYSTEM)
    identity = np.zeros((len(values), d_sys * d_sys))
    identity[:, :: d_sys + 1] = 1.0
    evolved = _evolved_columns(
        u.labels, _rotations_at(u, times[:, None]), identity.reshape(-1, d_sys, d_sys)
    )
    # stacked[r, s, s', l] = <s', l| U(t_r) |s, 0>
    stacked = _system_env_split(evolved, u.labels)
    sets = []
    for t, columns in zip(values, stacked):
        # K_l = columns[:, :, l].T, for each outcome l in turn.
        operators = tuple(
            DenseOperator(mat)
            for mat in columns.transpose(2, 1, 0)
            if np.linalg.norm(mat) >= KRAUS_PRUNE_TOL
        )
        sets.append(KrausSet(operators, time=t))
    return sets


def kraus_from_dilation(u: DilatedEvolution, t: float) -> KrausSet:
    """Extract Kraus operators K_l = (I_S x <l|_E) U(t) (I_S x |0...0>_E).

    Operators are ordered by the environment outcome l; those with
    Frobenius norm below 1e-12 are pruned.  One column is evolved per
    system basis state, so d_S x 2^n amplitudes must fit in the dense
    budget.  This is the one-time case of ``_kraus_sets``.
    """
    return _kraus_sets(u, [t])[0]


def apply_channel(kraus: KrausSet, rho: DenseOperator) -> DenseOperator:
    """Operator-sum action sum_l K_l rho K_l^dag on a system operator."""
    if rho.dim != kraus.dim:
        raise DimensionMismatchError("density matrix does not match the Kraus set")
    out = np.zeros_like(rho.matrix)
    for k in kraus.operators:
        out = out + k.matrix @ rho.matrix @ k.matrix.conj().T
    return DenseOperator(out)


def generator(u: DilatedEvolution) -> OperatorSum:
    """Hermitian generator G with U(t) = exp(-i G t), as the exact Pauli
    sum of rate/2-weighted strings, built once per evolution.

    A rotation list whose strings do not all commute raises ``ValueError``:
    its ordered product is not exp(-i G t) for any such sum.
    """
    return u._generator
