"""Unitary dilations of noisy channels and Kraus extraction.

A dilation is a time-parameterized unitary on system + environment whose
partial trace over the environment (started in |0...0>) reproduces the
channel.  Two representations are supported: an ordered list of Pauli
rotations exp(-i rate t P / 2), which scales to large registers, and a
dense Hermitian generator G with U(t) = exp(-i G t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import (
    DENSE_QUBIT_CAP,
    DenseOperator,
    check_dense_cap,
    hermitian_expm,
)
from .exceptions import (
    DimensionMismatchError,
    HermiticityError,
    TracePreservationError,
)
from .paulis import OperatorSum, PauliTerm, pauli_rotation_apply
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    register_order,
    system_env_matrix,
)

COMPLETENESS_TOL = 1e-10
KRAUS_PRUNE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DilatedEvolution:
    """Time-parameterized unitary U(t) on a labeled register.

    Exactly one of ``rotations`` (ordered (rate, PauliTerm) pairs, applied
    first-to-last) or ``dense_generator`` must be given.  Both forms satisfy
    U(0) = identity by construction.
    """

    labels: tuple[Subsystem, ...]
    rotations: tuple[tuple[float, PauliTerm], ...] | None = None
    dense_generator: DenseOperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if (self.rotations is None) == (self.dense_generator is None):
            raise ValueError("specify exactly one of rotations or dense_generator")
        if self.rotations is not None:
            rots = tuple((float(r), p) for r, p in self.rotations)
            for _, p in rots:
                if p.n_qubits != n:
                    raise DimensionMismatchError("rotation string size mismatch")
                if abs(p.coefficient - 1.0) > 1e-12:
                    raise ValueError("rotation Pauli strings must have unit coefficient")
            object.__setattr__(self, "rotations", rots)
        else:
            if self.dense_generator.dim != 2**n:
                raise DimensionMismatchError("generator dimension mismatch")
            if not self.dense_generator.is_hermitian():
                raise HermiticityError("dense generator must be Hermitian")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @classmethod
    def from_rotations(cls, labels, rotations) -> "DilatedEvolution":
        return cls(labels=tuple(labels), rotations=tuple(rotations))

    @classmethod
    def from_generator(cls, labels, generator: DenseOperator) -> "DilatedEvolution":
        return cls(labels=tuple(labels), dense_generator=generator)


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
    if not (np.isfinite(omega0) and np.isfinite(gamma)):
        raise ValueError("rates must be finite")
    width = 2 * n
    rotations = []
    for i in range(n):
        z_i = "I" * i + "Z" + "I" * (width - i - 1)
        zx_i = list("I" * width)
        zx_i[i] = "Z"
        zx_i[n + i] = "X"
        rotations.append((omega0, PauliTerm(1.0, z_i)))
        rotations.append((gamma, PauliTerm(1.0, "".join(zx_i))))
    return DilatedEvolution.from_rotations((SYSTEM,) * n + (ENVIRONMENT,) * n, rotations)


def evolve(u: DilatedEvolution, state: StateVector, t: float) -> StateVector:
    """Apply U(t) to a state; norm is preserved to rounding."""
    if u.labels != state.labels:
        raise DimensionMismatchError("evolution register does not match the state")
    if u.rotations is not None:
        out = state
        for rate, pauli in u.rotations:
            out = pauli_rotation_apply(pauli, rate * t, out)
        return out
    unitary = hermitian_expm(u.dense_generator, t)
    return StateVector(unitary.matrix @ state.amplitudes, state.labels)


def _embedded_basis_indices(labels: tuple[Subsystem, ...]) -> np.ndarray:
    """Full-register index of |s>_S |0...0>_E for each system index s."""
    n_env = sum(1 for l in labels if l is ENVIRONMENT)
    d_sys = 2 ** sum(1 for l in labels if l is SYSTEM)
    order = register_order(labels)
    return order.reshape(d_sys, 2**n_env)[:, 0]


def _evolved_columns(
    u: DilatedEvolution, columns: np.ndarray, t: float
) -> list[StateVector]:
    """U(t) (f_k x |0...0>_E) for each column f_k of a system-space matrix."""
    embed = _embedded_basis_indices(u.labels)
    evolved = []
    for f in columns.T:
        amps = np.zeros(2**u.n_qubits, dtype=np.complex128)
        amps[embed] = f
        evolved.append(evolve(u, StateVector(amps, u.labels), t))
    return evolved


def kraus_from_dilation(
    u: DilatedEvolution, t: float, dense_cap: int = DENSE_QUBIT_CAP
) -> KrausSet:
    """Extract Kraus operators K_l = (I_S x <l|_E) U(t) (I_S x |0...0>_E).

    Operators are ordered by the environment outcome l; those with
    Frobenius norm below 1e-12 are pruned.  The register is enumerated
    densely, so it must fit under the cap.
    """
    check_dense_cap(u.n_qubits, dense_cap)
    d_sys = 2 ** sum(1 for l in u.labels if l is SYSTEM)
    # stacked[s, s', l] = <s', l| U |s, 0>
    stacked = np.stack(
        [system_env_matrix(v) for v in _evolved_columns(u, np.eye(d_sys), t)]
    )
    operators = []
    for l in range(stacked.shape[2]):
        mat = stacked[:, :, l].T
        if np.linalg.norm(mat) >= KRAUS_PRUNE_TOL:
            operators.append(DenseOperator(mat))
    return KrausSet(tuple(operators), time=float(t))


def apply_channel(kraus: KrausSet, rho: DenseOperator) -> DenseOperator:
    """Operator-sum action sum_l K_l rho K_l^dag on a system operator."""
    if rho.dim != kraus.dim:
        raise DimensionMismatchError("density matrix does not match the Kraus set")
    out = np.zeros_like(rho.matrix)
    for k in kraus.operators:
        out = out + k.matrix @ rho.matrix @ k.matrix.conj().T
    return DenseOperator(out)


def generator(u: DilatedEvolution):
    """Hermitian generator G with U(t) = exp(-i G t).

    Rotation-list dilations yield the exact Pauli sum of rate/2-weighted
    strings; dense dilations return the generator they hold.
    """
    if u.rotations is not None:
        terms = [PauliTerm(rate / 2.0, p.factors) for rate, p in u.rotations]
        return OperatorSum(terms, hermitian=True, n_qubits=u.n_qubits)
    return u.dense_generator
