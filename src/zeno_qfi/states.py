"""Labeled qubit registers and pure-state vectors.

Amplitude indexing is most-significant-bit first: qubit 0 of the label
sequence owns the highest bit of the basis index.  Registers combining the
two subsystems conventionally list all SYSTEM qubits before all ENVIRONMENT
qubits, which makes ``tensor_state`` a plain Kronecker product, but the
helpers below accept arbitrary label orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DimensionMismatchError

NORM_TOL = 1e-12


class Subsystem(Enum):
    SYSTEM = "system"
    ENVIRONMENT = "environment"


SYSTEM = Subsystem.SYSTEM
ENVIRONMENT = Subsystem.ENVIRONMENT


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of a labeled qubit register.

    Instances are immutable; the amplitude buffer is marked read-only.
    Plain construction does not normalize (operator application returns
    unnormalized vectors); use :meth:`normalized` or the module-level
    constructors for unit-norm states.
    """

    amplitudes: np.ndarray
    labels: tuple[Subsystem, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        labels = tuple(self.labels)
        if amps.ndim != 1:
            raise DimensionMismatchError("amplitudes must be one-dimensional")
        if not all(isinstance(l, Subsystem) for l in labels):
            raise TypeError("labels must be Subsystem members")
        if amps.size != 2 ** len(labels):
            raise DimensionMismatchError(
                f"{amps.size} amplitudes for {len(labels)} qubit labels"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm**2 - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < 1e-300:
            raise ValueError("cannot normalize a zero state vector")
        return StateVector(self.amplitudes / n, self.labels)


def basis_state(index: int, labels: tuple[Subsystem, ...]) -> StateVector:
    """Computational basis state |index> on the given register."""
    dim = 2 ** len(labels)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {len(labels)} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, labels)


def plus_state(n: int = 1, label: Subsystem = SYSTEM) -> StateVector:
    """Product state |+>^n, the uniform superposition."""
    if n < 1:
        raise ValueError("need at least one qubit")
    amps = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
    return StateVector(amps, (label,) * n)


def ghz_state(n: int, label: Subsystem = SYSTEM) -> StateVector:
    """Maximally entangled state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 2**-0.5
    return StateVector(amps, (label,) * n)


def zero_environment(n: int) -> StateVector:
    """Environment register initialized to |0...0>."""
    return basis_state(0, (ENVIRONMENT,) * n)


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two registers, ``a`` on the more significant bits.

    Both inputs must be normalized; the product is renormalized to absorb
    rounding drift.
    """
    for s in (a, b):
        if not s.is_normalized():
            raise ValueError("tensor_state requires normalized inputs")
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return StateVector(amps, a.labels + b.labels).normalized()


def _system_env_axes(labels: tuple[Subsystem, ...]) -> tuple[int, ...]:
    """Qubit positions of the system labels, then of the environment labels."""
    return tuple(sorted(range(len(labels)), key=lambda i: labels[i] is ENVIRONMENT))


def register_order(labels: tuple[Subsystem, ...]) -> np.ndarray:
    """Full-register index for each (system, environment) sub-index pair.

    ``register_order(labels)[(s << n_env) | e]`` is the basis index whose
    system bits spell ``s`` and environment bits spell ``e``.  For the
    conventional system-block-first layout this is the identity.
    """
    n = len(labels)
    indices = np.arange(2**n, dtype=np.int64).reshape((2,) * n)
    return indices.transpose(_system_env_axes(labels)).reshape(-1)


def _system_env_split(amps: np.ndarray, labels: tuple[Subsystem, ...]) -> np.ndarray:
    """The last axis of ``amps``, 2^n amplitudes of the register, split into
    (system_dim, environment_dim) axes: a view for the system-block-first
    layout, a copy otherwise."""
    n, lead = len(labels), amps.shape[:-1]
    d_s = 2 ** labels.count(SYSTEM)
    k = len(lead)
    axes = (*range(k), *(k + a for a in _system_env_axes(labels)))
    tensor = amps.reshape(lead + (2,) * n).transpose(axes)
    return tensor.reshape(lead + (d_s, 2**n // d_s))


def _system_env_join(split: np.ndarray, labels: tuple[Subsystem, ...]) -> np.ndarray:
    """Inverse of :func:`_system_env_split`: the last two axes, (system_dim,
    environment_dim), joined into 2^n amplitudes in register order; a view
    for the system-block-first layout of a contiguous array, else a copy."""
    n, lead = len(labels), split.shape[:-2]
    k = len(lead)
    inverse = sorted(range(n), key=_system_env_axes(labels).__getitem__)
    axes = (*range(k), *(k + a for a in inverse))
    tensor = split.reshape(lead + (2,) * n).transpose(axes)
    return tensor.reshape(lead + (2**n,))


def system_env_matrix(state: StateVector) -> np.ndarray:
    """Amplitudes reshaped to a (system_dim, environment_dim) matrix.

    The result is read-only for every label order: a view of the state's
    buffer for the system-block-first layout, a copy otherwise.
    """
    mat = _system_env_split(state.amplitudes, state.labels)
    mat.setflags(write=False)
    return mat


def from_system_env_matrix(
    mat: np.ndarray, labels: tuple[Subsystem, ...]
) -> StateVector:
    """Inverse of :func:`system_env_matrix` for the given register."""
    return StateVector(_system_env_join(np.asarray(mat), labels), labels)
