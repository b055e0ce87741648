"""Repeated projective measurement: survival probabilities and Zeno times.

One measurement projects the system factor onto its initial pure state
while leaving the environment untouched.  The exact survival probability
after m rounds is evaluated by state-vector collapse (evolve, project,
record the squared norm, renormalize), which costs O(m 2^n) instead of the
O(2^3n) of dense operator powers and agrees with them on pure inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import DilatedEvolution, evolve
from .dense import DenseOperator
from .exceptions import DimensionMismatchError, HermiticityError
from .paulis import OperatorSum, PauliTerm, apply_operator, to_dense, variance
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    from_system_env_matrix,
    register_order,
    system_env_matrix,
    tensor_state,
)

MIN_SURVIVAL = 1e-14


@dataclass(frozen=True, eq=False)
class ZenoProjector:
    """Rank-one system projector |psi0><psi0| x I_env."""

    psi0: StateVector

    def __post_init__(self):
        if any(l is not SYSTEM for l in self.psi0.labels):
            raise ValueError("projector state must live on system qubits only")
        if not self.psi0.is_normalized():
            raise ValueError("projector state must be normalized")


@dataclass(frozen=True)
class ZenoSchedule:
    """m projective measurements separated by intervals of length tau."""

    m: int
    tau: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one measurement")
        if not self.tau > 0:
            raise ValueError("measurement interval must be positive")

    @property
    def total_time(self) -> float:
        return self.m * self.tau


def _project_system(
    state: StateVector, psi0: StateVector
) -> tuple[np.ndarray, float]:
    """Project onto |psi0>_S x (anything)_E by contracting system indices.

    Returns the projected (system, environment) matrix (unnormalized) and
    the squared norm captured by the projection.  No dense projector is
    built.
    """
    mat = system_env_matrix(state)
    if mat.shape[0] != psi0.dim:
        raise DimensionMismatchError("projector does not match the system register")
    env_vec = psi0.amplitudes.conj() @ mat
    weight = float(np.vdot(env_vec, env_vec).real)
    return np.outer(psi0.amplitudes, env_vec), weight


def survival_probability_exact(
    u: DilatedEvolution,
    projector: ZenoProjector,
    env0: StateVector,
    schedule: ZenoSchedule,
) -> float:
    """Probability that all m measurements find the system in psi0."""
    if any(l is not ENVIRONMENT for l in env0.labels):
        raise ValueError("environment state must live on environment qubits only")
    state = tensor_state(projector.psi0, env0)
    if state.labels != u.labels:
        raise DimensionMismatchError(
            "projector/environment register does not match the evolution"
        )
    probability = 1.0
    for _ in range(schedule.m):
        state = evolve(u, state, schedule.tau)
        projected, weight = _project_system(state, projector.psi0)
        # The captured weight is a probability; above 1 it is rounding.
        probability *= min(weight, 1.0)
        if probability <= 0.0 or weight < 1e-300:
            return 0.0
        state = from_system_env_matrix(projected / sqrt(weight), state.labels)
    return probability


def conditional_state(
    u: DilatedEvolution,
    projector: ZenoProjector,
    env0: StateVector,
    schedule: ZenoSchedule,
) -> DenseOperator:
    """System density matrix conditioned on surviving all m measurements.

    The last measurement projects the system onto psi0, so the conditioned
    system state is |psi0><psi0| whatever the dilation.  The survival
    probability is still computed, and must exceed 1e-14, so that an
    impossible conditioning raises ``ValueError``.
    """
    probability = survival_probability_exact(u, projector, env0, schedule)
    if probability <= MIN_SURVIVAL:
        raise ValueError(
            f"survival probability {probability:.3e} too small to condition on"
        )
    psi = projector.psi0.amplitudes
    return DenseOperator(np.outer(psi, psi.conj()))


def _dense_projector(
    psi0: StateVector, labels: tuple[Subsystem, ...]
) -> np.ndarray:
    """Dense |psi0><psi0| x I_env on a register with arbitrary label order."""
    d_env = 2 ** sum(1 for l in labels if l is ENVIRONMENT)
    embed = np.empty((2 ** len(labels), d_env), dtype=np.complex128)
    embed[register_order(labels)] = np.kron(psi0.amplitudes[:, None], np.eye(d_env))
    return embed @ embed.conj().T


def zeno_hamiltonian(
    h_se: OperatorSum,
    projector: ZenoProjector,
    labels: tuple[Subsystem, ...],
):
    """Effective generator H - M H M governing short-time survival decay.

    For a Pauli-sum H the filtered part M H M vanishes exactly when, for
    every environment string, the psi0-expectations of the attached system
    strings cancel; in that case H is returned unchanged (still a Pauli
    sum).  Otherwise the dense difference is formed, which requires the
    register to fit in the dense budget.
    """
    if not h_se.hermitian:
        raise HermiticityError("zeno_hamiltonian requires a Hermitian generator")
    sys_pos = [i for i, l in enumerate(labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
    if h_se.n_qubits != len(labels):
        raise DimensionMismatchError("generator does not match the register")
    if 2 ** len(sys_pos) != projector.psi0.dim:
        raise DimensionMismatchError("projector does not match the system register")

    filtered: dict[str, complex] = {}
    for term in h_se.terms:
        sys_string = "".join(term.factors[p] for p in sys_pos)
        env_string = "".join(term.factors[p] for p in env_pos)
        acted = apply_operator(PauliTerm(1.0, sys_string), projector.psi0)
        overlap = complex(np.vdot(projector.psi0.amplitudes, acted.amplitudes))
        filtered[env_string] = filtered.get(env_string, 0.0) + term.coefficient * overlap
    if all(abs(c) <= 1e-12 for c in filtered.values()):
        return h_se

    h = to_dense(h_se).matrix
    m = _dense_projector(projector.psi0, tuple(labels))
    return DenseOperator(h - m @ h @ m)


def survival_probability_quadratic(
    h_hat, psi0_full: StateVector, schedule: ZenoSchedule
) -> float:
    """Short-interval expansion 1 - m Var(H_hat) tau^2 of the survival
    probability.

    The value is returned as computed; it goes negative once tau leaves the
    expansion's validity range, and callers are expected to interpret that
    rather than receive a clamped number.
    """
    return 1.0 - schedule.m * variance(h_hat, psi0_full) * schedule.tau**2


def zeno_time(m: int, qfi_bound: float) -> float:
    """Interval scale 2 / sqrt(m * bound) below which measurement wins.

    ``qfi_bound`` is four times the generator variance (or any tighter
    channel-information bound).
    """
    if m < 1:
        raise ValueError("need at least one measurement")
    if not qfi_bound > 0:
        raise ValueError("information bound must be positive")
    return 2.0 / sqrt(m * qfi_bound)
