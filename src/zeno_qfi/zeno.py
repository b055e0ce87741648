"""Repeated projective measurement: survival probabilities and Zeno times.

One measurement projects the system factor onto its initial pure state
psi0 while leaving the environment untouched.  Every round therefore starts
from psi0, and m rounds act on the environment through one filtered
operator K = (<psi0| x I) U(tau) (|psi0> x I), with survival
P_m = |K^m env0|^2.

``survival_probability_exact`` picks its path from the rotation list:

- When every rotation string is I/Z on the system qubits and I/X on the
  environment qubits (the dephasing-coupling model, in any label order),
  U is diagonal in |s>_S |x>_E, with x the environment's X basis.  Then
  K is diagonal too and P_m has a closed form (see the function), at the
  cost of one state vector.
- Any other rotation list runs the collapse loop ``_survival_by_collapse``
  (evolve, project, record the squared norm, renormalize), which costs
  O(m 2^n).  The loop is also the reference the closed form is checked
  against, in the tests and in ``verify``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, log, sqrt

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


def _check_register(
    u: DilatedEvolution, projector: ZenoProjector, env0: StateVector
) -> None:
    if any(l is not ENVIRONMENT for l in env0.labels):
        raise ValueError("environment state must live on environment qubits only")
    if not env0.is_normalized():
        raise ValueError("environment state must be normalized")
    counts = (u.labels.count(SYSTEM), u.labels.count(ENVIRONMENT))
    if (projector.psi0.n_qubits, env0.n_qubits) != counts:
        raise DimensionMismatchError(
            "projector/environment register does not match the evolution"
        )


def _survival_by_collapse(
    u: DilatedEvolution,
    projector: ZenoProjector,
    env0: StateVector,
    schedule: ZenoSchedule,
) -> float:
    """Survival by state-vector collapse, for any rotation list: m times
    evolve, project onto psi0, record the captured weight, renormalize.

    A step that captures no weight (below 1e-300) ends the run with 0.0.
    If every weight is positive but their running product falls below the
    smallest normal double, ``ValueError`` names the step: there the
    product loses its digits (it sticks at a subnormal such as 1e-323, or
    reaches 0), so no value returned would be the survival.
    """
    _check_register(u, projector, env0)
    block = tensor_state(projector.psi0, env0)
    state = from_system_env_matrix(system_env_matrix(block), u.labels)
    probability = 1.0
    for step in range(1, schedule.m + 1):
        state = evolve(u, state, schedule.tau)
        projected, weight = _project_system(state, projector.psi0)
        if weight < 1e-300:
            return 0.0
        # The captured weight is a probability; above 1 it is rounding.
        probability *= min(weight, 1.0)
        if probability < sys.float_info.min:
            raise ValueError(
                f"survival underflowed at measurement {step} of {schedule.m} "
                f"({probability:.3e} < {sys.float_info.min:.3e}), "
                f"with every captured weight positive"
            )
        state = from_system_env_matrix(projected / sqrt(weight), state.labels)
    return probability


def _parity_signs(strings: list[str], char: str, n: int) -> np.ndarray:
    """signs[b, r] = (-1)^(number of ``char`` factors of strings[r] under
    the set bits of b), for each basis index b of n qubits: the half of
    each axis under a ``char`` factor is negated, as in the Pauli kernel."""
    signs = np.ones((len(strings),) + (2,) * n)
    for r, string in enumerate(strings):
        for j, c in enumerate(string):
            if c == char:
                signs[(r,) + (slice(None),) * j + (1,)] *= -1.0
    return signs.reshape(len(strings), 2**n).T


def _zx_phases(u: DilatedEvolution) -> np.ndarray | None:
    """Phi[s, x] = sum_r rate_r z_r(s) x_r(x) if every rotation string is
    I/Z on the system and I/X on the environment, else None."""
    sys_pos = [i for i, l in enumerate(u.labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(u.labels) if l is ENVIRONMENT]
    sys_strings = ["".join(p.factors[i] for i in sys_pos) for _, p in u.rotations]
    env_strings = ["".join(p.factors[i] for i in env_pos) for _, p in u.rotations]
    if any(set(s) - set("IZ") for s in sys_strings) or any(
        set(e) - set("IX") for e in env_strings
    ):
        return None
    z = _parity_signs(sys_strings, "Z", len(sys_pos))
    x = _parity_signs(env_strings, "X", len(env_pos))
    return (z * [rate for rate, _ in u.rotations]) @ x.T


def _x_basis_weights(env0: StateVector) -> np.ndarray:
    """p(x) = |<x|env0>|^2 over the X basis (bit 0 for |+>), by a
    Walsh-Hadamard transform."""
    amps = env0.amplitudes
    for axis in range(env0.n_qubits):
        t = amps.reshape(2**axis, 2, -1)
        amps = np.stack((t[:, 0] + t[:, 1], t[:, 0] - t[:, 1]), axis=1).reshape(-1)
    return np.abs(amps) ** 2 / 2**env0.n_qubits


def survival_probability_exact(
    u: DilatedEvolution,
    projector: ZenoProjector,
    env0: StateVector,
    schedule: ZenoSchedule,
) -> float:
    """Probability that all m measurements find the system in psi0.

    If every rotation string is I/Z on the system and I/X on the
    environment, in any label order, the closed form runs.  With z_r(s)
    and x_r(x) the signs of string r on system basis state s and on
    environment X-basis state x,

        Phi[s, x] = sum_r rate_r z_r(s) x_r(x),
        k(x) = sum_s |psi0(s)|^2 exp(-i tau Phi[s, x] / 2),
        p(x) = |<x|env0>|^2,
        P_m = sum_x p(x) |k(x)|^(2m),

    summed as a log-sum-exp over the x with p(x) > 0 and k(x) != 0, so it
    cannot underflow to a spurious 0 or raise a warning.  It costs one
    2^N_S x 2^N_E array, the size of a state vector, whatever m is.  Any
    other rotation list runs the collapse loop ``_survival_by_collapse``,
    which is also the reference for the closed form.  Both cap the result
    at 1.
    """
    phi = _zx_phases(u)
    if phi is None:
        return _survival_by_collapse(u, projector, env0, schedule)
    _check_register(u, projector, env0)
    amps = projector.psi0.amplitudes
    # P_m takes |k|^2 through m log|k|^2, which multiplies any rounding of
    # |k|^2 by m.  So 1 - |k|^2 = deficit (2 - deficit)
    # + re_gap (2 (1 - deficit) - re_gap) - im^2 is built from small terms
    # that keep their relative accuracy: deficit = 1 - sum_s w(s) (summed in
    # extended precision), re_gap = sum_s w(s) - Re k and im = Im k.
    deficit = float(1.0 - np.sum(np.abs(amps.astype(np.clongdouble)) ** 2))
    weights = np.abs(amps) ** 2
    angles = 0.5 * schedule.tau * phi
    re_gap = weights @ (2.0 * np.sin(0.5 * angles) ** 2)
    im = weights @ np.sin(angles)
    loss = (
        deficit * (2.0 - deficit) + re_gap * (2.0 * (1.0 - deficit) - re_gap) - im**2
    )
    p = _x_basis_weights(env0)
    keep = (p > 0.0) & (loss < 1.0)
    if not keep.any():
        return 0.0
    logs = np.log(p[keep]) + schedule.m * np.log1p(-loss[keep])
    top = float(logs.max())
    return min(exp(top + log(float(np.exp(logs - top).sum()))), 1.0)


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
