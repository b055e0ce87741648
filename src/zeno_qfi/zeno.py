"""Repeated projective measurement: survival probabilities and Zeno times.

One measurement projects the system factor onto its initial pure state
psi0 while leaving the environment untouched.  Every round therefore starts
from psi0, and m rounds act on the environment through one filtered
operator K = (<psi0| x I) U(tau) (|psi0> x I), with survival
P_m = |K^m env0|^2.

``survival_probability_exact`` picks its path from the rotation list:

- When each string is Z on one system qubit times X on at most one
  environment qubit, paired one to one (the dephasing model in any label
  order), U is diagonal in |s>_S |x>_E, with x the environment's X basis,
  and a product over pairs.  Then P_m has a closed form (see the
  function), one 2 x 2 contraction per pair: O(N 2^N) time for any m.
  The pairs and rates are read once per evolution, as
  ``DilatedEvolution._pair_form``.
- Any other rotation list runs the collapse loop ``_survival_by_collapse``
  (K applied m times to the environment vector: evolve psi0 x v, contract
  with psi0*, record the squared norm, renormalize), which costs
  O(m 2^n).  The loop is also the reference the closed form is checked
  against, in the tests and in ``verify``.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from itertools import product
from math import isfinite, sqrt

import numpy as np

from .channels import DilatedEvolution, _evolved_amplitudes
from .dense import DenseOperator, check_dense_budget
from .exceptions import DimensionMismatchError, HermiticityError
from .paulis import OperatorSum, PauliTerm, apply_operator, variance
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    _system_env_join,
    _system_env_split,
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


def _is_finite_number(value) -> bool:
    """A finite real number in the float64 range; ``True``/``False`` are
    not numbers here, and neither is an int too large for a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _is_whole(value, least: int = 1) -> bool:
    """A finite number >= ``least`` with no fractional part (2.0 counts, 1.7
    and True do not)."""
    return _is_finite_number(value) and value == int(value) >= least


# The largest count a float64 holds exactly: m and the sweeps' N are
# computed with as floats, so a larger count would silently round.
_COUNT_MAX = 2**53


def _check_measurements(m) -> None:
    if not (_is_whole(m) and m <= _COUNT_MAX):
        raise ValueError(f"need a whole number of measurements from 1 to 2**53, got {m!r}")


@dataclass(frozen=True)
class ZenoSchedule:
    """m projective measurements separated by intervals of length tau.
    m must be whole, at least 1 and at most 2**53 (2.0 counts and is
    stored as 2; 2.5, True and 2**53 + 1 raise ``ValueError``)."""

    m: int
    tau: float

    def __post_init__(self):
        _check_measurements(self.m)
        object.__setattr__(self, "m", int(self.m))
        if not (self.tau > 0 and isfinite(self.tau)):
            raise ValueError(
                f"measurement interval must be positive and finite, got {self.tau}"
            )


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
    """Survival by collapse, for any rotation list: the filtered map K
    applied m times to the environment vector v, from v = env0.  Each step
    joins psi0 x v into register order, evolves the whole register by the
    rotation list, contracts the system axes with psi0* to give K v,
    records the captured weight w = |K v|^2 and goes on with K v / sqrt(w).

    A step that captures no weight (below 1e-300) ends the run with 0.0.
    If every weight is positive but their running product falls below the
    smallest normal double, ``ValueError`` names the step: there the
    product loses its digits (it sticks at a subnormal such as 1e-323, or
    reaches 0), so no value returned would be the survival.
    """
    _check_register(u, projector, env0)
    psi0 = projector.psi0.amplitudes
    split = system_env_matrix(tensor_state(projector.psi0, env0))
    probability = 1.0
    for step in range(1, schedule.m + 1):
        amps = _evolved_amplitudes(u, _system_env_join(split, u.labels), schedule.tau)
        env_vec = psi0.conj() @ _system_env_split(amps, u.labels)
        weight = float(np.vdot(env_vec, env_vec).real)
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
        split = np.outer(psi0, env_vec) / sqrt(weight)
    return probability


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

    The closed form runs when every rotation string is a Z on one system
    qubit a times an X on at most one environment qubit b, each a coupled
    to at most one b and each b to at most one a, in any label order.
    With omega_a and gamma_a the summed rates of a's Z_a and Z_a X_b
    strings and z(s_a), x(x_b) = +-1 the signs on a system basis state s
    and an environment X-basis state x,

        K_a[x_b, s_a] = exp(-i tau z(s_a) (omega_a + gamma_a x(x_b)) / 2),
        k = (x_a K_a) w,  w(s) = |psi0(s)|^2,  p(x) = |<x|env0>|^2,
        P_m = sum_x p(x) |k(x)|^(2m).

    The pairs and rates are read once per evolution (``u._pair_form``).
    k is contracted one system axis at a time and p is summed over any
    uncoupled b: O(N 2^N) time and 2^N memory whatever m is (general input,
    m = 100, one BLAS thread on a 2-core Xeon: 0.058 ms at N = 4, 0.20 ms
    at N = 8, 2.1 ms at N = 12, 46 ms at N = 16).  All but p runs in
    ``np.longdouble`` (a 64-bit mantissa on x86): P_m is within about
    1e-16 + m x 1e-19 relative, m x 1e-16 where long double is a double,
    of the survival of psi0 as given, and cannot underflow to a spurious
    0.  psi0 is not renormalised: one whose float64 norm^2 is 1 + delta
    scales P_m by about (1 + delta)^(2m) (|+> has delta = 2.2e-16).  Any
    other rotation list runs the collapse loop ``_survival_by_collapse``,
    the closed form's reference.  Both cap the result at 1.
    """
    form = u._pair_form
    if form is None:
        return _survival_by_collapse(u, projector, env0, schedule)
    _check_register(u, projector, env0)
    # kernels[a, j, s] is K_a at x(x_b) = 1 - 2j and z(s_a) = 1 - 2s.
    kernels = np.exp(np.multiply.outer(form.theta * (schedule.tau / 2), [-1j, 1j]))
    k = np.abs(projector.psi0.amplitudes.astype(np.clongdouble)) ** 2
    # Last axis first, so that axis a sits behind 2^a untouched entries; an
    # uncoupled a (gamma = 0) takes row 0 only, which sums its axis away.
    for a in reversed(range(len(form.rows))):
        k = kernels[a, : form.rows[a]] @ k.reshape(2**a, 2, -1)
    k = k.reshape((2,) * len(form.order)).transpose(form.order).reshape(-1)
    squared = np.abs(k) ** 2
    p = _x_basis_weights(env0).reshape((2,) * env0.n_qubits).sum(axis=form.lone).reshape(-1)
    keep = (p > 0.0) & (squared > 0.0)
    terms = p[keep] * np.exp(schedule.m * np.log(squared[keep]))
    return min(float(terms.sum()), 1.0)


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


def zeno_hamiltonian(
    h_se: OperatorSum,
    projector: ZenoProjector,
    labels: tuple[Subsystem, ...],
) -> OperatorSum:
    """Effective generator H - M H M of short-time survival decay, a Pauli
    sum.  With M = |psi0><psi0| x I_env, M H M = |psi0><psi0| x F, where F
    gives each environment string e of H the sum of c <psi0|s|psi0> over
    its terms c s x e.  When F vanishes, H itself is returned; otherwise
    |psi0><psi0| is expanded as 2^{-N_S} sum_s <psi0|s|psi0> s over the
    system strings s, refused (``DenseCapError``) above the dense cap."""
    if not h_se.hermitian:
        raise HermiticityError("zeno_hamiltonian requires a Hermitian generator")
    sys_pos = [i for i, l in enumerate(labels) if l is SYSTEM]
    env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
    if h_se.n_qubits != len(labels):
        raise DimensionMismatchError("generator does not match the register")
    if 2 ** len(sys_pos) != projector.psi0.dim:
        raise DimensionMismatchError("projector does not match the system register")

    def overlap(sys_string: str) -> float:
        # A Pauli string is Hermitian, so its expectation is real.
        acted = apply_operator(PauliTerm(1.0, sys_string), projector.psi0)
        return float(np.vdot(projector.psi0.amplitudes, acted.amplitudes).real)

    filtered: dict[str, float] = {}
    for term in h_se.terms:
        sys_string = "".join(term.factors[p] for p in sys_pos)
        env_string = "".join(term.factors[p] for p in env_pos)
        weight = term.coefficient.real * overlap(sys_string)
        filtered[env_string] = filtered.get(env_string, 0.0) + weight
    if all(abs(c) <= 1e-12 for c in filtered.values()):
        return h_se

    check_dense_budget(4**h_se.n_qubits)
    place = np.argsort(sys_pos + env_pos)  # register position -> index in s + e
    terms = list(h_se.terms)
    for s in map("".join, product("IXYZ", repeat=len(sys_pos))):
        weight = -overlap(s) / 2 ** len(sys_pos)
        for e, c in filtered.items():
            terms.append(PauliTerm(weight * c, "".join((s + e)[i] for i in place)))
    return OperatorSum(terms, n_qubits=h_se.n_qubits)


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
    channel-information bound), a number or an array of them.  The
    short-interval survival P ~ 1 - m tau^2 F / 4 (``quadratic_order`` in
    ``verify``) reaches 0 at tau = 2 / sqrt(m F), which falls as F grows:
    so when F is itself an upper bound on the channel QFI F_Q, the time
    returned is a lower bound on 2 / sqrt(m F_Q), the time the exact
    channel QFI gives.  A finite F whose product with m overflows still
    gives a finite time; an infinite F (an overflowed closed form) gives nan.
    m follows ``ZenoSchedule``'s rule: whole, at least 1 and at most 2**53.
    """
    _check_measurements(m)
    if not np.all(qfi_bound > 0):
        raise ValueError("information bound must be positive")
    with np.errstate(over="ignore"):
        mf = m * qfi_bound
    root = np.where(np.isfinite(mf), np.sqrt(mf), np.sqrt(m) * np.sqrt(qfi_bound))
    return np.where(np.isfinite(qfi_bound), 2.0 / root, np.nan)[()]
