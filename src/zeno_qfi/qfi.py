"""Channel quantum Fisher information via variational minimization.

Monitoring system and environment together can only add information, so
four times the variance of the effective generator upper-bounds the channel
QFI.  The bound is tightened by adding a conjugated environment operator
h'(tau) = U'(tau)^dag h_E U'(tau) to the generator and minimizing over the
coefficients of h_E in a Hermitian basis.  Because the variance is an exact
quadratic in those coefficients, the minimum is one positive-semidefinite
linear solve, with an SLD eigen-decomposition oracle and closed-form
expressions for the dephasing-coupling model as independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .channels import DilatedEvolution, _evolved_columns, generator
from .dense import DENSE_QUBIT_CAP, DenseOperator, check_dense_cap, hermitian_expm
from .exceptions import DimensionMismatchError, PoleProximityError
from .paulis import (
    OperatorSum,
    PauliTerm,
    _applied_vector,
    pauli_product,
    paulis_commute,
    to_dense,
    variance,
)
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    system_env_matrix,
)
from .zeno import ZenoProjector, ZenoSchedule, survival_probability_exact, zeno_time

POLE_TOL = 1e-8
GRAM_CUTOFF = 1e-10
SLD_EIGENVALUE_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class EnvOperatorBasis:
    """Hermitian operators acting as the identity on every system qubit."""

    elements: tuple[OperatorSum, ...]
    labels: tuple[Subsystem, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        labels = tuple(self.labels)
        if not elements:
            raise ValueError("basis must contain at least one element")
        sys_pos = [i for i, l in enumerate(labels) if l is SYSTEM]
        for op in elements:
            if not op.hermitian:
                raise ValueError("basis elements must be Hermitian")
            if op.n_qubits != len(labels):
                raise DimensionMismatchError("basis element does not match register")
            for term in op.terms:
                if any(term.factors[p] != "I" for p in sys_pos):
                    raise ValueError(
                        "basis elements must act trivially on system qubits"
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def single_qubit_paulis(cls, labels) -> "EnvOperatorBasis":
        """X, Y, Z on each environment qubit separately (3 per qubit)."""
        labels = tuple(labels)
        n = len(labels)
        elements = []
        for p, l in enumerate(labels):
            if l is not ENVIRONMENT:
                continue
            for ch in "XYZ":
                factors = "I" * p + ch + "I" * (n - p - 1)
                elements.append(OperatorSum.from_term(1.0, factors))
        return cls(tuple(elements), labels)

    @classmethod
    def symmetric(cls, labels) -> "EnvOperatorBasis":
        """Permutation-symmetric ansatz: sums of X, of Y, and of Z over all
        environment qubits (3 elements regardless of size)."""
        labels = tuple(labels)
        n = len(labels)
        env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
        if not env_pos:
            raise ValueError("register has no environment qubits")
        elements = []
        for ch in "XYZ":
            terms = [
                PauliTerm(1.0, "I" * p + ch + "I" * (n - p - 1)) for p in env_pos
            ]
            elements.append(OperatorSum(terms))
        return cls(tuple(elements), labels)

    @classmethod
    def complete(cls, labels) -> "EnvOperatorBasis":
        """Every non-identity Pauli string on the environment (4^k - 1
        elements for k environment qubits), including correlated multi-qubit
        strings.

        This exhausts the Hermitian operators on the environment up to an
        identity shift, so minimizing over it makes the variational bound
        tight; single-qubit bases can stay strictly above the channel QFI
        on entangled inputs.  Element count grows fast, so this is meant
        for small registers and oracle work.
        """
        import itertools

        labels = tuple(labels)
        n = len(labels)
        env_pos = [i for i, l in enumerate(labels) if l is ENVIRONMENT]
        if not env_pos:
            raise ValueError("register has no environment qubits")
        elements = []
        for combo in itertools.product("IXYZ", repeat=len(env_pos)):
            if all(ch == "I" for ch in combo):
                continue
            factors = ["I"] * n
            for p, ch in zip(env_pos, combo):
                factors[p] = ch
            elements.append(OperatorSum.from_term(1.0, "".join(factors)))
        return cls(tuple(elements), labels)


@dataclass(frozen=True, eq=False)
class VariationalSolution:
    """Optimal basis coefficients and the minimized information bound."""

    coefficients: np.ndarray
    qfi: float
    gram_condition: float

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=float)
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)


@dataclass(frozen=True)
class AnalyticParams:
    """Parameters of the N-pair dephasing-coupling model at one interval."""

    n: int
    omega0: float
    gamma: float
    tau: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not self.tau > 0:
            raise ValueError("interval must be positive")
        if not (isfinite(self.omega0) and isfinite(self.gamma)):
            raise ValueError("rates must be finite")
        # Also rejects tau = inf, since gamma * inf is inf or (gamma = 0) nan.
        if not isfinite(self.gamma * self.tau):
            raise ValueError("interval and gamma * interval must be finite")


def qfi_upper_bound(h_prime, psi_full: StateVector) -> float:
    """Channel-information bound 4 Var(H') on the enlarged register."""
    return 4.0 * variance(h_prime, psi_full)


def _mutually_commuting(op: OperatorSum) -> bool:
    terms = op.terms
    return all(
        paulis_commute(terms[i].factors, terms[j].factors)
        for i in range(len(terms))
        for j in range(i + 1, len(terms))
    )


def _conjugate_by_rotation(
    terms: list[PauliTerm], theta: float, axis: str
) -> list[PauliTerm]:
    """R^dag Q R for R = exp(-i theta P/2): Q if [P,Q]=0, otherwise
    cos(theta) Q - i sin(theta) QP."""
    out: list[PauliTerm] = []
    c, s = cos(theta), sin(theta)
    for q in terms:
        if paulis_commute(q.factors, axis):
            out.append(q)
            continue
        phase, prod = pauli_product(q.factors, axis)
        out.append(PauliTerm(q.coefficient * c, q.factors))
        out.append(PauliTerm(q.coefficient * (-1j) * s * phase, prod))
    return out


def conjugate_env_operator(
    h_env: OperatorSum, h_hat, tau: float, dense_cap: int = DENSE_QUBIT_CAP
):
    """Heisenberg picture of an environment operator under exp(-i H_hat tau).

    When H_hat is a Pauli sum of mutually commuting terms, the evolution
    factorizes into Pauli rotations and the conjugation stays inside the
    Pauli algebra at any register size.  Otherwise the product is formed
    densely, which requires the register to fit under the cap.
    """
    if isinstance(h_hat, OperatorSum) and _mutually_commuting(h_hat):
        terms = list(h_env.terms)
        for term in h_hat.terms:
            theta = 2.0 * term.coefficient.real * tau
            terms = _conjugate_by_rotation(terms, theta, term.factors)
        return OperatorSum(terms, hermitian=h_env.hermitian, n_qubits=h_env.n_qubits)
    check_dense_cap(h_env.n_qubits, dense_cap)
    h_dense = h_hat if isinstance(h_hat, DenseOperator) else to_dense(h_hat, dense_cap)
    u = hermitian_expm(h_dense, tau)
    h_mat = to_dense(h_env, dense_cap).matrix
    return DenseOperator(u.matrix.conj().T @ h_mat @ u.matrix)


def _normal_equations(h_hat, basis, psi_full: StateVector, tau, dense_cap=DENSE_QUBIT_CAP):
    """Quadratic form of Var(H_hat + sum_k c_k h'_k) in the coefficients c.

    Returns H_hat|psi>, the conjugated basis applied to the state stacked
    as a k x 2^n array V, the Gram matrix Re(V* V^T) - outer(means, means)
    of covariances, and the cross covariances with H_hat.
    """
    amps = psi_full.amplitudes
    base_vec = _applied_vector(h_hat, psi_full)
    vecs = np.empty((len(basis.elements), amps.size), dtype=np.complex128)
    for k, h in enumerate(basis.elements):
        conjugated = conjugate_env_operator(h, h_hat, tau, dense_cap)
        vecs[k] = _applied_vector(conjugated, psi_full)
    bra = vecs.conj()
    means = (bra @ amps).real
    base_mean = float(np.vdot(amps, base_vec).real)
    gram = (bra @ vecs.T).real - np.outer(means, means)
    cross = (bra @ base_vec).real - base_mean * means
    return base_vec, vecs, gram, cross


def _bound_at(coeff, base_vec, vecs, psi_full: StateVector) -> float:
    """4 Var(H_hat + sum_k c_k h'_k) from the applied vectors."""
    combined = base_vec + coeff @ vecs
    mean = float(np.vdot(psi_full.amplitudes, combined).real)
    var = float(np.vdot(combined, combined).real) - mean**2
    return 4.0 * max(var, 0.0)


def minimize_qfi_bound(
    h_hat,
    basis: EnvOperatorBasis,
    psi_full: StateVector,
    tau: float,
    dense_cap: int = DENSE_QUBIT_CAP,
) -> VariationalSolution:
    """Minimize 4 Var(H_hat + sum_k c_k h'_k) over the coefficients c.

    The variance is an exact quadratic in c, so the optimum solves the
    normal equations A c = -b built from symmetrized covariances on the
    initial state.  Degenerate Gram matrices are handled by a pseudo-inverse
    with singular values below 1e-10 of the largest treated as zero; the
    raw condition number is reported for diagnostics.
    """
    base_vec, vecs, gram, cross = _normal_equations(h_hat, basis, psi_full, tau, dense_cap)
    u, s, vt = np.linalg.svd(gram, hermitian=True)
    s_max = float(s.max(initial=0.0))
    if s_max == 0.0:
        coeff = np.zeros(len(cross))
        condition = float("inf")
    else:
        inv = np.where(s > GRAM_CUTOFF * s_max, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        coeff = -(vt.T @ (inv * (u.T @ cross)))
        s_min = float(s.min())
        condition = s_max / s_min if s_min > 0 else float("inf")
    return VariationalSolution(coeff, _bound_at(coeff, base_vec, vecs, psi_full), condition)


def optimal_env_coefficients(p: AnalyticParams) -> tuple[float, float, float]:
    """Closed-form optimum (alpha, beta, gamma) of the symmetric ansatz.

    Only the Y component survives:
    beta = omega0 N sin(Gamma tau) / 2[N sin^2(Gamma tau) + cos^2(Gamma tau)].
    """
    phase = p.gamma * p.tau
    s, c = sin(phase), cos(phase)
    beta = p.omega0 * p.n * s / (2.0 * (p.n * s**2 + c**2))
    return 0.0, beta, 0.0


def qfi_one_qubit(p: AnalyticParams) -> float:
    """Optimal channel QFI of one dephasing-coupled qubit:
    omega0^2 cos^2(Gamma tau) + Gamma^2."""
    return p.omega0**2 * cos(p.gamma * p.tau) ** 2 + p.gamma**2


def qfi_ghz(p: AnalyticParams) -> float:
    """Optimal channel QFI of the N-qubit maximally entangled state:
    omega0^2 N^2 / (1 + N tan^2(Gamma tau)) + N Gamma^2.

    Evaluated in the pole-free form N^2 c^2 / (c^2 + N s^2); proximity to
    the tangent pole is still flagged because the expression is no longer
    a faithful optimum there.
    """
    phase = p.gamma * p.tau
    c, s = cos(phase), sin(phase)
    if abs(c) < POLE_TOL:
        raise PoleProximityError(
            f"cos(gamma*tau) = {c:.2e} too close to the tangent pole"
        )
    return p.omega0**2 * p.n**2 * c**2 / (c**2 + p.n * s**2) + p.n * p.gamma**2


def qfi_ghz_large_n(p: AnalyticParams) -> float:
    """Large-N limit N [Gamma^2 + omega0^2 cot^2(Gamma tau)] of the
    entangled-state QFI."""
    phase = p.gamma * p.tau
    s, c = sin(phase), cos(phase)
    if abs(s) < POLE_TOL:
        raise PoleProximityError(
            f"sin(gamma*tau) = {s:.2e} too close to the cotangent pole"
        )
    return p.n * (p.gamma**2 + p.omega0**2 * (c / s) ** 2)


def qfi_separable(p: AnalyticParams) -> float:
    """Channel QFI of the N-qubit product state, N times the one-qubit
    value by additivity."""
    return p.n * qfi_one_qubit(p)


def qfi_ratio_asymptote(p: AnalyticParams) -> float:
    """N -> infinity limit of the entangled/separable QFI ratio:
    [Gamma^2 + omega0^2 cot^2] / [Gamma^2 + omega0^2 cos^2]."""
    phase = p.gamma * p.tau
    s, c = sin(phase), cos(phase)
    if abs(s) < POLE_TOL:
        raise PoleProximityError(
            f"sin(gamma*tau) = {s:.2e} too close to the cotangent pole"
        )
    return (p.gamma**2 + p.omega0**2 * (c / s) ** 2) / (
        p.gamma**2 + p.omega0**2 * c**2
    )


def zeno_time_bound(
    p: AnalyticParams, m: int, entangled: bool = True, asymptotic: bool = False
) -> float:
    """Upper bound 2 / sqrt(m F_Q) on the Zeno time for one state family.

    The entangled family uses the exact finite-N formula unless
    ``asymptotic`` selects the flagged large-N cotangent variant.
    """
    if entangled:
        fq = qfi_ghz_large_n(p) if asymptotic else qfi_ghz(p)
    else:
        if asymptotic:
            raise ValueError("the separable bound has no separate large-N variant")
        fq = qfi_separable(p)
    return zeno_time(m, fq)


def _density_from_initial(initial) -> tuple[np.ndarray, np.ndarray]:
    """System columns F and weights W with rho_0 = F W F^dag."""
    if isinstance(initial, StateVector):
        if initial.count(ENVIRONMENT):
            raise ValueError("initial state must live on system qubits only")
        return initial.amplitudes[:, None], np.ones((1, 1))
    if isinstance(initial, DenseOperator):
        return np.eye(initial.dim), initial.matrix
    raise TypeError("initial must be a StateVector or DenseOperator")


def _sld_information(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the symmetric-logarithmic-derivative eigen expansion."""
    lam, vecs = np.linalg.eigh(rho)
    d = vecs.conj().T @ drho @ vecs
    denom = lam[:, None] + lam[None, :]
    keep = denom > SLD_EIGENVALUE_FLOOR
    return float(np.sum(2.0 * np.abs(d[keep]) ** 2 / denom[keep]))


def qfi_sld_oracle(
    evolution: DilatedEvolution,
    initial,
    tau: float,
    dense_cap: int = DENSE_QUBIT_CAP,
) -> float:
    """Channel QFI at interval tau from the mixed-state SLD formula.

    The input rho_0 = F W F^dag (a pure state or a density matrix) is
    paired with the environment in |0...0>, and each column f_k is evolved
    on the register, giving V_k = U(tau)|f_k, 0> as a system x environment
    matrix.  Then rho_S = sum W_kk' V_k V_k'^dag, and the derivative is
    exact: dV_k is -i G V_k for the generator G, and
    drho_S = X + X^dag with X = sum W_kk' dV_k V_k'^dag.  A rotation list
    must commute, so that U(tau) = exp(-i G tau).  This path works in the
    Schroedinger picture and is independent of the variational solver,
    whose oracle it is.
    """
    check_dense_cap(evolution.n_qubits, dense_cap)
    if not tau > 0:
        raise ValueError("interval must be positive")
    columns, weights = _density_from_initial(initial)
    if columns.shape[0] != 2 ** sum(1 for l in evolution.labels if l is SYSTEM):
        raise DimensionMismatchError("initial state does not match the system register")
    gen = generator(evolution)
    if isinstance(gen, OperatorSum) and not _mutually_commuting(gen):
        raise ValueError("the exact derivative needs mutually commuting rotations")
    evolved = _evolved_columns(evolution, columns, tau)
    derivatives = [StateVector(-1j * _applied_vector(gen, e), e.labels) for e in evolved]
    v = np.stack([system_env_matrix(e) for e in evolved])
    dv = np.stack([system_env_matrix(d) for d in derivatives])
    # conj_weighted[k] = sum_k' W_kk' V_k'^*, so rho_S[a, c] sums
    # V_k[a, b] conj_weighted[k][c, b] over k and the environment index b.
    conj_weighted = np.tensordot(weights, v.conj(), axes=1)
    rho = np.tensordot(v, conj_weighted, axes=([0, 2], [0, 2]))
    x = np.tensordot(dv, conj_weighted, axes=([0, 2], [0, 2]))
    return _sld_information(rho, x + x.conj().T)


def fisher_from_survival(
    evolution: DilatedEvolution,
    projector: ZenoProjector,
    env0: StateVector,
    tau: float,
    dtau: float | None = None,
) -> float:
    """Information bound [dP/dtau]^2 / (P (1-P)) from the single-measurement
    survival probability, differentiated numerically.

    Matches 4 Var(H_hat) only to leading order in tau, so comparisons are
    meaningful in the short-interval regime.
    """
    if not tau > 0:
        raise ValueError("interval must be positive")
    step = 1e-4 * tau if dtau is None else float(dtau)
    if not 0 < step < tau:
        raise ValueError("dtau must be positive and smaller than tau")

    def survival(t: float) -> float:
        return survival_probability_exact(
            evolution, projector, env0, ZenoSchedule(1, t)
        )

    p_mid = survival(tau)
    denom = p_mid * (1.0 - p_mid)
    if denom < 1e-14:
        raise ValueError("survival probability too close to 0 or 1 to differentiate")
    dp = (survival(tau + step) - survival(tau - step)) / (2.0 * step)
    return dp**2 / denom
