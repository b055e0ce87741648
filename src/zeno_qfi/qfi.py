"""Channel quantum Fisher information via variational minimization.

Monitoring system and environment together can only add information, so
four times the variance of the effective generator upper-bounds the channel
QFI.  The bound is tightened by adding a conjugated environment operator
h'(tau) = U'(tau)^dag h_E U'(tau) to the generator and minimizing over the
coefficients of h_E in a Hermitian basis.  Because the variance is an exact
quadratic in those coefficients, the minimum is one positive-semidefinite
linear solve, with an SLD eigen-decomposition oracle and closed-form
expressions for the dephasing-coupling model as independent checks.

The quadratic is built in the evolved frame: U'(tau) = exp(-i H_hat tau)
commutes with H_hat, so every covariance of H_hat and h'_k on the initial
state equals the one of H_hat and the plain h_k on phi = U'(tau)|psi>.  The
state is evolved once and no basis element is conjugated;
``conjugate_env_operator`` is the Heisenberg-picture form of the same
quantity, which tests compare against.  The generator is a Pauli sum whose
terms carry one Pauli letter per qubit, as every generator the library
builds does: a local Clifford C makes it diagonal, so phi and H_hat phi are
taken in that eigenframe as elementwise products, and any other generator
is refused.  No basis element is applied either: the h_k act on the
environment alone, so the quadratic depends on phi only through the two
d_E x d_E matrices Tr_S |phi><phi| and Tr_S(H_hat |phi><phi|), from which a
table of the products of two basis strings, built once per basis and
frame with the strings conjugated by C, reads every entry by one gather.
That costs O(d_S d_E^2 + U d_E) time for U distinct products and d_E^2
memory.

The closed forms ``qfi_ghz``, ``qfi_ghz_large_n`` and
``optimal_env_coefficients`` are minima over the symmetric (equivalently,
on GHZ inputs, the per-qubit) ansatz: exact at N = 1, upper bounds on the
channel QFI for N >= 2.  ``qfi_separable`` is exact on product inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import cos, isfinite, sin

import numpy as np

from .channels import DilatedEvolution, _evolved_columns, generator
from .dense import DenseOperator
from .exceptions import DimensionMismatchError, HermiticityError, PoleProximityError
from .paulis import (
    OperatorSum,
    PauliTerm,
    _POWERS_OF_I,
    _applied_vector,
    _masks,
    pauli_product,
    paulis_commute,
)
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    _system_env_split,
)

POLE_TOL = 1e-8
GRAM_CUTOFF = 1e-10
SLD_EIGENVALUE_FLOOR = 1e-10
DENSITY_TOL = 1e-10


def _odd(bits: np.ndarray) -> np.ndarray:
    """Whether each entry has an odd number of set bits."""
    return (np.bitwise_count(bits) & 1).astype(bool)


def _env_gather(x, z, d_env: int):
    """For the strings with environment masks x, z: the flat positions
    e * d_env + (e ^ x) of a d_env x d_env matrix and the signs
    (-1)^{popcount(e & z)}, one row per string, over the indices e."""
    e = np.arange(d_env)
    return e * d_env + (e ^ x[:, None]), np.where(_odd(e & z[:, None]), -1.0, 1.0)


@dataclass(frozen=True)
class _EnvProducts:
    """The strings of an environment basis, and the products of two, as
    gathers on an environment matrix r.

    A string q with masks x, z has the matrix elements
    q[e, e ^ x] = coef (-1)^{popcount(e & z)}, so
    Tr(q r^T) = sum_e weight[e] r[e, e ^ x] is one gather.  Each term t of
    the basis has its row in ``term_index`` and ``term_weight``, which
    holds the sign times the coefficient.  The distinct strings among the
    terms and their products have rows in ``product_index`` and
    ``product_sign``, and q_t q_u is ``pair_coef[t, u]`` times row
    ``pair[t, u]``.  ``owner[k, t]`` is 1 when term t belongs to element k;
    it is None when every element is one term.
    """

    term_index: np.ndarray
    term_weight: np.ndarray
    product_index: np.ndarray
    product_sign: np.ndarray
    pair: np.ndarray
    pair_coef: np.ndarray
    owner: np.ndarray | None


def _in_frame(x: np.ndarray, z: np.ndarray, letters: str):
    """Signs and masks of C q C^dag for the Pauli strings q with masks x, z,
    where C is the local Clifford of the frame letters ``letters`` ("" for
    the identity): H on an X qubit swaps its x and z bits and negates Y,
    and H S^dag on a Y qubit takes (x, z) to (x ^ z, x), X to Y to Z to X."""
    fx, fz = _masks(letters)
    on_x, on_y = fx & ~fz, fx & fz
    sign = np.where(_odd(x & z & on_x), -1.0, 1.0)
    return sign, x ^ ((x ^ z) & on_x) ^ (z & on_y), z ^ ((x ^ z) & fx)


def _traces(r: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_e weight[k, e] r.flat[index[k, e]] for every row k."""
    return np.einsum("ke,ke->k", r.ravel()[index], weight)


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
                raise HermiticityError("basis elements must be Hermitian")
            if op.n_qubits != len(labels):
                raise DimensionMismatchError("basis element does not match register")
            for term in op.terms:
                if any(term.factors[p] != "I" for p in sys_pos):
                    raise ValueError(
                        "basis elements must act trivially on system qubits"
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def _tables(self) -> dict[str, _EnvProducts]:
        return {}

    def _products(self, letters: str) -> _EnvProducts:
        """Gather table of the basis strings and of every product of two,
        on the environment bits (see ``_EnvProducts``), each string
        conjugated by the local Clifford of a generator's eigenframe whose
        environment letters are ``letters`` ("" for none).  Built once
        per basis and set of letters."""
        table = self._tables.get(letters)
        if table is not None:
            return table
        env = [p for p, l in enumerate(self.labels) if l is ENVIRONMENT]
        terms = [t for op in self.elements for t in op.terms]
        masks = [_masks("".join(t.factors[p] for p in env)) for t in terms]
        x, z = np.array(masks, dtype=np.intp).reshape(-1, 2).T
        sign, x, z = _in_frame(x, z, letters)
        # Each string in the frame is its coefficient times
        # (-i)^{n_Y} = i^{3 n_Y} times (-1)^{popcount(e & z)} on (e, e ^ x).
        coef = sign * np.array([t.coefficient for t in terms], dtype=np.complex128)
        coef *= np.take(_POWERS_OF_I, 3 * np.bitwise_count(x & z) % 4)
        d_env, n_terms = 2 ** len(env), len(terms)
        # q_t q_u = coef_t coef_u (-1)^{popcount(x_t & z_u)} times the string
        # with masks x_t ^ x_u, z_t ^ z_u; equal strings share one row.
        pair_coef = np.multiply.outer(coef, coef)
        pair_coef[_odd(x[:, None] & z)] *= -1.0
        pair_keys = (x[:, None] ^ x) * d_env + (z[:, None] ^ z)
        keys, rows = np.unique(
            np.concatenate([x * d_env + z, pair_keys.ravel()]), return_inverse=True
        )
        index, sign = _env_gather(keys // d_env, keys % d_env, d_env)
        term = rows[:n_terms]
        counts = [len(op.terms) for op in self.elements]
        owner = None
        if any(c != 1 for c in counts):
            owner = np.repeat(np.eye(len(counts)), counts, axis=1)
        table = self._tables[letters] = _EnvProducts(
            index[term],
            sign[term] * coef[:, None],
            index,
            sign,
            rows[n_terms:].reshape(n_terms, n_terms),
            pair_coef,
            owner,
        )
        return table

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
    """Optimal basis coefficients and the minimized information bound.

    ``gram_condition`` is the raw condition number of the Gram matrix,
    ``rank`` the number of its singular values kept above ``GRAM_CUTOFF``
    times the largest, and ``residual`` the norm |G c + b| left in the
    normal equations G c = -b at the returned coefficients.
    """

    coefficients: np.ndarray
    qfi: float
    gram_condition: float
    rank: int
    residual: float

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=float)
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)


@dataclass(frozen=True)
class AnalyticParams:
    """Parameters of the N-pair dephasing-coupling model at one interval.

    ``n`` is one whole qubit number >= 1 or a float64 array of them (a
    bool, a non-finite or a fractional N raises ``ValueError``): the closed
    forms below run one code body on either, bit for bit alike up to
    N = 2**53, and their pole checks look at gamma * tau only.
    """

    n: int | np.ndarray
    omega0: float
    gamma: float
    tau: float

    def __post_init__(self):
        # Refuses a bool, an int too large for a float, and nan (it fails every test).
        n = np.asarray(self.n)
        if n.dtype.kind not in "iuf" or not np.logical_and.reduce(
            (np.floor(n) == n) & (n >= 1) & (n < np.inf), axis=None
        ):
            raise ValueError(f"need a whole number of qubits >= 1, got {self.n!r}")
        if not self.tau > 0:
            raise ValueError("interval must be positive")
        if not (isfinite(self.omega0) and isfinite(self.gamma)):
            raise ValueError("rates must be finite")
        # Also rejects tau = inf, since gamma * inf is inf or (gamma = 0) nan.
        if not isfinite(self.gamma * self.tau):
            raise ValueError("interval and gamma * interval must be finite")


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


def _check_generator(h_hat) -> None:
    """Refuse a generator that is not a Hermitian OperatorSum."""
    if not isinstance(h_hat, OperatorSum):
        raise TypeError(f"the generator must be an OperatorSum, got {type(h_hat).__name__}")
    if not h_hat.hermitian:
        raise HermiticityError("the generator must be a Hermitian operator sum")


def conjugate_env_operator(h_env: OperatorSum, h_hat: OperatorSum, tau: float):
    """Heisenberg picture of an environment operator under exp(-i H_hat tau),
    the reference for the solver's evolved frame.  H_hat is a Hermitian sum
    of commuting terms, so the evolution factorizes into Pauli rotations
    and the conjugation stays inside the Pauli algebra at any register
    size; any other generator, or a non-finite tau, raises."""
    if not isfinite(tau):
        raise ValueError(f"interval must be finite, got {tau}")
    _check_generator(h_hat)
    if not h_hat.mutually_commuting:
        raise ValueError("the generator's terms must commute")
    terms = list(h_env.terms)
    for term in h_hat.terms:
        theta = 2.0 * term.coefficient.real * tau
        terms = _conjugate_by_rotation(terms, theta, term.factors)
    return OperatorSum(terms, n_qubits=h_env.n_qubits)


def _evolved_state(h_hat: OperatorSum, psi_full: StateVector, tau):
    """phi = exp(-i H_hat tau)|psi> and H_hat phi in the eigenframe C of
    H_hat, and the frame's environment letters: C phi = exp(-i tau lambda)
    * C psi and C H_hat phi = lambda * C phi, with no Pauli-string kernel.
    A sum with two letters on a qubit, which has no such frame, raises
    ``ValueError``; the library builds none."""
    _check_generator(h_hat)
    if 2**h_hat.n_qubits != psi_full.dim:
        raise DimensionMismatchError("generator does not match the state register")
    frame = h_hat._frame
    if frame is None:
        raise ValueError("the generator needs one Pauli letter per qubit")
    phi = frame.evolved(psi_full.amplitudes, tau)
    env = zip(frame.letters, psi_full.labels)
    letters = "".join(f for f, l in env if l is ENVIRONMENT)
    return phi, frame.apply(phi), letters


def _normal_equations(h_hat: OperatorSum, basis, psi_full: StateVector, tau):
    """Quadratic form of Var(H_hat + sum_k c_k h'_k) in the coefficients c.

    Every h'_k = U^dag h_k U with U = exp(-i H_hat tau), and U commutes
    with H_hat, so each covariance on psi equals the one of H_hat and the
    plain h_k on phi = U|psi>.  The h_k act on the environment alone, so
    with phi and H_hat phi as (system x environment) matrices Phi and Psi,
    <h_k h_l> and <h_k H_hat> read off r1 = Phi^dag Phi and
    r2 = Phi^dag Psi through the basis's product table.  Both are taken in
    the frame C of ``_evolved_state``: C's system part cancels in the
    partial trace, and the table reads its strings conjugated by C's
    environment part, so nothing is transformed back.  Returns Var H_hat,
    the Gram matrix of covariances Re<h_k h_l> - <h_k><h_l> (exactly
    symmetric) and the cross covariances with H_hat.
    """
    if basis.labels != psi_full.labels:
        raise DimensionMismatchError("basis register does not match the state register")
    phi, applied, letters = _evolved_state(h_hat, psi_full, tau)
    h_mean = float(np.vdot(phi, applied).real)
    h_variance = float(np.vdot(applied, applied).real) - h_mean**2
    phi_mat = _system_env_split(phi, basis.labels)
    left = phi_mat.conj().T
    r1 = left @ phi_mat
    # Each 2^n array is dropped once it is used up, which bounds the peak.
    del phi, phi_mat
    r2 = left @ _system_env_split(applied, basis.labels)
    del left, applied
    t = basis._products(letters)
    means = _traces(r1, t.term_index, t.term_weight).real
    cross = _traces(r2, t.term_index, t.term_weight).real
    products = _traces(r1, t.product_index, t.product_sign)
    second = (t.pair_coef * products[t.pair]).real
    if t.owner is not None:
        means, cross = t.owner @ means, t.owner @ cross
        second = t.owner @ second @ t.owner.T
    # An anticommuting pair leaves rounding of opposite sign in the two
    # triangles; the symmetrised sum is exactly symmetric.
    gram = 0.5 * (second + second.T) - np.outer(means, means)
    return h_variance, gram, cross - h_mean * means


def _bound_at(coeff, h_variance, gram, cross) -> float:
    """4 Var(H_hat + sum_k c_k h_k) on phi, from the quadratic form."""
    var = h_variance + 2.0 * float(coeff @ cross) + float(coeff @ gram @ coeff)
    return 4.0 * max(var, 0.0)


def minimize_qfi_bound(
    h_hat: OperatorSum,
    basis: EnvOperatorBasis,
    psi_full: StateVector,
    tau: float,
) -> VariationalSolution:
    """Minimize 4 Var(H_hat + sum_k c_k h'_k) over the coefficients c.

    The variance is an exact quadratic in c, so the optimum solves the
    normal equations G c = -b built from symmetrized covariances, taken on
    the evolved state from two reduced environment matrices (see
    ``_normal_equations``); no k x 2^n array of applied vectors is formed.
    A per-qubit solve at N = 8 (16 qubits, 24 elements) peaks at 4.0 MiB of
    ``tracemalloc`` (4.5 MiB when it also builds the basis's product table),
    four vectors of the register.  The bound at the returned coefficients
    is the quadratic form 4 max(Var H_hat + 2 c.b + c^T G c, 0).  Degenerate Gram matrices
    are handled by a pseudo-inverse: G is symmetric, so its singular values
    are the magnitudes |lambda| of its eigenvalues, and those below 1e-10 of
    the largest are treated as zero; the raw condition number, the rank
    kept and the residual |G c + b| are reported for diagnostics.  H_hat
    must be a Hermitian Pauli sum with one letter per qubit (see
    ``_evolved_state``).  A basis whose labels differ from the state's
    raises ``DimensionMismatchError``: its "environment" operators would
    act on system qubits.
    """
    if not isfinite(tau):
        raise ValueError(f"interval must be finite, got {tau}")
    h_variance, gram, cross = _normal_equations(h_hat, basis, psi_full, tau)
    lam, u = np.linalg.eigh(gram)
    # Eigenpairs by decreasing |lambda|, with u C-ordered: the order and
    # layout of np.linalg.svd(gram, hermitian=True), which is eigh plus this
    # sort, so the products below round exactly as its pseudo-inverse does.
    order = np.argsort(np.abs(lam))[::-1]
    lam, u = lam[order], np.take(u, order, axis=1)
    # An all-zero G keeps nothing: zero coefficients, rank 0 and an
    # infinite condition.
    s = np.abs(lam)
    s_max, s_min = float(s[0]), float(s[-1])
    kept = s > GRAM_CUTOFF * s_max
    inv = np.where(kept, 1.0 / np.where(kept, lam, 1.0), 0.0)
    coeff = -(u @ (inv * (u.T @ cross)))
    condition = s_max / s_min if s_min > 0 else float("inf")
    rank = int(kept.sum())
    residual = float(np.linalg.norm(gram @ coeff + cross))
    return VariationalSolution(
        coeff, _bound_at(coeff, h_variance, gram, cross), condition, rank, residual
    )


def optimal_env_coefficients(p: AnalyticParams) -> tuple[float, float, float]:
    """Closed-form optimum (alpha, beta, gamma) of the symmetric ansatz on
    the GHZ input, the coefficients at which ``qfi_ghz`` is reached.

    Only the Y component survives:
    beta = omega0 N sin(Gamma tau) / 2[N sin^2(Gamma tau) + cos^2(Gamma tau)].
    For N >= 2 the complete environment basis reaches a lower value with
    other coefficients, so these optimize the ansatz, not the channel QFI.
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
    """Symmetric/per-qubit-ansatz minimum for the N-qubit GHZ input:
    omega0^2 N^2 / (1 + N tan^2(Gamma tau)) + N Gamma^2.

    This is the channel QFI at N = 1 and an upper bound on it for N >= 2,
    where correlated environment operators lower the variational minimum
    (26.9 against the exact 10.6 at N = 8, omega0 tau = 0.5,
    gamma/omega0 = 1).

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
    per-qubit-ansatz minimum ``qfi_ghz``.  It is never below ``qfi_ghz``,
    so it too is an upper bound on the channel QFI of the GHZ input."""
    phase = p.gamma * p.tau
    s, c = sin(phase), cos(phase)
    if abs(s) < POLE_TOL:
        raise PoleProximityError(
            f"sin(gamma*tau) = {s:.2e} too close to the cotangent pole"
        )
    return p.n * (p.gamma**2 + p.omega0**2 * (c / s) ** 2)


def qfi_separable(p: AnalyticParams) -> float:
    """Channel QFI of the N-qubit product state |+>^N, N times the
    one-qubit value by additivity.  Exact: on product inputs the per-qubit
    environment basis is exhaustive (``verify`` check ``solver_vs_sld``)."""
    return p.n * qfi_one_qubit(p)


def qfi_ratio_asymptote(p: AnalyticParams) -> float:
    """N -> infinity limit of the entangled/separable QFI ratio:
    [Gamma^2 + omega0^2 cot^2] / [Gamma^2 + omega0^2 cos^2], the per-qubit
    large-N value over the one-qubit QFI."""
    return qfi_ghz_large_n(replace(p, n=1)) / qfi_one_qubit(p)


def _density_from_initial(initial) -> tuple[np.ndarray, np.ndarray]:
    """System columns F and weights W with rho_0 = F W F^dag.

    A vector must be normalized; a matrix must be a density matrix (to
    ``DENSITY_TOL``: Hermitian, unit trace, no negative eigenvalue), of any
    rank.
    """
    if isinstance(initial, StateVector):
        if ENVIRONMENT in initial.labels:
            raise ValueError("initial state must live on system qubits only")
        if not initial.is_normalized():
            raise ValueError("initial state must be normalized")
        return initial.amplitudes[:, None], np.ones((1, 1))
    if isinstance(initial, DenseOperator):
        if not initial.is_hermitian(DENSITY_TOL):
            raise ValueError("initial density matrix must be Hermitian")
        if abs(initial.trace - 1.0) > DENSITY_TOL:
            raise ValueError(f"initial density matrix has trace {initial.trace.real:.6g}")
        lowest = float(np.linalg.eigvalsh(initial.matrix)[0])
        if lowest < -DENSITY_TOL:
            raise ValueError(f"initial density matrix has eigenvalue {lowest:.3e}")
        return np.eye(initial.dim), initial.matrix
    raise TypeError("initial must be a StateVector or DenseOperator")


def _sld_information(rho: np.ndarray, drho: np.ndarray) -> float:
    """QFI from the symmetric-logarithmic-derivative eigen expansion."""
    lam, vecs = np.linalg.eigh(rho)
    d = vecs.conj().T @ drho @ vecs
    denom = lam[:, None] + lam[None, :]
    keep = denom > SLD_EIGENVALUE_FLOOR
    return float(np.sum(2.0 * np.abs(d[keep]) ** 2 / denom[keep]))


def qfi_sld_oracle(evolution: DilatedEvolution, initial, tau: float) -> float:
    """Channel QFI at interval tau from the mixed-state SLD formula.

    The input rho_0 = F W F^dag (a pure state or a density matrix) is
    paired with the environment in |0...0>, and each column f_k is evolved
    on the register, giving V_k = U(tau)|f_k, 0> as a system x environment
    matrix.  Then rho_S = sum W_kk' V_k V_k'^dag, and the derivative is
    exact: dV_k is -i G V_k for the generator G, and
    drho_S = X + X^dag with X = sum W_kk' dV_k V_k'^dag.  ``generator``
    refuses a rotation list that does not commute.  This path works in the
    Schroedinger picture and is independent of the variational solver,
    whose oracle it is: it evolves by the rotation list and never builds
    the generator's eigenframe, through which the solver evolves.  The
    evolved columns hold (number of columns) x 2^n amplitudes, which must
    fit in the dense budget; on a pure input at N = 8 the call peaks at
    about 5 such columns.
    """
    if not (tau > 0 and isfinite(tau)):
        raise ValueError(f"interval must be positive and finite, got {tau}")
    columns, weights = _density_from_initial(initial)
    if columns.shape[0] != 2 ** evolution.labels.count(SYSTEM):
        raise DimensionMismatchError("initial state does not match the system register")
    gen = generator(evolution)
    labels = evolution.labels
    # Each array is dropped once it is used up, which bounds the peak.
    evolved = _evolved_columns(evolution, columns, tau)
    generated = np.empty_like(evolved)
    for k in range(len(evolved)):
        _applied_vector(gen, evolved[k], out=generated[k])
    v = _system_env_split(evolved, labels)
    del evolved
    # conj_weighted[k] = sum_k' W_kk' V_k'^*, so rho_S[a, c] sums
    # V_k[a, b] conj_weighted[k][c, b] over k and the environment index b.
    conj_weighted = np.tensordot(weights.conj(), v, axes=1)
    np.conjugate(conj_weighted, out=conj_weighted)
    rho = np.tensordot(v, conj_weighted, axes=([0, 2], [0, 2]))
    del v
    # X = -i sum W_kk' (G V_k) V_k'^dag, as dV_k = -i G V_k.
    x = np.tensordot(
        _system_env_split(generated, labels), conj_weighted, axes=([0, 2], [0, 2])
    )
    del generated, conj_weighted
    x *= -1j
    x += x.conj().T
    return _sld_information(rho, x)
