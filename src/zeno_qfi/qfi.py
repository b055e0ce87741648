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
quantity, which tests compare against.  One solve takes a stack of rows
(generator, state, tau) on one basis, and ``minimize_qfi_bound`` is the
one-row case.  The generator is a Pauli sum whose
terms carry one Pauli letter per qubit, as every generator the library
builds does: a local Clifford C makes it diagonal, so phi and H_hat phi are
taken in that eigenframe as elementwise products, and any other generator
is refused.  The frame depends on the generator's strings only: a stack
reads one frame for each run of generators with the same strings, and
applies C once to each distinct input of the run.  No basis element is applied either: the h_k act on the
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

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from math import cos, isfinite, sin
from typing import NamedTuple

import numpy as np

from .channels import DilatedEvolution, _evolved_columns, generator
from .dense import DenseOperator
from .exceptions import DimensionMismatchError, HermiticityError, PoleProximityError
from .paulis import (
    OperatorSum,
    PauliTerm,
    _POWERS_OF_I,
    _flipped,
    _masks,
    _rotations,
    _string_factor,
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
    """sum_e weight[k, e] r[b].flat[index[k, e]] for every row k, for each
    matrix r[b] of a stack."""
    return np.einsum("bke,ke->bk", r.reshape(len(r), -1).take(index, axis=1), weight)


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

    @cached_property
    def _table_rows(self) -> int:
        """A bound on the distinct strings among the T terms and their
        products, the rows of each product table: 1 + T(T+1)/2, and at
        most 4^k on k environment qubits."""
        n_terms = sum(len(op.terms) for op in self.elements)
        return min(4 ** self.labels.count(ENVIRONMENT), 1 + n_terms * (n_terms + 1) // 2)

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


def _joined(parts) -> np.ndarray:
    """The arrays stacked along their leading axis; a lone one as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _framed(rows):
    """Each row (H_hat, psi, tau) of a stack paired with the eigenframe of
    its generator's strings, and the environment letters the frames share.
    A frame is read once for each run of adjacent rows whose generators
    have the same strings, from the run's first generator, and serves
    every row of the run.  A generator that is not a Hermitian
    OperatorSum raises, and so does a sum with two letters on a qubit,
    which has no such frame (``ValueError``; the library builds none), and
    frames that differ in their environment letters: their rows cannot
    share one product table."""
    framed, letters = [], set()
    last = strings = frame = None
    for row in rows:
        h_hat, psi_full, _ = row
        if h_hat is not last:
            _check_generator(h_hat)
            if 2**h_hat.n_qubits != psi_full.dim:
                raise DimensionMismatchError("generator does not match the state register")
            last, previous = h_hat, strings
            strings = [t.factors for t in h_hat.terms]
            if strings != previous:
                frame = h_hat._frame
                if frame is None:
                    raise ValueError("the generator needs one Pauli letter per qubit")
                env = zip(frame.letters, psi_full.labels)
                letters.add("".join(f for f, l in env if l is ENVIRONMENT))
        framed.append((frame, row))
    if len(letters) > 1:
        raise ValueError("the stacked generators must share their environment letters")
    return framed, letters.pop()


def _distinct(objects):
    """The distinct objects of a list, by identity, in order of first
    appearance, and the position of each entry among them."""
    unique, index = {}, []
    for obj in objects:
        index.append(unique.setdefault(id(obj), (len(unique), obj))[0])
    return [obj for _, obj in unique.values()], index


def _evolved_states(framed):
    """phi = exp(-i H_hat tau)|psi> and H_hat phi for each row
    (H_hat, psi, tau) of ``_framed``, stacked along a leading axis in the
    eigenframe C of the row's generator: C phi = exp(-i tau lambda) * C psi
    and C H_hat phi = lambda * C phi, with no Pauli-string kernel.  The
    adjacent rows of one frame are evolved together: C is applied once to
    each distinct input among them (one amplitudes object) and gathered
    to the rows, and each row takes the phase and the action of lambda
    formed from its own generator's coefficients."""
    phis, applied = [], []
    for frame, group in itertools.groupby(framed, key=lambda item: item[0]):
        rows = [row for _, row in group]
        inputs, index = _distinct([psi.amplitudes for _, psi, _ in rows])
        # A lone input is rotated from a view of its state: no copy adds to
        # the peak of a large register.
        stack = inputs[0][None] if len(inputs) == 1 else np.stack(inputs)
        phi = frame.rotated(stack)
        del stack
        # Each row evolves its own copy of C psi in place; a new C psi of
        # inputs that are all distinct is that copy.
        if not frame.windows or len(index) > len(inputs):
            phi = phi.take(index, axis=0)
        reals = np.array([[t.coefficient.real for t in h_hat.terms] for h_hat, _, _ in rows])
        spectrum = frame.spectrum(reals)
        frame.evolve(phi, np.array([tau for _, _, tau in rows]), spectrum)
        phis.append(phi)
        applied.append(frame.apply(phi, spectrum))
    return _joined(phis), _joined(applied)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[r], b[r]) for each row r, the call a one-row solve makes."""
    return np.array([np.vdot(x, y) for x, y in zip(a, b)])


def _normal_equations(basis, framed, letters):
    """Quadratic forms of Var(H_hat + sum_k c_k h'_k) in the coefficients
    c, one for each row (H_hat, psi_full, tau) of a stack, given with its
    frame and their environment letters as ``_framed`` returns them.

    Every h'_k = U^dag h_k U with U = exp(-i H_hat tau), and U commutes
    with H_hat, so each covariance on psi equals the one of H_hat and the
    plain h_k on phi = U|psi>.  The h_k act on the environment alone, so
    with phi and H_hat phi as (system x environment) matrices Phi and Psi,
    <h_k h_l> and <h_k H_hat> read off r1 = Phi^dag Phi and
    r2 = Phi^dag Psi through the basis's product table.  Both are taken in
    the frame C of ``_evolved_states``: C's system part cancels in the
    partial trace, and the table reads its strings conjugated by C's
    environment part, so nothing is transformed back.  Returns, stacked
    over the rows, Var H_hat, the Gram matrices of covariances
    Re<h_k h_l> - <h_k><h_l> (exactly symmetric) and the cross covariances
    with H_hat.  Every per-row array is C-contiguous, so each row meets
    the BLAS calls of a one-row stack and rounds as it would alone.
    """
    phi, applied = _evolved_states(framed)
    h_mean = _dots(phi, applied).real
    h_variance = _dots(applied, applied).real - h_mean**2
    phi_mat = _system_env_split(phi, basis.labels)
    left = np.swapaxes(phi_mat.conj(), 1, 2)
    r1 = left @ phi_mat
    # Each 2^n array is dropped once it is used up, which bounds the peak.
    del phi, phi_mat
    r2 = left @ _system_env_split(applied, basis.labels)
    del left, applied
    t = basis._products(letters)
    means = _traces(r1, t.term_index, t.term_weight).real
    cross = _traces(r2, t.term_index, t.term_weight).real
    products = _traces(r1, t.product_index, t.product_sign)
    second = (t.pair_coef * products.take(t.pair, axis=1)).real
    if t.owner is not None:
        means = (t.owner @ means[:, :, None])[:, :, 0]
        cross = (t.owner @ cross[:, :, None])[:, :, 0]
        second = t.owner @ second @ t.owner.T
    # An anticommuting pair leaves rounding of opposite sign in the two
    # triangles; the symmetrised sum is exactly symmetric.
    gram = 0.5 * (second + np.swapaxes(second, 1, 2))
    gram -= means[:, :, None] * means[:, None, :]
    return h_variance, gram, cross - h_mean[:, None] * means


def _bound_at(coeff, h_variance, gram, cross):
    """4 Var(H_hat + sum_k c_k h_k) on phi, from the quadratic form, for
    one row or a stack of them along the leading axes."""
    row = coeff[..., None, :]
    linear = (row @ cross[..., None])[..., 0, 0]
    var = h_variance + 2.0 * linear + (row @ gram @ coeff[..., None])[..., 0, 0]
    return 4.0 * np.maximum(var, 0.0)


class _Minima(NamedTuple):
    """``VariationalSolution`` fields stacked over the rows of a solve."""

    coefficients: np.ndarray
    qfi: np.ndarray
    gram_condition: np.ndarray
    rank: np.ndarray
    residual: np.ndarray


def _solve(h_variance, gram, cross) -> _Minima:
    """Minimize each row's quadratic form (see ``minimize_qfi_bound``)."""
    lam, u = np.linalg.eigh(gram)
    # Eigenpairs by decreasing |lambda|, with u C-ordered: the order and
    # layout of np.linalg.svd(gram, hermitian=True), which is eigh plus this
    # sort, so the products below round exactly as its pseudo-inverse does.
    order = np.argsort(np.abs(lam), axis=-1)[:, ::-1]
    n_rows, k = lam.shape
    first = k * np.arange(n_rows)[:, None]  # where each row starts in lam
    lam = lam.take(first + order)
    u = u.take(k * first[:, :, None] + k * np.arange(k)[:, None] + order[:, None])
    # An all-zero G keeps nothing: zero coefficients, rank 0 and an
    # infinite condition.
    s = np.abs(lam)
    s_max, s_min = s[:, 0], s[:, -1]
    kept = s > GRAM_CUTOFF * s_max[:, None]
    inv = np.where(kept, 1.0 / np.where(kept, lam, 1.0), 0.0)
    projected = (np.swapaxes(u, 1, 2) @ cross[:, :, None])[:, :, 0]
    coeff = -(u @ (inv * projected)[:, :, None])[:, :, 0]
    condition = np.divide(s_max, s_min, out=np.full_like(s_max, np.inf), where=s_min > 0)
    gap = (gram @ coeff[:, :, None])[:, :, 0] + cross
    return _Minima(
        coeff,
        _bound_at(coeff, h_variance, gram, cross),
        condition,
        kept.sum(axis=-1),
        np.sqrt(_dots(gap, gap)),
    )


# A stacked solve, and a stack of SLD rows, takes its rows in chunks whose
# stacked arrays (register vectors or evolved columns, or the table's
# gather of r1) hold at most this many complex numbers, a quarter of one
# vector at N = 8; a chunk holds at least one row.  With 2^16 a ``verify``
# run peaked 1.7 MB higher in RSS; 2^14 ran as fast.
_STACK_BUDGET = 2**14


def _minimize_rows(basis: EnvOperatorBasis, rows) -> _Minima:
    """``minimize_qfi_bound`` for each row (H_hat, psi_full, tau) on one
    basis, as a stack: the rows are paired with their frames first, one
    frame for each run of generators with the same strings however many
    chunks it spans (``_framed``), the rows of one frame are evolved
    together, and everything after the evolution is one batched
    computation, in chunks of rows that stay within ``_STACK_BUDGET``.
    Every generator must have the same eigenframe letters on the
    environment, as all of one basis's rows share its product table.  Each
    row's values equal a one-row solve's to the bit (see
    ``_normal_equations``)."""
    rows = list(rows)
    for _, psi_full, tau in rows:
        if not isfinite(tau):
            raise ValueError(f"interval must be finite, got {tau}")
        if basis.labels != psi_full.labels:
            raise DimensionMismatchError("basis register does not match the state register")
    d_env = 2 ** basis.labels.count(ENVIRONMENT)
    per_row = max(2 ** len(basis.labels), basis._table_rows * d_env)
    step = max(1, _STACK_BUDGET // per_row)
    framed, letters = _framed(rows)
    parts = [
        _solve(*_normal_equations(basis, framed[i : i + step], letters))
        for i in range(0, len(rows), step)
    ]
    return _Minima(*(_joined(field) for field in zip(*parts)))


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
    This is the one-row case of the stacked solve ``_minimize_rows``, whose
    rows (H_hat, psi, tau) ``verify`` solves a register size at a time.
    A per-qubit solve at N = 8 (16 qubits, 24 elements) peaks at 4.0 MiB of
    ``tracemalloc`` (4.5 MiB when it also builds the basis's product table),
    four vectors of the register.  The bound at the returned coefficients
    is the quadratic form 4 max(Var H_hat + 2 c.b + c^T G c, 0).  Degenerate Gram matrices
    are handled by a pseudo-inverse: G is symmetric, so its singular values
    are the magnitudes |lambda| of its eigenvalues, and those below 1e-10 of
    the largest are treated as zero; the raw condition number, the rank
    kept and the residual |G c + b| are reported for diagnostics.  H_hat
    must be a Hermitian Pauli sum with one letter per qubit (see
    ``_evolved_states``).  A basis whose labels differ from the state's
    raises ``DimensionMismatchError``: its "environment" operators would
    act on system qubits.
    """
    solved = _minimize_rows(basis, [(h_hat, psi_full, tau)])
    return VariationalSolution(
        solved.coefficients[0],
        float(solved.qfi[0]),
        float(solved.gram_condition[0]),
        int(solved.rank[0]),
        float(solved.residual[0]),
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


def _sld_information(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """QFI from the symmetric-logarithmic-derivative eigen expansion, for
    each matrix pair along the leading axes: the sum of
    2 |<i|drho|j>|^2 / (lambda_i + lambda_j) over the eigenpairs of rho,
    without the pairs whose lambda_i + lambda_j is not above
    ``SLD_EIGENVALUE_FLOOR``."""
    lam, vecs = np.linalg.eigh(rho)
    # 2 |d|^2 / denom is formed in one array, in place, and each matrix
    # is dropped once it is used up, which bounds the peak.
    terms = np.abs(np.swapaxes(vecs.conj(), -1, -2) @ drho @ vecs)
    del vecs
    np.square(terms, out=terms)
    terms *= 2.0
    denom = lam[..., :, None] + lam[..., None, :]
    keep = denom > SLD_EIGENVALUE_FLOOR
    np.divide(terms, denom, out=terms, where=keep)
    terms *= keep
    return terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)


def _sld_rows(rows) -> np.ndarray:
    """``qfi_sld_oracle`` for each row (evolution, initial, tau) of a stack.

    The rows share their labels, rotation strings and the input's column
    count; a stack that mixes them raises ``ValueError``.  Each row's rates
    come from its own rotation list, and its generator from ``generator``,
    called once for each distinct evolution, so a rotation list that does
    not commute raises.  The rows are solved in chunks whose evolved
    columns stay within ``_STACK_BUDGET`` (a chunk holds at least one row):
    one rotation pass per string with an angle per row, each row's
    generator accumulated in place, rho_S and drho_S by batched products
    and one batched ``eigh``.  Each row's value equals a one-row stack's to
    the bit.
    """
    rows = list(rows)
    if not rows:
        return np.zeros(0)
    inputs, coefficients = [], {}
    for evolution, initial, tau in rows:
        if not (tau > 0 and isfinite(tau)):
            raise ValueError(f"interval must be positive and finite, got {tau}")
        columns, weights = _density_from_initial(initial)
        if columns.shape[0] != 2 ** evolution.labels.count(SYSTEM):
            raise DimensionMismatchError("initial state does not match the system register")
        if id(evolution) not in coefficients:
            terms = generator(evolution).terms
            coefficients[id(evolution)] = {t.factors: t.coefficient for t in terms}
        inputs.append((columns, weights))
    first = rows[0][0]
    strings = [p.factors for _, p in first.rotations]
    for (evolution, _, _), (columns, _) in zip(rows, inputs):
        if (
            evolution.labels != first.labels
            or [p.factors for _, p in evolution.rotations] != strings
            or columns.shape != inputs[0][0].shape
        ):
            raise ValueError(
                "the stacked rows must share their labels, rotation strings and column count"
            )
    # The generator's strings in its term order; a row whose generator
    # pruned a string takes it with coefficient 0.
    terms = sorted(set(strings))
    plan_of = dict(zip(strings, first._plans))
    term_plans = [plan_of[f] for f in terms]
    rates = np.array([[rate for rate, _ in u.rotations] for u, _, _ in rows]).reshape(len(rows), -1)
    thetas = rates * np.array([tau for _, _, tau in rows], dtype=float)[:, None]
    coefs = np.array(
        [[coefficients[id(u)].get(f, 0.0) for f in terms] for u, _, _ in rows], dtype=np.complex128
    ).reshape(len(rows), -1)
    columns = np.array([c for c, _ in inputs])
    weights = np.array([w for _, w in inputs])
    step = max(1, _STACK_BUDGET // (columns.shape[2] * 2**first.n_qubits))
    return _joined([
        _sld_chunk(first, term_plans, *(a[i : i + step] for a in (thetas, coefs, columns, weights)))
        for i in range(0, len(rows), step)
    ])


def _sld_chunk(first, term_plans, thetas, coefs, columns, weights) -> np.ndarray:
    """The SLD QFI of each row of a chunk of ``_sld_rows``: its columns
    (R, d_S, K) and weights (R, K, K), evolved by the rotation strings of
    ``first`` at the angles ``thetas`` (R, J), with the generator's terms
    weighted by ``coefs`` (R, T)."""
    labels = first.labels
    rotations = _rotations(first._plans, thetas.T[:, :, None])
    # Each array is dropped once it is used up, which bounds the peak.
    evolved = _evolved_columns(labels, rotations, columns)
    # Each row's generator term by term, as ``_applied_vector`` applies a
    # sum: the first term written into the output, each later one added.
    generated = np.empty_like(evolved) if term_plans else np.zeros_like(evolved)
    for j, (plan, coef) in enumerate(zip(term_plans, coefs.T)):
        factor = _string_factor(plan, coef[:, None])
        if j == 0:
            _flipped(plan, evolved, factor, out=generated)
        else:
            generated += _flipped(plan, evolved, factor)
    v = _system_env_split(evolved, labels)
    del evolved
    n_rows, k, d_sys, d_env = v.shape
    # conj_weighted[r, k] = sum_k' W_kk' V_k'^*, so rho_S[a, c] sums
    # V_k[a, b] conj_weighted[k][c, b] over k and the environment index b:
    # one product of (d_S, K d_E) by (K d_E, d_S) matrices per row.
    conj_weighted = weights.conj() @ v.reshape(n_rows, k, -1)
    np.conjugate(conj_weighted, out=conj_weighted)
    right = conj_weighted.reshape(v.shape).transpose(0, 1, 3, 2).reshape(n_rows, k * d_env, d_sys)
    del conj_weighted

    def left(a):
        return a.transpose(0, 2, 1, 3).reshape(n_rows, d_sys, k * d_env)

    rho = left(v) @ right
    del v
    # X = -i sum W_kk' (G V_k) V_k'^dag, as dV_k = -i G V_k.
    x = left(_system_env_split(generated, labels)) @ right
    del generated, right
    x *= -1j
    x += np.swapaxes(x.conj(), 1, 2)
    return _sld_information(rho, x)


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
    the generator's eigenframe, through which the solver evolves.  It is
    the one-row case of the stacked ``_sld_rows``, which ``verify`` calls
    once per register size.  The evolved columns hold
    (number of columns) x 2^n amplitudes, which must fit in the dense
    budget; on a pure input at N = 8 to 10 the call peaks at 5.0 such
    columns.

    The SLD sum drops each eigenpair whose lambda_i + lambda_j is not above
    ``SLD_EIGENVALUE_FLOOR``.  Where rho_S is about to lose rank, its small
    eigenvalue falls under the floor and its term of the QFI is dropped
    with no warning: on |+> with omega0 = gamma = 1 the call returns about
    1.0 in place of omega0^2 cos^2(gamma tau) + gamma^2 = 2.0 wherever
    |gamma tau - k pi| <= about 1e-5, tau -> 0 included.  The SLD QFI is
    discontinuous where the rank changes (Safranek, PRA 95, 052320 (2017)).
    """
    return float(_sld_rows([(evolution, initial, tau)])[0])
