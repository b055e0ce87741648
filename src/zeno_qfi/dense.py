"""Dense complex operators: matrix exponentials and partial traces.

Dense matrices are the small-register oracle representation.  One budget
bounds every dense array: at most 4^DENSE_QUBIT_CAP complex entries, one
operator on ``DENSE_QUBIT_CAP`` qubits.  Larger requests refuse to run so
that callers fall back to the Pauli-string path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DenseCapError, DimensionMismatchError, HermiticityError
from .states import Subsystem

DENSE_QUBIT_CAP = 12

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Square complex matrix acting on a 2^n-dimensional register."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("operator matrix must be square")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return float(np.abs(self.matrix - self.matrix.conj().T).max()) <= tol


def check_dense_budget(entries: int) -> None:
    """Refuse a dense array of more than 4^DENSE_QUBIT_CAP complex entries."""
    if entries > 4**DENSE_QUBIT_CAP:
        raise DenseCapError(
            f"dense array of {entries} entries exceeds the budget of "
            f"4^{DENSE_QUBIT_CAP} = {4**DENSE_QUBIT_CAP}"
        )


def hermitian_expm(h: DenseOperator, t: float) -> DenseOperator:
    """Unitary exp(-i H t) of a Hermitian matrix via eigendecomposition.

    Eigendecomposition keeps the result unitary to solver accuracy, which a
    truncated series would not.
    """
    if not h.is_hermitian():
        raise HermiticityError("hermitian_expm requires a Hermitian matrix")
    w, v = np.linalg.eigh(h.matrix)
    phases = np.exp(-1j * w * t)
    return DenseOperator((v * phases) @ v.conj().T)


def partial_trace(
    rho: DenseOperator, labels: tuple[Subsystem, ...], keep: Subsystem
) -> DenseOperator:
    """Trace out every qubit not labeled ``keep``.

    Parameters
    ----------
    rho : DenseOperator
        Operator on the full register (dimension 2^len(labels)).
    labels : tuple of Subsystem
        Per-qubit tags, most significant bit first.
    keep : Subsystem
        Which subsystem survives.

    Returns
    -------
    DenseOperator on the kept qubits, in their original relative order.
    """
    n = len(labels)
    if rho.dim != 2**n:
        raise DimensionMismatchError(
            f"operator dimension {rho.dim} does not factorize over {n} qubits"
        )
    keep_pos = [i for i, l in enumerate(labels) if l is keep]
    drop_pos = [i for i, l in enumerate(labels) if l is not keep]
    d_keep = 2 ** len(keep_pos)
    d_drop = 2 ** len(drop_pos)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    perm = keep_pos + drop_pos + [n + p for p in keep_pos] + [n + p for p in drop_pos]
    tensor = np.transpose(tensor, perm).reshape(d_keep, d_drop, d_keep, d_drop)
    return DenseOperator(np.einsum("abcb->ac", tensor))

