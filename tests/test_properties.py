"""Invariants over random rates, intervals and pure system states (N <= 2).

Examples are derandomized, so every run draws the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeno_qfi.channels import build_dephasing_model, generator, kraus_from_dilation
from zeno_qfi.paulis import variance
from zeno_qfi.qfi import (
    EnvOperatorBasis,
    minimize_qfi_bound,
    qfi_sld_oracle,
)
from zeno_qfi.states import ENVIRONMENT, SYSTEM, StateVector, tensor_state, zero_environment
from zeno_qfi.zeno import (
    ZenoProjector,
    ZenoSchedule,
    _survival_by_collapse,
    survival_probability_exact,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)

omega0s = st.floats(0.2, 2.0)
gammas = st.floats(0.0, 2.0)
taus = st.floats(0.05, 1.0)


@st.composite
def pure_states(draw, n=None, label=SYSTEM):
    """Random normalized state of ``n`` qubits (one or two if not given)."""
    if n is None:
        n = draw(st.integers(1, 2))
    parts = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1), max_size=2 ** (n + 1))
    )
    amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    if np.linalg.norm(amps) < 0.1:
        amps = np.eye(2**n)[0] + amps
    return StateVector(amps, (label,) * n).normalized()


@PROPERTY
@given(omega0s, gammas, taus, pure_states())
def test_bound_ordering(omega0, gamma, tau, system):
    """Channel QFI (SLD oracle) = complete-basis minimum <= per-qubit minimum
    <= symmetric minimum <= unoptimized 4 Var(H)."""
    n = system.n_qubits
    model = build_dephasing_model(n, omega0, gamma)
    h_hat = generator(model)
    full = tensor_state(system, zero_environment(n))

    def minimum(basis):
        return minimize_qfi_bound(h_hat, basis(model.labels), full, tau).qfi

    exact = qfi_sld_oracle(model, system, tau)
    complete = minimum(EnvOperatorBasis.complete)
    per_qubit = minimum(EnvOperatorBasis.single_qubit_paulis)
    symmetric = minimum(EnvOperatorBasis.symmetric)
    unoptimized = 4.0 * variance(h_hat, full)

    assert complete == pytest.approx(exact, rel=1e-6, abs=1e-9)
    slack = 1e-9 * max(unoptimized, 1.0)
    assert complete <= per_qubit + slack
    assert per_qubit <= symmetric + slack
    assert symmetric <= unoptimized + slack


@PROPERTY
@given(omega0s, gammas, st.floats(1e-3, 2.0), st.integers(1, 50), pure_states(), st.data())
def test_survival_is_a_probability(omega0, gamma, tau, m, system, data):
    """The closed form is a probability and equals the collapse loop."""
    n = system.n_qubits
    model = build_dephasing_model(n, omega0, gamma)
    env0 = data.draw(pure_states(n, ENVIRONMENT))
    args = (model, ZenoProjector(system), env0, ZenoSchedule(m, tau))
    p = survival_probability_exact(*args)
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(_survival_by_collapse(*args), rel=1e-12, abs=0)


@PROPERTY
@given(st.integers(1, 2), omega0s, gammas, st.floats(0.0, 20.0))
def test_kraus_completeness_at_random_times(n, omega0, gamma, t):
    kraus = kraus_from_dilation(build_dephasing_model(n, omega0, gamma), t)
    total = sum(k.matrix.conj().T @ k.matrix for k in kraus.operators)
    assert np.abs(total - np.eye(2**n)).max() <= 1e-10
    assert kraus.completeness_residual <= 1e-10
