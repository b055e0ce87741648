"""Quantum Zeno dynamics of noisy channels.

Exact survival probabilities under repeated projective measurement,
Zeno-time bounds, and channel quantum Fisher information obtained by
variational minimization over environment operators, with closed-form
results for the dephasing-coupling model and independent numerical oracles.
"""

from .channels import (
    DilatedEvolution,
    KrausSet,
    apply_channel,
    build_dephasing_model,
    evolve,
    generator,
    kraus_from_dilation,
)
from .dense import (
    DENSE_QUBIT_CAP,
    DenseOperator,
    hermitian_expm,
    partial_trace,
)
from .exceptions import (
    ConfigError,
    DenseCapError,
    DimensionMismatchError,
    HermiticityError,
    PoleProximityError,
    TracePreservationError,
)
from .paulis import (
    OperatorSum,
    PauliTerm,
    apply_operator,
    pauli_product,
    pauli_rotation_apply,
    paulis_commute,
    to_dense,
    variance,
)
from .qfi import (
    AnalyticParams,
    EnvOperatorBasis,
    VariationalSolution,
    conjugate_env_operator,
    minimize_qfi_bound,
    optimal_env_coefficients,
    qfi_ghz,
    qfi_ghz_large_n,
    qfi_one_qubit,
    qfi_ratio_asymptote,
    qfi_separable,
    qfi_sld_oracle,
)
from .states import (
    ENVIRONMENT,
    SYSTEM,
    StateVector,
    Subsystem,
    basis_state,
    ghz_state,
    plus_state,
    tensor_state,
    zero_environment,
)
from .sweeps import (
    MODES,
    SweepConfig,
    Table,
    VerifyCheck,
    VerifyReport,
    run_qfi_vs_gamma,
    run_ratio_vs_n,
    run_verify,
    run_zeno_time,
)
from .zeno import (
    ZenoProjector,
    ZenoSchedule,
    conditional_state,
    survival_probability_exact,
    survival_probability_quadratic,
    zeno_hamiltonian,
    zeno_time,
)

__version__ = "0.1.0"
