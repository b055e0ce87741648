"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Register sizes, operator lengths, or matrix dimensions disagree."""


class HermiticityError(ValueError):
    """An operator required to be Hermitian is not, within tolerance."""


class DenseCapError(ValueError):
    """A dense-matrix operation was requested above the qubit cap."""


class TracePreservationError(ValueError):
    """A Kraus set fails the completeness (trace-preservation) check."""


class PoleProximityError(ValueError):
    """An analytic formula was evaluated too close to one of its poles."""


class ConfigError(ValueError):
    """A sweep configuration is malformed or incomplete."""
