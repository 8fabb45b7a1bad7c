"""Semantic exception hierarchy shared by all kimura_lab modules."""


class KimuraLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(KimuraLabError):
    """Operands live in state spaces of different dimensions."""


class InvalidWeightError(KimuraLabError):
    """A measure weight is non-integrable or violates its lower bound."""


class InvalidHarnackParametersError(KimuraLabError):
    """Cylinder-pair parameters (c, d) are outside their admissible range."""


class NonDerivableError(KimuraLabError):
    """The pointwise linear system tying the two operator forms is singular."""


class EllipticityViolationError(KimuraLabError):
    """A diffusion matrix is not positive (semi)definite where required."""


class InvalidMatrixError(KimuraLabError):
    """Matrix input fails a structural requirement (e.g. symmetry)."""


class NumericFailureError(KimuraLabError):
    """NaN/Inf propagation or overflow detected during a numeric run."""


class WeightBlowupError(NumericFailureError):
    """A change-of-measure log weight is not finite or overflows ``exp``."""


class InvalidStartError(KimuraLabError):
    """Simulation start point is outside the domain."""


class BoundaryDataGapError(KimuraLabError):
    """Boundary data could not be evaluated at a sampled exit point."""


class InvalidTestFunctionError(KimuraLabError):
    """A test function is not compactly supported inside the domain."""


class UnstableConfigurationError(KimuraLabError):
    """A deterministic solver configuration was detected to be unstable."""


class ConfigError(KimuraLabError):
    """A run configuration failed schema validation."""
