"""Numerical laboratory for degenerate Kimura-type diffusions.

Translate degenerate generators into SDEs, simulate them with boundary-aware
schemes, evaluate stopped stochastic representations under changes of
measure, estimate weighted transition densities, and probe two-cylinder
sup/inf ratios, all against independent closed-form and grid-solver oracles.
"""

from .errors import KimuraLabError
from .geometry import (
    DomainSpec,
    MetricBall,
    Point,
    QuadratureConfig,
    SpaceTimeCylinder,
    StateSpaceDims,
    WeightedMeasure,
    cylinder_sets,
    mu_ball,
    mu_ball_comparator,
    rho,
)
from .operators import (
    AssumptionConstants,
    SingularOperatorSpec,
    StandardOperatorSpec,
    apply_generator_batch,
    bilinear_form,
    derive_singular_from_standard,
    validate_assumptions,
)
from .sde import (
    GirsanovField,
    SdeCoefficients,
    StandardSdeCoefficients,
    build_sde_coefficients,
    build_standard_sde_coefficients,
    dispersion_sqrt_batch,
    make_girsanov_field,
)
from .simulate import PathBundle, PathConfig, simulate_bundle

__version__ = "0.1.0"

__all__ = [
    "KimuraLabError",
    "Point",
    "StateSpaceDims",
    "DomainSpec",
    "MetricBall",
    "SpaceTimeCylinder",
    "QuadratureConfig",
    "WeightedMeasure",
    "rho",
    "mu_ball",
    "mu_ball_comparator",
    "cylinder_sets",
    "AssumptionConstants",
    "StandardOperatorSpec",
    "SingularOperatorSpec",
    "apply_generator_batch",
    "bilinear_form",
    "validate_assumptions",
    "derive_singular_from_standard",
    "SdeCoefficients",
    "StandardSdeCoefficients",
    "GirsanovField",
    "build_sde_coefficients",
    "build_standard_sde_coefficients",
    "dispersion_sqrt_batch",
    "make_girsanov_field",
    "PathConfig",
    "PathBundle",
    "simulate_bundle",
]
