"""Expected counts of transverse intersections of Gaussian random fields.

The package pairs closed-form and cubature evaluators of Kac-Rice-type
formulas (``kacrice.formulas``) with brute-force realization-counting
oracles (``kacrice.oracle``) that avoid those formulas entirely, so every
formula can be validated against an independent Monte Carlo estimate.
"""

from .estimate import Estimate
from .errors import (
    ConfigurationError,
    DegenerateModelError,
    DomainError,
    KacRiceError,
    NumericError,
)
from .fields import isotropic_model, jet_covariance, kostlan_model, sample
from .formulas import (
    density_point,
    expected_count,
    isotropic_point_count,
    isotropic_sphere_count,
    mixed_kostlan_count,
    shub_smale,
)
from .oracle import count_zeros_circle, kinematic_mc, mc_expected_count

__all__ = [
    "Estimate",
    "KacRiceError",
    "DomainError",
    "DegenerateModelError",
    "ConfigurationError",
    "NumericError",
    "kostlan_model",
    "isotropic_model",
    "jet_covariance",
    "sample",
    "density_point",
    "expected_count",
    "isotropic_point_count",
    "isotropic_sphere_count",
    "mixed_kostlan_count",
    "shub_smale",
    "count_zeros_circle",
    "mc_expected_count",
    "kinematic_mc",
]

__version__ = "0.1.0"
