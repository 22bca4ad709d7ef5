"""Exception types shared across the package."""


class KacRiceError(Exception):
    """Base class for all package errors."""


class DomainError(KacRiceError, ValueError):
    """An input violates a documented precondition (dimensions, emptiness, SPD-ness)."""


class DegenerateModelError(KacRiceError, ValueError):
    """A covariance block required to be positive definite is numerically singular."""


class ConfigurationError(KacRiceError, ValueError):
    """An experiment or estimator configuration is invalid or incomplete."""


class NumericError(KacRiceError, ArithmeticError):
    """Non-finite values were produced where finite ones are required."""
