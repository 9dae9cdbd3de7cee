"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole of the gamma function."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""


class EvaluationError(RuntimeError):
    """A target function could not be evaluated at the requested point."""


class NumericalFailureError(RuntimeError):
    """An iteration produced non-finite intermediate values."""


class InsufficientDataError(ValueError):
    """Not enough usable data for a diagnostic."""


# what a target raises where it cannot be evaluated; a solve that meets one
# ends NumericalFailure
TARGET_FAILURES = (EvaluationError, OverflowError, ZeroDivisionError)
