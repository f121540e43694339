"""Exception types shared across the package, and the checked number conversion."""

import math


class SubsampleNNError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SubsampleNNError):
    """Operand shapes are incompatible."""


class ParameterError(SubsampleNNError):
    """A parameter is outside its valid range."""


def _number(path: str, number, value):
    """value as an int or a float; an int setting takes no fractional value, a
    float setting no NaN or infinity, and no setting a boolean."""
    try:
        converted = None if isinstance(value, bool) else number(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if (converted is None or (number is int and isinstance(value, float) and converted != value)
            or (number is float and not math.isfinite(converted))):
        raise ParameterError(f"{path} must be {'an integer' if number is int else 'a number'}"
                             f", got {value!r}")
    return converted


class FormatError(SubsampleNNError):
    """A binary file does not match the expected layout."""


class DegenerateInputError(SubsampleNNError):
    """Input admits no valid sampling distribution (e.g. all norms zero)."""


class NormBoundError(SubsampleNNError):
    """A vector violates the norm bound required by a transform."""


class PreconditionError(SubsampleNNError):
    """An operation was called on inputs it is not defined for."""


class NumericError(SubsampleNNError):
    """A computation produced NaN or Inf."""
