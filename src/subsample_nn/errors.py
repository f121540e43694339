"""Exception types shared across the package, the checked number conversion and block reader."""

import math
import os

import numpy as np


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


def _read_block(f, path, dtype, count, what) -> np.ndarray:
    """The next count values of dtype from the binary file f. The size is
    checked against the bytes left in the file before anything is read, so a
    header that declares more data than the file holds raises FormatError, not
    MemoryError."""
    at, size = f.tell(), np.dtype(dtype).itemsize * count
    left = os.fstat(f.fileno()).st_size - at
    if size > left:
        raise FormatError(f"{path}: truncated {what} at byte {at} "
                          f"(wants {size} bytes, {left} left)")
    return np.frombuffer(f.read(size), dtype=dtype)


class DegenerateInputError(SubsampleNNError):
    """Input admits no valid sampling distribution (e.g. all norms zero)."""


class NormBoundError(SubsampleNNError):
    """A vector violates the norm bound required by a transform."""


class NumericError(SubsampleNNError):
    """A computation produced NaN or Inf."""
