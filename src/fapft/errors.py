"""Exception hierarchy for the toolkit, and the value checks that raise
``InvalidValue``.

Two broad families matter to callers (and to the CLI exit-code contract):
``DataError`` covers malformed or incompatible inputs (files, plans,
checkpoints), ``NumericError`` covers degenerate or diverging numerics.
"""

import numbers
import sys


class PftError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class DataError(PftError):
    """Malformed or incompatible data (files, formats, plans)."""

    exit_code = 2


class NumericError(PftError):
    """Degenerate input or numerical failure."""

    exit_code = 3


class UsageError(PftError):
    """Bad command-line usage (unknown flag, missing argument)."""

    exit_code = 1


# tensor numerics
class DimensionMismatch(NumericError):
    pass


class DegenerateVector(NumericError):
    pass


class DegenerateRanking(NumericError):
    pass


class InvalidValue(NumericError):
    pass


def require_int(name: str, value, minimum: int) -> int:
    """``value``, after raising ``InvalidValue`` unless it is an int (a bool
    or a float with an integral value is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise InvalidValue(
            f"{name} must be positive" if minimum == 1 else f"{name} must be >= {minimum}"
        )
    return value


def require_finite(name: str, value) -> float:
    """``value`` as a float, after raising ``InvalidValue`` unless it is a
    finite real number (a bool is not, nor an int beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidValue(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # an exact comparison, NaN fails it
        raise InvalidValue(f"{name} must be finite")
    return float(value)


class EmptyInput(NumericError):
    pass


# checkpoint codec
class FormatError(DataError):
    pass


class CorruptFile(DataError):
    pass


class UnsupportedDtype(DataError):
    pass


class IoError(DataError):
    pass


# architecture catalog
class UnknownArchitecture(DataError):
    pass


class UnmappedTensor(DataError):
    pass


# angle analysis
class IncompatibleCheckpoints(DataError):
    pass


class IncompatibleReports(DataError):
    pass


# freeze planning
class InvalidPolicy(DataError):
    pass


class NoGuidelines(DataError):
    pass


# training harness
class IncompatiblePlan(DataError):
    pass


class DivergenceError(NumericError):
    pass


# soup merging
class EvaluationError(NumericError):
    pass
