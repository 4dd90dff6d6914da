"""Exception hierarchy for the toolkit, the value checks that raise
``InvalidValue``, the one check of a checkpoint's tensor names and shapes,
and the boundary for data read from outside.

Two broad families matter to callers (and to the CLI exit-code contract):
``DataError`` covers malformed or incompatible inputs (files, plans,
checkpoints), ``NumericError`` covers degenerate or diverging numerics.

Every JSON input (train config and its dataset spec, plan, angle report,
soup recipe, a checkpoint's ``pft.arch_config``) crosses one boundary, so a bad
value read from a file is bad data (exit 2), never a numerical failure
(exit 3). :func:`parse_json` parses the text, and :func:`reading` maps what
building the object raises: a missing field or a wrong type is "malformed",
a failed value check "invalid". A flag such as ``--dims`` is not a file, so
the CLI maps its errors to usage errors (exit 1) itself.
"""

import json
import numbers
import sys
from contextlib import contextmanager


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


def require_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value``, after raising ``InvalidValue`` unless it is an int (a bool
    or a float with an integral value is not) of at least ``minimum`` and,
    when given, at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise InvalidValue(
            f"{name} must be positive" if minimum == 1 else f"{name} must be >= {minimum}"
        )
    if maximum is not None and value > maximum:
        raise InvalidValue(f"{name} must be <= {maximum}")
    return value


def require_finite(name: str, value) -> float:
    """``value`` as a float, after raising ``InvalidValue`` unless it is a
    finite real number (a bool is not, nor an int beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidValue(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # an exact comparison, NaN fails it
        raise InvalidValue(f"{name} must be finite")
    return float(value)


def require_str(name: str, value) -> str:
    """``value``, after raising ``InvalidValue`` unless it is a string."""
    if not isinstance(value, str):
        raise InvalidValue(f"{name} must be a string, got {value!r}")
    return value


def require_shapes(shapes, need, what: str, of: str) -> None:
    """Raise ``IncompatibleCheckpoints`` unless ``shapes`` (tensor name ->
    shape) holds exactly the tensors of ``need``, each with its shape.
    ``what`` names the checkpoint and ``of`` what it is checked against; a
    caller that needs only some of a checkpoint's tensors passes only those."""
    for name, shape in need.items():
        if name not in shapes:
            raise IncompatibleCheckpoints(f"{what}: lacks tensor {name!r} of the {of}")
        if shapes[name] != shape:
            raise IncompatibleCheckpoints(
                f"{what}: tensor {name!r} has shape {shapes[name]}, the {of} needs {shape}"
            )
    extra = sorted(shapes.keys() - need.keys())
    if extra:
        raise IncompatibleCheckpoints(f"{what}: tensor {extra[0]!r} is not in the {of}")


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


def parse_json(data, what: str):
    """``data`` parsed when it is text (str or bytes), else ``data`` itself;
    text that is not JSON is a ``FormatError`` naming ``what``."""
    if not isinstance(data, (str, bytes)):
        return data
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or too many digits
        raise FormatError(f"malformed {what} JSON: {exc}") from exc


@contextmanager
def reading(what: str):
    """Map a missing field or wrong type met while building ``what`` to a
    "malformed", and a failed value or policy check to an "invalid",
    ``FormatError``."""
    try:
        yield
    except (KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"malformed {what}: {exc}") from exc
    except (InvalidValue, InvalidPolicy) as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc
