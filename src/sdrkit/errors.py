"""Exception types and the parameter checks shared across the package.

An encoder's constructor raises `ConfigError` at the first parameter that
fails its check, and keeps its advisory warnings as plain strings on
``.warnings``."""

from __future__ import annotations

import math
import numbers


class SdrError(Exception):
    """Base class for all sdrkit errors."""


class DimensionMismatch(SdrError):
    """Two SDRs of different total length were compared."""


class InvalidSdr(SdrError):
    """An SDR violates its structural invariants."""


class ParseError(SdrError):
    """A serialized SDR could not be parsed."""


class ConfigError(SdrError):
    """An encoder or pipeline configuration is structurally invalid."""


class InputError(SdrError):
    """An input value cannot be encoded (non-finite, wrong type, ...)."""


class RangeError(SdrError):
    """A derived integer fell outside its required machine range."""


class UnknownCategoryError(SdrError):
    """A category label is not in the configured vocabulary."""


class MissingFieldError(SdrError):
    """A record is missing a field required by the encoder."""


class EvaluationError(SdrError):
    """A user-supplied distance function failed during evaluation."""


class ProjectionError(SdrError):
    """A geographic coordinate lies outside the projection's validity."""


def _shown(value) -> str:
    """``repr(value)`` for an error message; where that raises, as it does
    for an int past the interpreter's digit limit, alone or inside a
    container, a short text naming the value's type instead."""
    try:
        return repr(value)
    except Exception:
        if isinstance(value, int):
            return f"<{type(value).__name__} of {value.bit_length()} bits>"
        return f"<{type(value).__name__} that cannot be shown>"


def is_integer(value) -> bool:
    """An int, never a bool: the check for every integer parameter."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite real number, never a bool: the check for every real
    parameter.  An int past the float range counts as not finite."""
    # float and int first: they pass without the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
