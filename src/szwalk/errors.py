"""Exception types shared across the package, and the two rules every check uses."""

from typing import Callable


class SZWalkError(Exception):
    """Base class for all package errors."""


class ValidationError(SZWalkError, ValueError):
    """An input violates a documented precondition or type invariant."""


class NumericError(SZWalkError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""


class AccuracyError(SZWalkError):
    """Result accuracy cannot be guaranteed (e.g. too much pruned mass)."""


class ResourceLimitError(SZWalkError):
    """A budget (live branches, walk dimension) was exceeded."""


class UnsupportedConfigurationError(SZWalkError):
    """The requested computation is unavailable for this configuration."""


def require(ok, message: str | Callable[[], str],
            error: type[SZWalkError] = ValidationError) -> None:
    """Raise `error(message)` unless `ok`, the condition that must hold (so a NaN fails it).

    Inside a loop, pass `message` as a function returning it: it is formatted only on failure.
    """
    if not ok:
        raise error(message() if callable(message) else message)


def is_kind(value, kind: type | tuple[type, ...]) -> bool:
    """The number rule: `value` is a `kind`, a bool counts only as a bool, nothing is converted."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
