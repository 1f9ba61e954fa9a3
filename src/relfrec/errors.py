"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: DataError -> 2,
NumericDivergenceError -> 3, UnknownIdError -> 4. check_integers is
the config types' check of their integer fields.
"""

from numbers import Integral


class RelfrecError(Exception):
    """Base class for all errors raised by this package."""


class DataError(RelfrecError):
    """Unreadable, malformed, or empty input data."""


class EmptyJoinError(DataError):
    """Joining ratings with item metadata left nothing."""


class NumericDivergenceError(RelfrecError):
    """Embedding training produced NaN or Inf values."""


class UnknownIdError(RelfrecError):
    """An id was not found where the contract requires it to exist."""


def check_integers(config, **minimums):
    """Raise ValueError unless each named field of config is an integer
    (a bool is not) of at least its minimum."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
