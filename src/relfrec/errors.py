"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: DataError -> 2,
NumericDivergenceError -> 3, UnknownIdError -> 4. check_integers and
check_finite are the config types' checks of their integer and real
fields.
"""

import math
from numbers import Integral, Real


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


def check_finite(config, *names):
    """Raise ValueError unless each named field of config is a finite
    real number (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
