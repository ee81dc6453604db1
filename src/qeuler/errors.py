"""Exception types shared across the package, and its one integer check."""

import operator


class QeulerError(Exception):
    """Base class for every package-specific error."""


class DimensionError(QeulerError, ValueError):
    """The shape or size of an input rules the operation out."""


class NumericError(QeulerError, ValueError):
    """Non-finite entries or a numerically meaningless request."""


class CapabilityError(QeulerError, ValueError):
    """The request is well-formed but outside what this package will attempt."""


class NotAPrimePowerError(QeulerError, ValueError):
    """Raised where only prime-power orders admit a construction."""


class InvalidDesignError(QeulerError, ValueError):
    """A square or array fails the combinatorial conditions it claims."""


class NotAnOlsError(InvalidDesignError):
    """A matrix or pair of squares is not an orthogonal Latin pair."""


class FormatError(QeulerError, ValueError):
    """A serialized artifact violates its documented JSON layout."""


def _integer(name, value, error=ValueError) -> int:
    """value as an int; numpy integers pass, and a bool or anything else raises error."""
    if not isinstance(value, bool):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an int, got {value!r}")
