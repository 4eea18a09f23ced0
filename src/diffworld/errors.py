"""Exception hierarchy shared across the package, and where a check failed."""

import numpy as np


def first_index(mask) -> tuple:
    """Index of the first true entry of a boolean array (one must be true)."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


class DiffworldError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DiffworldError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(DiffworldError):
    """An input value lies outside the mathematical domain of an operation."""


class FormatError(DiffworldError):
    """A file or byte stream does not conform to its expected format."""


class ValidationError(DiffworldError):
    """Data violates a documented invariant (reported with its location)."""
