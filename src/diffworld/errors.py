"""Exception hierarchy shared across the package, where a check failed, and
the one checker of each kind of argument: an integer (:func:`check_integer`),
the clock and sizes of a transform (:func:`check_framing`), a finite real
(:func:`check_real`) and a real array (:func:`real_array`).  A ``bool`` is
neither an integer nor a real; numpy scalars are.  Each names the argument.
"""

import math

import numpy as np

MAX_FFT_SIZE = 1 << 16  # bounds every transform and the (mels x bins) codec basis


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


def check_integer(value, name: str, minimum: int | None = None,
                  error: type[DiffworldError] = ValidationError) -> None:
    """Raise ``error`` unless ``value`` is an integer, and at least ``minimum``
    when one is given; the message states the whole rule."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        rule = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise error(f"{name} must be {rule}, got {value!r}")


def check_framing(where: str = "", *, transform: bool = False,
                  error: type[DiffworldError] = ValidationError, **framing) -> None:
    """Raise ``error``, naming the keyword after ``where``, unless each keyword
    is an integer: a size (``fft_size``, ``window``, ``n``) a power of two from 2
    for a ``transform``, else in [1, MAX_FFT_SIZE]; a hop, length, rate or count >= 1."""
    for name, value in framing.items():
        check_integer(value, where + name, error=error)
        if name not in ("fft_size", "window", "n"):
            if value < 1:
                raise error(f"{where}{name} must be >= 1, got {value}")
        elif transform:
            if value < 2 or value & (value - 1):
                raise error(f"{where}{name} must be a power of two >= 2, got {value}")
        elif not 1 <= value <= MAX_FFT_SIZE:
            raise error(f"{where}{name} must be in [1, {MAX_FFT_SIZE}], got {value}")


def check_real(value, name: str, minimum: float | None = None,
               rule: str | None = None) -> None:
    """Raise ``ValidationError`` unless ``value`` is a finite real, and at least
    ``minimum`` when one is given; ``rule`` words the rule in the message."""
    number = not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating))
    # a Python int is finite, and may be too large for math.isfinite
    finite = number and (isinstance(value, int) or math.isfinite(value))
    if not finite or (minimum is not None and value < minimum):
        rule = rule or ("finite" if minimum is None else f"finite and >= {minimum}")
        raise ValidationError(f"{name} must be {rule}, got "
                              f"{value if number else repr(value)}")


def real_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, unless it is complex: the cast drops its imaginary part."""
    if np.iscomplexobj(x):
        raise ValidationError(f"{name} must be real, got a complex array")
    return np.asarray(x, dtype=np.float64)
