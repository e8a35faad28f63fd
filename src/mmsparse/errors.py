"""Exception types shared across the package, and its one intake for
caller input.

Each error carries a short machine-parsable category and an exit code, so
that a caller can print a one-line failure and pick its process exit status.

Every value a caller passes in goes through one helper here, which raises
InputError: arrays through _as_finite (float64, shape, finite values),
counts through _check_count (an integer within bounds), real settings
through _check_real (a finite number within bounds), and arguments that
must be one of the package's types through _check_type. Array fields of the
frozen dataclasses are stored by _freeze as read-only copies, so that no
later write to the caller's array reaches them. Checks that relate two
values stay with the code that knows both. load_matrix checks its payload
itself: a non-finite value read from a file is a FormatError.
"""

import math
import numbers

import numpy as np


class MmsparseError(Exception):
    """Base class for all package errors."""

    category = "error"
    exit_code = 1


class InputError(MmsparseError):
    """Caller passed invalid data: bad shapes, non-finite values, bad ranges."""

    category = "input"
    exit_code = 2


class FormatError(MmsparseError):
    """A file on disk does not conform to its expected format."""

    category = "format"
    exit_code = 3


def _as_finite(x, ndim: int, dim: int | None = None, name: str = "x",
               nonempty: int = 0) -> np.ndarray:
    """x as a float64 array of `ndim` dimensions, or InputError.

    When `dim` is given the last axis must have that length. The first
    `nonempty` axes must each have length >= 1: 0 accepts empty arrays,
    1 asks for at least one row (or entry of a vector), 2 for a matrix
    with at least one row and one column. Every value must be finite.
    """
    try:
        v = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric input
        raise InputError(f"{name} is not a numeric array: {exc}") from None
    if v.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-D, got shape {v.shape}")
    if 0 in v.shape[:nonempty]:
        raise InputError(f"{name} must not be empty, got shape {v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise InputError(f"{name} has dim {v.shape[-1]}, expected {dim}")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite values")
    return v


def _check_scalar(ok: bool, value, name: str, kind: str, ge=None, gt=None, le=None) -> None:
    """InputError unless `ok` holds, value is not a bool, and value is
    >= ge, > gt and <= le (a None bound is absent)."""
    if (ok and not isinstance(value, bool) and (ge is None or value >= ge)
            and (gt is None or value > gt) and (le is None or value <= le)):
        return
    limits = " and ".join(f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<=", le))
                          if b is not None)
    raise InputError(f"{name} must be {kind} {limits}".rstrip() + f", got {value!r}")


def _check_count(value, name: str, ge: int | None = 1, le: int | None = None) -> None:
    """InputError unless value is an integer (NumPy integers pass, bool does
    not) with ge <= value <= le; a None bound is absent."""
    _check_scalar(isinstance(value, numbers.Integral), value, name, "an integer", ge=ge, le=le)


def _check_real(value, name: str, ge=None, gt=None, le=None) -> None:
    """InputError unless value is a finite real number (NumPy scalars pass,
    bool does not) that is >= ge, > gt and <= le; a None bound is absent."""
    ok = isinstance(value, numbers.Real) and math.isfinite(value)
    _check_scalar(ok, value, name, "a finite number", ge=ge, gt=gt, le=le)


def _check_type(value, cls: type, name: str) -> None:
    """InputError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _freeze(instance, field: str, array: np.ndarray) -> None:
    """Store a read-only, C-ordered copy of an already validated array as
    `field` of a frozen dataclass instance."""
    copy = np.array(array, order="C")
    copy.setflags(write=False)
    object.__setattr__(instance, field, copy)
