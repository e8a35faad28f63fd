"""Exception types shared across the package, and its one input check.

Each error carries a short machine-parsable category and an exit code, so
that a caller can print a one-line failure and pick its process exit status.

Public entry points check the numeric arrays a caller passes with
_as_finite, which casts them to float64 and raises InputError for a wrong
number of dimensions, a wrong last-axis length, an empty leading axis or a
non-finite value. load_matrix checks its payload itself, because a
non-finite value read from a file is a FormatError, not bad caller input.
Integer settings (iteration budgets, counts) go through _check_count.
"""

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
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-D, got shape {v.shape}")
    if 0 in v.shape[:nonempty]:
        raise InputError(f"{name} must not be empty, got shape {v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise InputError(f"{name} has dim {v.shape[-1]}, expected {dim}")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite values")
    return v


def _check_count(value, name: str) -> None:
    """InputError unless value is an integer >= 1. NumPy integers pass;
    bool, although an int subclass, does not."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
