"""Exception types shared across the package.

Each error carries a short machine-parsable category and an exit code, so
that a caller can print a one-line failure and pick its process exit status.
"""


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


class MissingArtifactError(MmsparseError):
    """A pipeline stage was invoked before its upstream artifacts exist."""

    category = "state"
    exit_code = 4

    def __init__(self, message: str, required_stage: str | None = None):
        super().__init__(message)
        self.required_stage = required_stage
