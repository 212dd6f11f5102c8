"""Exception taxonomy for the toolkit.

Each class carries the CLI's exit code for it as `exit_code`, and a
subclass inherits its parent's: ToolkitError and ConfigError 2, DataError
3, EstimationError 4. Everything raised on a user-facing path derives from
ToolkitError so callers can catch one base class.
"""
from numpy.linalg import LinAlgError


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(ToolkitError):
    """Invalid parameter, option combination, or configuration file."""


class UnsupportedModelError(ConfigError):
    """Requested operation is undefined for the given model.

    Example: a second-moment SNR of alpha-stable noise with alpha < 2.
    """


class DataError(ToolkitError):
    """Input data cannot be used (missing, malformed, or inconsistent)."""

    exit_code = 3


class ParseError(DataError):
    """Malformed file content. Carries the byte offset of the failure."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DegenerateInputError(DataError):
    """Numerically valid input for which the result is undefined."""


class EstimationError(ToolkitError):
    """An estimator could not produce the requested result."""

    exit_code = 4


class SingularModelError(EstimationError, LinAlgError):
    """The solver's model covariance is not positive definite, so it has no
    Cholesky factor. Also a LinAlgError, which is what numpy and scipy raise
    for the same failure."""
