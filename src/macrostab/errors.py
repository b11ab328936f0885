"""Exception hierarchy shared by all modules.

Each class carries the process exit code the command-line front end maps
it to, so library errors and CLI behaviour stay consistent.
"""


class MacrostabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(MacrostabError):
    """Bad arguments, malformed input, or an unusable model setup."""

    exit_code = 2


class ArgumentError(ValidationError):
    """An argument violates a documented precondition."""


class StateError(ValidationError):
    """A state vector fails a required invariant (normalization, size)."""


class FormatError(ValidationError):
    """Malformed state file, scenario file, or report payload."""


class ModelError(ValidationError):
    """Physically inconsistent model, e.g. a non-PSD noise kernel."""


class NumericalError(MacrostabError):
    """Solver non-convergence or a failed internal consistency check."""

    exit_code = 3


class CapabilityError(MacrostabError):
    """Request exceeds a size cap fixed in the code."""

    exit_code = 4
