"""Exception hierarchy shared by all modules: one class per exit code.

Each class carries the process exit code the command-line front end maps
it to, so library errors and CLI behaviour stay consistent.
"""


class MacrostabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(MacrostabError):
    """Input the run cannot take: a scenario value, a state file, or a
    state that fails an invariant (shape, finiteness, normalization)."""

    exit_code = 2


class NumericalError(MacrostabError):
    """Solver non-convergence or a failed internal consistency check."""

    exit_code = 3


class CapabilityError(MacrostabError):
    """Request exceeds a size cap fixed in the code."""

    exit_code = 4
