"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: usage errors exit 2, data
errors exit 3, numerical errors exit 4.
"""


class BvcmError(Exception):
    """Base class for all package errors.

    ``field`` names the ``ModelParams``, ``GeneratorConfig`` or
    ``GibbsConfig`` field at fault when a parameter check raised it
    (None otherwise), so the CLI can name the flag that set it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UsageError(BvcmError):
    """Inconsistent or invalid arguments/configuration."""


class DataError(BvcmError):
    """Malformed or inconsistent input data (files, assignments)."""


class NumericalError(BvcmError):
    """Domain violation in a numerical routine."""
