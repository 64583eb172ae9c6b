"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4. The CLI checks the range of every numeric option
itself and reports a value outside it as a ConfigError that names the
option. Library functions called directly raise plain ValueError for such
values; at the CLI boundary a ValueError is treated like DataError.
"""


class ZslError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ZslError):
    """Invalid or inconsistent run configuration."""


class DataError(ZslError):
    """Malformed, missing, or degenerate input data."""


class NumericalError(ZslError):
    """Numerical failure: non-convergence, singular matrices, collapse."""
