"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4; any other ValueError is treated like DataError. An
option out of range is a ConfigError, raised by the type that holds it
(EvalConfig, SynthSpec) and naming the field. It is also a ValueError, so
API callers that catch ValueError keep working.
"""


class ZslError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ZslError, ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ZslError):
    """Malformed, missing, or degenerate input data."""


class NumericalError(ZslError):
    """Numerical failure: non-convergence, singular matrices, collapse."""
