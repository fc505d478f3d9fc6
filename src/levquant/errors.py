"""Exception types shared across the toolkit."""


class DataValidationError(ValueError):
    """Raised when input data violates a precondition (schema, keys, emptiness)."""


class ConfigError(ValueError):
    """Raised for unusable configuration (missing tax rate, bad option values)."""


class DesignError(ValueError):
    """Raised for an unusable regression design (rank deficiency, bad columns).

    ``columns`` names the offending columns when they can be identified.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the solver's diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class OracleCapError(ValueError):
    """The exact oracle refused an instance above its small-scale cap."""


class DegenerateResampleError(RuntimeError):
    """Bootstrap gave up after too many rank-deficient resamples."""
