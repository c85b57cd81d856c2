"""Exception hierarchy shared across the package.

CLI exit codes map onto these: ConfigurationError -> 1,
NumericalError and EvaluationError -> 2, ResourceCapError -> 3.
"""


class SkeldpError(Exception):
    pass


class ConfigurationError(SkeldpError):
    """Invalid configuration value (bad epsilon, unknown key, missing file)."""


class NumericalError(SkeldpError):
    """Quadrature non-convergence, NaN/overflow in user functionals, etc."""


class ResourceCapError(SkeldpError):
    """Projected work exceeds a configured cap; carries an estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class EvaluationError(SkeldpError):
    """User-supplied functional produced NaN/inf; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
