"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (graph parameters, mesh sizes, scenarios)."""


class SolverFailure(RuntimeError):
    """The nonlinear solve did not converge.  Carries its last residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual
