"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run configuration violates a schema or parameter invariant."""


class SolverError(RuntimeError):
    """A linear-algebra or eigenvalue solve failed or did not converge."""


class IntegrationError(RuntimeError):
    """An ODE integration failed (step-size underflow, tolerance failure)."""


class NotAFixedPointError(ValueError):
    """A state handed to stability classification is not a root of the flow."""


class InsufficientDataError(ValueError):
    """A trajectory window is too short for the requested analysis."""


def reason(exc: BaseException) -> str:
    """The text an exception leaves in a table row: ``"{type}: {message}"``."""
    return f"{type(exc).__name__}: {exc}"
