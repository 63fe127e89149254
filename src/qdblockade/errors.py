"""Exception types shared across the package."""


class BlockadeError(Exception):
    """Base class for structured algebra/solver failures."""


class SingularSystemError(BlockadeError):
    """A linear system was singular or too ill-conditioned to trust."""


class DegenerateSteadyStateError(BlockadeError):
    """The Liouvillian has no unique trace-one steady state."""


class SteadyStateResidualError(BlockadeError):
    """The steady-state solve missed the required residual bound."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"steady-state residual {residual:.3e} exceeds tolerance {tol:.1e}"
        )
        self.residual = residual
        self.tol = tol


class CutoffConvergenceError(BlockadeError):
    """Observables failed to settle within the allowed Fock cutoffs."""
