"""Photon-blockade simulator for a quantum dot in a parametrically driven nanocavity."""

from .analytic import (
    ConditionRoot,
    cpb_partner_detuning,
    ucpb_roots,
    weak_drive_grid,
)
from .errors import (
    BlockadeError,
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    SingularSystemError,
    SteadyStateResidualError,
    UndefinedCorrelationError,
)
from .model import (
    HilbertSpace,
    ModelParams,
    bimode_limit,
    build_liouvillian,
    jc_limit,
)
from .steady_state import (
    SteadyStateResult,
    converged_solve,
    solve_steady_state,
)

__version__ = "0.1.0"
