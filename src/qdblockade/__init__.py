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
)
from .model import (
    HilbertSpace,
    ModelParams,
    build_liouvillian,
)
from .steady_state import (
    SteadyStateGrid,
    SteadyStateResult,
    solve_steady_state,
    steady_state_grid,
)

__version__ = "0.1.0"
