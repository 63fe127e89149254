"""Photon-blockade simulator for a quantum dot in a parametrically driven nanocavity."""

from .analytic import (
    AmplitudeSet,
    ConditionRoot,
    amplitudes_closed_form,
    amplitudes_linear_solve,
    cpb_partner_detuning,
    g2_weak_drive,
    mean_photon_weak_drive,
    ucpb_roots,
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
