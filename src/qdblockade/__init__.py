"""Photon-blockade simulator for a quantum dot in a parametrically driven nanocavity."""

from .analytic import (
    AmplitudeSet,
    ConditionRoot,
    amplitudes_closed_form,
    amplitudes_linear_solve,
    cpb_partner_detuning,
    g2_cpb_min,
    g2_weak_drive,
    mean_photon_weak_drive,
    ucpb_roots,
)
from .errors import (
    BlockadeError,
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    DimensionMismatchError,
    SingularSystemError,
    SteadyStateResidualError,
    UndefinedCorrelationError,
)
from .fock_algebra import (
    HilbertSpace,
    annihilation_op,
    qd_lowering_op,
    validate_density_matrix,
)
from .model import (
    ModelParams,
    PumpParams,
    bimode_limit,
    build_liouvillian,
    effective_gain,
    jc_limit,
    trace_vector,
    unvec,
    vec,
)
from .steady_state import (
    SteadyStateResult,
    converged_solve,
    g2_zero_delay,
    mean_photon,
    solve_steady_state,
)

__version__ = "0.1.0"
