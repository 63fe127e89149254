"""Photon-blockade simulator for a quantum dot in a parametrically driven nanocavity.

The names below, and the modules that define them, are imported on first use
(PEP 562), so importing the package loads no NumPy, and ``python -m
qdblockade`` can set BLAS's thread count before NumPy loads it.
"""

from importlib import import_module

_EXPORTS = {
    **dict.fromkeys(["ConditionRoot", "cpb_partner_detuning", "ucpb_roots", "weak_drive_grid"],
                    "analytic"),
    **dict.fromkeys(["BlockadeError", "CutoffConvergenceError", "DegenerateSteadyStateError",
                     "SingularSystemError", "SteadyStateResidualError"], "errors"),
    **dict.fromkeys(["HilbertSpace", "ModelParams", "build_liouvillian"], "model"),
    **dict.fromkeys(["SteadyStateGrid", "SteadyStateResult", "solve_steady_state",
                     "steady_state_grid"], "steady_state"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
