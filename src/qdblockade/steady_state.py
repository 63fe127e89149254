"""Exact steady state of the master equation and its photon statistics.

Solves L vec(rho) = 0 with the trace pinned to one by replacing a row of the
sparse Liouvillian with the trace functional and factoring it with SuperLU.
The solved rho is used as-is: no Hermitization or eigenvalue clamping, so the
validity checks in tests measure the solver rather than a cosmetic cleanup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    DimensionMismatchError,
    SingularSystemError,
    SteadyStateResidualError,
    UndefinedCorrelationError,
)
from .fock_algebra import HilbertSpace, annihilation_op, dagger, expectation
from .model import ModelParams, build_liouvillian, trace_vector, unvec

__all__ = [
    "SteadyStateResult",
    "converged_solve",
    "g2_zero_delay",
    "mean_photon",
    "solve_steady_state",
]

RESIDUAL_TOL = 1e-9

# occupations below this are treated as exactly dark when forming ratios
_DARK_FLOOR = 1e-12


@dataclass(frozen=True)
class SteadyStateResult:
    rho: np.ndarray
    g2_zero: float
    n_a: float
    cutoff_used: int
    residual: float


def _observables(rho: np.ndarray, space: HilbertSpace) -> tuple[float, float]:
    a = annihilation_op(space)
    ad = dagger(a)
    n_a = expectation(rho, ad @ a).real
    if n_a < _DARK_FLOOR:
        return math.nan, n_a
    pair = expectation(rho, ad @ ad @ a @ a).real
    return pair / (n_a * n_a), n_a


# overflow leaves inf or nan, which the finiteness checks and residual gates refuse
@np.errstate(over="ignore", invalid="ignore")
def solve_steady_state(params: ModelParams, space: HilbertSpace) -> SteadyStateResult:
    """Steady state via trace-row replacement on the sparse Liouvillian.

    SuperLU (``splu``, COLAMD ordering) factors the replaced system, and one
    step of iterative refinement keeps the weakly occupied sectors accurate.
    If it is singular or the bound ||L vec(rho)||_inf < 1e-9 fails, an SVD
    null-space solve of the densified L is tried before giving up.  A null
    space of dimension > 1 raises DegenerateSteadyStateError; an overflowing
    generator or an SVD that does not converge raises SingularSystemError.
    """
    liou = build_liouvillian(params, space)
    if not np.all(np.isfinite(liou.data)):
        raise SingularSystemError("Liouvillian has non-finite entries (parameters overflow)")
    tvec = trace_vector(space)
    a = sp.vstack([sp.csr_array(tvec[np.newaxis]), liou[1:]], format="csc")
    b = np.zeros_like(tvec)
    b[0] = 1.0

    residual = math.inf
    try:
        lu = splu(a)
    except RuntimeError:  # SuperLU: the replaced system is exactly singular
        pass
    else:
        x = lu.solve(b)
        x += lu.solve(b - a @ x)
        if np.all(np.isfinite(x)):
            residual = float(np.max(np.abs(liou @ x)))

    # written so that a nan residual (overflow in L @ x) fails the gate
    if not residual <= RESIDUAL_TOL:
        # fall back to the null space; also the place to detect degeneracy
        try:
            _, s, vh = np.linalg.svd(liou.toarray())
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"SVD fallback failed: {exc}") from None
        if s[-2] <= 1e-12 * max(s[0], 1.0):
            raise DegenerateSteadyStateError(
                "Liouvillian null space is multi-dimensional "
                f"(second singular value {s[-2]:.3e}); no unique steady state"
            )
        x = vh[-1].conj()
        tr = tvec @ x
        if abs(tr) < 1e-12:
            raise DegenerateSteadyStateError("null vector is traceless; no physical steady state")
        x = x / tr
        residual = float(np.max(np.abs(liou @ x)))
        if not residual <= RESIDUAL_TOL:
            raise SteadyStateResidualError(residual, RESIDUAL_TOL)

    rho = unvec(x)
    g2, n_a = _observables(rho, space)
    return SteadyStateResult(rho, g2, n_a, space.photon_cutoff, residual)


def mean_photon(rho: np.ndarray, space: HilbertSpace) -> float:
    """Tr(rho a'a)."""
    _check_shape(rho, space)
    a = annihilation_op(space)
    return expectation(rho, dagger(a) @ a).real


def g2_zero_delay(rho: np.ndarray, space: HilbertSpace) -> float:
    """Equal-time second-order correlation Tr(rho a'a'aa) / Tr(rho a'a)^2."""
    _check_shape(rho, space)
    g2, n_a = _observables(rho, space)
    if math.isnan(g2):
        raise UndefinedCorrelationError(
            f"mean photon number {n_a:.3e} is numerically zero; g2(0) undefined"
        )
    return g2


def _check_shape(rho: np.ndarray, space: HilbertSpace) -> None:
    rho = np.asarray(rho)
    if rho.shape != (space.dim, space.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match space dim {space.dim}"
        )


def _rel_change(old: float, new: float) -> float:
    if math.isnan(old) and math.isnan(new):
        return 0.0
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(new), 1e-9)


def converged_solve(params: ModelParams, initial_cutoff: int = 4,
                    rel_tol: float = 1e-6, max_cutoff: int = 40,
                    history: list[SteadyStateResult] | None = None) -> SteadyStateResult:
    """Raise the Fock cutoff in steps of 4 until g2(0) and n_a both settle.

    Returns the first solve whose relative change from the previous cutoff is
    below ``rel_tol`` for both observables (dark solves settle trivially).
    Pass ``history`` to record every intermediate SteadyStateResult.  Raises
    CutoffConvergenceError if max_cutoff is reached without settling.
    """
    prev = solve_steady_state(params, HilbertSpace(initial_cutoff))
    if history is not None:
        history.append(prev)
    cutoff = initial_cutoff + 4
    while cutoff <= max_cutoff:
        cur = solve_steady_state(params, HilbertSpace(cutoff))
        if history is not None:
            history.append(cur)
        if (_rel_change(prev.g2_zero, cur.g2_zero) < rel_tol
                and _rel_change(prev.n_a, cur.n_a) < rel_tol):
            return cur
        prev = cur
        cutoff += 4
    raise CutoffConvergenceError(
        f"observables not settled to rel_tol={rel_tol:g} by cutoff {max_cutoff}"
    )
