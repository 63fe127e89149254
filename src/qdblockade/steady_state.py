"""Exact steady state of the master equation and its photon statistics.

Solves L vec(rho) = 0 with the trace pinned to one by replacing a row of the
sparse Liouvillian with the trace functional and factoring it with SuperLU.
The solved rho is used as-is: no Hermitization or eigenvalue clamping, so the
validity checks in tests measure the solver rather than a cosmetic cleanup.

Both observables are weights of the photon-number distribution P(n), the
diagonal of rho summed over the dot state: n_a = <a'a> = sum n P(n) and
g2(0) = <a'a'aa> / n_a^2 with <a'a'aa> = sum n (n - 1) P(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    SingularSystemError,
    SteadyStateResidualError,
)
from .model import HilbertSpace, ModelParams, build_liouvillian

__all__ = [
    "SteadyStateResult",
    "converged_solve",
    "solve_steady_state",
]

RESIDUAL_TOL = 1e-9
# top of the converged_solve ladder and of the CLI's --cutoff
MAX_CUTOFF = 40

# occupations below this are treated as exactly dark when forming ratios
_DARK_FLOOR = 1e-12


@dataclass(frozen=True)
class SteadyStateResult:
    rho: np.ndarray
    g2_zero: float
    n_a: float
    cutoff_used: int
    residual: float


def _statistics(rho: np.ndarray, space: HilbertSpace) -> tuple[float, float]:
    """(g2(0), n_a) from P(n); g2 is nan when n_a is below the dark floor."""
    # the dot-major ordering makes diag(rho) a (dot, n) array
    p = np.diagonal(rho).real.reshape(2, space.fock_dim).sum(axis=0)
    n = np.arange(space.fock_dim)
    n_a = float(n @ p)
    if n_a < _DARK_FLOOR:
        return math.nan, n_a
    return float((n * (n - 1)) @ p) / (n_a * n_a), n_a


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
    import scipy.sparse as sp  # deferred: the weak-drive paths never load SciPy
    from scipy.sparse.linalg import splu

    liou = build_liouvillian(params, space)
    if not np.all(np.isfinite(liou.data)):
        raise SingularSystemError("Liouvillian has non-finite entries (parameters overflow)")
    tvec = np.eye(space.dim, dtype=complex).reshape(-1)  # vec(I): the trace functional
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

    rho = x.reshape((space.dim, space.dim), order="F")  # undo the column stacking
    g2, n_a = _statistics(rho, space)
    return SteadyStateResult(rho, g2, n_a, space.photon_cutoff, residual)


def _rel_change(old: float, new: float) -> float:
    if math.isnan(old) and math.isnan(new):
        return 0.0
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(new), 1e-9)


def converged_solve(params: ModelParams, initial_cutoff: int = 4, rel_tol: float = 1e-6,
                    history: list[SteadyStateResult] | None = None) -> SteadyStateResult:
    """Raise the Fock cutoff in steps of 4 until g2(0) and n_a both settle.

    Returns the first solve whose relative change from the previous cutoff is
    below ``rel_tol`` for both observables (dark solves settle trivially).
    Pass ``history`` to record every intermediate SteadyStateResult.  Raises
    CutoffConvergenceError if MAX_CUTOFF is reached without settling.
    """
    prev = solve_steady_state(params, HilbertSpace(initial_cutoff))
    if history is not None:
        history.append(prev)
    cutoff = initial_cutoff + 4
    while cutoff <= MAX_CUTOFF:
        cur = solve_steady_state(params, HilbertSpace(cutoff))
        if history is not None:
            history.append(cur)
        if (_rel_change(prev.g2_zero, cur.g2_zero) < rel_tol
                and _rel_change(prev.n_a, cur.n_a) < rel_tol):
            return cur
        prev = cur
        cutoff += 4
    raise CutoffConvergenceError(
        f"observables not settled to rel_tol={rel_tol:g} by cutoff {MAX_CUTOFF}"
    )
