"""Exact steady state of the master equation and its photon statistics.

Solves L vec(rho) = 0 with the trace pinned to one by replacing row 0 of the
sparse Liouvillian with the trace functional and factoring it with SuperLU.
That replaced matrix has one sparsity pattern per cutoff, so its
fill-reducing ordering and its permuted CSC pattern are computed once per
cutoff and cached; each solve only fills in the values.  A failed solve is
raised, never retried on a densified generator, so memory stays bounded by
the sparse factors at every cutoff.
The solved rho is used as-is: no Hermitization or eigenvalue clamping, so the
validity checks in tests measure the solver rather than a cosmetic cleanup.

Both observables are weights of the photon-number distribution P(n), the
diagonal of rho summed over the dot state: n_a = <a'a> = sum n P(n) and
g2(0) = <a'a'aa> / n_a^2 with <a'a'aa> = sum n (n - 1) P(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    SingularSystemError,
    SteadyStateResidualError,
)
from .model import HilbertSpace, ModelParams, _generator_parts, build_liouvillian

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


@lru_cache(maxsize=None)
def _ordered_system(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(indices, indptr, perm, src)`` of the trace-replaced system on ``space``.

    A is the generator with row 0 replaced by the trace functional vec(I)'.
    ``perm`` is SuperLU's minimum-degree order on the pattern of A + A^T, and
    ``indices`` / ``indptr`` are the CSC pattern of P A P^T, which holds
    A[i, j] at (perm[i], perm[j]).  Its data is
    ``concat(L.data, ones(dim))[src]`` for the generator L on ``space``.  The
    order is read from the pattern alone, so it is the same for every
    parameter point and every call order (1.0 MB at cutoff 40).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import spilu

    gen_indices, gen_indptr, _ = _generator_parts(space)
    n2 = space.dim * space.dim
    rows = gen_indices.astype(np.intp)
    cols = np.repeat(np.arange(n2), np.diff(gen_indptr))
    keep = np.flatnonzero(rows != 0)
    # vec(I) has its ones at the diagonal positions k (dim + 1) of rho
    rows = np.concatenate([rows[keep], np.zeros(space.dim, dtype=np.intp)])
    cols = np.concatenate([cols[keep], np.arange(space.dim) * (space.dim + 1)])
    src = np.concatenate([keep, gen_indices.size + np.arange(space.dim)])

    # values on the pattern that make it strictly diagonally dominant, so the
    # incomplete factorization, which drops every entry it may, cannot meet a
    # zero pivot; only its column order is kept
    pattern = (sp.csc_array((np.ones(rows.size), (rows, cols)), shape=(n2, n2))
               + n2 * sp.eye_array(n2, format="csc"))
    perm = spilu(pattern, drop_tol=np.inf, permc_spec="MMD_AT_PLUS_A",
                 options=dict(SymmetricMode=True)).perm_c
    prows, pcols = perm[rows], perm[cols]
    order = np.lexsort((prows, pcols))
    indices = prows[order].astype(np.int32)
    indptr = np.zeros(n2 + 1, dtype=np.int32)
    np.cumsum(np.bincount(pcols, minlength=n2), out=indptr[1:])
    out = (indices, indptr, perm, src[order])
    for arr in out:
        arr.flags.writeable = False
    return out


# overflow leaves inf or nan, which the finiteness check refuses
@np.errstate(over="ignore", invalid="ignore")
def solve_steady_state(params: ModelParams, space: HilbertSpace) -> SteadyStateResult:
    """Steady state via trace-row replacement on the sparse Liouvillian.

    The replaced system is factored by SuperLU on the cached, symmetrically
    permuted pattern of ``_ordered_system`` (minimum-degree order of A + A^T,
    diagonal pivots preferred), and one step of iterative refinement keeps
    the weakly occupied sectors accurate.  The solution must meet
    ||L vec(rho)||_inf <= 1e-9 on the unpermuted L.

    Failures are read off that one path.  A is exactly singular when L has
    no unique trace-one null vector (row 0 of L is minus the sum of its other
    diagonal rows, since vec(I)' L = 0), so a singular factorization raises
    DegenerateSteadyStateError.  An overflowing generator or a non-finite
    solution raises SingularSystemError, and a finite miss of the residual
    bound raises SteadyStateResidualError.
    """
    import scipy.sparse as sp  # deferred: the weak-drive paths never load SciPy
    from scipy.sparse.linalg import splu

    liou = build_liouvillian(params, space)
    if not np.all(np.isfinite(liou.data)):
        raise SingularSystemError("Liouvillian has non-finite entries (parameters overflow)")
    indices, indptr, perm, src = _ordered_system(space)
    data = np.concatenate([liou.data, np.ones(space.dim)])[src]
    a = sp.csc_array((data, indices, indptr), shape=liou.shape)
    b = np.zeros(liou.shape[0], dtype=complex)
    b[perm[0]] = 1.0  # the trace row, where P puts it

    try:
        lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                  options=dict(SymmetricMode=True))
    except RuntimeError:  # SuperLU: the replaced system is exactly singular
        raise DegenerateSteadyStateError(
            "trace-replaced Liouvillian is singular; no unique trace-one steady state"
        ) from None
    y = lu.solve(b)
    y += lu.solve(b - a @ y)
    x = y[perm]  # undo P
    residual = float(np.max(np.abs(liou @ x)))
    if not (math.isfinite(residual) and np.all(np.isfinite(x))):
        raise SingularSystemError("steady state overflows float64")
    if residual > RESIDUAL_TOL:
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
