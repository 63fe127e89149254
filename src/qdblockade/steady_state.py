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
``steady_state_grid`` solves whole grids of points, at one cutoff or up a
cutoff ladder whose rungs solve only the points not yet settled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BlockadeError,
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    SingularSystemError,
    SteadyStateResidualError,
)
from .model import HilbertSpace, ModelParams, _csc_pattern, _generator_parts, build_liouvillian

__all__ = [
    "SteadyStateGrid",
    "SteadyStateResult",
    "solve_steady_state",
    "steady_state_grid",
]

RESIDUAL_TOL = 1e-9
# top of steady_state_grid's cutoff ladder and of the CLI's --cutoff
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
    # zero pivot; only its column order is kept.  The diagonal n2 is summed onto
    # the ones as a duplicate COO entry.
    diag = np.arange(n2)
    pattern = sp.csc_array((np.concatenate([np.ones(rows.size), np.full(n2, float(n2))]),
                            (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
                           shape=(n2, n2))
    perm = spilu(pattern, drop_tol=np.inf, permc_spec="MMD_AT_PLUS_A",
                 options=dict(SymmetricMode=True)).perm_c
    keys = perm[cols] * n2 + perm[rows]
    order = np.argsort(keys)  # the keys are distinct
    indices, indptr = _csc_pattern(keys[order], n2)
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

    Failures are read off that one path, in four classes:

    - DegenerateSteadyStateError: A is exactly singular when L has no unique
      trace-one null vector (row 0 of L is minus the sum of its other diagonal
      rows, since vec(I)' L = 0), so a singular factorization raises it.
    - SingularSystemError, huge entries: a singular factorization of an L whose
      largest entry times the float64 epsilon is at least 1.  At that scale
      rounding exceeds a unit rate, and a well-posed strong drive can factor
      as singular too, so degeneracy cannot be told.
    - SingularSystemError, overflow: an overflowing generator or a non-finite
      solution.
    - SteadyStateResidualError: a finite miss of the residual bound.  The bound
      is absolute, so rounding in large entries misses it as well.

    At cutoff 4 with kappa = gamma = 1, drives from E = 3e7 up miss the
    residual bound; some from E = 5e37 up (E = 1e40, 1e80, 1e300) factor as
    singular instead and read as huge entries.
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
        scale = float(np.max(np.abs(liou.data)))
        if scale * np.finfo(float).eps >= 1:
            raise SingularSystemError(
                f"trace-replaced Liouvillian is singular at entry magnitude {scale:.2e}, "
                "where rounding exceeds 1, the unit of every rate; degeneracy cannot be told"
            ) from None
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


def _rel_change(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| / max(|new|, 1e-9) per cell, 0 where both are equal or nan."""
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    return np.where(same, 0.0, np.abs(new - old) / np.maximum(np.abs(new), 1e-9))


class SteadyStateGrid(NamedTuple):
    """The results of :func:`steady_state_grid`, in the broadcast shape, or of one
    rung of its ladder, 1-D over the cells solved.  A failed cell holds nan, the
    first cutoff tried in ``cutoff_used`` and its BlockadeError in ``failure``,
    which is None where the solve succeeded."""

    g2: np.ndarray
    n_a: np.ndarray
    cutoff_used: np.ndarray
    residual: np.ndarray
    failure: np.ndarray


def _unsolved(shape, cutoff: int) -> SteadyStateGrid:
    return SteadyStateGrid(*(np.full(shape, v) for v in (math.nan, math.nan, cutoff, math.nan)),
                           np.full(shape, None, dtype=object))


def steady_state_grid(cutoff: int, rel_tol: float | None = None,
                      history: list[SteadyStateGrid] | None = None, **fields) -> SteadyStateGrid:
    """The steady state at every cell of broadcast parameters, solved on every CPU.

    ``fields`` are fields of :class:`ModelParams`, numbers or arrays broadcast as in
    ``weak_drive_grid``.  Each cell is solved at ``cutoff``; a BlockadeError fails
    its cell only.  With ``rel_tol`` the cells climb a ladder of rungs, cutoff,
    cutoff + 4, ... up to MAX_CUTOFF: each rung solves the cells still open, and a
    cell settles on the first rung at which g2 and n_a both moved by less than
    ``rel_tol`` relative to the rung below (dark cells, whose g2 is nan, settle on
    n_a).  A cell not settled by MAX_CUTOFF fails with CutoffConvergenceError.
    Pass ``history`` to receive each rung's results, 1-D over the cells that rung
    solved in C order.

    Cells are solved on one thread per CPU the process may use; any other exception
    stops them after their current solve and is raised.  SuperLU factorizations run
    alongside each other, but one slows while another thread runs Python, since
    SciPy's SuperLU takes the GIL back inside a factorization; so the calling
    thread fills a rung's per-cutoff caches, then waits on the workers instead of
    solving cells beside them, one worker for a one-cell rung.
    Set ``OPENBLAS_NUM_THREADS=1`` before SciPy loads, as the CLI does: with BLAS
    threads inside each factorization the threads lose to one CPU.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    fields = {**vars(ModelParams()), **fields}
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in fields.values()))
    out = _unsolved(arrays[0].shape, cutoff)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def solve_rung(cells: np.ndarray, cutoff: int) -> SteadyStateGrid:
        rung, space = _unsolved(cells.shape, cutoff), HilbertSpace(cutoff)

        def solve(j: int) -> None:
            i = cells[j]
            params = ModelParams(**{name: float(a.flat[i]) for name, a in zip(fields, arrays)})
            try:
                res = solve_steady_state(params, space)
            except BlockadeError as exc:
                rung.failure[j] = exc
            else:
                rung.g2[j], rung.n_a[j], rung.residual[j] = res.g2_zero, res.n_a, res.residual

        _ordered_system(space)  # fills this cutoff's caches before any thread starts
        workers = min(cells.size, cpus)  # the ladder calls no rung without open cells
        stop = threading.Event()

        def work(first: int) -> None:
            try:
                for j in range(first, cells.size, workers):
                    if stop.is_set():
                        return
                    solve(j)
            except BaseException:
                stop.set()
                raise

        with ThreadPoolExecutor(workers) as pool:
            try:  # an interrupt, even between two submits, ends the threads after their solve
                for future in [pool.submit(work, first) for first in range(workers)]:
                    future.result()
            finally:
                stop.set()
        return rung

    cells = np.arange(out.g2.size)  # the open cells, with their last rung's g2 and n_a
    last_g2 = last_n_a = np.full(cells.size, math.inf)  # inf: no first rung settles
    while cells.size:
        rung = solve_rung(cells, cutoff)
        if history is not None:
            history.append(rung)
        ok = rung.failure == None  # noqa: E711 (elementwise)
        out.failure.flat[cells[~ok]] = rung.failure[~ok]
        settled = ok if rel_tol is None else (ok & (_rel_change(last_g2, rung.g2) < rel_tol)
                                              & (_rel_change(last_n_a, rung.n_a) < rel_tol))
        for got, res in zip(out[:4], rung):
            got.flat[cells[settled]] = res[settled]
        keep = ok & ~settled
        cells, last_g2, last_n_a, cutoff = cells[keep], rung.g2[keep], rung.n_a[keep], cutoff + 4
        if cells.size and cutoff > MAX_CUTOFF:
            out.failure.flat[cells] = CutoffConvergenceError(
                f"observables not settled to rel_tol={rel_tol:g} by cutoff {MAX_CUTOFF}")
            break
    return out
