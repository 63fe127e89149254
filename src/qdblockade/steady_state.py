"""Exact steady state of the master equation and its photon statistics.

Solves L vec(rho) = 0 with the trace pinned to one by replacing row 0 of the
Liouvillian with the trace functional.  For rho[(q,n),(q',m)] take the
excitation difference d = (n + q) - (m + q'): the delta, delta_a and g terms
and both dissipators conserve it, the drive E shifts it by one and U by two.
Ordered by d, L is block-pentadiagonal over 2N + 3 blocks of at most 4N + 2
unknowns, and the trace row and every diagonal entry of rho lie in block
d = 0.  That band is factored by block elimination along d in NumPy, for a
batch of cells at a time, and one step of iterative refinement follows.
Its layout is computed once per cutoff and cached; each solve fills in the
values.  A cell whose generator overflows is refused before any solve.  A
finite cell the band refuses (a singular diagonal block, non-finite values
or a missed residual bound) is solved again by SuperLU, which alone solves
very large drives, and only then is SciPy loaded.  One gate checks either
solution.  Neither solver densifies the generator, so memory stays bounded
at every cutoff.
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
from .model import (
    HilbertSpace,
    ModelParams,
    _csc_pattern,
    _generator_data,
    _generator_parts,
    build_liouvillian,
)

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
# band bytes of one batch of cells: a grid worker solves as many cells at a
# time as fit, and at least one (a cutoff-10 cell's band is 1.1 MB)
_BATCH_BYTES = 8 << 20
_DEGENERATE = "trace-replaced Liouvillian is singular; no unique trace-one steady state"


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


class _Band(NamedTuple):
    """Read-only layout of the trace-replaced system on one space, ordered by d.

    The generator's entries are held row by row: ``values`` are the real blocks
    of ``_generator_parts`` on them, ``cols`` their columns and ``row_starts``
    the first entry of each row (no row is empty), so the entries past
    ``row_starts[1]`` are those the trace row keeps.  ``order`` lists the vec
    index of each unknown, block by block, and ``rank`` is its inverse;
    ``bounds`` holds where each block starts among the unknowns, then their
    count.  One cell's band is a flat array of ``size`` entries, block (k, k + o)
    at ``blocks[k][o + 2]`` as (start, rows, cols), or None off the band's
    edges; the entries past row 0 go to ``dest`` and the trace row's ones to
    ``trace_dest``.
    """

    values: np.ndarray
    cols: np.ndarray
    row_starts: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    bounds: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, int, int] | None, ...], ...]
    size: int
    dest: np.ndarray
    trace_dest: np.ndarray


@lru_cache(maxsize=None)
def _band_system(space: HilbertSpace) -> _Band:
    """The band layout of the trace-replaced system on ``space`` (5.9 MB at cutoff 40)."""
    gen_indices, gen_indptr, values = _generator_parts(space)
    dim, n2 = space.dim, space.dim * space.dim
    rows = gen_indices.astype(np.intp)
    cols = np.repeat(np.arange(n2), np.diff(gen_indptr))
    by_row = np.lexsort((cols, rows))
    rows, cols = rows[by_row], cols[by_row]
    row_starts = np.searchsorted(rows, np.arange(n2))

    excitation = np.tile(np.arange(space.fock_dim), 2) + np.repeat([0, 1], space.fock_dim)
    vec = np.arange(n2)
    d = excitation[vec % dim] - excitation[vec // dim]  # vec(rho)[j dim + i] is rho[i, j]
    order = np.argsort(d, kind="stable")
    rank = np.empty(n2, dtype=np.intp)
    rank[order] = vec
    block = d - d.min()
    sizes = np.bincount(block)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    pos = rank - bounds[block]  # place of each unknown within its block

    start, blocks = 0, []
    for k, rows_k in enumerate(sizes.tolist()):
        row = []
        for o in range(-2, 3):
            if 0 <= k + o < sizes.size:
                row.append((start, rows_k, int(sizes[k + o])))
                start += rows_k * int(sizes[k + o])
            else:
                row.append(None)
        blocks.append(tuple(row))
    first = np.array([[b[0] if b else -1 for b in row] for row in blocks])

    def place(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        return first[block[r], block[c] - block[r] + 2] + pos[r] * sizes[block[c]] + pos[c]

    kept = slice(row_starts[1], None)
    trace = np.arange(dim) * (dim + 1)  # vec(I) has its ones at the diagonal of rho
    out = _Band(values[:, by_row], cols, row_starts, order, rank, tuple(bounds.tolist()),
                tuple(blocks), start, place(rows[kept], cols[kept]),
                place(np.zeros(dim, dtype=np.intp), trace))
    for arr in out:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return out


def _factor(blocks: list[list]) -> None:
    """Block LU of the band in place, along d, for every cell at once.

    Each Schur-updated diagonal block is replaced by its inverse and each upper
    block (k, k + j) by the multiplier inv(S_k) A[k, k + j]; the lower blocks
    keep their Schur-updated values.  Raises LinAlgError if a diagonal block of
    any cell is singular.
    """
    nb = len(blocks)
    for k in range(nb):
        inv = blocks[k][2]
        inv[...] = np.linalg.inv(inv)
        for j in (1, 2):
            if k + j < nb:
                blocks[k][2 + j][...] = inv @ blocks[k][2 + j]
        for i in (1, 2):
            if k + i < nb:
                for j in (1, 2):
                    if k + j < nb:
                        blocks[k + i][2 + j - i] -= blocks[k + i][2 - i] @ blocks[k][2 + j]


def _substitute(blocks: list[list], bounds: tuple[int, ...], y: np.ndarray) -> None:
    """Overwrite ``y``, (cells, unknowns) in band order, with A^-1 y from ``_factor``'s
    factors: forward through the lower blocks and inverses, back through the
    multipliers."""
    nb = len(blocks)
    part = [y[:, bounds[k]:bounds[k + 1], np.newaxis] for k in range(nb)]
    for k in range(nb):
        for i in (1, 2):
            if k >= i:
                part[k] -= blocks[k][2 - i] @ part[k - i]
        part[k][...] = blocks[k][2] @ part[k]
    for k in range(nb - 1, -1, -1):
        for j in (1, 2):
            if k + j < nb:
                part[k] -= blocks[k][2 + j] @ part[k + j]


def _apply(data: np.ndarray, x: np.ndarray, band: _Band) -> np.ndarray:
    """L x for each cell, with ``data`` the generator's entries in row order."""
    return np.add.reduceat(data * x[:, band.cols], band.row_starts, axis=1)


def _band_solve(data: np.ndarray, space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """(vec(rho), ||L vec(rho)||_inf) of each cell on ``space``, whose generator
    entries, in row order, are the rows of ``data``; LinAlgError if a diagonal
    block of any cell is singular.  Each cell's bits are independent of the others."""
    band, cells = _band_system(space), len(data)
    flat = np.zeros((cells, band.size), dtype=complex)
    flat[:, band.dest] = data[:, band.row_starts[1]:]
    flat[:, band.trace_dest] = 1.0
    blocks = [[None if b is None else flat[:, b[0]:b[0] + b[1] * b[2]].reshape(cells, b[1], b[2])
               for b in row] for row in band.blocks]
    _factor(blocks)
    y = np.zeros((cells, band.rank.size), dtype=complex)
    y[:, band.rank[0]] = 1.0  # b, the trace row's 1
    _substitute(blocks, band.bounds, y)
    x = y[:, band.rank]
    # one step of refinement on b - A x: row 0 of A is the trace, the rest that of L
    r = -_apply(data, x, band)
    # a strided row sums in another order when there are several rows: copy it first
    r[:, 0] = 1.0 - np.ascontiguousarray(x[:, ::space.dim + 1]).sum(axis=1)
    y = r[:, band.order]
    _substitute(blocks, band.bounds, y)
    x += y[:, band.rank]
    return x, np.abs(_apply(data, x, band)).max(axis=1)


@lru_cache(maxsize=None)
def _ordered_system(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(indices, indptr, perm, src)`` of the trace-replaced system on ``space``
    for SuperLU, which ``_superlu_solve`` solves.

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


def _superlu_solve(params: ModelParams, space: HilbertSpace) -> tuple[np.ndarray, float]:
    """(vec(rho), ||L vec(rho)||_inf) of one cell with a finite generator, by SuperLU.

    The replaced system is factored on the cached, symmetrically permuted
    pattern of ``_ordered_system`` (minimum-degree order of A + A^T, diagonal
    pivots preferred), and one step of iterative refinement follows.  A
    singular factorization raises DegenerateSteadyStateError, or
    SingularSystemError where the generator's entries are too large to tell.
    """
    import scipy.sparse as sp  # deferred: only a refused cell loads SciPy
    from scipy.sparse.linalg import splu

    liou = build_liouvillian(params, space)
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
        raise DegenerateSteadyStateError(_DEGENERATE) from None
    y = lu.solve(b)
    y += lu.solve(b - a @ y)
    x = y[perm]  # undo P
    return x, float(np.max(np.abs(liou @ x)))


# overflow leaves inf or nan, which the gate refuses
@np.errstate(over="ignore", invalid="ignore")
def _solve_batch(params: list[ModelParams], space: HilbertSpace) -> list[SteadyStateResult |
                                                                        BlockadeError]:
    """The steady state of each of ``params`` on ``space``, or the BlockadeError that
    refuses it, as :func:`solve_steady_state` gives it: the band solves the cells
    together, SuperLU solves again each finite cell the band refused, and one
    gate checks either solution."""
    out: list = [None] * len(params)
    # a decoupled lossless cavity evolves unitarily, so every function of its
    # Hamiltonian is stationary; its dot populations may be unique, its cavity's not
    cells = []
    for i, p in enumerate(params):
        if p.g == 0.0 and p.kappa == 0.0:
            out[i] = DegenerateSteadyStateError(_DEGENERATE)
        else:
            cells.append(i)
    data = _generator_data(_band_system(space).values, [params[i] for i in cells])
    finite = np.isfinite(data).all(axis=1)
    x = np.full((len(cells), space.dim ** 2), math.nan, dtype=complex)
    residual = np.full(len(cells), math.nan)
    try:
        x[finite], residual[finite] = _band_solve(data[finite], space)
    except np.linalg.LinAlgError:  # a singular diagonal block: solve each cell alone
        for c in np.flatnonzero(finite).tolist():
            try:
                x[c:c + 1], residual[c:c + 1] = _band_solve(data[c:c + 1], space)
            except np.linalg.LinAlgError:
                pass

    def gate(vec: np.ndarray, res: float) -> SteadyStateResult | BlockadeError:
        if not (math.isfinite(res) and np.isfinite(vec).all()):
            return SingularSystemError("steady state overflows float64")
        if res > RESIDUAL_TOL:
            return SteadyStateResidualError(res, RESIDUAL_TOL)
        rho = vec.reshape((space.dim, space.dim), order="F")  # undo the column stacking
        return SteadyStateResult(rho, *_statistics(rho, space), space.photon_cutoff, res)

    for c, i in enumerate(cells):
        if not finite[c]:  # an overflowing generator is refused before any solve
            out[i] = SingularSystemError(
                "Liouvillian has non-finite entries (parameters overflow)")
            continue
        out[i] = gate(x[c], float(residual[c]))
        if isinstance(out[i], BlockadeError):  # the band refused the cell
            try:
                out[i] = gate(*_superlu_solve(params[i], space))
            except BlockadeError as exc:
                out[i] = exc
    return out


def solve_steady_state(params: ModelParams, space: HilbertSpace) -> SteadyStateResult:
    """Steady state via trace-row replacement, by block elimination on the d band.

    A generator with a non-finite entry is refused before any solve.  The
    replaced system is factored block by block along d (inverses of the
    Schur-updated diagonal blocks, multipliers over the upper band), and one
    step of iterative refinement follows.  The solution must be finite and meet
    ||L vec(rho)||_inf <= 1e-9 on the unpermuted L.  A cell the band refuses, on
    a singular diagonal block, non-finite values or a missed bound, is solved
    again by SuperLU on a minimum-degree order (``_superlu_solve``); the same
    checks on that solution, or its singular factorization, give the result.
    With kappa = gamma = 1, g = 20 and U = 0.05 the band misses the bound from
    E = 3e4 at cutoff 4 and E = 1e5 at cutoff 10, and SuperLU meets it up to
    E = 1e7.

    Failures fall in four classes:

    - DegenerateSteadyStateError: g = kappa = 0, where a decoupled lossless cavity
      has no unique steady state, refused before any solve; or A is exactly
      singular, as it is when L has no unique trace-one null vector (row 0 of L
      is minus the sum of its other diagonal rows, since vec(I)' L = 0), so a
      singular SuperLU factorization raises it.
    - SingularSystemError, huge entries: a singular factorization of an L whose
      largest entry times the float64 epsilon is at least 1.  At that scale
      rounding exceeds a unit rate, and a well-posed strong drive can factor
      as singular too, so degeneracy cannot be told.
    - SingularSystemError, overflow: an overflowing generator, refused before
      any solve, or a non-finite solution.
    - SteadyStateResidualError: a finite miss of the residual bound.  The bound
      is absolute, so rounding in large entries misses it as well.

    At cutoff 4 with kappa = gamma = 1, drives from E = 3e7 up miss the
    residual bound; some from E = 5e37 up (E = 1e40, 1e80, 1e300) factor as
    singular instead and read as huge entries.
    """
    result = _solve_batch([params], space)[0]
    if isinstance(result, BlockadeError):
        raise result
    return result


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

    Cells are solved by one pool of threads, one per CPU the process may use,
    that serves every rung.  A rung splits its cells into as many batches for
    each thread, each of at most as many cells as ``_BATCH_BYTES`` of band
    holds, and the threads take them from one queue; any other exception stops
    them after their current batch and is raised.  A cell's result does not
    depend on its batch or thread.  The calling thread fills a rung's
    per-cutoff caches, then waits on the batches.  Set
    ``OPENBLAS_NUM_THREADS=1`` before NumPy loads: with BLAS threads inside each
    solve the threads oversubscribe the CPUs.
    """
    from concurrent.futures import ThreadPoolExecutor

    fields = {**vars(ModelParams()), **fields}
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in fields.values()))
    out = _unsolved(arrays[0].shape, cutoff)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def solve_rung(cells: np.ndarray, cutoff: int) -> SteadyStateGrid:
        rung, space = _unsolved(cells.shape, cutoff), HilbertSpace(cutoff)

        def solve(batch: np.ndarray) -> None:
            params = [ModelParams(**{name: float(a.flat[i]) for name, a in zip(fields, arrays)})
                      for i in cells[batch].tolist()]
            for j, res in zip(batch.tolist(), _solve_batch(params, space)):
                if isinstance(res, BlockadeError):
                    rung.failure[j] = res
                else:
                    rung.g2[j], rung.n_a[j], rung.residual[j] = res.g2_zero, res.n_a, res.residual

        # as many bands as fit in _BATCH_BYTES; this fills the cutoff's caches
        per_batch = max(1, _BATCH_BYTES // (16 * _band_system(space).size))
        workers = min(cells.size, cpus)  # the ladder calls no rung without open cells
        rounds = -(-cells.size // (per_batch * workers))
        list(pool.map(solve, np.array_split(np.arange(cells.size),
                                            min(cells.size, rounds * workers))))
        return rung

    cells = np.arange(out.g2.size)  # the open cells, with their last rung's g2 and n_a
    last_g2 = last_n_a = np.full(cells.size, math.inf)  # inf: no first rung settles
    pool = ThreadPoolExecutor(cpus)
    try:  # an error or interrupt ends the threads after their current batch
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
            cells, last_g2, last_n_a = cells[keep], rung.g2[keep], rung.n_a[keep]
            cutoff += 4
            if cells.size and cutoff > MAX_CUTOFF:
                out.failure.flat[cells] = CutoffConvergenceError(
                    f"observables not settled to rel_tol={rel_tol:g} by cutoff {MAX_CUTOFF}")
                break
    finally:
        pool.shutdown(cancel_futures=True)
    return out
