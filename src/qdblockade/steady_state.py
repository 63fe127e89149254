"""Exact steady state of the master equation and its photon statistics.

Solves L vec(rho) = 0 with the trace pinned to one by replacing row 0 of the
Liouvillian with the trace functional.  For rho[(q,n),(q',m)] take the
excitation difference d = (n + q) - (m + q'): the delta, delta_a and g terms
and both dissipators conserve it, the drive E shifts it by one and U by two.
Ordered by d, L is block-pentadiagonal over 2N + 3 blocks of at most 4N + 2
unknowns, and the trace row and every diagonal entry of rho lie in block
d = 0.  L maps Hermitian matrices to Hermitian matrices, so T L T = conj(L)
for T: vec(rho) -> vec(rho^T), which maps block d onto block -d, and the
steady state is Hermitian.  Inside a solve every vector is held by place,
its index in d order, and vec(rho) is formed once per solved cell.  The band
is factored by block elimination in NumPy, for a batch of cells at a time,
from both edges toward d = 0: only the d >= 2 side is eliminated, and the
d <= -2 side is its conjugate mirror, as are solutions there.  The layout is
computed once per cutoff and cached; each solve fills in the values.  A cell
whose generator overflows is refused before any solve.  A finite cell the
band refuses (a singular diagonal block, non-finite values or a missed
residual bound) is solved again by block Householder QR of the full band,
placed from the same layout, which alone solves very large drives.  One
driver serves both: it projects each right-hand side and each solution onto
its Hermitian part and takes one step of iterative refinement.  One gate
checks either solution.  Neither solver densifies the generator, so memory
stays bounded at every cutoff, and the package needs only NumPy.
The solved rho is exactly Hermitian by construction and is otherwise used
as-is: no eigenvalue clamping, so the trace, positivity and residual checks
in tests measure the solver rather than a cosmetic cleanup.

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
    MAX_CUTOFF,
    HilbertSpace,
    ModelParams,
    _generator_data,
    _generator_parts,
)

__all__ = [
    "SteadyStateGrid",
    "SteadyStateResult",
    "solve_steady_state",
    "steady_state_grid",
]

RESIDUAL_TOL = 1e-9

# occupations below this are treated as exactly dark when forming ratios
_DARK_FLOOR = 1e-12
# band bytes of one batch of cells: a grid worker solves as many cells at a
# time as fit, and at least one (a cutoff-10 cell's band is 0.67 MB)
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
    """Read-only layout of the trace-replaced system on one space, by place.

    The place of an unknown is its index in d order: block by block from d =
    -N - 1 to N + 1, and in vec order within a block.  ``bounds`` holds where
    each block starts, then the count of unknowns; ``rank`` maps each vec index
    to its place, and ``mirror`` the place of each unknown rho[i, j] to that of
    rho[j, i], in the block of -d.  ``trace`` is the place of row 0, which the
    trace functional replaces, and ``diag`` the places of diag(rho) in vec order.

    The generator's entries are held by row place, each row in vec column order,
    as a stable sort by row of the column-major entries of ``_generator_parts``
    leaves them: ``values`` are its real blocks on them, ``rows`` and ``cols``
    their places and ``row_starts`` the first entry of each row (no row is empty).

    The band stores only block rows d >= -1, and in them only the blocks of
    columns d >= -1: one cell's band is a flat array of ``size`` entries, with
    block (k, k + o) of the stored rows at ``blocks[k][o + 2]`` as (start, rows,
    cols), or None off the stored band.  The generator's entries ``src``, those
    of rows d >= 0 but the trace row, go to ``dest`` and the trace row's ones to
    ``trace_dest``.
    """

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    row_starts: np.ndarray
    rank: np.ndarray
    mirror: np.ndarray
    trace: int
    diag: np.ndarray
    bounds: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, int, int] | None, ...], ...]
    size: int
    src: np.ndarray
    dest: np.ndarray
    trace_dest: np.ndarray


@lru_cache(maxsize=None)
def _band_system(space: HilbertSpace) -> _Band:
    """The band layout of the trace-replaced system on ``space`` (6.6 MB at cutoff 40)."""
    gen_rows, gen_cols, values = _generator_parts(space)
    dim, n2 = space.dim, space.dim * space.dim
    excitation = np.tile(np.arange(space.fock_dim), 2) + np.repeat([0, 1], space.fock_dim)
    vec = np.arange(n2)
    d = excitation[vec % dim] - excitation[vec // dim]  # vec(rho)[j dim + i] is rho[i, j]
    order = np.argsort(d, kind="stable")
    rank = np.empty(n2, dtype=np.intp)
    rank[order] = vec
    mirror = rank[(order % dim) * dim + order // dim]
    sizes = np.bincount(d - d.min())
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # the entries come in vec column order, and a stable sort keeps that order in a row
    rows = rank[gen_rows]
    by_row = np.argsort(rows, kind="stable")
    rows, cols = rows[by_row], rank[gen_cols[by_row]]

    # the stored rows: blocks d = -1 .. N + 1, numbered from 0
    low = space.photon_cutoff
    block = np.repeat(np.arange(sizes.size), sizes) - low  # the stored block of each place
    sizes = sizes[low:]
    pos = vec - bounds[low:][np.maximum(block, 0)]  # place of each stored unknown in its block
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

    trace, diag = int(rank[0]), rank[np.arange(dim) * (dim + 1)]
    src = np.flatnonzero((block[rows] >= 1) & (block[cols] >= 0) & (rows != trace))
    out = _Band(values[:, by_row], rows, cols, np.searchsorted(rows, vec), rank, mirror, trace,
                diag, tuple(bounds.tolist()), tuple(blocks), start, src,
                place(rows[src], cols[src]), place(np.full(dim, trace), diag))
    for arr in out:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return out


def _mirrored(block: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The conjugate mirror of a block of the band, for every cell: entry (a, b)
    is conj(block[rows[a], cols[b]])."""
    return block[:, rows[:, np.newaxis], cols].conj()


def _eliminate(blocks: list[list], k: int) -> None:
    """Eliminate stored block row k from the rows above it, for every cell at once:
    the Schur-updated diagonal block is replaced by its inverse, each block (k, k
    - j) left of it by the multiplier inv(S_k) A[k, k - j], and the blocks above
    the diagonal keep their Schur-updated values.  Raises LinAlgError if the
    diagonal block of any cell is singular."""
    inv = blocks[k][2]
    inv[...] = np.linalg.inv(inv)
    for j in (1, 2):
        if k >= j:
            blocks[k][2 - j][...] = inv @ blocks[k][2 - j]
    for i in (1, 2):
        if k >= i:
            for j in (1, 2):
                if k >= j:
                    blocks[k - i][2 + i - j] -= blocks[k - i][2 + i] @ blocks[k][2 - j]


def _middle(bounds: tuple[int, ...], mirror: np.ndarray) -> tuple[np.ndarray, ...]:
    """The mirror maps of the stored blocks d = -1, 0, 1: from each place in block
    -1 to its place in block 1, within block 0, and from block 1 to block -1,
    each counted from the start of its target block; and over the three blocks
    together."""
    c = (len(bounds) - 2) // 2  # the block of d = 0
    low, zero, one, end = bounds[c - 1:c + 3]
    mid = mirror[low:end] - low
    return (mid[:zero - low] - (one - low), mid[zero - low:one - low] - (zero - low),
            mid[one - low:], mid)


def _factor_band(blocks: list[list], middle: tuple[np.ndarray, ...]) -> None:
    """Block LU of the stored band in place, eliminating from d = N + 1 toward d = -1.

    Rows d = N + 1 .. 2 are eliminated first.  Since T L T = conj(L) for T:
    vec(rho) -> vec(rho^T), the elimination of rows d = -N - 1 .. -2 from the
    other edge is the conjugate mirror of that one: block row d = -1 and block
    (0, -1) are set as the mirrors of block row d = 1 and block (0, 1), and
    block (0, 0) as S + mirror(S) - A[0, 0], with S block (0, 0) after the
    first half.  Rows d = 1, 0, -1 are eliminated last.  Raises LinAlgError if a
    diagonal block of any cell is singular.
    """
    neg, zero, pos, _ = middle
    a00 = blocks[1][2].copy()
    for k in range(len(blocks) - 1, 2, -1):
        _eliminate(blocks, k)
    blocks[0][2][...] = _mirrored(blocks[2][2], neg, neg)
    blocks[0][3][...] = _mirrored(blocks[2][1], neg, zero)
    blocks[0][4][...] = _mirrored(blocks[2][0], neg, pos)
    blocks[1][1][...] = _mirrored(blocks[1][3], zero, neg)
    s = blocks[1][2]
    s[...] = s + _mirrored(s, zero, zero) - a00
    for k in (2, 1, 0):
        _eliminate(blocks, k)


def _solve_band(blocks: list[list], bounds: tuple[int, ...], middle: tuple[np.ndarray, ...],
                y: np.ndarray) -> None:
    """Overwrite ``y``, (cells, stored unknowns), with the stored part of A^-1 y
    from ``_factor_band``'s factors, for a right-hand side that is the vec of a
    Hermitian matrix (its rows d = -1 are not read).

    The sweep from d = N + 1 toward d = 2 is followed by its mirror's share of
    rows d = 0 and -1.  The solution of the middle rows d = -1, 0, 1 is
    projected onto its Hermitian part before the rows d >= 2 are
    back-substituted: without it rounding in the middle grows through them.
    """
    neg, zero, _, mid = middle
    nb = len(blocks)
    part = [y[:, bounds[k]:bounds[k + 1], np.newaxis] for k in range(nb)]
    for k in range(nb - 1, 2, -1):
        for i in (1, 2):
            if k + i < nb:
                part[k] -= blocks[k][2 + i] @ part[k + i]
        part[k][...] = blocks[k][2] @ part[k]
    # row d = 1 meets the d >= 2 side through (1, 2) and (1, 3), and row d = 0
    # through (0, 2) and, on the d <= -2 side, through its mirror; row d = -1
    # is the mirror of row d = 1
    part[2] -= blocks[2][3] @ part[3] + blocks[2][4] @ part[4]
    w = blocks[1][4] @ part[3]
    part[1] -= w + w[:, zero].conj()
    part[0][...] = part[2][:, neg].conj()
    part[2][...] = blocks[2][2] @ part[2]
    part[1] -= blocks[1][3] @ part[2]
    part[1][...] = blocks[1][2] @ part[1]
    part[0] -= blocks[0][3] @ part[1] + blocks[0][4] @ part[2]
    part[0][...] = blocks[0][2] @ part[0]
    for k in range(1, nb):
        for j in (1, 2):
            if k >= j:
                part[k] -= blocks[k][2 - j] @ part[k - j]
        if k == 2:
            x = y[:, :bounds[3]]
            x[...] = (x + x[:, mid].conj()) * 0.5


def _apply(data: np.ndarray, x: np.ndarray, band: _Band) -> np.ndarray:
    """L x by place for each cell, with ``data`` the generator's entries by place."""
    return np.add.reduceat(data * x[:, band.cols], band.row_starts, axis=1)


def _refined(factor, data: np.ndarray, space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """(x, ||L x||_inf) of each cell on ``space``, with x the solution of A x = b by
    place and ``data`` the generator's entries by place, one cell a row.

    ``factor(data, space)`` factors A, whose trace row is the trace and the rest
    that of L, for every cell, and returns solve(y): A^-1 y by place for a
    Hermitian y, which it may overwrite.  b, the trace row's 1, is Hermitian;
    each solution and the residual of one step of iterative refinement are
    projected onto their Hermitian part, so x is exactly Hermitian.
    """
    band = _band_system(space)
    solve = factor(data, space)

    def hermitian(y: np.ndarray) -> np.ndarray:
        return (y + y[:, band.mirror].conj()) * 0.5

    b = np.zeros((len(data), space.dim ** 2), dtype=complex)
    b[:, band.trace] = 1.0
    x = hermitian(solve(b))
    r = -_apply(data, x, band)  # b - A x
    # a gathered array sums in another order when it has several rows: copy it first
    r[:, band.trace] = 1.0 - np.ascontiguousarray(x[:, band.diag]).sum(axis=1)
    x += hermitian(solve(hermitian(r)))
    return x, np.abs(_apply(data, x, band)).max(axis=1)


def _band_solve(data: np.ndarray, space: HilbertSpace):
    """``_refined``'s factor by block elimination on the d band; LinAlgError if a
    diagonal block of any cell is singular.  Each cell's bits are independent of
    the others."""
    band, cells = _band_system(space), len(data)
    flat = np.zeros((cells, band.size), dtype=complex)
    flat[:, band.dest] = data[:, band.src]
    flat[:, band.trace_dest] = 1.0
    blocks = [[None if b is None else flat[:, b[0]:b[0] + b[1] * b[2]].reshape(cells, b[1], b[2])
               for b in row] for row in band.blocks]
    low = band.bounds[space.photon_cutoff]  # the first stored unknown, in block d = -1
    bounds = tuple(b - low for b in band.bounds[space.photon_cutoff:])
    middle = _middle(band.bounds, band.mirror)
    _factor_band(blocks, middle)
    below = band.mirror[:low] - low  # the stored mirror of each place d <= -2

    def solve(y: np.ndarray) -> np.ndarray:
        y = y[:, low:].copy()
        _solve_band(blocks, bounds, middle, y)
        return np.concatenate([y[:, below].conj(), y], axis=1)

    return solve


def _qr_solve(data: np.ndarray, space: HilbertSpace):
    """``_refined``'s factor by block Householder QR of the full d band; LinAlgError
    if a diagonal block of R of any cell is singular.

    Block column k is reduced by the QR of block rows k .. k + 2, and Q^H is
    applied to them over block columns k .. k + 4: the upper band widens from 2
    blocks to 4, as LAPACK's gbtrf widens ku to kl + ku.  R is back-substituted.
    """
    band, cells = _band_system(space), len(data)
    bounds, nb = np.array(band.bounds), len(band.bounds) - 1
    sizes = np.diff(bounds)
    lo = bounds[np.maximum(np.arange(nb) - 2, 0)]  # block row k is held over block
    width = bounds[np.minimum(np.arange(nb) + 5, nb)] - lo  # columns k - 2 .. k + 4
    start = np.append(0, np.cumsum(sizes * width))
    at = np.searchsorted(bounds, band.rows, side="right") - 1  # the block row of each entry
    flat = np.zeros((cells, start[-1]), dtype=complex)
    flat[:, start[at] + (band.rows - bounds[at]) * width[at] + band.cols - lo[at]] = data
    held = [flat[:, start[k]:start[k + 1]].reshape(cells, sizes[k], width[k]) for k in range(nb)]
    c = nb // 2  # the block of d = 0, which holds the trace row and diag(rho)
    trace = held[c][:, band.trace - bounds[c]]
    trace[...] = 0.0
    trace[:, band.diag - lo[c]] = 1.0

    qh, inv = [], []  # Q^H of each panel, the inverse of each diagonal block of R
    for k in range(nb):
        panel, span = range(k, min(k + 3, nb)), slice(bounds[k], bounds[min(k + 5, nb)])
        slab = np.concatenate([held[i][:, :, span.start - lo[i]:span.stop - lo[i]]
                               for i in panel], axis=1)
        q, r = np.linalg.qr(slab[:, :, :sizes[k]], mode="complete")
        qh.append(np.swapaxes(q.conj(), 1, 2))
        slab = qh[k] @ slab
        for i in panel:
            held[i][:, :, span.start - lo[i]:span.stop - lo[i]] = \
                slab[:, bounds[i] - bounds[k]:bounds[i + 1] - bounds[k]]
        inv.append(np.linalg.inv(r[:, :sizes[k]]))

    def solve(y: np.ndarray) -> np.ndarray:
        for k in range(nb):
            part = y[:, bounds[k]:bounds[min(k + 3, nb)], np.newaxis]
            part[...] = qh[k] @ part
        for k in range(nb - 1, -1, -1):
            right = slice(bounds[k + 1], bounds[min(k + 5, nb)])
            part = y[:, bounds[k]:bounds[k + 1], np.newaxis]
            part[...] = inv[k] @ (part - held[k][:, :, right.start - lo[k]:right.stop - lo[k]]
                                  @ y[:, right, np.newaxis])
        return y

    return solve


def _each(factor, data: np.ndarray, space: HilbertSpace) -> tuple[np.ndarray, ...]:
    """``_refined(factor, data, space)`` for all cells at once, or cell by cell if
    it raises LinAlgError: (x, residual, singular) per cell, with nan and True
    in a cell whose own solve raised it."""
    x = np.full((len(data), space.dim ** 2), math.nan, dtype=complex)
    residual = np.full(len(data), math.nan)
    singular = np.zeros(len(data), dtype=bool)
    try:
        x[:], residual[:] = _refined(factor, data, space)
    except np.linalg.LinAlgError:
        for c in range(len(data)):
            try:
                x[c:c + 1], residual[c:c + 1] = _refined(factor, data[c:c + 1], space)
            except np.linalg.LinAlgError:
                singular[c] = True
    return x, residual, singular


# overflow leaves inf or nan, which the gate refuses
@np.errstate(over="ignore", invalid="ignore")
def _solve_batch(params: list[ModelParams], space: HilbertSpace) -> list[SteadyStateResult |
                                                                        BlockadeError]:
    """The steady state of each of ``params`` on ``space``, or the BlockadeError that
    refuses it, as :func:`solve_steady_state` gives it: the band solves the cells
    together, QR solves the finite cells the band refused together again, and
    one gate checks either solution and decides the refused cells' class."""
    out: list = [None] * len(params)
    # a lossless cavity that is decoupled from the dot, or coupled to a lossless
    # dot, evolves unitarily, so every function of its Hamiltonian is stationary
    cells = []
    for i, p in enumerate(params):
        if p.kappa == 0.0 and (p.g == 0.0 or p.gamma == 0.0):
            out[i] = DegenerateSteadyStateError(_DEGENERATE)
        else:
            cells.append(i)
    band = _band_system(space)
    data = _generator_data(band.values, [params[i] for i in cells])
    finite = np.isfinite(data).all(axis=1)

    def gate(c: int, x: np.ndarray, res: float,
             singular: bool) -> SteadyStateResult | BlockadeError:
        if singular or (res > RESIDUAL_TOL and np.isfinite(x).all()):
            scale = float(np.max(np.abs(data[c])))
            if scale * np.finfo(float).eps >= 1:
                return SingularSystemError(
                    f"steady state unresolved at entry magnitude {scale:.2e}, where rounding "
                    "exceeds 1, the unit of every rate; degeneracy cannot be told")
            if singular:
                return DegenerateSteadyStateError(_DEGENERATE)
        if not (math.isfinite(res) and np.isfinite(x).all()):
            return SingularSystemError("steady state overflows float64")
        if res > RESIDUAL_TOL:
            return SteadyStateResidualError(res, RESIDUAL_TOL)
        # vec(rho) from the places, then undo the column stacking
        rho = x[band.rank].reshape((space.dim, space.dim), order="F")
        return SteadyStateResult(rho, *_statistics(rho, space), space.photon_cutoff, res)

    # the band solves the finite cells, and QR solves those it refused again, together
    todo = np.flatnonzero(finite)
    for factor in (_band_solve, _qr_solve):
        if len(todo):
            for c, x, res, singular in zip(todo, *_each(factor, data[todo], space)):
                out[cells[c]] = gate(c, x, float(res), singular)
            todo = [c for c in todo if isinstance(out[cells[c]], BlockadeError)]
    for c in np.flatnonzero(~finite).tolist():  # refused before any solve
        out[cells[c]] = SingularSystemError(
            "Liouvillian has non-finite entries (parameters overflow)")
    return out


def solve_steady_state(params: ModelParams, space: HilbertSpace) -> SteadyStateResult:
    """Steady state via trace-row replacement, by block elimination on the d band.

    A generator with a non-finite entry is refused before any solve.  The
    replaced system is factored block by block from both edges of the d band
    toward d = 0 (inverses of the Schur-updated diagonal blocks, multipliers
    toward the edges), computing only the d >= -1 rows: the other edge's half
    is the conjugate mirror of this one, since the generator preserves
    Hermiticity.  The middle blocks' solution is projected onto its Hermitian
    part, the rows d <= -2 of the solution are the mirror of rows d >= 2, so
    rho is exactly Hermitian, and one step of iterative refinement on the
    residual's Hermitian part follows.  The solution must be finite and meet
    ||L vec(rho)||_inf <= 1e-9, each row of L summed in vec column order.  A
    cell the band refuses, on a singular diagonal block, non-finite values or a
    missed bound, is solved again by block Householder QR of the full band
    (``_qr_solve``), with the same projections and refinement step, and that
    solve decides.
    With kappa = gamma = 1, g = 20 and U = 0.05 the band misses the bound from
    E = 1e5 at cutoffs 4 and 10, and QR meets it up to E = 1e7.

    Failures fall in four classes, decided by the entry scale max|L| * eps:

    - DegenerateSteadyStateError: kappa = 0 with g = 0 or gamma = 0, where a
      lossless cavity, decoupled from the dot or coupled to a lossless dot,
      evolves unitarily and has no unique steady state, refused before any
      solve; or a singular diagonal block of R below entry scale 1, as when L
      has no unique trace-one null vector (A is then exactly singular).
    - SingularSystemError, entry magnitude: a singular block of R, or a finite
      miss of the bound, at entry scale 1 or more, where rounding exceeds a
      unit rate and degeneracy cannot be told.
    - SingularSystemError, overflow: an overflowing generator, refused before
      any solve, or a non-finite solution.
    - SteadyStateResidualError: a finite miss of the bound below entry scale 1.
      The bound is absolute, so rounding in large entries misses it as well.

    At cutoff 4 with kappa = gamma = 1 and every other field 0, drives from E =
    3e7 up miss the residual bound, and from E = 2.3e15, where the entry scale
    2 E eps reaches 1, they read as entry magnitude instead.
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
    per-cutoff cache, then waits on the batches.  Set
    ``OPENBLAS_NUM_THREADS=1`` before NumPy loads, as the CLI's entry point
    does: with BLAS threads inside each solve the threads oversubscribe the
    CPUs.
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

        # as many bands as fit in _BATCH_BYTES; this fills the cutoff's cache
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
