import math
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qdblockade import (
    BlockadeError,
    errors,
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    HilbertSpace,
    ModelParams,
    SingularSystemError,
    model,
    solve_steady_state,
    steady_state,
    steady_state_grid,
)
from qdblockade.analytic import weak_drive_grid

from dense_oracle import dense_steady_state
from fock_helpers import (
    basis_state,
    cavity_lowering,
    creation_op,
    number_op,
    unvec,
    validate_density_matrix,
)

REF = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)


def fields_of(params):
    """The (cells, 7) field array of a list of ModelParams, as the batch solve takes it."""
    return np.array([[*vars(p).values()] for p in params])


def outer(v):
    return np.outer(v, v.conj())


def coherent_fock_state(alpha: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)
    return amps


def test_dark_steady_state():
    space = HilbertSpace(6)
    res = solve_steady_state(ModelParams(delta=5.0, delta_a=-3.0, g=20.0), space)
    assert np.allclose(res.rho, outer(basis_state(space, 0, 0)), atol=1e-12)
    assert res.n_a < 1e-14
    assert math.isnan(res.g2_zero)  # undefined, flagged rather than crashed
    assert res.residual < 1e-9


def test_driven_empty_cavity_is_coherent():
    space = HilbertSpace(10)
    res = solve_steady_state(ModelParams(delta_a=0.0, g=0.0, E=0.1, U=0.0), space)
    assert abs(res.n_a - 0.04) < 1e-3  # 4 E^2 / kappa^2
    assert abs(res.g2_zero - 1.0) < 1e-3


def test_reference_point_blockade_depth():
    res = solve_steady_state(REF, HilbertSpace(8))
    assert abs(res.g2_zero - 0.022) < 0.15 * 0.022
    assert res.cutoff_used == 8
    assert res.residual < 1e-9


def test_g2_of_fock_states():
    space = HilbertSpace(6)
    one = outer(basis_state(space, 0, 1))
    two = outer(basis_state(space, 0, 2))
    statistics = steady_state._statistics
    assert statistics(np.diagonal(one), space) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert statistics(np.diagonal(two), space) == pytest.approx((0.5, 2.0), rel=1e-12)


def test_g2_of_truncated_coherent_state():
    space = HilbertSpace(10)
    fock = coherent_fock_state(0.2, space.photon_cutoff)
    state = np.kron(np.array([1.0, 0.0]), fock)
    state /= np.linalg.norm(state)
    rho = outer(state)
    g2, n_a = steady_state._statistics(np.diagonal(rho), space)
    assert abs(g2 - 1.0) < 1e-6
    assert n_a == pytest.approx(0.04, rel=1e-6)


@pytest.mark.parametrize("cutoff", [2, 6, 12])
def test_statistics_equal_dense_traces_on_random_states(cutoff):
    # the package reads P(n) off diag(rho); the traces use the dense test operators
    space = HilbertSpace(cutoff)
    a, ad = cavity_lowering(space), creation_op(space)
    pair_op = ad @ ad @ a @ a
    rng = np.random.default_rng(2000 + cutoff)
    for _ in range(20):
        m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        n_a = np.trace(rho @ number_op(space)).real
        g2 = np.trace(rho @ pair_op).real / n_a**2
        assert steady_state._statistics(np.diagonal(rho), space) == pytest.approx((g2, n_a),
                                                                                 rel=1e-12)
    # a solved state goes through the same statistics
    res = solve_steady_state(REF, space)
    n_a = np.trace(res.rho @ number_op(space)).real
    assert res.n_a == pytest.approx(n_a, rel=1e-12)
    assert res.g2_zero == pytest.approx(np.trace(res.rho @ pair_op).real / n_a**2, rel=1e-12)


# an undamped cavity decoupled from the dot (g = kappa = 0) evolves unitarily, so it
# has no unique steady state.  The band finds a singular block, and the QR rescue
# meets the gate on it at cutoff 12 (residual 3.2e-30, g2 = 3.3e7)
GATE_MISS = ModelParams(delta=8.484416434305949, delta_a=-4.332328215628659, g=0.0, E=0.0,
                        U=7.170094177168514e-08, kappa=0.0, gamma=1.9228401943813833)
# a lossless system (kappa = gamma = 0) also evolves unitarily; at cutoff 6 the QR
# rescue meets the gate on this point too (residual 8.7e-19, n_a = 0.159)
LOSSLESS = ModelParams(delta=-16.646361291864366, delta_a=-26.721222971854402,
                       g=0.5065983447746402, U=0.0036673283981565785, kappa=0.0, gamma=0.0)
# a well-posed drive so large that rounding misses the gate: 3.7e-9 at cutoff 4
# through the QR rescue, since the band misses it too, while its entry scale
# 2 E eps = 1.3e-8 is far below 1
LARGE_DRIVE = ModelParams(E=3e7)


def test_degenerate_generator_is_refused():
    for p, cutoff in [
        # no decay and no drive: every dot/photon population is stationary
        (ModelParams(delta=1.0, delta_a=2.0, g=0.0, kappa=0.0, gamma=0.0), 3),
        # driven but lossless: nothing damps the coherent evolution
        (ModelParams(g=20.0, E=0.1, kappa=0.0, gamma=0.0), 4),
        (ModelParams(g=20.0, E=0.1, kappa=0.0, gamma=0.0), 10),
        # an undriven, undamped dot decoupled from the cavity keeps either state
        (ModelParams(g=0.0, E=0.0, kappa=1.0, gamma=0.0), 6),
        # large entries, max|L| * eps = 0.044, still below the huge-entry class
        (ModelParams(g=1e14, E=0.1, kappa=0.0, gamma=0.0), 4),
        # refused before any solve, as every point with kappa = 0 and g = 0 or
        # gamma = 0 is
        (GATE_MISS, 12),
        (LOSSLESS, 6),
    ]:
        with pytest.raises(DegenerateSteadyStateError):
            solve_steady_state(p, HilbertSpace(cutoff))
    # a finite miss of the residual gate is reported as one, under any BLAS
    # thread count (set in a child, before NumPy loads its BLAS)
    src = str(Path(steady_state.__file__).resolve().parents[1])
    script = "\n".join([
        "from qdblockade import HilbertSpace, ModelParams, SteadyStateResidualError,"
        " solve_steady_state",
        "try: solve_steady_state(" + repr(LARGE_DRIVE) + ", HilbertSpace(4))",
        "except SteadyStateResidualError as exc: print(exc.residual)"])
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=src,
                                                    OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        assert 1e-9 < float(proc.stdout) < 1e-6, threads


def test_errors_survive_pickle():
    # one of each BlockadeError class, as a process pool would send it back
    made = [BlockadeError("base"), SingularSystemError("singular"),
            DegenerateSteadyStateError(steady_state._DEGENERATE),
            errors.SteadyStateResidualError(2e-9, 1e-9), CutoffConvergenceError("unsettled")]
    assert {type(exc) for exc in made} == {
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BlockadeError)}
    for exc in made:
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back), vars(back)) == (type(exc), str(exc), vars(exc))


# drives the band refuses on the residual bound, which the QR rescue meets: kappa =
# gamma = 1, g = 20, U = 0.05 at cutoffs 4 and 10, and E = 1e7 with g = U = 0
RESCUED = [(ModelParams(g=20.0, E=E, U=0.05), cutoff) for E in (1e5, 1e6) for cutoff in (4, 10)]
RESCUED.append((ModelParams(E=1e7), 4))


def record_rescues(monkeypatch) -> list:
    """Patch ``_qr_solve`` to record each cell it solves, as ``generator_cell`` names it."""
    qr, rescued = steady_state._qr_solve, []

    def record(data, space):
        rescued.extend((space.photon_cutoff, row.tobytes()) for row in data)
        return qr(data, space)

    monkeypatch.setattr(steady_state, "_qr_solve", record)
    return rescued


def generator_cell(params, cutoff):
    space = HilbertSpace(cutoff)
    data = model._generator_data(steady_state._band_system(space).values, fields_of([params]))
    return cutoff, data[0].tobytes()


def test_band_refusals_are_rescued_by_qr(monkeypatch):
    # each rescued rho is within 1e-8 of the dense pivoted LU's in the max norm
    # (1.7e-9 at E = 1e7), and its g2 and n_a within 1e-12 (at most 4.4e-16)
    rescued = record_rescues(monkeypatch)
    for params, cutoff in RESCUED:
        space = HilbertSpace(cutoff)
        res = solve_steady_state(params, space)
        dense = unvec(dense_steady_state(params, space))
        assert np.abs(res.rho - dense).max() <= 1e-8 * np.abs(dense).max()
        g2, n_a = steady_state._statistics(np.diagonal(dense), space)
        assert res.g2_zero == pytest.approx(g2, rel=1e-12)
        assert res.n_a == pytest.approx(n_a, rel=1e-12)
        assert res.residual < 1e-9
    assert rescued == [generator_cell(*cell) for cell in RESCUED]
    # in a batch beside a cell the band solves, only the refused cells are rescued
    rescued.clear()
    grid = steady_state_grid(4, g=20.0, E=[0.1, 1e5, 1e6], U=0.05)
    # solved on two threads, in either order
    assert sorted(rescued) == sorted(generator_cell(*cell) for cell in RESCUED[0:3:2])
    assert grid.failure.tolist() == [None] * 3
    assert grid.g2[0] == solve_steady_state(ModelParams(g=20.0, E=0.1, U=0.05),
                                            HilbertSpace(4)).g2_zero


def paper_cells(rng, n):
    return [ModelParams(delta=rng.uniform(-60, 60), delta_a=rng.uniform(-60, 60),
                        g=rng.uniform(0, 20), E=rng.uniform(0, 2), U=rng.uniform(0, 0.05),
                        kappa=rng.uniform(0.5, 2.0), gamma=rng.uniform(0.5, 2.0))
            for _ in range(n)]


@pytest.mark.parametrize("cutoff", [5, 10])
def test_a_batch_keeps_each_cells_one_cell_bits(monkeypatch, cutoff):
    # one batch of twelve paper cells and a cell the band refuses and QR
    # rescues, on one thread: each cell's g2, n_a and residual are those of its
    # own solve.  The statistics take one dot per cell on a contiguous P(n); a
    # batched product, or a strided row, sums in another order and moves bits
    rescued = record_rescues(monkeypatch)
    batches = []
    solve = steady_state._solve_batch

    def solve_and_record(fields, space):
        batches.append(len(fields))
        return solve(fields, space)

    monkeypatch.setattr(steady_state, "_solve_batch", solve_and_record)
    monkeypatch.setattr(steady_state, "os", SimpleNamespace(sched_getaffinity=lambda pid: {0}))
    monkeypatch.setattr(steady_state, "_BATCH_BYTES", 1 << 30)
    params = [ModelParams(g=20.0, E=1e5, U=0.05)] + paper_cells(
        np.random.default_rng(7000 + cutoff), 12)
    fields = fields_of(params)
    grid = steady_state_grid(cutoff, **dict(zip(vars(REF), fields.T)))
    assert batches == [13] and rescued == [generator_cell(params[0], cutoff)]
    assert grid.failure.tolist() == [None] * 13
    one = [solve_steady_state(p, HilbertSpace(cutoff)) for p in params]
    for got, name in zip(grid[:4], ("g2_zero", "n_a", "cutoff_used", "residual")):
        assert np.array_equal(got, [getattr(res, name) for res in one], equal_nan=True)


@pytest.mark.parametrize("cutoff", [4, 10])
def test_qr_agrees_with_the_band_on_ordinary_cells(cutoff):
    # no ordinary cell reaches the rescue, so both solvers solve 20 of them here:
    # rho agrees to 1e-13 relative in the max norm (measured 2.0e-16 at cutoff 4,
    # 4.5e-16 at 10), g2 and n_a to 1e-11 (5.2e-15, 6.1e-14)
    space = HilbertSpace(cutoff)
    band = steady_state._band_system(space)
    data = model._generator_data(
        band.values, fields_of(paper_cells(np.random.default_rng(5000 + cutoff), 20)))
    (by_band, band_res), (by_qr, qr_res) = [
        steady_state._refined(factor, data, space)
        for factor in (steady_state._band_solve, steady_state._qr_solve)]
    assert (band_res < 1e-9).all() and (qr_res < 1e-9).all()
    for x, y in zip(by_band, by_qr):
        assert np.abs(y - x).max() <= 1e-13 * np.abs(x).max()
        want, got = (steady_state._statistics(v[band.diag], space) for v in (x, y))
        assert got == pytest.approx(want, rel=1e-11, nan_ok=True)


@pytest.mark.parametrize("cutoff", [4, 10, 20])
def test_residual_by_place_is_that_of_the_unpermuted_generator(cutoff):
    # the oracle sums L x in vec order, rows in vec order and each row in vec
    # column order; _apply sums each row in that order by place, so the band's
    # residuals and refinement steps keep their bits, alone or in a batch
    space = HilbertSpace(cutoff)
    n2 = space.dim ** 2
    rows, cols, values = model._generator_parts(space)
    by_row = np.lexsort((cols, rows))
    row_starts = np.searchsorted(rows[by_row], np.arange(n2))
    rng = np.random.default_rng(6000 + cutoff)
    params = paper_cells(rng, 5)
    x = rng.normal(size=(5, n2)) + 1j * rng.normal(size=(5, n2))
    want = np.add.reduceat(model._generator_data(values[:, by_row], fields_of(params))
                           * x[:, cols[by_row]], row_starts, axis=1)
    band = steady_state._band_system(space)
    data = model._generator_data(band.values, fields_of(params))
    by_place = x[:, np.argsort(band.rank)]
    assert np.array_equal(steady_state._apply(data, by_place, band)[:, band.rank], want)
    for c in range(5):
        got = steady_state._apply(data[c:c + 1], by_place[c:c + 1], band)
        assert np.array_equal(got[:, band.rank], want[c:c + 1])


def test_band_solves_strong_drives_within_its_reach(monkeypatch):
    # the mirrored elimination keeps the one-sided band's reach: at E = 1e4 it
    # meets the gate with no rescue (residual 1.7e-12 at cutoff 4, 5.8e-13 at
    # 10).  Without the Hermitian projection of the middle blocks' solution,
    # rounding there grows through the back-substitution and misses the gate
    rescued = record_rescues(monkeypatch)
    for cutoff in (4, 10):
        res = solve_steady_state(ModelParams(g=20.0, E=1e4, U=0.05), HilbertSpace(cutoff))
        assert res.residual < 1e-9
    assert rescued == []


@pytest.mark.parametrize("cutoff", [4, 8, 12])
def test_band_solution_is_exactly_hermitian(cutoff):
    # rows d <= -2 are filled by the conjugate mirror of rows d >= 2, and the
    # middle rows d = -1, 0, 1 are projected onto their Hermitian part.  The
    # drives of RESCUED are refused by the band at these cutoffs too, and the
    # QR rescue projects its whole solution
    for p in SPECIAL_POINTS + list(dict.fromkeys(p for p, _ in RESCUED)):
        rho = solve_steady_state(p, HilbertSpace(cutoff)).rho
        assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("cutoff", [4, 10, 20])
def test_generator_commutes_with_the_transpose_up_to_conjugation(cutoff):
    # T L T = conj(L) bit for bit, with T: vec(rho) -> vec(rho^T): L maps
    # Hermitian matrices to Hermitian matrices, and the band's mirror rests on it
    space = HilbertSpace(cutoff)
    dim, n2 = space.dim, space.dim ** 2
    rows, cols, values = model._generator_parts(space)
    keys = cols * n2 + rows  # sorted: the entries are in column-major order

    def transpose(v):  # vec(rho)[j dim + i] is rho[i, j]
        return (v % dim) * dim + v // dim

    at = np.searchsorted(keys, transpose(cols) * n2 + transpose(rows))
    assert np.array_equal(keys[at], transpose(cols) * n2 + transpose(rows))
    data = model._generator_data(values,
                                 fields_of(paper_cells(np.random.default_rng(3000 + cutoff), 5)))
    assert np.array_equal(data[:, at], data.conj())

    # the band's mirror is T on its places: an involution mapping block d onto block -d
    band = steady_state._band_system(space)
    places = np.arange(n2)
    assert np.array_equal(band.mirror[band.mirror], places)
    assert np.array_equal(band.mirror[band.rank], band.rank[transpose(places)])
    bounds = band.bounds
    nb = len(bounds) - 1
    for k in range(nb):
        assert np.array_equal(np.sort(band.mirror[bounds[k]:bounds[k + 1]]),
                              places[bounds[nb - 1 - k]:bounds[nb - k]])


def test_overflowing_drive_is_refused():
    # E = 1e308 overflows the generator itself; at E = 5e307 L is finite but
    # the solution overflows, and that must not pass the 1e-9 gate
    with pytest.raises(SingularSystemError, match="non-finite"):
        solve_steady_state(ModelParams(E=1e308), HilbertSpace(4))
    with pytest.raises(SingularSystemError, match="overflows float64"):
        solve_steady_state(ModelParams(E=5e307), HilbertSpace(4))


@pytest.mark.parametrize("E", [1e40, 1e80, 1e300])
def test_huge_drive_is_not_called_degenerate(E):
    # at cutoff 4 max|L| * eps is 4.4e24 to 4.4e284 here: rounding exceeds every
    # rate, so neither a singular R nor a missed bound shows a degenerate generator
    with pytest.raises(SingularSystemError, match="entry magnitude 2.00e"):
        solve_steady_state(ModelParams(E=E), HilbertSpace(4))


def test_solver_invariants_over_random_parameters():
    space = HilbertSpace(8)
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = ModelParams(delta=rng.uniform(-60, 60), delta_a=rng.uniform(-60, 60),
                        g=rng.uniform(0, 20), E=rng.uniform(0, 0.2),
                        U=rng.uniform(0, 0.001), kappa=rng.uniform(0.5, 2.0))
        res = solve_steady_state(p, space)
        validate_density_matrix(res.rho)
        assert res.residual < 1e-9
        assert res.n_a > -1e-14
        assert math.isnan(res.g2_zero) or res.g2_zero > -1e-12


# points where diagonal-preferring pivoting meets zero or tiny diagonal blocks:
# the compare limits (J-C, U = 0; bimode, g = 0), a dark point and a strong drive
SPECIAL_POINTS = [
    ModelParams(delta=30.0, delta_a=10.0, g=20.0, E=0.1, U=0.0),
    ModelParams(delta=30.0, delta_a=20.0, g=0.0, E=0.1, U=0.0005),
    ModelParams(delta=5.0, delta_a=-3.0, g=20.0, E=0.0, U=0.0),
    ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.05),
]


@pytest.mark.parametrize("cutoff", [4, 8, 12])
def test_sparse_solve_matches_dense_oracle(cutoff):
    space = HilbertSpace(cutoff)
    rng = np.random.default_rng(1000 + cutoff)
    random_points = [
        ModelParams(delta=rng.uniform(-60, 60), delta_a=rng.uniform(-60, 60),
                    g=rng.uniform(0, 20), E=rng.uniform(0, 0.2),
                    U=rng.uniform(0, 0.001), kappa=rng.uniform(0.5, 2.0))
        for _ in range(10)]
    for p in random_points + SPECIAL_POINTS:
        res = solve_steady_state(p, space)
        g2, n_a = steady_state._statistics(np.diagonal(unvec(dense_steady_state(p, space))),
                                           space)
        assert res.n_a == pytest.approx(n_a, rel=1e-10)
        assert res.g2_zero == pytest.approx(g2, rel=1e-10, nan_ok=True)


def test_solve_does_not_depend_on_call_order():
    # the cached band layout comes from the pattern alone, so a point solves to
    # the same bits whichever point filled the cache for its cutoff
    space = HilbertSpace(10)
    steady_state._band_system.cache_clear()
    first = solve_steady_state(REF, space).rho
    steady_state._band_system.cache_clear()
    for p in SPECIAL_POINTS:
        for cutoff in (10, 4, 12):
            solve_steady_state(p, HilbertSpace(cutoff))
    again = solve_steady_state(REF, space).rho
    assert np.array_equal(first, again)
    for arr in steady_state._band_system(space):
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable


def test_weak_drive_g2_agreement_on_reference_cuts():
    # the closed-form g2 tracks the exact solve on all three cavity-detuning
    # cuts to < 0.15 decades away from (a) trough shoulders, where the exact
    # value floors near 5e-4 while the interference zero keeps dropping
    # (mismatch extends ~2 gamma, measured 0.35 decades at 1 gamma), and (b)
    # dot-shielding dark spots where the two-photon occupation overtakes the
    # one-photon one and the truncation leaves its domain
    deltas = np.arange(-60.0, 60.0 + 1e-9, 0.5)
    for da in (-20.0, 20.0, 30.0):
        fields = dict(delta=deltas, delta_a=da, g=20.0, E=0.1, U=0.0005)
        exact = steady_state_grid(8, **fields)
        assert not any(exact.failure)
        num = exact.g2
        grid = weak_drive_grid(**fields)
        assert not (grid.g2_failure.any() or grid.n_a_failure.any())
        ana = grid.g2
        # two-photon vs one-photon occupation ratio; the expansion is only
        # meaningful while this stays small
        valid = ana * grid.n_a < 1e-2
        centers = [deltas[i] for i in range(1, len(deltas) - 1)
                   if ana[i] < 0.5 and ana[i] <= ana[i - 1] and ana[i] <= ana[i + 1]]
        mask = valid.copy()
        for c in centers:
            mask &= np.abs(deltas - c) > 2.5
        assert centers, f"no troughs found on the delta_a={da} cut"
        logdiff = np.abs(np.log10(num[mask]) - np.log10(ana[mask]))
        assert logdiff.max() < 0.15


def test_mean_photon_agreement_improves_with_weaker_drive():
    # residual disagreement is mostly ground-state depletion, second order in
    # E: measured 8.2% worst-case at E=0.1 and 3.9% at E=0.05 over this axis
    # (the fixed two-photon drive keeps the shrinkage short of quadratic)
    axis = np.arange(0.0, 60.0 + 1e-9, 0.5)
    worst = []
    for E in (0.1, 0.05):
        fields = dict(delta=30.0, delta_a=axis, g=20.0, E=E, U=0.0005)
        grid = weak_drive_grid(**fields)
        assert not grid.n_a_failure.any()
        exact = steady_state_grid(8, **fields)
        assert not any(exact.failure)
        worst.append(np.max(np.abs(exact.n_a - grid.n_a) / exact.n_a))
    assert worst[0] < 0.09
    assert worst[1] < 0.6 * worst[0]


def test_mean_photon_insensitive_to_two_photon_drive():
    # rows: with and without the two-photon drive; the last column is the one
    # exception on this cut: at delta_a (delta + delta_a) = g^2 the gain pumps
    # a two-photon dressed state resonantly and photon loss feeds the extra
    # pairs back into the one-photon sector, so n_a does shift
    exact = steady_state_grid(8, delta=30.0, delta_a=[5.0, 400.0 / 30.0, 20.0, 37.3, 50.0, 10.0],
                              g=20.0, E=0.1, U=[[0.0005], [0.0]])
    assert not any(exact.failure.flat)
    with_u, without = exact.n_a
    shift = np.abs(with_u - without) / without
    assert (shift[:-1] < 0.01).all()
    assert 0.01 < shift[-1] < 0.05


def test_cutoff_invariance_at_weak_drive():
    g2_8 = solve_steady_state(REF, HilbertSpace(8)).g2_zero
    g2_12 = solve_steady_state(REF, HilbertSpace(12)).g2_zero
    assert abs(g2_12 - g2_8) / g2_8 < 1e-6


def test_far_detuned_tail_flattens():
    # past the interference dip the cut levels off: successive 5-gamma steps
    # shrink (the approach is ~g^2/delta, so it is gradual, not a plateau)
    exact = steady_state_grid(8, delta=[-45.0, -50.0, -55.0, -60.0], delta_a=20.0, g=20.0,
                              E=0.1, U=0.0005)
    assert not any(exact.failure)
    vals = exact.g2
    steps = np.abs(np.diff(vals)) / vals[:-1]
    assert steps[0] > steps[1] > steps[2]
    assert steps[2] < 0.2


def ladder_oracle(params, cutoff, rel_tol):
    """The per-cell cutoff ladder that ``steady_state_grid``'s rungs replaced: steps
    of 4 from ``cutoff`` up to ``steady_state.MAX_CUTOFF``, one point at a time,
    until g2 and n_a both move by less than ``rel_tol``."""
    def rel_change(old, new):
        if (math.isnan(old) and math.isnan(new)) or old == new:
            return 0.0
        return abs(new - old) / max(abs(new), 1e-9)

    prev = solve_steady_state(params, HilbertSpace(cutoff))
    for c in range(cutoff + 4, steady_state.MAX_CUTOFF + 1, 4):
        cur = solve_steady_state(params, HilbertSpace(c))
        if (rel_change(prev.g2_zero, cur.g2_zero) < rel_tol
                and rel_change(prev.n_a, cur.n_a) < rel_tol):
            return cur
        prev = cur
    raise CutoffConvergenceError(f"observables not settled to rel_tol={rel_tol:g} "
                                 f"by cutoff {steady_state.MAX_CUTOFF}")


def test_grid_matches_per_point_solves(monkeypatch):
    # rows: the reference drives, no drive (a dark state), an overflowing one and
    # a strong one; columns: the reference point, a lossless one and two detuned
    # ones.  The strong cells (3, 0) and (3, 3) are resonant (E = 2, delta =
    # delta_a = 0), and their ladders climb to cutoff 20 beside cells that settle at 8
    strong = np.zeros((4, 4), dtype=bool)
    strong[3, [0, 3]] = True
    fields = dict(delta=np.where(strong, 0.0, [-20.0, 1.0, 30.0, 5.0]),
                  delta_a=np.where(strong, 0.0, -20.0), g=20.0,
                  E=np.where(strong, 2.0, [[0.1], [0.0], [1e308], [0.1]]),
                  U=[[0.0005], [0.0], [0.0005], [0.0005]],
                  kappa=[1.0, 0.0, 1.0, 1.0], gamma=[1.0, 0.0, 1.0, 1.0])
    cells = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in fields.values()))
    for rel_tol in (None, 1e-6, 0.0):
        if rel_tol == 0.0:
            # no cell meets it, so every solved cell climbs to the top rung, lowered
            # to 12 to keep the test short, and fails there
            monkeypatch.setattr(steady_state, "MAX_CUTOFF", 12)
        # an empty cache, so that the grid fills that of cutoffs 8-20 itself
        steady_state._band_system.cache_clear()
        grid = steady_state_grid(4, rel_tol, **fields)
        # g2, n_a, cutoff_used, residual as a plain loop of solves fills them
        expected = [np.full((4, 4), math.nan), np.full((4, 4), math.nan), np.full((4, 4), 4),
                    np.full((4, 4), math.nan)]
        for index in np.ndindex(4, 4):
            p = ModelParams(**{k: float(c[index]) for k, c in zip(fields, cells)})
            try:
                res = (solve_steady_state(p, HilbertSpace(4)) if rel_tol is None
                       else ladder_oracle(p, 4, rel_tol))
            except BlockadeError as exc:
                assert type(grid.failure[index]) is type(exc)
                assert str(grid.failure[index]) == str(exc)
            else:
                assert grid.failure[index] is None
                for arr, value in zip(expected, (res.g2_zero, res.n_a, res.cutoff_used,
                                                 res.residual)):
                    arr[index] = value
        for got, want in zip(grid[:4], expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
        assert isinstance(grid.failure[2, 0], SingularSystemError)
        assert isinstance(grid.failure[1, 1], DegenerateSteadyStateError)
        if rel_tol == 0.0:
            assert all(isinstance(grid.failure[index], CutoffConvergenceError)
                       for index in [(0, 0), (1, 0), (3, 0), (3, 3)])
        else:
            assert grid.g2[0, 0] == pytest.approx(0.0232, rel=0.01)
            assert grid.failure[1, 0] is None and math.isnan(grid.g2[1, 0])
        if rel_tol == 1e-6:
            assert grid.cutoff_used[0, 0] == 8  # the ladder settles one rung above 4
            assert list(grid.cutoff_used[3]) == [20, 4, 8, 20]


def test_each_cutoff_fills_its_caches_once():
    # every rung fills its cache on the calling thread before its threads start,
    # so no two threads fill one cutoff's cache side by side
    steady_state._band_system.cache_clear()
    history = []
    grid = steady_state_grid(4, 1e-6, history, delta=[0.0, -20.0, 0.0, 1.0, 0.0],
                             delta_a=[0.0, -20.0, 0.0, -20.0, 0.0], g=20.0,
                             E=[2.0, 0.1, 2.0, 0.1, 2.0], U=0.0005)
    assert grid.failure.tolist() == [None] * 5
    assert grid.cutoff_used.tolist() == [20, 8, 20, 8, 20]
    # each rung holds the cells it solved: all five up to 8, then the strong three
    assert [(h.cutoff_used.tolist(), h.g2.size) for h in history] == [
        ([4] * 5, 5), ([8] * 5, 5), ([12] * 3, 3), ([16] * 3, 3), ([20] * 3, 3)]
    assert steady_state._band_system.cache_info().misses == len(history)


def test_rung_cells_are_solved_by_the_workers(monkeypatch):
    # the calling thread fills a rung's cache and solves no cell, not even
    # the one cell of a one-cell rung; every rung's batches go to one pool
    solve = steady_state._solve_batch
    threads, pools = [], set()

    def solve_and_record(params, space):
        on_main = threading.current_thread() is threading.main_thread()
        threads.extend((space.photon_cutoff, on_main) for _ in params)
        pools.add(threading.current_thread().name.rpartition("_")[0])  # drop the "_<k>"
        return solve(params, space)

    monkeypatch.setattr(steady_state, "_solve_batch", solve_and_record)
    # both cells up to cutoff 8, then the strong one alone
    steady_state_grid(4, 1e-6, delta=[0.0, 1.0], g=20.0, E=[2.0, 0.1], U=0.0005)
    assert sorted(threads) == [(4, False), (4, False), (8, False), (8, False),
                               (12, False), (16, False), (20, False)]
    assert len(pools) == 1 and pools.pop().startswith("ThreadPoolExecutor-")


@pytest.mark.parametrize("fields, error, message", [
    # invalid fields are refused in every cell before any solve
    pytest.param(dict(g=[20.0, -1.0] + [20.0] * 398), ValueError, "g, E, U must be nonnegative",
                 id="g0-ValueError"),
    pytest.param(dict(delta=[0.0, math.nan] + [0.0] * 398, g=20.0), ValueError,
                 "parameters must be finite: delta$", id="nan_delta-ValueError"),
    # a Ctrl-C reaches the caller during cell 9's batch
    pytest.param(dict(g=20.0), KeyboardInterrupt, None, id="20.0-KeyboardInterrupt"),
])
def test_an_error_stops_the_grid(monkeypatch, fields, error, message):
    # the grid raises what a loop over the cells raises: an invalid field before
    # any batch, and a Ctrl-C once every thread has ended its current batch,
    # instead of solving the cells left.  Batches of two cells: at cutoff 4,
    # _BATCH_BYTES would put all 400 in a few batches
    main_thread = threading.main_thread().ident
    solve = steady_state._solve_batch
    solved = []

    def solve_and_count(batch, space):
        deltas = batch[:, 0].tolist()  # column 0 is delta
        solved.extend(deltas)
        if error is KeyboardInterrupt and 9.0 in deltas:
            signal.pthread_kill(main_thread, signal.SIGINT)
        return solve(batch, space)

    monkeypatch.setattr(steady_state, "_solve_batch", solve_and_count)
    monkeypatch.setattr(steady_state, "_BATCH_BYTES",
                        2 * 16 * steady_state._band_system(HilbertSpace(4)).size)
    with pytest.raises(error, match=message):
        steady_state_grid(4, **{"delta": np.arange(400.0), "E": 0.1, **fields})
    if error is ValueError:
        assert solved == []
    else:
        assert 0 < len(solved) < 40


def test_grid_with_an_empty_axis_is_empty():
    grid = steady_state_grid(4, delta=np.zeros((0, 1)), delta_a=[1.0, 2.0, 3.0])
    for arr in grid:
        assert arr.shape == (0, 3)


def ladder(params):
    """A one-cell grid's ladder from cutoff 4 at rel_tol 1e-6, and its rungs."""
    history = []
    grid = steady_state_grid(4, 1e-6, history, **vars(params))
    assert [h.g2.shape for h in history] == [(1,)] * len(history)
    return grid, history


def test_one_cell_ladder_settles_quickly_at_weak_drive():
    grid, history = ladder(REF)
    assert grid.cutoff_used == 8
    assert [h.cutoff_used[0] for h in history] == [4, 8]
    assert abs(history[1].g2[0] - history[0].g2[0]) / history[1].g2[0] < 1e-6


def test_one_cell_ladder_trivial_for_dark_state():
    grid, _ = ladder(ModelParams(g=20.0))
    assert grid.cutoff_used == 8  # first comparison settles, nothing to resolve
    assert grid.n_a < 1e-14


def test_one_cell_ladder_strong_drive_needs_larger_cutoff():
    grid, history = ladder(ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.0005))
    assert grid.cutoff_used == 20
    assert [h.cutoff_used[0] for h in history] == [4, 8, 12, 16, 20]
    occupations = [h.n_a[0] for h in history]
    assert all(b >= a for a, b in zip(occupations, occupations[1:]))


def test_one_cell_ladder_reports_failure(monkeypatch):
    monkeypatch.setattr(steady_state, "MAX_CUTOFF", 12)
    grid, history = ladder(ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.0005))
    assert isinstance(grid.failure.item(), CutoffConvergenceError)
    assert "by cutoff 12" in str(grid.failure.item())
    # a cell that did not settle holds nan and the first cutoff tried
    assert np.isnan(grid.g2) and grid.cutoff_used == 4
    assert [h.cutoff_used[0] for h in history] == [4, 8, 12]
