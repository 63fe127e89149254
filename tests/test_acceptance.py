"""End-to-end reproduction targets for the headline photon-statistics results.

Each test checks one numbered target and reports a PASS/FAIL line through
conftest.record_criterion, so a full run ends with a ten-line scoreboard.
The fixtures for targets 1-6 solve on steady_state_grid, as the CLI does.
While their grids run, the batch solve the grid's workers call is wrapped to
log every steady state in _InvariantLog, and target 9 asserts its invariants
at once.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import analytic_oracle
from conftest import record_criterion
from qdblockade import steady_state
from qdblockade.analytic import weak_drive_grid
from qdblockade.errors import SingularSystemError
from qdblockade.model import HilbertSpace, ModelParams

SPACE = HilbertSpace(8)
CUTOFF_CHECK = 12

REF = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)
BIMODE = ModelParams(delta=30.0, delta_a=20.0, g=0.0, E=0.1, U=0.0005)

HYPERBOLA_TROUGH = 400.0 / 30.0  # delta * delta_a = g^2 at delta = 30


class _InvariantLog:
    """Running extremes of the physicality checks over every solve passed to ``add``."""

    def __init__(self) -> None:
        self.count = 0
        self.max_trace_defect = 0.0
        self.max_herm_defect = 0.0
        self.min_eigenvalue = math.inf
        self.max_residual = 0.0
        self._lock = threading.Lock()  # the grid's cells solve on worker threads

    def add(self, rho, residual):
        herm = 0.5 * (rho + rho.conj().T)
        with self._lock:
            self.count += 1
            self.max_trace_defect = max(self.max_trace_defect, abs(np.trace(rho) - 1.0))
            self.max_herm_defect = max(
                self.max_herm_defect, float(np.max(np.abs(rho - rho.conj().T))))
            self.min_eigenvalue = min(
                self.min_eigenvalue, float(np.linalg.eigvalsh(herm)[0]))
            self.max_residual = max(self.max_residual, residual)


INVARIANTS = _InvariantLog()


def _logged_grid(**fields):
    """steady_state_grid at SPACE's cutoff over REF with ``fields`` replaced, solves logged."""
    solve, seen = steady_state._solve_batch, INVARIANTS.count

    def solve_and_log(fields, space):
        x, residual, failure = solve(fields, space)
        rank = steady_state._band_system(space).rank
        for c in np.flatnonzero(failure == None):  # noqa: E711 (elementwise)
            # vec(rho) from the places, then undo the column stacking
            INVARIANTS.add(x[c, rank].reshape((space.dim, space.dim), order="F"), residual[c])
        return x, residual, failure

    # the fixtures are module-scoped, so the function-scoped monkeypatch is out of reach
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady_state, "_solve_batch", solve_and_log)
        grid = steady_state.steady_state_grid(SPACE.photon_cutoff, **{**vars(REF), **fields})
    assert not any(grid.failure.flat) and INVARIANTS.count - seen == grid.g2.size
    return grid


def _local_minima(xs, ys, bar: float):
    """Interior strict minima with value below bar, in axis order."""
    found = []
    for i in range(1, len(ys) - 1):
        if ys[i] < bar and ys[i] < ys[i - 1] and ys[i] < ys[i + 1]:
            found.append((float(xs[i]), float(ys[i])))
    return found


@pytest.fixture(scope="module")
def ref_point():
    return float(_logged_grid().g2)


@pytest.fixture(scope="module")
def bimode_point():
    return float(_logged_grid(**vars(BIMODE)).g2)


def _delta_cut(delta_a: float):
    deltas = np.arange(-60.0, 60.0 + 0.125, 0.25)
    return deltas, _logged_grid(delta=deltas, delta_a=delta_a).g2


@pytest.fixture(scope="module")
def cut20():
    return _delta_cut(20.0)


@pytest.fixture(scope="module")
def cut30():
    return _delta_cut(30.0)


@pytest.fixture(scope="module")
def model_cuts():
    """Cavity-detuning cut at delta = 30 for the three model variants."""
    axis = np.arange(0.0, 60.0 + 0.125, 0.25)
    # the U = 0 (J-C) and g = 0 (bimode) limits override one field each
    variants = {"composite": {}, "jc": {"U": 0.0}, "bimode": {"g": 0.0}}
    out = {}
    for name, limit in variants.items():
        grid = _logged_grid(delta=30.0, delta_a=axis, **limit)
        out[name] = (grid.g2, grid.n_a)
    return axis, out


@pytest.fixture(scope="module")
def quadrant_minima():
    """Minimum g2 per detuning-sign quadrant on a 2-unit grid, |detuning| in [2, 60]."""
    mags = np.arange(2.0, 61.0, 2.0)
    quadrants = {"q1": (1.0, 1.0), "q2": (-1.0, 1.0), "q3": (-1.0, -1.0), "q4": (1.0, -1.0)}
    out = {}
    for name, (sd, sa) in quadrants.items():
        deltas, deltas_a = sd * mags, sa * mags
        g2 = _logged_grid(delta=deltas[:, np.newaxis], delta_a=deltas_a).g2
        # C order is delta-major, so nanargmin keeps the first of equal minima
        i, j = np.unravel_index(np.nanargmin(g2), g2.shape)
        out[name] = (float(g2[i, j]), (float(deltas[i]), float(deltas_a[j])))
    return out


def test_criterion_1_hyperbola_point_value(ref_point):
    desc = "g2 at delta=delta_a=-20, g=20, E=0.1, U=0.0005 is 0.022 within 15%"
    g2 = ref_point
    ok = abs(g2 - 0.022) <= 0.15 * 0.022
    record_criterion(1, desc, ok, f"g2={g2:.5f}")
    assert ok, f"g2={g2}"


def test_criterion_2_dot_free_trough_value(bimode_point):
    desc = "dot-free trough at delta_a=20: g2 within [3e-4, 2e-3]"
    g2 = bimode_point
    ok = 3e-4 <= g2 <= 2e-3
    record_criterion(2, desc, ok, f"g2={g2:.3e}")
    assert ok, f"g2={g2}"


def test_criterion_3_trough_positions_by_model(model_cuts):
    desc = "trough positions: dot-only 13.3, cavity-only 20.0, composite 13.3 and 37.3 (+-0.5)"
    axis, cuts = model_cuts
    jc_pos = float(axis[np.nanargmin(cuts["jc"][0])])
    bm_pos = float(axis[np.nanargmin(cuts["bimode"][0])])
    comp = _local_minima(axis, cuts["composite"][0], 0.1)
    ok = (
        abs(jc_pos - HYPERBOLA_TROUGH) <= 0.5
        and abs(bm_pos - 20.0) <= 0.5
        and len(comp) == 2
        and abs(comp[0][0] - HYPERBOLA_TROUGH) <= 0.5
        and abs(comp[1][0] - 37.3) <= 0.5
    )
    detail = f"dot-only {jc_pos}, cavity-only {bm_pos}, composite {[x for x, _ in comp]}"
    record_criterion(3, desc, ok, detail)
    assert ok, detail


def test_criterion_4_cut_at_20_two_minima(cut20):
    desc = "cut at delta_a=20: exactly two deep minima, -40 below +20"
    deltas, g2 = cut20
    mins = _local_minima(deltas, g2, 0.1)
    ok = (
        len(mins) == 2
        and abs(mins[0][0] + 40.0) <= 1.0
        and abs(mins[1][0] - 20.0) <= 1.0
        and mins[0][1] < mins[1][1]
    )
    detail = ", ".join(f"g2({x:+.2f})={y:.2e}" for x, y in mins)
    record_criterion(4, desc, ok, detail)
    assert ok, detail


def test_criterion_5_cut_at_30_three_minima(cut30):
    desc = "cut at delta_a=30: deep minima at -40, +50 and |13.3| (sign recorded)"
    deltas, g2 = cut30
    mins = _local_minima(deltas, g2, 0.1)
    ok = (
        len(mins) == 3
        and abs(mins[0][0] + 40.0) <= 1.0
        and abs(abs(mins[1][0]) - HYPERBOLA_TROUGH) <= 1.0
        and abs(mins[2][0] - 50.0) <= 1.0
    )
    # the hyperbola delta * delta_a = g^2 with delta_a = +30 forces delta > 0,
    # and that is where the trough in fact sits; the sign is part of the record
    sign = "+" if (len(mins) == 3 and mins[1][0] > 0) else "-"
    detail = ", ".join(f"{x:+.2f}" for x, _ in mins) + f"; hyperbola trough sign {sign}"
    record_criterion(5, desc, ok, detail)
    assert ok, detail


def test_criterion_6_quadrant_structure(quadrant_minima):
    desc = "detuning-sign map: deep antibunching in quadrants 1-3 only, min above 1 in quadrant 4"
    q = quadrant_minima
    ok = (
        q["q1"][0] < 0.1
        and q["q2"][0] < 0.1
        and q["q3"][0] < 0.1
        and q["q4"][0] > 1.0
    )
    detail = (
        f"mins q1={q['q1'][0]:.2e}, q2={q['q2'][0]:.2e}, q3={q['q3'][0]:.2e}, "
        f"q4={q['q4'][0]:.2e} at {q['q4'][1]}"
    )
    record_criterion(6, desc, ok, detail)
    # the fourth quadrant is not antibunching-free: a weak continuation of the
    # interference channel keeps its minimum near 0.33 (around (28, -32) on
    # this grid, and lower on finer grids), so the > 1 clause fails; the
    # failure is reported as measured rather than hidden by a looser bar
    assert ok, detail


def test_criterion_7_amplitude_engines_agree():
    desc = "closed-form amplitudes match the linear solve to 1e-10 over 1000 draws"
    rng = np.random.default_rng(314159)
    draws = [
        ModelParams(
            delta=rng.uniform(-100.0, 100.0),
            delta_a=rng.uniform(-100.0, 100.0),
            g=rng.uniform(0.0, 50.0),
            E=rng.uniform(0.0, 0.2),
            U=rng.uniform(0.0, 0.01),
            kappa=rng.uniform(0.5, 2.0),
        )
        for _ in range(1000)
    ]
    grid = weak_drive_grid(**{k: [vars(p)[k] for p in draws] for k in vars(REF)})
    worst = 0.0
    skipped = 0
    for i, p in enumerate(draws):
        try:
            solved = analytic_oracle.amplitudes_linear_solve(p)
        except SingularSystemError:
            solved = None
        if solved is None or grid.amplitudes_failure[i]:
            skipped += 1
            continue
        closed = (grid.c0e[i], grid.c1g[i], grid.c1e[i], grid.c2g[i])
        worst = max(worst, *(abs(c - d) for c, d in zip(closed, solved)))
    ok = worst < 1e-10 and skipped <= 5
    record_criterion(7, desc, ok, f"worst |diff|={worst:.2e}, {skipped} singular draws")
    assert ok, f"worst={worst}, skipped={skipped}"


def test_criterion_8_mean_photon_gain_invariance(model_cuts):
    desc = "mean photon number ignores the two-photon gain: <1% numeric, exact analytic"
    axis, cuts = model_cuts
    n_comp = cuts["composite"][1]
    n_jc = cuts["jc"][1]
    rel = np.abs(n_comp - n_jc) / n_jc
    worst = float(np.max(rel))
    worst_at = float(axis[int(np.argmax(rel))])
    base = replace(REF, delta=30.0)
    with_gain = weak_drive_grid(**{**vars(base), "delta_a": axis})
    without = weak_drive_grid(**{**vars(base), "U": 0.0, "delta_a": axis})
    assert not (with_gain.n_a_failure.any() or without.n_a_failure.any())
    exact = bool(np.array_equal(with_gain.n_a, without.n_a))
    ok = worst < 0.01 and exact
    detail = (f"numeric max rel diff {worst:.2e} at delta_a={worst_at}, "
              f"analytic equal: {exact}")
    record_criterion(8, desc, ok, detail)
    # the gain resonantly pumps the two-photon dressed state where
    # delta_a (delta + delta_a) = g^2 (delta_a = 10 on this cut) and photon
    # loss cascades that population back into the one-photon sector, lifting
    # n_a by ~1.8% there; away from that resonance the shift is far below the
    # 1% bar asserted here, so the failure is reported as measured
    assert ok, detail


def test_criterion_9_density_matrix_invariants(
        ref_point, bimode_point, cut20, cut30, model_cuts, quadrant_minima):
    desc = "every mapped steady state: trace, Hermiticity, positivity, residual in tolerance"
    # the band solver builds rho exactly Hermitian (it fills rows d <= -2 by the
    # conjugate mirror of rows d >= 2 and projects the middle rows), so the
    # Hermiticity defect reads 0 by construction (herm 0.0e+00 over 5287 solves)
    # and no longer measures the solver; the check stays for any other solver.
    # Trace, positivity and residual still measure it
    log = INVARIANTS
    ok = (
        log.max_trace_defect <= 1e-10
        and log.max_herm_defect <= 1e-10
        and log.min_eigenvalue > -1e-9
        and log.max_residual < 1e-9
    )
    detail = (
        f"{log.count} solves; trace defect {log.max_trace_defect:.1e}, "
        f"herm {log.max_herm_defect:.1e}, min eig {log.min_eigenvalue:+.1e}, "
        f"residual {log.max_residual:.1e}"
    )
    record_criterion(9, desc, ok, detail)
    assert ok, detail


def test_criterion_10_truncation_robustness(
        ref_point, bimode_point, cut20, cut30, model_cuts):
    desc = "reported g2 values move < 1e-6 relative from cutoff 8 to 12"
    points = [(REF, ref_point), (BIMODE, bimode_point)]

    axis, cuts = model_cuts
    base = replace(REF, delta=30.0)
    jc_i = int(np.nanargmin(cuts["jc"][0]))
    bm_i = int(np.nanargmin(cuts["bimode"][0]))
    points.append((replace(base, delta_a=float(axis[jc_i]), U=0.0), float(cuts["jc"][0][jc_i])))
    points.append((replace(base, delta_a=float(axis[bm_i]), g=0.0),
                   float(cuts["bimode"][0][bm_i])))
    for x, y in _local_minima(axis, cuts["composite"][0], 0.1):
        points.append((replace(base, delta_a=x), y))
    for (xs, ys), da in ((cut20, 20.0), (cut30, 30.0)):
        for x, y in _local_minima(xs, ys, 0.1):
            points.append((replace(REF, delta=x, delta_a=da), y))

    fine = steady_state.steady_state_grid(
        CUTOFF_CHECK, **{k: [getattr(p, k) for p, _ in points] for k in vars(REF)})
    assert not any(fine.failure)
    coarse = np.array([y for _, y in points])
    worst = float(np.max(np.abs(fine.g2 - coarse) / np.abs(coarse)))
    ok = worst < 1e-6
    record_criterion(10, desc, ok, f"{len(points)} points; worst rel change {worst:.1e}")
    assert ok, f"worst={worst}"
