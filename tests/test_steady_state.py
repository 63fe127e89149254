import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdblockade import (
    CutoffConvergenceError,
    DegenerateSteadyStateError,
    HilbertSpace,
    ModelParams,
    SingularSystemError,
    converged_solve,
    solve_steady_state,
    steady_state,
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
    assert steady_state._statistics(one, space) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert steady_state._statistics(two, space) == pytest.approx((0.5, 2.0), rel=1e-12)


def test_g2_of_truncated_coherent_state():
    space = HilbertSpace(10)
    fock = coherent_fock_state(0.2, space.photon_cutoff)
    state = np.kron(np.array([1.0, 0.0]), fock)
    state /= np.linalg.norm(state)
    rho = outer(state)
    g2, n_a = steady_state._statistics(rho, space)
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
        assert steady_state._statistics(rho, space) == pytest.approx((g2, n_a), rel=1e-12)
    # a solved state goes through the same statistics
    res = solve_steady_state(REF, space)
    n_a = np.trace(res.rho @ number_op(space)).real
    assert res.n_a == pytest.approx(n_a, rel=1e-12)
    assert res.g2_zero == pytest.approx(np.trace(res.rho @ pair_op).real / n_a**2, rel=1e-12)


# an undamped cavity decoupled from the dot (g = kappa = 0): the factorization
# goes through, but its solution misses the gate at 2.4e-7
GATE_MISS = ModelParams(delta=8.484416434305949, delta_a=-4.332328215628659, g=0.0, E=0.0,
                        U=7.170094177168514e-08, kappa=0.0, gamma=1.9228401943813833)


def test_degenerate_generator_is_refused():
    for p, cutoff in [
        # no decay and no drive: every dot/photon population is stationary
        (ModelParams(delta=1.0, delta_a=2.0, g=0.0, kappa=0.0, gamma=0.0), 3),
        # driven but lossless: nothing damps the coherent evolution
        (ModelParams(g=20.0, E=0.1, kappa=0.0, gamma=0.0), 4),
        (ModelParams(g=20.0, E=0.1, kappa=0.0, gamma=0.0), 10),
        # an undriven, undamped dot decoupled from the cavity keeps either state
        (ModelParams(g=0.0, E=0.0, kappa=1.0, gamma=0.0), 6),
    ]:
        with pytest.raises(DegenerateSteadyStateError):
            solve_steady_state(p, HilbertSpace(cutoff))
    # a finite miss of the residual gate is reported as one, under any BLAS
    # thread count (set in a child, before NumPy loads its BLAS)
    src = str(Path(steady_state.__file__).resolve().parents[1])
    script = "\n".join([
        "from qdblockade import HilbertSpace, ModelParams, SteadyStateResidualError,"
        " solve_steady_state",
        "try: solve_steady_state(" + repr(GATE_MISS) + ", HilbertSpace(12))",
        "except SteadyStateResidualError as exc: print(exc.residual)"])
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=src,
                                                    OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        assert 1e-9 < float(proc.stdout) < 1e-6, threads


def test_overflowing_drive_is_refused():
    # E = 1e308 overflows the generator itself; at E = 5e307 L is finite but
    # the solution overflows, and that must not pass the 1e-9 gate
    with pytest.raises(SingularSystemError, match="non-finite"):
        solve_steady_state(ModelParams(E=1e308), HilbertSpace(4))
    with pytest.raises(SingularSystemError, match="overflows float64"):
        solve_steady_state(ModelParams(E=5e307), HilbertSpace(4))


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
        g2, n_a = steady_state._statistics(unvec(dense_steady_state(p, space)), space)
        assert res.n_a == pytest.approx(n_a, rel=1e-10)
        assert res.g2_zero == pytest.approx(g2, rel=1e-10, nan_ok=True)


def test_solve_does_not_depend_on_call_order():
    # the cached ordering comes from the pattern alone, so a point solves to
    # the same bits whichever point filled the cache for its cutoff
    space = HilbertSpace(10)
    steady_state._ordered_system.cache_clear()
    first = solve_steady_state(REF, space).rho
    steady_state._ordered_system.cache_clear()
    for p in SPECIAL_POINTS:
        for cutoff in (10, 4, 12):
            solve_steady_state(p, HilbertSpace(cutoff))
    again = solve_steady_state(REF, space).rho
    assert np.array_equal(first, again)
    for arr in steady_state._ordered_system(space):
        assert not arr.flags.writeable


def test_weak_drive_g2_agreement_on_reference_cuts():
    # the closed-form g2 tracks the exact solve on all three cavity-detuning
    # cuts to < 0.15 decades away from (a) trough shoulders, where the exact
    # value floors near 5e-4 while the interference zero keeps dropping
    # (mismatch extends ~2 gamma, measured 0.35 decades at 1 gamma), and (b)
    # dot-shielding dark spots where the two-photon occupation overtakes the
    # one-photon one and the truncation leaves its domain
    space = HilbertSpace(8)
    deltas = np.arange(-60.0, 60.0 + 1e-9, 0.5)
    for da in (-20.0, 20.0, 30.0):
        base = ModelParams(delta_a=da, g=20.0, E=0.1, U=0.0005)
        num = np.array([solve_steady_state(dataclasses.replace(base, delta=float(d)),
                                           space).g2_zero for d in deltas])
        grid = weak_drive_grid(**{**vars(base), "delta": deltas})
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
    space = HilbertSpace(8)
    axis = np.arange(0.0, 60.0 + 1e-9, 0.5)
    worst = []
    for E in (0.1, 0.05):
        base = ModelParams(delta=30.0, g=20.0, E=E, U=0.0005)
        grid = weak_drive_grid(**{**vars(base), "delta_a": axis})
        assert not grid.n_a_failure.any()
        defect = 0.0
        for da, ana in zip(axis, grid.n_a):
            num = solve_steady_state(dataclasses.replace(base, delta_a=float(da)), space).n_a
            defect = max(defect, abs(num - ana) / num)
        worst.append(defect)
    assert worst[0] < 0.09
    assert worst[1] < 0.6 * worst[0]


def test_mean_photon_insensitive_to_two_photon_drive():
    space = HilbertSpace(8)
    for da in (5.0, 400.0 / 30.0, 20.0, 37.3, 50.0):
        with_u = solve_steady_state(
            ModelParams(delta=30.0, delta_a=da, g=20.0, E=0.1, U=0.0005), space)
        without = solve_steady_state(
            ModelParams(delta=30.0, delta_a=da, g=20.0, E=0.1, U=0.0), space)
        assert abs(with_u.n_a - without.n_a) / without.n_a < 0.01

    # the one exception on this cut: at delta_a (delta + delta_a) = g^2 the
    # gain pumps a two-photon dressed state resonantly and photon loss feeds
    # the extra pairs back into the one-photon sector, so n_a does shift
    with_u = solve_steady_state(
        ModelParams(delta=30.0, delta_a=10.0, g=20.0, E=0.1, U=0.0005), space)
    without = solve_steady_state(
        ModelParams(delta=30.0, delta_a=10.0, g=20.0, E=0.1, U=0.0), space)
    shift = abs(with_u.n_a - without.n_a) / without.n_a
    assert 0.01 < shift < 0.05


def test_cutoff_invariance_at_weak_drive():
    g2_8 = solve_steady_state(REF, HilbertSpace(8)).g2_zero
    g2_12 = solve_steady_state(REF, HilbertSpace(12)).g2_zero
    assert abs(g2_12 - g2_8) / g2_8 < 1e-6


def test_far_detuned_tail_flattens():
    # past the interference dip the cut levels off: successive 5-gamma steps
    # shrink (the approach is ~g^2/delta, so it is gradual, not a plateau)
    space = HilbertSpace(8)
    vals = {}
    for d in (-45.0, -50.0, -55.0, -60.0):
        p = ModelParams(delta=d, delta_a=20.0, g=20.0, E=0.1, U=0.0005)
        vals[d] = solve_steady_state(p, space).g2_zero
    steps = [abs(vals[-50.0] - vals[-45.0]) / vals[-45.0],
             abs(vals[-55.0] - vals[-50.0]) / vals[-50.0],
             abs(vals[-60.0] - vals[-55.0]) / vals[-55.0]]
    assert steps[0] > steps[1] > steps[2]
    assert steps[2] < 0.2


def test_converged_solve_settles_quickly_at_weak_drive():
    history = []
    res = converged_solve(REF, history=history)
    assert res.cutoff_used == 8
    assert [h.cutoff_used for h in history] == [4, 8]
    assert abs(history[1].g2_zero - history[0].g2_zero) / history[1].g2_zero < 1e-6


def test_converged_solve_trivial_for_dark_state():
    res = converged_solve(ModelParams(g=20.0))
    assert res.cutoff_used == 8  # first comparison settles, nothing to resolve
    assert res.n_a < 1e-14


def test_converged_solve_strong_drive_needs_larger_cutoff():
    p = ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.0005)
    history = []
    res = converged_solve(p, history=history)
    assert res.cutoff_used == 20
    assert [h.cutoff_used for h in history] == [4, 8, 12, 16, 20]
    occupations = [h.n_a for h in history]
    assert all(b >= a for a, b in zip(occupations, occupations[1:]))


def test_converged_solve_reports_failure(monkeypatch):
    monkeypatch.setattr(steady_state, "MAX_CUTOFF", 12)
    p = ModelParams(delta=0.0, delta_a=0.0, g=20.0, E=2.0, U=0.0005)
    with pytest.raises(CutoffConvergenceError, match="by cutoff 12"):
        converged_solve(p)
