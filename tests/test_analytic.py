import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import analytic_oracle
from qdblockade import (
    BlockadeError,
    HilbertSpace,
    ModelParams,
    SingularSystemError,
    UndefinedCorrelationError,
    amplitudes_closed_form,
    amplitudes_linear_solve,
    cpb_partner_detuning,
    g2_weak_drive,
    mean_photon_weak_drive,
    solve_steady_state,
    ucpb_roots,
)
from qdblockade.analytic import failure_error, weak_drive_grid

SQRT2 = np.sqrt(2.0)

# the reference operating point used throughout: strong coupling, weak drives
REF = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)


def test_empty_cavity_amplitudes():
    p = ModelParams(delta_a=0.0, g=0.0, E=0.1, U=0.0, kappa=1.0)
    for amps in (amplitudes_linear_solve(p), amplitudes_closed_form(p)):
        assert amps.c0g == 1.0
        assert abs(abs(amps.c1g) - 0.2) < 1e-12  # E / |delta_a - i kappa/2|
        assert abs(amps.c0e) < 1e-15
        assert abs(amps.c1e) < 1e-15


def test_no_drive_no_excitation():
    p = ModelParams(delta=5.0, delta_a=-3.0, g=20.0, E=0.0, U=0.0)
    amps = amplitudes_linear_solve(p)
    for c in (amps.c0e, amps.c1g, amps.c1e, amps.c2g):
        assert abs(c) < 1e-15


def test_closed_form_matches_solver_at_reference_point():
    direct = amplitudes_linear_solve(REF)
    closed = amplitudes_closed_form(REF)
    for name in ("c0e", "c1g", "c1e", "c2g"):
        assert abs(getattr(direct, name) - getattr(closed, name)) < 1e-10


def test_closed_form_matches_solver_on_random_draws():
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        p = ModelParams(delta=rng.uniform(-100, 100), delta_a=rng.uniform(-100, 100),
                        g=rng.uniform(0, 50), E=rng.uniform(0, 0.2),
                        U=rng.uniform(0, 0.01), kappa=rng.uniform(0.5, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            direct = amplitudes_linear_solve(p)
            closed = amplitudes_closed_form(p)
        for name in ("c0e", "c1g", "c1e", "c2g"):
            assert abs(getattr(direct, name) - getattr(closed, name)) < 1e-10


def test_two_photon_amplitude_of_empty_driven_cavity():
    p = ModelParams(delta=7.0, delta_a=4.0, g=0.0, E=0.1, U=0.0)
    c2g = amplitudes_closed_form(p).c2g
    expected = p.E**2 / (SQRT2 * p.delta_a_prime**2)
    assert abs(c2g - expected) < 1e-15


def test_two_photon_amplitude_exact_interference_zero():
    # lossless cavity, no dot: U = E^2/delta_a kills c2g identically
    p = ModelParams(delta=2.0, delta_a=20.0, g=0.0, E=0.1, U=0.1**2 / 20.0, kappa=0.0)
    assert abs(amplitudes_closed_form(p).c2g) < 1e-18


def test_closed_form_singular_denominators():
    # lossless resonances put the complex denominators exactly at zero
    with pytest.raises(SingularSystemError, match="one-photon"):
        amplitudes_closed_form(ModelParams(delta=20.0, delta_a=20.0, g=20.0,
                                           E=0.1, kappa=0.0, gamma=0.0))
    with pytest.raises(SingularSystemError, match="two-photon"):
        amplitudes_closed_form(ModelParams(delta=30.0, delta_a=10.0, g=20.0,
                                           E=0.1, kappa=0.0, gamma=0.0))
    with pytest.raises(SingularSystemError, match="combined"):
        amplitudes_closed_form(ModelParams(delta=-5.0, delta_a=5.0, g=20.0,
                                           E=0.1, kappa=0.0, gamma=0.0))


def test_linear_solve_flags_singular_system():
    p = ModelParams(delta=20.0, delta_a=20.0, g=20.0, E=0.1, kappa=0.0, gamma=0.0)
    with pytest.raises(SingularSystemError, match="condition number"):
        amplitudes_linear_solve(p)


def test_extreme_drives_end_in_blockade_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SingularSystemError, match="amplitudes overflow"):
            amplitudes_closed_form(ModelParams(E=5e307))
        with pytest.raises(SingularSystemError, match="amplitudes overflow"):
            mean_photon_weak_drive(ModelParams(E=5e307))
        # finite amplitudes whose |c1g|^2 or |c1g|^4 overflows, or underflows to zero
        with pytest.raises(SingularSystemError, match="overflows"):
            mean_photon_weak_drive(ModelParams(E=7e153))
        with pytest.raises(SingularSystemError, match="overflows"):
            g2_weak_drive(ModelParams(E=1e80))
        with pytest.raises(UndefinedCorrelationError, match="underflows"):
            g2_weak_drive(ModelParams(E=5e-90))
        # lossless denominators whose product underflows to zero
        with pytest.raises(SingularSystemError, match="amplitudes overflow"):
            g2_weak_drive(ModelParams(delta=1e-160, delta_a=1e-160, E=0.1,
                                      kappa=0.0, gamma=0.0))


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_overflow_contract_holds_for_numpy_scalars(scalar):
    # NumPy scalars overflow to inf with a warning where Python floats raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "weak-drive amplitude hierarchy", RuntimeWarning)
        with pytest.raises(SingularSystemError, match="overflows"):
            mean_photon_weak_drive(ModelParams(E=scalar(7e153)))
        with pytest.raises(SingularSystemError, match="overflows"):
            g2_weak_drive(ModelParams(E=scalar(7e153)))
        with pytest.raises(SingularSystemError, match="overflows"):
            g2_weak_drive(ModelParams(E=scalar(1e80)))
        with pytest.raises(UndefinedCorrelationError, match="underflows"):
            g2_weak_drive(ModelParams(E=scalar(5e-90)))


def test_g2_at_reference_point():
    # deep conventional blockade on the hyperbola delta*delta_a = g^2
    val = g2_weak_drive(REF)
    assert abs(val - 0.022) < 0.15 * 0.022


def test_g2_bimode_interference_value():
    p = ModelParams(delta=30.0, delta_a=20.0, g=0.0, E=0.1, U=0.0005)
    val = g2_weak_drive(p)
    # |E^2 - U*deltaA'|^2 / E^4 with the real part cancelled exactly
    expected = p.U**2 * p.kappa**2 / (4.0 * p.E**4)
    assert abs(val - expected) < 1e-15
    assert abs(val - 6.25e-4) < 1e-15


def test_g2_coherent_drive_is_poissonian():
    for da in (-17.0, 0.0, 5.0, 40.0):
        p = ModelParams(delta=3.0, delta_a=da, g=0.0, E=0.1, U=0.0)
        assert abs(g2_weak_drive(p) - 1.0) < 1e-12


def test_g2_undefined_when_one_photon_amplitude_vanishes():
    # two-photon drive alone populates pairs but leaves c1g = 0
    p = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.0, U=0.0005)
    # c1g = 0 < |c2g| also breaks the amplitude hierarchy, which is warned first
    with pytest.raises(UndefinedCorrelationError), pytest.warns(RuntimeWarning, match="hierarchy"):
        g2_weak_drive(p)


def test_cpb_depth_estimate_order_of_magnitude_on_locus():
    # the paper's depth estimate (gamma/g)^2 (1 + (gamma U / E^2)^2) undershoots
    # the true locus minimum by a model-dependent factor near 7 at weak U,
    # shrinking toward 5 as U grows; keep it inside an order-of-magnitude band
    # rather than pretending it is sharp
    t = np.arange(2.0, 60.0 + 1e-9, 0.25)
    d = np.concatenate([t, -t])
    for U in (0.0, 0.005, 0.01, 0.02):
        grid = weak_drive_grid(delta=d, delta_a=400.0 / d, g=20.0, E=0.1, U=U)
        assert not grid.g2_failure.any()
        ratio = grid.g2.min() / ((1.0 / 20.0) ** 2 * (1.0 + (U / 0.1**2) ** 2))
        assert 3.0 < ratio < 10.0


def test_cpb_partner_detuning():
    assert cpb_partner_detuning(30.0, 20.0) == pytest.approx(400.0 / 30.0)
    assert cpb_partner_detuning(-20.0, 20.0) == pytest.approx(-20.0)
    assert cpb_partner_detuning(20.0, 20.0) == pytest.approx(20.0)  # symmetric point
    with pytest.raises(ValueError):
        cpb_partner_detuning(0.0, 20.0)


def test_roots_cavity_axis_finds_both_flavors():
    p = ModelParams(delta=30.0, g=20.0, E=0.1, U=0.0005)
    roots = ucpb_roots(p, "delta_a", (0.0, 60.0))
    assert [r.kind for r in roots] == ["CPB", "UCPB"]
    assert roots[0].value == pytest.approx(400.0 / 30.0, abs=0.05)
    assert roots[1].value == pytest.approx(37.3, abs=0.5)
    assert all(r.variable == "delta_a" for r in roots)


def test_roots_red_cavity_cut_has_single_trough():
    p = ModelParams(delta_a=-20.0, g=20.0, E=0.1, U=0.0005)
    roots = ucpb_roots(p, "delta", (-60.0, 60.0))
    assert len(roots) == 1
    assert roots[0].kind == "CPB"
    assert roots[0].value == pytest.approx(-20.0, abs=0.05)


def test_roots_blue_cavity_cut_has_three_troughs():
    p = ModelParams(delta_a=30.0, g=20.0, E=0.1, U=0.0005)
    roots = ucpb_roots(p, "delta", (-60.0, 60.0))
    assert [r.kind for r in roots] == ["UCPB", "CPB", "UCPB"]
    assert roots[0].value == pytest.approx(-40.0, abs=0.5)
    assert roots[1].value == pytest.approx(400.0 / 30.0, abs=0.05)
    assert roots[2].value == pytest.approx(50.0, abs=0.5)


def test_roots_interference_pair_at_bimode_resonance():
    p = ModelParams(delta_a=20.0, g=20.0, E=0.1, U=0.0005)
    roots = ucpb_roots(p, "delta", (-60.0, 60.0))
    assert [r.kind for r in roots] == ["UCPB", "CPB"]
    assert roots[0].value == pytest.approx(-40.0, abs=0.5)  # -2 E^2 / U
    assert roots[1].value == pytest.approx(20.0, abs=0.05)


def test_roots_bimode_limit():
    p = ModelParams(delta=30.0, g=0.0, E=0.1, U=0.0005)
    roots = ucpb_roots(p, "delta_a", (0.0, 60.0))
    assert len(roots) == 1
    assert roots[0].kind == "UCPB"
    assert roots[0].value == pytest.approx(20.0, abs=0.1)  # E^2 / U


def test_roots_jc_limit_satisfy_real_part_condition():
    p = ModelParams(delta_a=50.0, g=20.0, E=0.1, U=0.0)
    roots = ucpb_roots(p, "delta", (-60.0, 60.0))
    interference = [r for r in roots if r.kind == "UCPB"]
    assert len(interference) == 2
    for r in interference:
        # with U off the zeros sit near g^2 = -delta (delta + delta_a)
        defect = abs(p.g**2 + r.value * (r.value + p.delta_a)) / p.g**2
        assert defect < 0.05
    assert any(r.kind == "CPB" and r.value == pytest.approx(8.0, abs=0.05)
               for r in roots)


def test_roots_are_local_minima_of_c2g():
    p = ModelParams(delta_a=30.0, g=20.0, E=0.1, U=0.0005)
    for r in ucpb_roots(p, "delta", (-60.0, 60.0)):
        if r.kind != "UCPB":
            continue
        for off in (-5.0, 5.0):
            away = abs(amplitudes_closed_form(
                dataclasses.replace(p, delta=r.value + off)).c2g)
            assert r.residual < away


def test_roots_input_validation():
    p = ModelParams(delta=30.0, g=20.0, E=0.1, U=0.0005)
    with pytest.raises(ValueError):
        ucpb_roots(p, "g", (0.0, 60.0))
    with pytest.raises(ValueError):
        ucpb_roots(p, "delta_a", (10.0, 10.0))
    with pytest.raises(ValueError):
        ucpb_roots(p, "delta_a", (0.0, 60.0), grid_step=0.0)


def test_mean_photon_lorentzian():
    for da in (0.0, 1.0, -8.0):
        p = ModelParams(delta=4.0, delta_a=da, g=0.0, E=0.1, U=0.0)
        expected = p.E**2 / (da**2 + p.kappa**2 / 4.0)
        assert mean_photon_weak_drive(p) == pytest.approx(expected, rel=1e-12)


def test_mean_photon_has_no_u_dependence():
    base = ModelParams(delta=30.0, delta_a=13.3, g=20.0, E=0.1, U=0.0)
    bumped = dataclasses.replace(base, U=0.005)
    assert mean_photon_weak_drive(base) == mean_photon_weak_drive(bumped)


def test_mean_photon_matches_steady_state():
    # the leftover defect is ground-state depletion, second order in the
    # drive: measured 5.3% at E=0.1 on the trough and 4x smaller at E=0.05
    defects = []
    for E in (0.1, 0.05):
        p = ModelParams(delta=30.0, delta_a=13.3, g=20.0, E=E, U=0.0005)
        numeric = solve_steady_state(p, HilbertSpace(8)).n_a
        defects.append(abs(numeric - mean_photon_weak_drive(p)) / numeric)
    assert defects[0] < 0.06
    assert defects[1] < 0.3 * defects[0]


def test_hierarchy_warning_fires_only_outside_domain():
    # dot shielding kills c1g faster than c2g: hierarchy inverted
    dark = ModelParams(delta=0.0, delta_a=20.0, g=20.0, E=0.1, U=0.0005)
    for entry_point in (amplitudes_closed_form, amplitudes_linear_solve,
                        g2_weak_drive, mean_photon_weak_drive):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry_point(REF)
        assert not caught
        with pytest.warns(RuntimeWarning, match="hierarchy") as record:
            entry_point(dark)
        # the warning points at the caller, not into the library
        assert [w.filename for w in record] == [__file__], entry_point.__name__


def _edge_cells():
    # delta, delta_a from which lossless cells put d1, d2, s and delta' at zero
    # for g = 1 and g = 20; E spans undriven, underflowing and overflowing drives
    return [dict(delta=d, delta_a=da, g=g, E=E, U=U, kappa=kappa, gamma=gamma)
            for g, E, U, kappa, gamma, d, da in itertools.product(
                (0.0, 1.0, 20.0), (0.0, 0.1, 1e-89, 1e-170, 1e80, 7e153), (0.0, 5e-4, 1e300),
                (0.0, 1.0), (0.0, 1.0), (-20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 20.0, 30.0),
                (-20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0, 20.0))]


def _paper_map_cells():
    # the 241x241 map of the paper, shifted off the round grid
    axis = np.linspace(-60.0, 60.0, 241)
    return [dict(delta=d, delta_a=da, g=20.0, E=0.1, U=0.0005, kappa=1.0, gamma=1.0)
            for da in (axis - 0.0291).tolist() for d in (axis + 0.0137).tolist()]


def _outcome(fn, params):
    try:
        return fn(params), None
    except BlockadeError as exc:
        return None, exc


def _within_4_ulp(a, b):
    return abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("cells", [_paper_map_cells, _edge_cells])
def test_grid_matches_scalar_oracle(cells):
    cells = cells()
    grid = weak_drive_grid(**{k: np.array([c[k] for c in cells]) for k in cells[0]})
    amplitudes = (grid.c0e, grid.c1g, grid.c1e, grid.c2g)
    for i, params in enumerate(ModelParams(**c) for c in cells):
        for fn, values, failure in ((analytic_oracle.amplitudes, None, grid.amplitudes_failure),
                                    (analytic_oracle.g2_weak_drive, grid.g2, grid.g2_failure),
                                    (analytic_oracle.mean_photon_weak_drive, grid.n_a,
                                     grid.n_a_failure)):
            want, exc = _outcome(fn, params)
            got = failure_error(int(failure[i])) if failure[i] else None
            assert (type(got), str(got)) == (type(exc), str(exc)), (cells[i], fn.__name__)
            if exc is not None:
                assert values is None or math.isnan(values[i])
                continue
            if values is None:  # the four amplitudes, part by part
                pairs = [(part(w), part(a[i])) for w, a in zip(want, amplitudes)
                         for part in (np.real, np.imag)]
            else:
                pairs = [(want, values[i])]
            for w, a in pairs:
                assert _within_4_ulp(w, a), (cells[i], fn.__name__, w, a)
                assert "%.8e" % w == "%.8e" % a, (cells[i], fn.__name__, w, a)


def test_one_point_entry_points_equal_the_grid_bit_for_bit():
    # the reference delta cuts: a point read alone gives the bits of its cell
    deltas = np.linspace(-60.0, 60.0, 241)
    for delta_a in (-20.0, 20.0, 30.0):
        grid = weak_drive_grid(delta=deltas, delta_a=delta_a, g=20.0, E=0.1, U=0.0005)
        points = [ModelParams(delta=d, delta_a=delta_a, g=20.0, E=0.1, U=0.0005)
                  for d in deltas.tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the hierarchy warning
            amplitudes = [amplitudes_closed_form(p) for p in points]
            assert np.array_equal([g2_weak_drive(p) for p in points], grid.g2), delta_a
            assert np.array_equal([mean_photon_weak_drive(p) for p in points], grid.n_a), delta_a
        for name in ("c0e", "c1g", "c1e", "c2g"):
            assert np.array_equal([getattr(a, name) for a in amplitudes],
                                  getattr(grid, name)), (delta_a, name)


def test_scalar_entry_points_raise_what_the_oracle_raises():
    # one edge cell for each distinct outcome of each entry point
    seen = set()
    for params in (ModelParams(**c) for c in _edge_cells()):
        for ours, oracle in ((amplitudes_closed_form, analytic_oracle.amplitudes),
                             (g2_weak_drive, analytic_oracle.g2_weak_drive),
                             (mean_photon_weak_drive, analytic_oracle.mean_photon_weak_drive)):
            _, want = _outcome(oracle, params)
            key = (ours.__name__, type(want), str(want))
            if key in seen:
                continue
            seen.add(key)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, got = _outcome(ours, params)
            assert (type(got), str(got)) == (type(want), str(want)), (params, ours.__name__)
    # every failure the grid can report was met
    assert {msg for _, kind, msg in seen if kind is not type(None)} == {
        str(failure_error(code)) for code in range(1, 10)}
