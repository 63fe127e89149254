import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import analytic_oracle
from qdblockade import (
    BlockadeError,
    ModelParams,
    SingularSystemError,
    cpb_partner_detuning,
    steady_state_grid,
    ucpb_roots,
    weak_drive_grid,
)
from qdblockade.analytic import failure_error

SQRT2 = np.sqrt(2.0)

# the reference operating point used throughout: strong coupling, weak drives
REF = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.1, U=0.0005)


def _at(params):
    """The weak-drive grid at one point (0-d cells)."""
    return weak_drive_grid(**vars(params))


def _amplitudes(grid):
    return tuple(complex(c) for c in (grid.c0e, grid.c1g, grid.c1e, grid.c2g))


def _failure(params, quantity):
    """The exception the grid reports for ``quantity`` at one point, or None."""
    code = int(getattr(_at(params), f"{quantity}_failure"))
    return failure_error(code) if code else None


def test_empty_cavity_amplitudes():
    p = ModelParams(delta_a=0.0, g=0.0, E=0.1, U=0.0, kappa=1.0)
    for c0e, c1g, c1e, _ in (analytic_oracle.amplitudes_linear_solve(p), _amplitudes(_at(p))):
        assert abs(abs(c1g) - 0.2) < 1e-12  # E / |delta_a - i kappa/2|
        assert abs(c0e) < 1e-15
        assert abs(c1e) < 1e-15


def test_no_drive_no_excitation():
    p = ModelParams(delta=5.0, delta_a=-3.0, g=20.0, E=0.0, U=0.0)
    for c in analytic_oracle.amplitudes_linear_solve(p):
        assert abs(c) < 1e-15


def test_closed_form_matches_solver_at_reference_point():
    direct = analytic_oracle.amplitudes_linear_solve(REF)
    closed = _amplitudes(_at(REF))
    for d, c in zip(direct, closed):
        assert abs(d - c) < 1e-10


def test_closed_form_matches_solver_on_random_draws():
    rng = np.random.default_rng(20260814)
    draws = [ModelParams(delta=rng.uniform(-100, 100), delta_a=rng.uniform(-100, 100),
                         g=rng.uniform(0, 50), E=rng.uniform(0, 0.2),
                         U=rng.uniform(0, 0.01), kappa=rng.uniform(0.5, 2.0))
             for _ in range(1000)]
    grid = weak_drive_grid(**{k: [vars(p)[k] for p in draws] for k in vars(REF)})
    assert not grid.amplitudes_failure.any()
    for i, p in enumerate(draws):
        direct = analytic_oracle.amplitudes_linear_solve(p)
        closed = (grid.c0e[i], grid.c1g[i], grid.c1e[i], grid.c2g[i])
        for d, c in zip(direct, closed):
            assert abs(d - c) < 1e-10


def test_two_photon_amplitude_of_empty_driven_cavity():
    p = ModelParams(delta=7.0, delta_a=4.0, g=0.0, E=0.1, U=0.0)
    expected = p.E**2 / (SQRT2 * (p.delta_a - 0.5j * p.kappa) ** 2)
    assert abs(_at(p).c2g - expected) < 1e-15


def test_two_photon_amplitude_exact_interference_zero():
    # lossless cavity, no dot: U = E^2/delta_a kills c2g identically
    p = ModelParams(delta=2.0, delta_a=20.0, g=0.0, E=0.1, U=0.1**2 / 20.0, kappa=0.0)
    assert abs(_at(p).c2g) < 1e-18


def test_closed_form_singular_denominators():
    # lossless resonances put the complex denominators exactly at zero
    for delta, delta_a, denominator in ((20.0, 20.0, "one-photon"), (30.0, 10.0, "two-photon"),
                                        (-5.0, 5.0, "combined")):
        exc = _failure(ModelParams(delta=delta, delta_a=delta_a, g=20.0, E=0.1,
                                   kappa=0.0, gamma=0.0), "amplitudes")
        assert isinstance(exc, SingularSystemError) and denominator in str(exc)


def test_linear_solve_flags_singular_system():
    p = ModelParams(delta=20.0, delta_a=20.0, g=20.0, E=0.1, kappa=0.0, gamma=0.0)
    with pytest.raises(SingularSystemError, match="condition number"):
        analytic_oracle.amplitudes_linear_solve(p)


def test_extreme_drives_end_in_blockade_errors():
    for params, quantity, kind, text in (
        (ModelParams(E=5e307), "amplitudes", SingularSystemError, "amplitudes overflow"),
        (ModelParams(E=5e307), "n_a", SingularSystemError, "amplitudes overflow"),
        # finite amplitudes whose |c1g|^2 or |c1g|^4 overflows
        (ModelParams(E=7e153), "n_a", SingularSystemError, "overflows"),
        (ModelParams(E=1e80), "g2", SingularSystemError, "overflows"),
        # lossless denominators whose product underflows to zero
        (ModelParams(delta=1e-160, delta_a=1e-160, E=0.1, kappa=0.0, gamma=0.0), "g2",
         SingularSystemError, "amplitudes overflow"),
    ):
        exc = _failure(params, quantity)
        assert isinstance(exc, kind) and text in str(exc), (params, quantity)
    # |c1g|^4 underflowing to zero leaves g2 undefined, which is no failure
    assert _failure(ModelParams(E=5e-90), "g2") is None
    assert math.isnan(_at(ModelParams(E=5e-90)).g2)


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_overflow_contract_holds_for_numpy_scalars(scalar):
    # NumPy scalars overflow to inf with a warning where Python floats raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for E, quantity in ((7e153, "n_a"), (7e153, "g2"), (1e80, "g2")):
            exc = _failure(ModelParams(E=scalar(E)), quantity)
            assert isinstance(exc, SingularSystemError) and "overflows" in str(exc), (E, quantity)
        assert _failure(ModelParams(E=scalar(5e-90)), "g2") is None


def test_g2_at_reference_point():
    # deep conventional blockade on the hyperbola delta*delta_a = g^2
    val = _at(REF).g2
    assert abs(val - 0.022) < 0.15 * 0.022


def test_g2_bimode_interference_value():
    p = ModelParams(delta=30.0, delta_a=20.0, g=0.0, E=0.1, U=0.0005)
    val = _at(p).g2
    # |E^2 - U*deltaA'|^2 / E^4 with the real part cancelled exactly
    expected = p.U**2 * p.kappa**2 / (4.0 * p.E**4)
    assert abs(val - expected) < 1e-15
    assert abs(val - 6.25e-4) < 1e-15


def test_g2_coherent_drive_is_poissonian():
    for da in (-17.0, 0.0, 5.0, 40.0):
        p = ModelParams(delta=3.0, delta_a=da, g=0.0, E=0.1, U=0.0)
        assert abs(_at(p).g2 - 1.0) < 1e-12


def test_g2_undefined_when_one_photon_amplitude_vanishes():
    # two-photon drive alone populates pairs but leaves c1g = 0
    p = ModelParams(delta=-20.0, delta_a=-20.0, g=20.0, E=0.0, U=0.0005)
    assert _failure(p, "g2") is None
    assert math.isnan(_at(p).g2)


def test_dark_cell_reads_the_same_from_both_engines():
    # undriven, g2 has no value in the exact theory nor in the weak-drive one:
    # both read nan, with no failure, beside n_a = 0
    dark = vars(ModelParams(delta=-20.0, delta_a=-20.0, g=20.0))
    exact, weak = steady_state_grid(4, **dark), weak_drive_grid(**dark)
    assert exact.failure.item() is None and weak.g2_failure == 0 and weak.n_a_failure == 0
    for grid in (exact, weak):
        assert math.isnan(grid.g2) and grid.n_a == 0.0


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
    # without the dot |c2g| does not depend on delta: its rounding dips are no roots
    flat = ModelParams(delta_a=20.0, g=0.0, E=0.1, U=0.0005)
    assert ucpb_roots(flat, "delta", (-60.0, 60.0)) == []
    # nor CPB roots, with a dot so weak that |c2g| is as flat near the hyperbola
    weak = dataclasses.replace(flat, g=1e-9)
    [root] = ucpb_roots(weak, "delta", (-60.0, 60.0))
    assert (root.kind, root.value) == ("CPB", weak.g**2 / weak.delta_a)


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


@pytest.mark.parametrize("fixed, free, interval, root", [
    ({"delta": 30.0}, "delta_a", (0.0, 60.0), 37.340687204817),
    ({"delta_a": 20.0}, "delta", (-60.0, 60.0), -39.938011039271),
], ids=["delta_30_cut", "delta_a_20_cut"])
def test_ucpb_root_is_the_exact_critical_point(fixed, free, interval, root):
    # the constants are the critical points of |c2g|^2 from the closed form in mpmath at
    # 50 digits (findroot on its derivative), with g = 20, E = 0.1, U = 5e-4, kappa =
    # gamma = 1, rounded to 12 decimals
    roots = ucpb_roots(ModelParams(g=20.0, E=0.1, U=0.0005, **fixed), free, interval)
    [found] = [r.value for r in roots if r.kind == "UCPB"]
    assert abs(found - root) < 1e-9


@pytest.mark.parametrize("params, free, interval, kinds", [
    # E^2 is subnormal
    (ModelParams(delta=30.0, g=20.0, E=1e-160, U=0.0005), "delta_a", (0.0, 60.0), ["CPB"]),
    # the leading coefficients of the axis polynomials are subnormal
    (ModelParams(delta=30.0, g=20.0, E=0.1, U=0.0005), "delta_a", (0.0, 2e-160), []),
    # c2g's coefficients overflow
    (ModelParams(delta=30.0, g=20.0, E=30.0, U=0.0005), "delta_a", (1e154, 1e307), None),
    (ModelParams(delta=30.0, g=20.0, E=1e200, U=0.0005), "delta_a", (0.0, 60.0), None),
    # c2g's denominator underflows to 0 everywhere: g^4 with deltaA' = 0
    (ModelParams(g=1e-160, E=0.1, U=0.0005, kappa=0.0), "delta", (-60.0, 60.0), None),
], ids=["subnormal_drive", "subnormal_interval", "overflowing_interval", "overflowing_drive",
        "vanishing_c2g_denominator"])
def test_roots_at_extreme_scales_end_in_roots_or_blockade_errors(params, free, interval, kinds):
    if kinds is None:
        with pytest.raises(SingularSystemError, match="amplitudes overflow"):
            ucpb_roots(params, free, interval)
    else:
        assert [r.kind for r in ucpb_roots(params, free, interval)] == kinds


def test_roots_are_local_minima_of_c2g():
    p = ModelParams(delta_a=30.0, g=20.0, E=0.1, U=0.0005)
    for r in ucpb_roots(p, "delta", (-60.0, 60.0)):
        if r.kind != "UCPB":
            continue
        away = np.abs(weak_drive_grid(**{**vars(p), "delta": r.value + np.array([-5.0, 5.0])}).c2g)
        assert (r.residual < away).all()


def test_roots_carry_the_grid_g2():
    base = ModelParams(g=20.0, E=0.1, U=0.0005)
    cuts = [
        # the golden optimum cut, also the first of the optimal_conditions demo
        (dataclasses.replace(base, delta=30.0), "delta_a", (0.0, 60.0)),
        (dataclasses.replace(base, delta_a=-20.0), "delta", (-60.0, 60.0)),
        (dataclasses.replace(base, delta_a=20.0), "delta", (-60.0, 60.0)),
        (dataclasses.replace(base, delta_a=30.0), "delta", (-60.0, 60.0)),
        (dataclasses.replace(base, delta=30.0, g=0.0), "delta_a", (0.0, 60.0)),
        # |c1g|^4 underflows, so g2 is nan at the root
        (dataclasses.replace(base, delta=30.0, E=1e-160), "delta_a", (0.0, 60.0)),
    ]
    for params, free, interval in cuts:
        roots = ucpb_roots(params, free, interval)
        assert roots
        at_roots = weak_drive_grid(**{**vars(params), free: [r.value for r in roots]})
        assert np.array_equal([r.g2 for r in roots], at_roots.g2, equal_nan=True)


def test_roots_input_validation():
    p = ModelParams(delta=30.0, g=20.0, E=0.1, U=0.0005)
    with pytest.raises(ValueError):
        ucpb_roots(p, "g", (0.0, 60.0))
    with pytest.raises(ValueError):
        ucpb_roots(p, "delta_a", (10.0, 10.0))


def test_mean_photon_lorentzian():
    for da in (0.0, 1.0, -8.0):
        p = ModelParams(delta=4.0, delta_a=da, g=0.0, E=0.1, U=0.0)
        expected = p.E**2 / (da**2 + p.kappa**2 / 4.0)
        assert _at(p).n_a == pytest.approx(expected, rel=1e-12)


def test_mean_photon_has_no_u_dependence():
    base = ModelParams(delta=30.0, delta_a=13.3, g=20.0, E=0.1, U=0.0)
    bumped = dataclasses.replace(base, U=0.005)
    assert _at(base).n_a == _at(bumped).n_a


def test_mean_photon_matches_steady_state():
    # the leftover defect is ground-state depletion, second order in the
    # drive: measured 5.3% at E=0.1 on the trough and 4x smaller at E=0.05
    fields = dict(delta=30.0, delta_a=13.3, g=20.0, E=[0.1, 0.05], U=0.0005)
    exact = steady_state_grid(8, **fields)
    assert not any(exact.failure)
    defects = np.abs(exact.n_a - weak_drive_grid(**fields).n_a) / exact.n_a
    assert defects[0] < 0.06
    assert defects[1] < 0.3 * defects[0]


def test_amplitude_hierarchy_holds_only_inside_domain():
    # dot shielding kills c1g faster than c2g at delta = 0: hierarchy inverted
    grid = weak_drive_grid(**{**vars(REF), "delta": [REF.delta, 0.0],
                              "delta_a": [REF.delta_a, 20.0]})
    one, two = np.abs(grid.c1g), np.abs(grid.c2g)
    assert ((two <= one) & (one <= 1.0)).tolist() == [True, False]


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
    """a and b lie within 4 ulp of each other, or are both nan."""
    return abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b))) or math.isnan(a) and math.isnan(b)


# the failure codes each set of cells meets, with 0 for an undefined (nan) g2: none
# on the map, every one on the edges
_FAILURES_MET = {_paper_map_cells: set(), _edge_cells: set(range(8))}


@pytest.mark.parametrize("cells", [_paper_map_cells, _edge_cells])
def test_grid_matches_scalar_oracle(cells):
    want_met, met = _FAILURES_MET[cells], set()
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
                met.add(int(failure[i]))
                assert values is None or math.isnan(values[i])
                continue
            if values is None:  # the four amplitudes, part by part
                pairs = [(part(w), part(a[i])) for w, a in zip(want, amplitudes)
                         for part in (np.real, np.imag)]
            else:
                pairs = [(want, values[i])]
                if math.isnan(want):
                    met.add(0)
            for w, a in pairs:
                assert _within_4_ulp(w, a), (cells[i], fn.__name__, w, a)
                assert "%.8e" % w == "%.8e" % a, (cells[i], fn.__name__, w, a)
    assert met == want_met
