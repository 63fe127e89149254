"""The three benchmark workloads: CLI argv built from a seed, and output checks.

One operation is one ``python -m qdblockade ...`` invocation.  A workload is a
round of operations; a run repeats whole rounds, so every run attempts the
same operations in the same proportions whatever its seed or length.  The
seed only shifts grid offsets and picks cuts and strong-drive points from
fixed sets on which every solve succeeds; the program sees only the argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

PAPER = {"g": 20.0, "E": 0.1, "U": 0.0005}
RESIDUAL_GATE = 1e-9
# the CSV carries 9 significant digits; the two implementations agree to ~1e-13
NUMERIC_RTOL = 1e-6
ANALYTIC_RTOL = 1e-7
# reference solves per numeric operation (rows are drawn with the workload seed)
SAMPLED_ROWS = 12

NAMES = ("numeric_map", "analytic_map", "strong_ladder")


@dataclass
class Op:
    """One CLI invocation and how to judge its output."""

    label: str
    argv: list[str]
    check: Callable[[str], list[str]]
    expect_exit: int = 0
    # rows that carry a weak-drive (analytic) evaluation, and rows that are
    # the useful result of steady-state solves; per-layer ratios divide by these
    analytic_rows: Callable[[int], int] = lambda rows: 0
    numeric_rows: Callable[[int], int] = lambda rows: 0
    cutoffs: tuple[int, ...] = ()
    writes_csv: bool = True


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(sorted({c for op in self.ops for c in op.cutoffs}))


def _num(x: float) -> str:
    return repr(float(x))


def _params_argv(delta=None, delta_a=None, g=PAPER["g"], E=PAPER["E"], U=PAPER["U"]) -> list[str]:
    argv = []
    if delta is not None:
        argv += ["--delta", _num(delta)]
    if delta_a is not None:
        argv += ["--delta-a", _num(delta_a)]
    return argv + ["--g", _num(g), "--E", _num(E), "--U", _num(U)]


def _axis(name: str, lo: float, hi: float, steps: int) -> str:
    return f"{name}:{_num(lo)}:{_num(hi)}:{steps}"


# ---------------------------------------------------------------- CSV parsing

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]


def data_rows(text: str) -> int:
    return len(parse_csv(text)[1])


def _columns(text: str, want: list[str]) -> tuple[dict[str, np.ndarray], list[str]]:
    header, rows = parse_csv(text)
    if header != want:
        raise ValueError(f"header {header} != expected {want}")
    cols = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        cols[name] = np.array(raw) if name == "status" else np.array(raw, dtype=float)
    return cols, header


def _close(got: np.ndarray, want: np.ndarray, rtol: float) -> np.ndarray:
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (np.abs(got - want) <= rtol * np.abs(want))


def _agrees(g2: float, na: float, ref: tuple[float, float]) -> bool:
    """A numeric (g2, n_a) row against a reference steady state."""
    return bool(_close(np.array([g2, na]), np.array(ref), NUMERIC_RTOL).all())


def _grid(lo, hi, steps):
    return np.linspace(lo, hi, steps)


# ------------------------------------------------------------------ checks

def _check_solved(cols, cutoff=None) -> list[str]:
    bad = []
    if not np.all(cols["status"] == "ok"):
        bad.append(f"{int(np.sum(cols['status'] != 'ok'))} rows not ok")
    if "residual" in cols and not np.all(cols["residual"] < RESIDUAL_GATE):
        bad.append(f"residual max {np.nanmax(cols['residual']):.3e} >= {RESIDUAL_GATE}")
    if cutoff is not None and not np.all(cols["cutoff_used"] == cutoff):
        bad.append(f"cutoff_used differs from {cutoff}")
    return bad


def _check_against_reference(sample_seed, points, g2_got, na_got, cutoffs, label) -> list[str]:
    """Re-solve a seeded sample of rows with the reference solver."""
    rng = random.Random(sample_seed)
    idx = sorted(rng.sample(range(len(points)), min(SAMPLED_ROWS, len(points))))
    bad = []
    for i in idx:
        g2, na = reference.steady_state(*points[i], cutoffs[i])
        if not _agrees(g2_got[i], na_got[i], (g2, na)):
            bad.append(f"{label} row {i}: program ({g2_got[i]:.9e}, {na_got[i]:.9e}) "
                       f"reference ({g2:.9e}, {na:.9e})")
    return bad


def _check_analytic(delta, delta_a, g2_got, na_got, p) -> list[str]:
    g2, na = reference.weak_drive_observables(delta, delta_a, p["g"], p["E"], p["U"])
    ok = _close(g2_got, g2, ANALYTIC_RTOL) & _close(na_got, na, ANALYTIC_RTOL)
    if ok.all():
        return []
    i = int(np.argmin(ok))
    return [f"{int((~ok).sum())} analytic rows off the closed form, first at "
            f"({delta[i]}, {delta_a[i]}): ({g2_got[i]:.9e}, {na_got[i]:.9e}) "
            f"vs ({g2[i]:.9e}, {na[i]:.9e})"]


def _check_grid(cols, axes) -> tuple[list[np.ndarray], list[str]]:
    """Exact grid values per axis, row-aligned (slow, last axis major), and a
    complaint if the printed columns do not follow them.

    Checks evaluate at the exact values: the CSV keeps 9 significant digits,
    and near a trough that rounding alone moves g2 by more than ANALYTIC_RTOL.
    """
    mesh = np.meshgrid(*[_grid(*a[1:]) for a in reversed(axes)], indexing="ij")
    exact = [m.ravel() for m in reversed(mesh)]
    for (name, *_), want in zip(axes, exact):
        if cols[name].shape != want.shape or not np.allclose(cols[name], want,
                                                             rtol=1e-8, atol=1e-12):
            return exact, [f"column {name} does not follow the requested grid"]
    return exact, []


def sweep2d_check(axes, p, engines, cutoff, sample_seed):
    want = ["delta", "delta_a"]
    want += [f"g2_{e}" for e in engines] + [f"n_a_{e}" for e in engines]
    want += ["cutoff_used", "residual", "status"]

    def check(text):
        cols, _ = _columns(text, want)
        (delta, delta_a), bad = _check_grid(cols, axes)
        if bad:
            return bad
        if "analytic" in engines:
            bad += _check_analytic(delta, delta_a, cols["g2_analytic"], cols["n_a_analytic"], p)
        if "numeric" in engines:
            bad += _check_solved(cols, cutoff)
            points = [(d, da, p["g"], p["E"], p["U"]) for d, da in zip(delta, delta_a)]
            bad += _check_against_reference(sample_seed, points, cols["g2_numeric"], cols["n_a_numeric"],
                                            [cutoff] * len(points), "sweep2d")
        elif not np.all(cols["status"] == "ok"):
            bad.append("analytic rows not ok")
        return bad
    return check


def compare_check(axis, delta, p, cutoff, sample_seed):
    models = ("composite", "jc", "bimode")
    want = ["delta_a"] + [f"g2_{m}" for m in models] + [f"n_a_{m}" for m in models] + ["status"]
    limits = {"composite": (p["g"], p["U"]), "jc": (p["g"], 0.0), "bimode": (0.0, p["U"])}

    def check(text):
        cols, _ = _columns(text, want)
        (x,), bad = _check_grid(cols, [axis])
        if bad:
            return bad
        bad += _check_solved(cols)
        for m in models:
            g, U = limits[m]
            points = [(delta, da, g, p["E"], U) for da in x]
            bad += _check_against_reference(sample_seed, points, cols[f"g2_{m}"], cols[f"n_a_{m}"],
                                            [cutoff] * len(points), f"compare/{m}")
        step = x[1] - x[0]
        # dot-cavity hyperbola delta * delta_a = g^2, and the g = 0
        # interference zero at delta_a = E^2 / U
        for col, target in (("g2_jc", p["g"] ** 2 / delta), ("g2_bimode", p["E"] ** 2 / p["U"])):
            at = x[int(np.argmin(cols[col]))]
            if abs(at - target) > step:
                bad.append(f"{col} trough at {at:.3f}, expected within {step:.3f} of {target:.3f}")
        return bad
    return check


def optimum_check(free, fixed, axis, p):
    other = "delta_a" if free == "delta" else "delta"
    hyperbola = p["g"] ** 2 / fixed

    def c2g(x):
        kw = {free: x, other: fixed}
        return abs(reference.c2g_linear_solve(kw["delta"], kw["delta_a"], p["g"], p["E"], p["U"]))

    def g2_at(x):
        kw = {free: x, other: fixed}
        return float(reference.weak_drive_observables(kw["delta"], kw["delta_a"],
                                                      p["g"], p["E"], p["U"])[0])

    def check(text):
        header, rows = parse_csv(text)
        if header != ["kind", "variable", "value", "c2g_residual", "g2_weak_drive"]:
            return [f"optimum header {header}"]
        bad = []
        kinds = [r[0] for r in rows]
        if axis[1] <= hyperbola <= axis[2] and "CPB" not in kinds:
            bad.append(f"no CPB root although g^2/{other} = {hyperbola:.4f} is in range")
        for kind, var, value, resid, g2 in rows:
            v, resid, g2 = float(value), float(resid), float(g2)
            if var != free:
                bad.append(f"root over {var}, expected {free}")
            if kind == "CPB" and abs(v - hyperbola) > 0.5:
                bad.append(f"CPB root {v} is not on the hyperbola {hyperbola:.4f}")
            if kind == "UCPB":
                here, h = c2g(v), 1e-2
                if not here <= min(c2g(v - h), c2g(v + h)):
                    bad.append(f"UCPB root {v}: |c2g| is not a local minimum")
            if not _near_printed(c2g, v, resid, NUMERIC_RTOL):
                bad.append(f"root {v}: c2g residual {resid} vs {c2g(v)}")
            if not _near_printed(g2_at, v, g2, ANALYTIC_RTOL):
                bad.append(f"root {v}: g2 {g2} vs closed form {g2_at(v)}")
        return bad
    return check


def _near_printed(f, x, got, rtol) -> bool:
    """got == f(x) within rtol, where x itself was printed to 9 significant digits."""
    dx = 5e-9 * abs(x)
    vals = [f(x - dx), f(x), f(x + dx)]
    return min(vals) * (1 - rtol) <= got <= max(vals) * (1 + rtol)


def _settled(prev, cur, tol):
    def rel(a, b):
        if (math.isnan(a) and math.isnan(b)) or a == b:
            return 0.0
        return abs(b - a) / max(abs(b), 1e-9)
    return rel(prev[0], cur[0]) < tol and rel(prev[1], cur[1]) < tol


def convergence_check(point, start, tol, max_cutoff):
    def check(text):
        cols, _ = _columns(text, ["cutoff", "g2_numeric", "n_a_numeric", "residual"])
        cut = cols["cutoff"].astype(int)
        bad = []
        if list(cut) != list(range(start, start + 4 * len(cut), 4)) or cut[-1] > max_cutoff:
            bad.append(f"cutoff ladder {list(cut)}")
        if not np.all(cols["residual"] < RESIDUAL_GATE):
            bad.append("ladder residual above the gate")
        obs = list(zip(cols["g2_numeric"], cols["n_a_numeric"]))
        if len(obs) < 2 or not _settled(obs[-2], obs[-1], tol):
            bad.append(f"last two rungs do not settle within {tol}")
        for c, (g2, na) in zip(cut, obs):
            ref = reference.steady_state(*point, int(c))
            if not _agrees(g2, na, ref):
                bad.append(f"cutoff {c}: program ({g2}, {na}) reference {ref}")
        return bad
    return check


def ladder_sweep_check(axis, delta, p, tol, max_cutoff):
    want = ["delta_a", "g2_numeric", "n_a_numeric", "cutoff_used", "residual", "status"]

    def check(text):
        cols, _ = _columns(text, want)
        (x,), bad = _check_grid(cols, [axis])
        if bad:
            return bad
        bad += _check_solved(cols)
        for da, g2, na, c in zip(x, cols["g2_numeric"], cols["n_a_numeric"],
                                 cols["cutoff_used"].astype(int)):
            point = (delta, da, p["g"], p["E"], p["U"])
            if c > max_cutoff:
                bad.append(f"delta_a={da}: settled only at cutoff {c}")
                continue
            ref = reference.steady_state(*point, c)
            if not _agrees(g2, na, ref):
                bad.append(f"delta_a={da}: program ({g2}, {na}) reference {ref}")
            # settled means the rung below already agreed within tol
            if not _settled(reference.steady_state(*point, c - 4), ref, tol):
                bad.append(f"delta_a={da}: cutoff {c} does not settle against {c - 4}")
        return bad
    return check


# ------------------------------------------------------ workload argv per seed

def numeric_map(rng: random.Random, smoke: bool) -> Workload:
    n, cut_pts = (3, 11) if smoke else (8, 37)
    cutoff = 10
    step = 120.0 / (n - 1)
    o1, o2 = rng.uniform(0, step), rng.uniform(0, step)
    ax1 = ("delta", -60.0 + o1, 60.0 + o1, n)
    ax2 = ("delta_a", -60.0 + o2, 60.0 + o2, n)
    engines = ("numeric", "analytic")
    sweep = Op("sweep2d", ["sweep2d", "--axis", _axis(*ax1), "--axis2", _axis(*ax2)]
               + _params_argv() + ["--engines", ",".join(engines)],
               sweep2d_check([ax1, ax2], PAPER, engines, cutoff, rng.random()),
               analytic_rows=lambda r: r, numeric_rows=lambda r: r, cutoffs=(cutoff,))
    # delta = 30 cut through the hyperbola trough (g^2/delta = 13.3) and the
    # g = 0 interference trough (E^2/U = 20)
    o = rng.uniform(0, 36.0 / (cut_pts - 1))
    axis = ("delta_a", 4.0 + o, 40.0 + o, cut_pts)
    compare = Op("compare", ["compare", "--axis", _axis(*axis)] + _params_argv(delta=30.0),
                 compare_check(axis, 30.0, PAPER, cutoff, rng.random()),
                 numeric_rows=lambda r: r, cutoffs=(cutoff,))
    return Workload("numeric_map", [sweep, compare])


def analytic_map(rng: random.Random, smoke: bool) -> Workload:
    n = 21 if smoke else 241
    step = 120.0 / (n - 1)
    ops = []
    # the paper's slice plus one at a gain drawn from a fixed set
    for U in (PAPER["U"], rng.choice((0.0002, 0.001, 0.002))):
        p = dict(PAPER, U=U)
        o1, o2 = rng.uniform(0, step), rng.uniform(0, step)
        ax1 = ("delta", -60.0 + o1, 60.0 + o1, n)
        ax2 = ("delta_a", -60.0 + o2, 60.0 + o2, n)
        ops.append(Op("sweep2d", ["sweep2d", "--axis", _axis(*ax1), "--axis2", _axis(*ax2)]
                      + _params_argv(U=U) + ["--engines", "analytic"],
                      sweep2d_check([ax1, ax2], p, ("analytic",), None, None),
                      analytic_rows=lambda r: r))
    scans = [("delta", "delta_a", rng.choice((20.0, 30.0, -20.0, 40.0))),
             ("delta_a", "delta", rng.choice((30.0, 20.0, 25.0, -30.0)))]
    for free, other, fixed in scans[:1] if smoke else scans:
        steps = 121 if smoke else 481
        o = rng.uniform(0, 120.0 / (steps - 1))
        axis = (free, -60.0 + o, 60.0 + o, steps)
        ops.append(Op("optimum", ["optimum", "--axis", _axis(*axis)]
                      + _params_argv(**{other: fixed}),
                      optimum_check(free, fixed, axis, PAPER), analytic_rows=lambda r: r))
    # fails at every seed: non-finite detuning reaches the SVD fallback and
    # ends in a LinAlgError traceback instead of a usage error (exit 1)
    ops.append(Op("point_nan", ["point", "--delta", "nan", "--delta-a", "0"] + _params_argv(),
                  lambda text: [], expect_exit=1, cutoffs=(10,), writes_csv=False))
    return Workload("analytic_map", ops)


def strong_ladder(rng: random.Random, smoke: bool) -> Workload:
    tol = 1e-6
    if smoke:
        conv = (-20.0, -20.0, 20.0, 0.1, 0.0005)
        sweep_p = dict(PAPER)
        steps, top = 3, 12
    else:
        # strong resonant drive; every delta in this set climbs 4 -> 20 and settles
        conv = (rng.choice((-4.0, -2.0, 0.0, 2.0, 4.0)), 0.0, 20.0, 2.0, 0.05)
        sweep_p = {"g": 20.0, "E": 1.0, "U": 0.02}
        steps, top = 8, 20
    ops = [Op("convergence", ["convergence"] + _params_argv(*conv[:2], *conv[2:])
              + ["--cutoff", "4", "--converge-tol", repr(tol)],
              convergence_check(conv, 4, tol, top),
              numeric_rows=lambda r: 1, cutoffs=tuple(range(4, top + 1, 4)))]
    # every point of this cut settles at cutoff 12 for each delta of the set
    delta = rng.choice((-4.0, -2.0, 0.0, 2.0, 4.0))
    o = rng.uniform(0, 0.5)
    axis = ("delta_a", -2.0 + o, 1.5 + o, steps)
    ops.append(Op("sweep_converge", ["sweep", "--axis", _axis(*axis)]
                  + _params_argv(delta=delta, **sweep_p)
                  + ["--engines", "numeric", "--cutoff", "4", "--converge-tol", repr(tol)],
                  ladder_sweep_check(axis, delta, sweep_p, tol, top),
                  numeric_rows=lambda r: r, cutoffs=(4, 8, 12)))
    return Workload("strong_ladder", ops)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"numeric_map": numeric_map, "analytic_map": analytic_map,
            "strong_ladder": strong_ladder}[name](rng, smoke)
