import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdblockade
from qdblockade import analytic, cli, steady_state
from qdblockade.analytic import failure_error
from qdblockade.cli import main
from qdblockade.errors import CutoffConvergenceError

FLOAT_CELL = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")
REF_ARGS = ["--delta", "-20", "--delta-a", "-20", "--g", "20",
            "--E", "0.1", "--U", "0.0005"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_point_reference_values(capsys):
    code, out, err = run(capsys, ["point", *REF_ARGS])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["g2_numeric", "g2_analytic", "n_a_numeric", "n_a_analytic",
                      "cutoff_used", "residual", "status"]
    assert len(rows) == 1
    row = rows[0]
    assert abs(float(row["g2_numeric"]) - 0.022) < 0.15 * 0.022
    assert abs(float(row["g2_analytic"]) - 0.022) < 0.15 * 0.022
    assert float(row["residual"]) < 1e-9
    assert row["cutoff_used"] == "10"
    assert row["status"] == "ok"
    for key in ("g2_numeric", "g2_analytic", "n_a_numeric", "n_a_analytic", "residual"):
        assert FLOAT_CELL.match(row[key]), row[key]


def test_point_dark_state_reports_nan(capsys):
    code, out, _ = run(capsys, ["point", "--E", "0", "--U", "0"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["g2_numeric"] == "nan"
    assert rows[0]["g2_analytic"] == "nan"
    assert float(rows[0]["n_a_numeric"]) == 0.0
    assert rows[0]["status"] == "ok"


def test_point_single_engine(capsys):
    code, out, _ = run(capsys, ["point", *REF_ARGS, "--engines", "analytic"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["g2_analytic", "n_a_analytic", "cutoff_used", "residual", "status"]
    assert abs(float(rows[0]["g2_analytic"]) - 0.022) < 0.15 * 0.022


def test_point_solver_failure_exits_3(capsys):
    # neither decay nor drive: no unique steady state to report
    code, _, err = run(capsys, ["point", "--kappa", "0", "--gamma", "0", "--delta", "1"])
    assert code == 3
    assert "steady-state solve failed" in err


def test_decoupled_lossless_cavity_is_degenerate(capsys):
    # g = kappa = 0: the cavity evolves unitarily, so it has no unique steady
    # state.  Solving these printed status ok with n_a = -1.35e3 (point) and
    # -2.9e4, -119 and -3.2e4 (sweep)
    code, out, err = run(capsys, ["point", "--delta", "1", "--delta-a", "2", "--E", "0.1",
                                  "--kappa", "0", "--engines", "numeric"])
    assert (code, out) == (3, "")
    assert err == ("error: steady-state solve failed: trace-replaced Liouvillian is singular; "
                   "no unique trace-one steady state\n")
    code, out, _ = run(capsys, ["sweep", "--axis", "delta_a:18:22:3", "--E", "0.1",
                                "--U", "0.0005", "--kappa", "0", "--engines", "numeric"])
    assert code == 0
    assert out.splitlines()[1:] == [f"{x},nan,nan,10,nan,singular" for x in (
        "1.80000000e+01", "2.00000000e+01", "2.20000000e+01")]


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "delta:0:10"],
    ["sweep", "--axis", "delta:0:10:1"],
    ["sweep", "--axis", "delta:10:0:5"],
    ["sweep", "--axis", "bogus:0:10:5"],
    ["sweep", "--axis", "E:-1:1:5"],
    ["sweep", "--axis", "delta:0:10:5", "--engines", "magic"],
    ["sweep2d", "--axis", "delta:0:1:2", "--axis2", "delta:0:1:2"],
    ["optimum", "--axis", "g:0:10:5"],
    ["point", "--cutoff", "1"],
    ["point", "--cutoff", "99"],
    ["point", "--converge-tol", "-1"],
    ["point", "--g", "-3"],
    ["point", "--delta", "nan"],
    ["point", "--E", "inf"],
    ["point", "--kappa", "nan"],
    ["point", "--converge-tol", "nan"],
    ["sweep", "--axis", "delta:0:inf:3"],
    # finite ends whose distance overflows float64
    ["sweep", "--axis", "delta:-1e308:1e308:3", "--cutoff", "4"],
    ["sweep", "--axis", "delta:-1e308:1e308:3", "--engines", "analytic"],
    # grids above the point limit
    ["sweep", "--axis", "delta:0:1:10000000000000", "--engines", "analytic"],
    ["optimum", "--axis", "delta:0:1:10000000000000"],
    ["sweep2d", "--axis", "delta:0:1:1001", "--axis2", "delta_a:0:1:1000", "--engines", "numeric"],
])
def test_usage_errors_exit_1(capsys, monkeypatch, argv):
    # refused before any solve: a nan tolerance would otherwise climb to cutoff 40
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")
    monkeypatch.setattr(steady_state, "steady_state_grid", no_solve)
    code, _, err = run(capsys, argv)
    assert code == 1
    assert len(err.splitlines()) == 1


def test_analytic_sweep_outside_domain_reads_ok_and_passes_warnings(capsys, recwarn,
                                                                   monkeypatch):
    # a sweep that crosses from inside the weak-drive domain to far outside it
    # (E = 5) still evaluates every row
    code, out, _ = run(capsys, ["sweep", "--axis", "E:0.1:5:4", "--engines", "analytic"])
    assert code == 0
    assert [r["status"] for r in parse_csv(out)[1]] == ["ok"] * 4
    # a warning raised while evaluating the grid reaches the caller
    weak_drive_grid = analytic.weak_drive_grid

    def noisy(**fields):
        warnings.warn("some other trouble", RuntimeWarning)
        return weak_drive_grid(**fields)
    monkeypatch.setattr(analytic, "weak_drive_grid", noisy)
    code, _, _ = run(capsys, ["sweep", "--axis", "E:0.1:5:4", "--engines", "analytic"])
    assert code == 0
    assert {str(w.message) for w in recwarn} == {"some other trouble"}


@pytest.mark.parametrize("engines", ["numeric", "analytic", "numeric,analytic"])
@pytest.mark.parametrize("axis, statuses", [
    ("E:0:1e308:3", ["ok", "singular", "singular"]),
    ("E:0:1e80:3", ["ok", "singular", "singular"]),
    ("E:0:1e-89:3", ["ok", "ok", "ok"]),
])
def test_extreme_drive_ends_in_a_status(capsys, engines, axis, statuses):
    code, out, _ = run(capsys, ["sweep", "--axis", axis, "--cutoff", "4",
                                "--engines", engines])
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["status"] for r in rows] == statuses


def test_first_failing_column_sets_status(capsys):
    # gamma = delta = 0 zeroes delta': the weak-drive system is singular,
    # the steady state is not
    code, out, _ = run(capsys, ["sweep", "--axis", "delta_a:-1:1:3", "--gamma", "0",
                                "--delta", "0", "--g", "20", "--E", "0.1", "--cutoff", "4"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert FLOAT_CELL.match(row["g2_numeric"])
        assert row["g2_analytic"] == "nan"
        assert row["status"] == "singular"


# a weak row settles by the top rung and a strong one does not; a huge
# two-photon drive is singular in both engines
MIXED_MAP = ["sweep2d", "--axis", "E:0.1:1:2", "--axis2", "U:0:1e200:3", "--delta", "2"]
# gamma = delta = 0 is singular for the weak-drive system only
DOT_FREE_CUT = ["sweep", "--axis", "delta:-1:1:3", "--gamma", "0", "--E", "0.1"]


@pytest.mark.parametrize("argv, statuses", [
    ([*MIXED_MAP, "--engines", "numeric"], {"ok", "no_converge", "singular"}),
    ([*MIXED_MAP, "--engines", "analytic"], {"ok", "singular"}),
    ([*MIXED_MAP, "--engines", "numeric,analytic"], {"ok", "no_converge", "singular"}),
    ([*DOT_FREE_CUT, "--engines", "analytic"], {"ok", "singular"}),
    ([*DOT_FREE_CUT, "--engines", "numeric,analytic"], {"ok", "singular"}),
    (["compare", "--axis", "E:0.1:1e200:3", "--delta", "2", "--U", "0.02"],
     {"no_converge", "singular"}),
])
def test_status_matches_rowwise_class_test(capsys, monkeypatch, argv, statuses):
    # the engines carry each cell's status out; the row-wise oracle tests the
    # class of the first failure in column order, cell by cell
    monkeypatch.setattr(steady_state, "MAX_CUTOFF", 8)
    failures = []
    for name in ("_numeric", "_analytic"):
        def recording(*args, engine=getattr(cli, name)):
            out = engine(*args)
            failures.append(out[4])
            return out
        monkeypatch.setattr(cli, name, recording)
    code, out, _ = run(capsys, [*argv, "--g", "20", "--cutoff", "4", "--converge-tol", "1e-6"])
    assert code == 0
    want = []
    for cell in zip(*(f.ravel().tolist() for f in failures)):
        first = next((f for f in cell if f is not None), None)
        want.append("ok" if first is None else
                    "no_converge" if isinstance(first, CutoffConvergenceError) else "singular")
    got = [r["status"] for r in parse_csv(out)[1]]
    assert got == want
    assert set(got) == statuses


def test_unsettled_ladder_reads_no_converge(capsys, monkeypatch):
    # a ladder whose top rung is its first, the default cutoff 10, cannot settle
    monkeypatch.setattr(steady_state, "MAX_CUTOFF", 10)
    tol = ["--converge-tol", "1e-6", "--E", "0.1", "--axis", "delta:0:1:2"]
    for argv in (["sweep", *tol], ["compare", *tol]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["no_converge"] * 2
    code, _, err = run(capsys, ["point", "--converge-tol", "1e-6", "--E", "0.1"])
    assert code == 3
    assert "steady-state solve failed" in err


@pytest.mark.parametrize("argv, axes", [
    (["sweep2d", "--axis", "delta:0:1:3", "--axis2", "g:0:1:2"], {"delta": (3,), "g": (2, 1)}),
    (["sweep", "--axis", "E:0:1:4"], {"E": (4,)}),
    (["compare", "--axis", "delta_a:0:1:3"], {"delta_a": (3,)}),
    (["point"], {}),
])
def test_engines_receive_broadcast_axes(capsys, monkeypatch, argv, axes):
    # the fast axis is a row, the slow axis a column, and every fixed field a number
    shapes = []
    for module, name in ((steady_state, "steady_state_grid"), (analytic, "weak_drive_grid")):
        def recording(*args, engine=getattr(module, name), **fields):
            shapes.append({k: np.shape(v) for k, v in fields.items()})
            return engine(*args, **fields)
        monkeypatch.setattr(module, name, recording)
    code, out, _ = run(capsys, [*argv, "--E", "0.1", "--cutoff", "4"])
    assert code == 0
    assert len(parse_csv(out)[1]) == math.prod(n for shape in axes.values() for n in shape)
    want = {field: axes.get(field, ()) for field in ("delta", "delta_a", "g", "E", "U",
                                                     "kappa", "gamma")}
    assert shapes == [want] * (3 if argv[0] == "compare" else 2)


def test_dark_analytic_sweep_builds_one_error_per_failure_code(capsys, monkeypatch):
    # E = 0 leaves g2 undefined in every cell, which is a nan cell and not a failure
    calls = []

    def counting(code):
        calls.append(code)
        return failure_error(code)
    monkeypatch.setattr(analytic, "failure_error", counting)
    code, out, _ = run(capsys, ["sweep", "--axis", "delta:-60:60:1000", "--g", "20",
                                "--engines", "analytic"])
    assert code == 0
    rows = parse_csv(out)[1]
    assert len(rows) == 1000
    assert {(r["g2_analytic"], r["n_a_analytic"], r["status"]) for r in rows} == {
        ("nan", "0.00000000e+00", "ok")}
    assert calls == []


def test_unwritable_output_exits_2(capsys):
    code, _, err = run(capsys, ["point", "--E", "0.1", "--cutoff", "4",
                                "--out", "/nonexistent-dir/x.csv"])
    assert code == 2
    assert "cannot write" in err


def test_missing_config_exits_2(capsys):
    code, _, err = run(capsys, ["point", "--config", "/nonexistent-dir/cfg"])
    assert code == 2
    assert "cannot read config" in err


def test_undecodable_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"E=0.1\n\xff\xfe=1\n")
    code, out, err = run(capsys, ["point", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_unknown_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    code, _, err = run(capsys, ["point", "--config", str(cfg)])
    assert code == 1
    assert "bogus" in err


def test_config_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference operating point\n"
        "delta = -20\n"
        "delta_a = -20\n"
        "g = 20\n"
        "E = 0.1\n"
        "U = 0.0005\n"
    )
    code, from_flags, _ = run(capsys, ["point", *REF_ARGS])
    assert code == 0
    code, from_cfg, _ = run(capsys, ["point", "--config", str(cfg)])
    assert code == 0
    assert from_cfg == from_flags
    code, overridden, _ = run(capsys, ["point", "--config", str(cfg), "--delta", "30"])
    assert code == 0
    assert overridden != from_cfg


@pytest.mark.parametrize("line, key", [("gnuplot = x", "gnuplot"),
                                       ("config = y", "config"),
                                       ("cutoff = 4.5", "cutoff")])
def test_config_refuses_keys_and_values_it_cannot_set(capsys, tmp_path, line, key):
    # --gnuplot and --config are flags only; cutoff must be an int
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, ["point", "--config", str(cfg), "--cutoff", "4"])
    assert code == 1
    assert out == ""
    assert f"{key!r}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "delta:0:1:3"],
    ["sweep2d", "--axis", "delta:0:1:3", "--axis2", "delta_a:0:1:2"],
], ids=["sweep", "sweep2d"])
@pytest.mark.parametrize("key", ["axis", "axis2"])
def test_config_cannot_set_the_axes(capsys, tmp_path, argv, key):
    # argparse ignores a default for a required flag, so a config axis could only
    # be dropped silently; it is refused as an unknown key instead
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = g:0:1:2\n")
    code, out, err = run(capsys, [*argv, "--E", "0.1", "--engines", "analytic",
                                  "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert f"unknown config key {key!r}" in err
    assert len(err.splitlines()) == 1


def test_sweep_writes_deterministic_csv(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", *REF_ARGS, "--cutoff", "8", "--axis", "delta:-1:1:5"]
    assert main([*argv, "--out", str(f1)]) == 0
    assert main([*argv, "--out", str(f2)]) == 0
    capsys.readouterr()
    data = f1.read_bytes()
    assert data == f2.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    header, rows = parse_csv(data.decode())
    assert header[0] == "delta"
    assert len(rows) == 5
    assert [r["delta"] for r in rows] == [
        "-1.00000000e+00", "-5.00000000e-01", "0.00000000e+00",
        "5.00000000e-01", "1.00000000e+00"]
    for row in rows:
        assert row["status"] == "ok"
        assert FLOAT_CELL.match(row["g2_numeric"])
        assert row["cutoff_used"] == "8"


def test_sweep_stdout_equals_file_output(capsys, tmp_path):
    path = tmp_path / "cut.csv"
    argv = ["sweep", *REF_ARGS, "--cutoff", "6", "--axis", "delta:0:2:3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_sweep2d_is_second_axis_major(capsys):
    argv = ["sweep2d", "--axis", "delta:0:1:2", "--axis2", "delta_a:0:1:2",
            "--engines", "analytic", "--E", "0.1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    _, rows = parse_csv(out)
    coords = [(float(r["delta"]), float(r["delta_a"])) for r in rows]
    assert coords == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def test_compare_jc_column_matches_direct_sweep(capsys):
    # the jc (U = 0) and bimode (g = 0) columns are the composite model's
    # sweep with that field set to zero
    base = ["--delta", "30", "--E", "0.1", "--cutoff", "8", "--axis", "delta_a:10:16:13"]
    composite = ["--g", "20", "--U", "0.0005"]
    code, cmp_out, _ = run(capsys, ["compare", *base, *composite])
    assert code == 0
    _, cmp_rows = parse_csv(cmp_out)
    for label, limit in (("jc", ["--g", "20", "--U", "0"]),
                         ("bimode", ["--g", "0", "--U", "0.0005"])):
        code, sweep_out, _ = run(capsys, ["sweep", *base, *limit, "--engines", "numeric"])
        assert code == 0
        _, sweep_rows = parse_csv(sweep_out)
        assert len(cmp_rows) == len(sweep_rows) == 13
        for c, s in zip(cmp_rows, sweep_rows):
            assert c[f"g2_{label}"] == s["g2_numeric"]
            assert c[f"n_a_{label}"] == s["n_a_numeric"]


def test_compare_reports_three_models(capsys):
    code, out, _ = run(capsys, ["compare", "--delta", "30", "--g", "20", "--E", "0.1",
                                "--U", "0.0005", "--cutoff", "8",
                                "--axis", "delta_a:13:14:3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta_a", "g2_composite", "g2_jc", "g2_bimode",
                      "n_a_composite", "n_a_jc", "n_a_bimode", "status"]
    for row in rows:
        assert row["status"] == "ok"
        # near the hyperbola the dot-coupled model antibunches the deepest
        assert float(row["g2_composite"]) < 0.1
        assert float(row["g2_bimode"]) > float(row["g2_composite"])


def test_optimum_locates_both_root_kinds(capsys):
    code, out, _ = run(capsys, ["optimum", "--delta", "30", "--g", "20", "--E", "0.1",
                                "--U", "0.0005", "--axis", "delta_a:0:60:241"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "variable", "value", "c2g_residual", "g2_weak_drive"]
    kinds = [r["kind"] for r in rows]
    assert kinds == ["CPB", "UCPB"]
    assert abs(float(rows[0]["value"]) - 400.0 / 30.0) < 0.05
    assert abs(float(rows[1]["value"]) - 37.3) < 0.5
    for row in rows:
        assert float(row["g2_weak_drive"]) < 0.5


def test_optimum_undriven_reports_roots_with_undefined_g2(capsys):
    # E = 0 leaves c1g = 0 on the whole cut: the roots of |c2g| stand, with g2 nan
    code, out, err = run(capsys, ["optimum", "--axis", "delta_a:-60:60:481", "--delta", "30",
                                  "--g", "20", "--E", "0", "--U", "0.0005"])
    assert (code, err) == (0, "")
    assert [(r["kind"], r["value"], r["g2_weak_drive"]) for r in parse_csv(out)[1]] == [
        ("UCPB", "-2.99261520e+01", "nan"), ("CPB", "1.33333333e+01", "nan")]


def test_optimum_empty_interval_is_not_an_error(capsys):
    code, out, _ = run(capsys, ["optimum", "--delta", "30", "--g", "0", "--E", "0.1",
                                "--U", "0", "--axis", "delta_a:0:60:241"])
    assert code == 0
    assert "# no blockade roots found" in out


@pytest.mark.parametrize("steps", [479, 480, 481])
def test_optimum_on_a_lossless_cut_exits_3(capsys, steps):
    # kappa = gamma = 0 zeroes the weak-drive denominators deltaA' + delta' at delta = -20,
    # delta' and deltaA'(deltaA'+delta') - g^2 at 0 and g^2 - delta' deltaA' at 20: the
    # lowest zero names the failure, whatever the axis steps
    code, out, err = run(capsys, ["optimum", "--axis", f"delta:-60:60:{steps}", "--delta-a",
                                  "20", "--g", "20", "--E", "0.1", "--U", "0.0005", "--kappa",
                                  "0", "--gamma", "0"])
    assert code == 3 and out == ""
    assert err.startswith("error: vanishing combined denominator") and err.count("\n") == 1


def test_optimum_with_a_huge_drive_ends_without_a_warning(capsys):
    # |c2g|^2 overflows float64 along the whole cut; under the suite's warning filter
    # a NumPy overflow warning would fail the run
    code, out, err = run(capsys, ["optimum", "--axis", "delta_a:0:60:241", "--delta", "30",
                                  "--g", "20", "--E", "1e100", "--U", "0.0005"])
    if code == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["kind", "variable", "value", "c2g_residual", "g2_weak_drive"]
        assert rows and all(0.0 <= float(r["value"]) <= 60.0 for r in rows)


def test_gnuplot_stub(capsys, tmp_path):
    csv = tmp_path / "cut.csv"
    gp = tmp_path / "cut.gp"
    argv = ["sweep", *REF_ARGS, "--cutoff", "6", "--axis", "delta:0:2:3"]
    code, out, err = run(capsys, [*argv, "--gnuplot", str(gp)])
    assert code == 1  # stub without data to point at is refused before any work
    assert out == "" and not gp.exists()
    # a CSV that cannot be written leaves no stub pointing at it
    missing = tmp_path / "missing" / "cut.csv"
    code, _, err = run(capsys, [*argv, "--gnuplot", str(gp), "--out", str(missing)])
    assert code == 2
    assert "cannot write" in err
    assert not gp.exists()
    # a stub that would overwrite its own CSV is refused before any work
    for same in (str(csv), f"{tmp_path}/./cut.csv"):
        code, out, err = run(capsys, [*argv, "--gnuplot", same, "--out", str(csv)])
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert not csv.exists()
    code, _, _ = run(capsys, [*argv, "--gnuplot", str(gp), "--out", str(csv)])
    assert code == 0
    text = gp.read_text()
    assert str(csv) in text
    assert csv.exists()


def rowwise_csv_rows(columns, status):
    """The per-row emitter that ``cli._csv_rows`` replaced: one ``template % row``
    per row over the columns' Python values and the status words."""
    template = ",".join([fmt for _, fmt in columns] + ["%s"])
    words = [cli._STATUS[code] for code in status.tolist()]
    rows = zip(*(values.tolist() for values, _ in columns), words)
    return "\n".join(template % row for row in rows)


# -0.0 equals 0.0 and nan has two signs: a float-keyed cache would merge them
SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1.5]


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 2 * cli._BLOCK_ROWS + 5])
def test_csv_rows_equal_rowwise_emitter(n):
    rng = np.random.default_rng(n)
    pool = np.array(SPECIALS)
    mostly_distinct = rng.standard_normal(n)
    mostly_distinct[::5] = rng.choice(pool, mostly_distinct[::5].size)
    columns = [
        (np.linspace(-60.0, 60.0, n), "%.8e"),
        (np.tile([0.0, -0.0], n)[:n], "%.8e"),  # two bit patterns, one float value
        (rng.choice(pool, n), "%.8e"),
        (mostly_distinct, "%.8e"),
        (np.full(n, -0.0), "%.8e"),
        (np.full(n, math.nan), "%.8e"),  # the analytic engine's residual
        (rng.choice(np.array([4, 8, 12, 40]), n), "%d"),  # a ladder's cutoff_used
        (np.full(n, 10), "%d"),
        (np.arange(n) + 2, "%d"),
    ]
    # every status from 3 rows on, and each one alone
    for status in (rng.permutation(np.arange(n) % 3), np.zeros(n, dtype=int), np.full(n, 2)):
        got = "\n".join(cli._csv_rows(columns, status)).split("\n")
        want = rowwise_csv_rows(columns, status).split("\n")
        # the first differing row, since a diff of the whole text takes minutes
        first_bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert first_bad is None, (first_bad, got[first_bad], want[first_bad])
        assert len(got) == len(want) == n


@pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2, 1000)])
def test_csv_rows_take_broadcast_columns(shape):
    # a grid's columns: its axes as a row and a column, numbers and full-shape cells
    rng = np.random.default_rng(len(shape))
    axes = [np.linspace(-1.0, 1.0, n).reshape((n,) + (1,) * k)
            for k, n in enumerate(reversed(shape))]
    columns = [(axis, "%.8e") for axis in axes] + [
        (rng.standard_normal(shape), "%.8e"), (rng.choice(np.array(SPECIALS), shape), "%.8e"),
        (10, "%d"), (math.nan, "%.8e")]
    status = np.asarray(rng.integers(0, 3, shape))
    got = "\n".join(cli._csv_rows(columns, status))
    full = [(np.broadcast_to(values, shape).ravel(), fmt) for values, fmt in columns]
    assert got == rowwise_csv_rows(full, status.ravel())


def e8_families(rng):
    """Doubles that probe each branch of ``cli._e8``: seeded values over decimal
    exponents -120 to 120, random bit patterns, values next to nine-digit rounding
    ties, nine-digit values, powers of ten and their neighbours, subnormals and the
    special values."""
    n = 100_000
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-120, 121, n)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(float)
    digits = rng.integers(10**8, 10**9, n)
    scale = 10.0 ** rng.integers(-40, 41, n).astype(float)
    ties = (digits + 0.5) * scale
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(float)
    families = [spread, bits, ties, np.nextafter(ties, 0.0), np.nextafter(ties, math.inf),
                digits * scale, powers, np.nextafter(powers, 0.0),
                np.nextafter(powers, math.inf), subnormals, np.array(SPECIALS)]
    return np.concatenate([x for f in families for x in (f, -f)])


def test_e8_equals_python_formatting():
    x = e8_families(np.random.default_rng(2028))
    got = cli._e8(x).tolist()
    want = [b"%.8e" % v for v in x.tolist()]
    first_bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first_bad is None, (x[first_bad], got[first_bad], want[first_bad])
    assert len(got) == len(want) == x.size


@pytest.mark.parametrize("command", [None, *cli._SUBCOMMANDS])
def test_help_is_that_of_a_parser_with_every_flag(capsys, command):
    # a run's parser has flags only on its own subcommand, and no subcommand's
    # help lacks one
    parser, subs = cli._build_parser([])
    for name, (_, _, flags) in cli._SUBCOMMANDS.items():
        for flag in cli._SHARED + flags:
            subs[name].add_argument(f"--{flag}", **cli._FLAGS[flag])
    want = (parser if command is None else subs[command]).format_help()
    code, out, err = run(capsys, ["--help"] if command is None else [command, "--help"])
    assert (code, out, err) == (0, want, "")


def test_convergence_table(capsys):
    code, out, _ = run(capsys, ["convergence", *REF_ARGS, "--cutoff", "4"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["cutoff", "g2_numeric", "n_a_numeric", "residual"]
    assert [r["cutoff"] for r in rows] == ["4", "8"]
    for row in rows:
        assert FLOAT_CELL.match(row["g2_numeric"])


def child_env():
    # the child finds the package where this process imported it from, and
    # buffers its stdout, as a run started by hand does: unbuffered, a flush
    # missing before the process ends would lose nothing
    src = str(Path(qdblockade.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdblockade", "point", "--E", "0.1", "--cutoff", "4"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("g2_numeric,")


# (argv, exit code): a numeric ladder sweep, the paper's analytic map (3.6 MB,
# far more than a pipe holds), a root search, and each error exit
ENTRY_POINT_RUNS = {
    "ladder_sweep": (["sweep", "--axis", "delta_a:-1.8:1.7:8", "--delta", "2", "--g", "20",
                      "--E", "1", "--U", "0.02", "--engines", "numeric", "--cutoff", "4",
                      "--converge-tol", "1e-6"], 0),
    "analytic_map": (["sweep2d", "--axis", "delta:-60:60:241", "--axis2", "delta_a:-60:60:241",
                      *REF_ARGS[4:], "--engines", "analytic"], 0),
    "optimum": (["optimum", "--axis", "delta:-60:60:481", "--delta-a", "30", *REF_ARGS[4:]], 0),
    "usage": (["point", "--cutoff", "1"], 1),
    "unwritable_out": (["point", "--E", "0.1", "--cutoff", "4",
                        "--out", "/nonexistent-dir/x.csv"], 2),
    "solver_failure": (["point", "--kappa", "0", "--gamma", "0", "--delta", "1",
                        "--cutoff", "4"], 3),
}


@pytest.mark.parametrize("argv, code", ENTRY_POINT_RUNS.values(), ids=ENTRY_POINT_RUNS)
def test_entry_point_writes_what_main_writes(argv, code):
    # the entry point ends the process without interpreter teardown, after
    # delivering every byte main wrote, through a pipe, and main's exit code.
    # main runs in a child that ends normally, not in this process
    procs = [subprocess.run([sys.executable, *entry, *argv], capture_output=True, timeout=300,
                            env=child_env())
             for entry in (["-c", "import sys; from qdblockade.cli import main; sys.exit(main())"],
                           ["-m", "qdblockade"])]
    want, got = [(p.returncode, p.stdout, p.stderr) for p in procs]
    assert got == want
    assert got[0] == code
    if code:
        assert got[2].count(b"\n") == 1, got[2]
    else:
        assert got[1].count(b"\n") > 1 and got[2] == b""


def test_main_in_process_prints_what_a_child_prints(capsys):
    # conftest gives BLAS one thread before any test module loads NumPy, so
    # main run here factors as a fresh CLI process does, to the residual's digits
    argv, code = ENTRY_POINT_RUNS["ladder_sweep"]
    child = subprocess.run([sys.executable, "-m", "qdblockade", *argv], capture_output=True,
                           text=True, timeout=300, env=child_env())
    got = run(capsys, argv)
    assert got == (child.returncode, child.stdout, child.stderr)
    assert got[0] == code and got[2] == ""


def test_module_and_script_share_one_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import qdblockade.__main__ as module_main

    pyproject = Path(qdblockade.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"qdblockade": "qdblockade.__main__:run"}
    assert callable(module_main.run)  # importing it ran nothing: run ends the process


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["help", "sweep_help"])
def test_help_to_a_full_device_exits_2(argv, unbuffered):
    # buffered, argparse's help failed only at interpreter exit (code 120 and an
    # ignored-exception report); unbuffered, argparse swallowed the error (code 0)
    env = child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "qdblockade", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ") and proc.stderr.count("\n") == 1, \
        proc.stderr


def write_to_broken_stdout(how):
    """Run a CLI child whose stdout is a pipe closed after one line, /dev/full or a
    closed descriptor; return its exit code and stderr."""
    argv = [sys.executable, "-m", "qdblockade"]
    if how == "pipe":  # 58,081 rows, far more than a pipe buffers
        with subprocess.Popen([*argv, "sweep2d", "--axis", "delta:-60:60:241", "--axis2",
                               "delta_a:-60:60:241", "--E", "0.1", "--engines", "analytic"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env()) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            return proc.wait(timeout=120), proc.stderr.read()
    point = [*argv, "point", "--E", "0.1", "--engines", "analytic"]
    if how == "full":  # a small output that fails only when flushed
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(point, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120, env=child_env())
    else:
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *point], capture_output=True,
                              text=True, timeout=120, env=child_env())
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("how", [
    "pipe",
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="no /dev/full")),
    "closed",
])
def test_stdout_write_failure_exits_2(how):
    code, err = write_to_broken_stdout(how)
    assert code == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err


def test_overflowing_sweep_prints_no_warnings():
    # in a child, so that NumPy warnings would reach its stderr
    for engines in ("numeric", "analytic"):
        proc = subprocess.run(
            [sys.executable, "-m", "qdblockade", "sweep", "--axis", "E:0:1e308:3",
             "--cutoff", "4", "--engines", engines],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0
        assert proc.stderr == "", engines
        assert proc.stdout.splitlines()[2:] == ["5.00000000e+307,nan,nan,4,nan,singular",
                                                "1.00000000e+308,nan,nan,4,nan,singular"]


def run_measuring_peak(argv, timeout):
    """Run the CLI in a child; return the finished process and the child's own peak RSS.

    The peak is VmHWM from the child's /proc/self/status: ru_maxrss, even
    RUSAGE_SELF in the child, carries this process's high-water mark across exec.
    """
    report = ("import re, sys; from qdblockade.cli import main; code = main(); "
              "status = open('/proc/self/status').read(); "
              "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1], file=sys.stderr); "
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", report, *argv], capture_output=True,
                          text=True, timeout=timeout, env=child_env())
    return proc, int(proc.stderr.split()[-1]) * 1024  # the kernel's kB are KiB


def test_point_at_top_cutoff_stays_small():
    # at cutoff 40 the generator is 6724 x 6724, 723 MB if it were dense
    proc, peak_bytes = run_measuring_peak(["point", *REF_ARGS, "--cutoff", "40",
                                           "--engines", "numeric"], timeout=300)
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert rows[0]["cutoff_used"] == "40"
    assert float(rows[0]["residual"]) < 1e-9
    # measured VmHWM 86,016-86,096 kB with the mirrored band (its band is 31.2 MB);
    # 112,736-112,844 kB with the one-sided band (58.7 MB), 117,744 kB with
    # SuperLU, 135,020 kB before SuperLU's ordering was cached
    assert peak_bytes < 200e6


def test_sweep_at_top_cutoff_grows_by_one_factorization_per_worker():
    # the grid solves on every CPU, so each worker holds a cutoff-40 band (31.2 MB)
    proc, peak_bytes = run_measuring_peak(["sweep", "--axis", "delta:-30:30:6", *REF_ARGS[2:],
                                           "--cutoff", "40", "--engines", "numeric"],
                                          timeout=300)
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert [row["status"] for row in rows] == ["ok"] * 6
    # min(6, CPUs) workers share the 6 cells, one at a time.  With 2 workers: measured
    # VmHWM 123,092-123,244 kB with the mirrored band, 175,328-175,520 kB with the
    # one-sided band; with SuperLU 162,772-164,264 kB
    # (162,264-163,316 kB when cell 0 was solved alone first), against
    # 118,984-119,196 kB when the cells were solved one after another
    workers = min(6, len(os.sched_getaffinity(0)))
    assert peak_bytes < 140e6 + 60e6 * (workers - 1)


def test_degenerate_point_at_top_cutoff_stays_small():
    # a lossless point has no unique steady state; refusing it must not
    # densify the 6724 x 6724 generator (723 MB dense, more than 2 GB for an SVD)
    proc, peak_bytes = run_measuring_peak(["point", "--kappa", "0", "--gamma", "0",
                                           "--delta", "1", "--cutoff", "40",
                                           "--engines", "numeric"], timeout=300)
    assert proc.returncode == 3
    assert "no unique trace-one steady state" in proc.stderr
    # measured VmHWM 47,120-47,256 kB, refused before any solve (g = kappa = 0);
    # 83,908 kB when SuperLU factored it as singular
    assert peak_bytes < 200e6


def test_rescued_point_at_top_cutoff_stays_small():
    # the band refuses this drive; the QR rescue holds Q of every panel and the
    # band widened to 7 blocks per block row
    proc, peak_bytes = run_measuring_peak(["point", "--g", "20", "--E", "1e6", "--U", "0.05",
                                           "--cutoff", "40", "--engines", "numeric"],
                                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert rows[0]["cutoff_used"] == "40"
    assert float(rows[0]["residual"]) < 1e-9
    # measured VmHWM 252,148-252,288 kB, in 1.7 s; 700,036 kB through the SuperLU
    # rescue, in 33.7 s
    assert peak_bytes < 350e6


def test_numeric_map_does_not_depend_on_blas_threads():
    # identical invocations must print identical cells under any BLAS thread
    # count; only the rounding-level residual may differ
    argv = ["sweep2d", *REF_ARGS[4:], "--cutoff", "10", "--engines", "numeric",
            "--axis", "delta:-60:60:9", "--axis2", "delta_a:-60:60:9"]
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "qdblockade", *argv], capture_output=True,
                              text=True, timeout=300,
                              env=dict(child_env(), OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0
        outputs.append(parse_csv(proc.stdout))
    assert len(outputs[0][1]) == 81
    for _, rows in outputs:
        for row in rows:
            del row["residual"]
    assert outputs[0] == outputs[1]


# 241: the paper's weak-drive map.  Measured 53.2e6-57.0e6 bytes; 58.4e6 when the
# engine got a full-length copy of each field, 70.7e6 with the row-by-row CSV
# emitter before that, and 97.5e6 with the row-by-row evaluation before it.
# 1000: the largest grid the CLI accepts (MAX_GRID_POINTS).  Measured 331.2e6-332.4e6
# bytes; 413.1e6-415.3e6 with the full-length field copies
@pytest.mark.parametrize("steps, bound", [(241, 68e6), (1000, 370e6)],
                         ids=["241x241", "1000x1000"])
def test_analytic_paper_map_stays_small(tmp_path, steps, bound):
    out = tmp_path / "map.csv"
    proc, peak_bytes = run_measuring_peak(
        ["sweep2d", "--axis", f"delta:-60:60:{steps}", "--axis2", f"delta_a:-60:60:{steps}",
         *REF_ARGS[4:], "--engines", "analytic", "--out", str(out)], timeout=300)
    assert proc.returncode == 0
    with out.open() as fh:
        assert sum(1 for _ in fh) == 1 + steps * steps
    out.unlink()  # 71 MB at 1000x1000
    assert peak_bytes < bound
