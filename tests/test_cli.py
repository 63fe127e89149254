import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdblockade
from qdblockade import CutoffConvergenceError, cli
from qdblockade.cli import main

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
])
def test_usage_errors_exit_1(capsys, monkeypatch, argv):
    # refused before any solve: a nan tolerance would otherwise climb to cutoff 40
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")
    monkeypatch.setattr(cli, "solve_steady_state", no_solve)
    monkeypatch.setattr(cli, "converged_solve", no_solve)
    code, _, err = run(capsys, argv)
    assert code == 1
    assert len(err.splitlines()) == 1


def test_point_hides_hierarchy_warning(capsys, recwarn):
    # at E = 5 the weak-drive expansion is far outside its domain
    code, _, _ = run(capsys, ["point", "--E", "5", "--engines", "analytic"])
    assert code == 0
    assert not [w for w in recwarn if "hierarchy" in str(w.message)]


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


def test_unsettled_ladder_reads_no_converge(capsys, monkeypatch):
    def never_settles(*args, **kwargs):
        raise CutoffConvergenceError("observables not settled")
    monkeypatch.setattr(cli, "converged_solve", never_settles)
    tol = ["--converge-tol", "1e-6", "--E", "0.1", "--axis", "delta:0:1:2"]
    for argv in (["sweep", *tol], ["compare", *tol]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["no_converge"] * 2
    code, _, err = run(capsys, ["point", "--converge-tol", "1e-6", "--E", "0.1"])
    assert code == 3
    assert "steady-state solve failed" in err


def test_unwritable_output_exits_2(capsys):
    code, _, err = run(capsys, ["point", "--E", "0.1", "--cutoff", "4",
                                "--out", "/nonexistent-dir/x.csv"])
    assert code == 2
    assert "cannot write" in err


def test_missing_config_exits_2(capsys):
    code, _, err = run(capsys, ["point", "--config", "/nonexistent-dir/cfg"])
    assert code == 2
    assert "cannot read config" in err


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
    base = ["--delta", "30", "--g", "20", "--E", "0.1", "--cutoff", "8"]
    code, cmp_out, _ = run(capsys, ["compare", *base, "--U", "0.0005",
                                    "--axis", "delta_a:10:16:13"])
    assert code == 0
    code, sweep_out, _ = run(capsys, ["sweep", *base, "--U", "0",
                                      "--engines", "numeric",
                                      "--axis", "delta_a:10:16:13"])
    assert code == 0
    _, cmp_rows = parse_csv(cmp_out)
    _, sweep_rows = parse_csv(sweep_out)
    assert len(cmp_rows) == len(sweep_rows) == 13
    for c, s in zip(cmp_rows, sweep_rows):
        assert c["g2_jc"] == s["g2_numeric"]
        assert c["n_a_jc"] == s["n_a_numeric"]


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


def test_optimum_empty_interval_is_not_an_error(capsys):
    code, out, _ = run(capsys, ["optimum", "--delta", "30", "--g", "0", "--E", "0.1",
                                "--U", "0", "--axis", "delta_a:0:60:241"])
    assert code == 0
    assert "# no blockade roots found" in out


def test_gnuplot_stub(capsys, tmp_path):
    csv = tmp_path / "cut.csv"
    gp = tmp_path / "cut.gp"
    argv = ["sweep", *REF_ARGS, "--cutoff", "6", "--axis", "delta:0:2:3"]
    code, _, err = run(capsys, [*argv, "--gnuplot", str(gp)])
    assert code == 1  # stub without data to point at is refused
    code, _, _ = run(capsys, [*argv, "--gnuplot", str(gp), "--out", str(csv)])
    assert code == 0
    text = gp.read_text()
    assert str(csv) in text
    assert csv.exists()


def test_convergence_table(capsys):
    code, out, _ = run(capsys, ["convergence", *REF_ARGS, "--cutoff", "4"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["cutoff", "g2_numeric", "n_a_numeric", "residual"]
    assert [r["cutoff"] for r in rows] == ["4", "8"]
    for row in rows:
        assert FLOAT_CELL.match(row["g2_numeric"])


def child_env():
    # the child finds the package where this process imported it from
    src = str(Path(qdblockade.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdblockade", "point", "--E", "0.1", "--cutoff", "4"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("g2_numeric,")


def test_overflowing_sweep_prints_no_warnings():
    # in a child, so that NumPy warnings would reach its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "qdblockade", "sweep", "--axis", "E:0:1e308:3",
         "--cutoff", "4", "--engines", "numeric"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[2:] == ["5.00000000e+307,nan,nan,4,nan,singular",
                                            "1.00000000e+308,nan,nan,4,nan,singular"]


def test_point_at_top_cutoff_stays_small():
    # at cutoff 40 the generator is 6724 x 6724, 723 MB if it were dense
    report = ("import resource, sys; from qdblockade.cli import main; code = main(); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
              "sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", report, "point", *REF_ARGS, "--cutoff", "40",
         "--engines", "numeric"],
        capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert rows[0]["cutoff_used"] == "40"
    assert float(rows[0]["residual"]) < 1e-9
    maxrss_bytes = int(proc.stderr.split()[-1]) * 1024  # ru_maxrss is in KiB on Linux
    assert maxrss_bytes < 400e6
