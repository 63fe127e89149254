import os
import re
import subprocess
import sys
import warnings
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


def test_point_hides_hierarchy_warning(capsys, recwarn, monkeypatch):
    # at E = 5 the weak-drive expansion is far outside its domain
    code, _, _ = run(capsys, ["point", "--E", "5", "--engines", "analytic"])
    assert code == 0
    assert not [w for w in recwarn if "hierarchy" in str(w.message)]
    # a sweep that crosses from inside the domain to far outside it
    code, out, _ = run(capsys, ["sweep", "--axis", "E:0.1:5:4", "--engines", "analytic"])
    assert code == 0
    assert [r["status"] for r in parse_csv(out)[1]] == ["ok"] * 4
    assert not [w for w in recwarn if "hierarchy" in str(w.message)]
    # any other warning raised while evaluating the grid still gets through
    weak_drive_grid = cli.weak_drive_grid

    def noisy(**fields):
        warnings.warn("some other trouble", RuntimeWarning)
        return weak_drive_grid(**fields)
    monkeypatch.setattr(cli, "weak_drive_grid", noisy)
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


def test_optimum_on_a_lossless_cut_exits_3(capsys):
    # kappa = gamma = 0 zeroes the weak-drive denominator deltaA' + delta' at delta = -20
    code, out, err = run(capsys, ["optimum", "--axis", "delta:-60:60:481", "--delta-a", "20",
                                  "--g", "20", "--E", "0.1", "--U", "0.0005", "--kappa", "0",
                                  "--gamma", "0"])
    assert code == 3 and out == ""
    assert err.startswith("error: vanishing combined denominator") and err.count("\n") == 1


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
    # measured VmHWM 117,744 kB (115 MiB); 135,020 kB before the ordering was cached
    assert peak_bytes < 200e6


def test_degenerate_point_at_top_cutoff_stays_small():
    # a lossless point has no unique steady state; refusing it must not
    # densify the 6724 x 6724 generator (723 MB dense, more than 2 GB for an SVD)
    proc, peak_bytes = run_measuring_peak(["point", "--kappa", "0", "--gamma", "0",
                                           "--delta", "1", "--cutoff", "40",
                                           "--engines", "numeric"], timeout=300)
    assert proc.returncode == 3
    assert "no unique trace-one steady state" in proc.stderr
    # measured VmHWM 83,908 kB
    assert peak_bytes < 200e6


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


def test_analytic_paper_map_stays_small(tmp_path):
    # the 241x241 weak-drive map of the paper, 58081 rows
    out = tmp_path / "map.csv"
    proc, peak_bytes = run_measuring_peak(
        ["sweep2d", "--axis", "delta:-60:60:241", "--axis2", "delta_a:-60:60:241",
         *REF_ARGS[4:], "--engines", "analytic", "--out", str(out)], timeout=120)
    assert proc.returncode == 0
    assert len(out.read_text().splitlines()) == 1 + 241 * 241
    # measured 70.9e6 bytes; the row-by-row evaluation it replaced peaked at 97.5e6
    assert peak_bytes < 90e6
