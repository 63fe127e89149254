"""Golden CLI outputs: every cell byte for byte, except the residual column.

The residual ||L vec(rho)||_inf sits at rounding level and changes with the
BLAS thread count, so it is only held to the solver's 1e-9 bound; every other
cell, the header and the row order must match the files in tests/data.

Regenerate the files after an intended output change with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import sys
from pathlib import Path

import pytest

from qdblockade.cli import main

DATA = Path(__file__).resolve().parent / "data"
REF = ["--delta", "-20", "--delta-a", "-20", "--g", "20", "--E", "0.1", "--U", "0.0005"]
PAPER = ["--g", "20", "--E", "0.1", "--U", "0.0005"]
SWEEP = ["sweep", *REF, "--cutoff", "6", "--axis", "delta:-60:60:25"]

CASES = {
    "point": ["point", *REF],
    "point_numeric": ["point", *REF, "--engines", "numeric"],
    "point_analytic": ["point", *REF, "--engines", "analytic"],
    "sweep": SWEEP,
    "sweep2d": ["sweep2d", *PAPER, "--cutoff", "4",
                "--axis", "delta:-60:60:9", "--axis2", "delta_a:-60:60:9"],
    "sweep2d_analytic": ["sweep2d", *PAPER, "--engines", "analytic",
                         "--axis", "delta:-60:60:13", "--axis2", "delta_a:-60:60:13"],
    "sweep2d_slow_g": ["sweep2d", "--delta-a", "20", "--E", "0.1", "--U", "0.0005",
                       "--cutoff", "4", "--axis", "delta:-30:30:5", "--axis2", "g:0:40:5"],
    "compare": ["compare", "--delta", "30", *PAPER, "--cutoff", "6",
                "--axis", "delta_a:4:40:13"],
    "sweep_converge": ["sweep", "--delta", "0", "--g", "20", "--E", "1", "--U", "0.02",
                       "--engines", "numeric", "--cutoff", "4", "--converge-tol", "1e-6",
                       "--axis", "delta_a:-2:1.5:4"],
    "optimum": ["optimum", "--delta", "30", *PAPER, "--axis", "delta_a:0:60:241"],
    "convergence": ["convergence", *REF, "--cutoff", "4"],
}


def run_case(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_matches_golden(text, name):
    want = (DATA / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    got = text.splitlines()
    assert len(got) == len(want)
    header = want[0].split(",")
    assert got[0] == want[0]
    for got_line, want_line in zip(got[1:], want[1:]):
        if want_line.startswith("#"):
            assert got_line == want_line
            continue
        assert got_line.count(",") == want_line.count(",")
        for col, g, w in zip(header, got_line.split(","), want_line.split(",")):
            if col == "residual" and w != "nan":
                assert float(g) < 1e-9, (name, got_line)
            else:
                assert g == w, (name, col, got_line, want_line)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(capsys, name):
    assert_matches_golden(run_case(CASES[name], capsys), name)


def test_gnuplot_stub_matches_golden(capsys, tmp_path):
    csv, gp = tmp_path / "cut.csv", tmp_path / "cut.gp"
    assert run_case([*CASES["compare"], "--out", str(csv), "--gnuplot", str(gp)], capsys) == ""
    assert_matches_golden(csv.read_text(encoding="utf-8"), "compare")
    stub = gp.read_text(encoding="utf-8").replace(str(csv), "OUT")
    assert stub == (DATA / "gnuplot_stub.gp").read_text(encoding="utf-8")


def test_config_axis2_leaves_sweep_one_dimensional(capsys, tmp_path):
    # --config sets its keys as defaults on every subcommand, axis2 included
    cfg = tmp_path / "run.cfg"
    cfg.write_text("axis2 = delta_a:-60:60:9\n")
    assert_matches_golden(run_case([*SWEEP, "--config", str(cfg)], capsys), "sweep")


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout
    from io import StringIO

    for name, argv in CASES.items():
        buf = StringIO()
        with redirect_stdout(buf):
            if main(argv) != 0:
                sys.exit(f"{name}: nonzero exit")
        (DATA / f"{name}.csv").write_text(buf.getvalue(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        csv, gp = Path(tmp, "cut.csv"), Path(tmp, "cut.gp")
        if main([*CASES["compare"], "--out", str(csv), "--gnuplot", str(gp)]) != 0:
            sys.exit("gnuplot stub: nonzero exit")
        stub = gp.read_text(encoding="utf-8").replace(str(csv), "OUT")
        (DATA / "gnuplot_stub.gp").write_text(stub, encoding="utf-8")
