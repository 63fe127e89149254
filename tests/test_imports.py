"""Which SciPy modules a CLI run loads, checked in child processes.

Only a cell with a finite generator that the band solver refuses needs SciPy,
for SuperLU.  An import of the CLI, numeric runs whose cells the band solves,
a numeric point whose generator overflows (refused before any solve), a
weak-drive sweep, an ``optimum`` root search and a usage error load none of it.
"""

import subprocess
import sys

import pytest

from test_cli import child_env

# runs the CLI on the given argv, then prints its exit code and the loaded scipy modules
REPORT = ("import sys; from qdblockade.cli import main; code = main(); "
          "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")


def loaded_scipy(argv):
    proc = subprocess.run([sys.executable, "-c", REPORT, *argv], capture_output=True,
                          text=True, timeout=120, env=child_env())
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def test_importing_the_cli_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qdblockade.cli; "
         "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("argv, exit_code", [
    (["sweep", "--axis", "delta:-60:60:481", "--delta-a", "20", "--g", "20", "--E", "0.1",
      "--U", "0.0005", "--engines", "analytic"], 0),
    (["point", "--delta", "nan"], 1),
    (["optimum", "--delta", "30", "--g", "20", "--E", "0.1", "--U", "0.0005",
      "--axis", "delta_a:0:60:241"], 0),
])
def test_weak_drive_runs_and_usage_errors_load_no_scipy(argv, exit_code):
    code, modules = loaded_scipy(argv)
    assert code == exit_code
    assert modules == set()


@pytest.mark.parametrize("argv, exit_code", [
    (["point", "--E", "0.1", "--cutoff", "4", "--engines", "numeric"], 0),
    (["sweep2d", "--g", "20", "--E", "0.1", "--U", "0.0005", "--engines", "numeric,analytic",
      "--axis", "delta:-60:60:5", "--axis2", "delta_a:-60:60:5"], 0),
    (["compare", "--delta", "30", "--g", "20", "--E", "0.1", "--U", "0.0005", "--cutoff", "6",
      "--axis", "delta_a:4:40:13"], 0),
    (["sweep", "--delta", "0", "--g", "20", "--E", "1", "--U", "0.02", "--engines", "numeric",
      "--cutoff", "4", "--converge-tol", "1e-6", "--axis", "delta_a:-2:1.5:4"], 0),
    # the generator overflows: refused before any solve, so SuperLU is not needed
    (["point", "--E", "1e308", "--cutoff", "4", "--engines", "numeric"], 3),
], ids=["point", "sweep2d", "compare", "ladder", "overflow"])
def test_numeric_runs_load_no_scipy(argv, exit_code):
    code, modules = loaded_scipy(argv)
    assert code == exit_code
    assert modules == set()


def test_rescued_cell_loads_the_sparse_solver():
    # the band misses the residual bound at this drive, and SuperLU meets it
    code, modules = loaded_scipy(["point", "--E", "1e7", "--cutoff", "4",
                                  "--engines", "numeric"])
    assert code == 0
    assert "scipy.sparse.linalg" in modules


@pytest.mark.parametrize("threads, printed", [(None, "1"), ("2", "2")])
def test_cli_gives_scipys_blas_one_thread_unless_told(threads, printed):
    # main sets the variables before a rescued cell loads SciPy's BLAS, so
    # SuperLU reads the environment main leaves behind; NumPy's BLAS loaded
    # before main ran
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = ("import os; from qdblockade.cli import main; code = main(); "
            "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", code, "point", "--E", "0.1", "--cutoff", "4",
                           "--engines", "numeric"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.stdout.splitlines()[-1].split() == ["0", printed]
