"""Which modules a run loads, and in what order, checked in child processes.

Importing the package loads no NumPy, and the CLI's entry point sets BLAS's
thread count before NumPy loads.  A command imports only the engine it runs:
a weak-drive sweep and ``optimum`` never load ``steady_state``, and the
numeric commands never load ``analytic`` or ``numpy.polynomial``.  No run
loads SciPy: an import of the CLI, numeric runs whose cells the band solves,
a numeric point the band refuses and QR rescues, one whose generator
overflows (refused before any solve), a weak-drive sweep, an ``optimum``
root search, a usage error, and ``build_liouvillian`` and a numeric point
where SciPy cannot be imported.
"""

import subprocess
import sys

import pytest

from test_cli import child_env

# runs the CLI on the given argv, then prints its exit code and the modules it
# loaded beyond those that importing NumPy loads
REPORT = ("import sys, numpy; numpy_loads = set(sys.modules); "
          "from qdblockade.cli import main; code = main(); "
          "print(code, *sorted(set(sys.modules) - numpy_loads))")


def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", REPORT, *argv], capture_output=True,
                          text=True, timeout=120, env=child_env())
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def loaded_scipy(argv):
    code, modules = loaded_modules(argv)
    return code, {m for m in modules if m.partition(".")[0] == "scipy"}


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the three variables, and whether numpy is loaded, when numpy is first
# looked up, then runs an entry point on the given argv
WATCH_NUMPY = """import os, sys
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy", "numpy" in sys.modules,
                  *(os.environ.get(v) for v in {variables}), file=sys.stderr)
sys.meta_path.insert(0, Watch())
{entry}
"""
ENTRIES = {
    "module": "import runpy; runpy.run_module('qdblockade', run_name='__main__', alter_sys=True)",
    "script": "from qdblockade.__main__ import run; run()",
}


def test_importing_the_package_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qdblockade; print('numpy' in sys.modules); "
         "print(qdblockade.ModelParams.__module__, 'numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "qdblockade.model", "True"]


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_entry_point_sets_blas_threads_before_numpy_loads(entry, preset):
    # one BLAS thread for each variable left unset; a value set in the environment wins
    env = child_env()
    for name in BLAS_VARIABLES:
        env.pop(name, None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = WATCH_NUMPY.format(variables=BLAS_VARIABLES, entry=entry)
    proc = subprocess.run([sys.executable, "-c", code, "point", "--E", "0.1", "--cutoff", "4",
                           "--engines", "numeric"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("g2_numeric,")
    assert proc.stderr.split() == ["numpy", "False", preset or "1", "1", "1"]


def test_importing_the_cli_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qdblockade.cli; "
         "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_the_package_runs_where_scipy_cannot_be_imported():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; import qdblockade; "
            "from qdblockade import HilbertSpace, ModelParams, build_liouvillian; "
            "from qdblockade.cli import main; "
            "rows, cols, data = build_liouvillian(ModelParams(E=0.1), HilbertSpace(4)); "
            "print(data.size); "
            "sys.exit(main(['point', '--E', '0.1', '--cutoff', '4', '--engines', 'numeric']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    size, header, row = proc.stdout.splitlines()
    assert int(size) > 0
    assert header.startswith("g2_numeric,") and row


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
    # the band misses the residual bound at this drive, and the QR rescue meets it
    (["point", "--E", "1e7", "--cutoff", "4", "--engines", "numeric"], 0),
    # the generator overflows: refused before any solve
    (["point", "--E", "1e308", "--cutoff", "4", "--engines", "numeric"], 3),
], ids=["point", "sweep2d", "compare", "ladder", "rescued", "overflow"])
def test_numeric_runs_load_no_scipy(argv, exit_code):
    code, modules = loaded_scipy(argv)
    assert code == exit_code
    assert modules == set()


WEAK = ["--g", "20", "--E", "0.1", "--U", "0.0005"]


@pytest.mark.parametrize("argv, engine, other", [
    (["sweep2d", *WEAK, "--engines", "analytic", "--axis", "delta:-60:60:5",
      "--axis2", "delta_a:-60:60:5"], "analytic", {"qdblockade.steady_state"}),
    (["optimum", *WEAK, "--delta", "30", "--axis", "delta_a:0:60:241"], "analytic",
     {"qdblockade.steady_state"}),
    (["compare", *WEAK, "--delta", "30", "--cutoff", "4", "--axis", "delta_a:4:40:5"],
     "steady_state", {"qdblockade.analytic", "numpy.polynomial"}),
    (["convergence", *WEAK, "--cutoff", "4"], "steady_state",
     {"qdblockade.analytic", "numpy.polynomial"}),
], ids=["sweep2d", "optimum", "compare", "convergence"])
def test_a_command_imports_only_its_engine(argv, engine, other):
    code, modules = loaded_modules(argv)
    assert code == 0
    assert f"qdblockade.{engine}" in modules
    assert not modules & other
