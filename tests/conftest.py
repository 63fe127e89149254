"""Shared pytest plumbing: the BLAS thread count and the acceptance-criteria summary block.

NumPy's and SciPy's BLAS get one thread.  Test modules load NumPy at
collection, after this file, so the band solves in this process run on one
BLAS thread, and so do SuperLU's on the cells the band refuses, as
``cli.main`` gives SciPy's BLAS in a fresh process.  Child processes inherit
the setting.  A value set in the environment still wins.

Acceptance tests register one entry per criterion via record_criterion; the
terminal summary then prints a single PASS/FAIL line for each, so the
reproduction status is readable without digging through tracebacks.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_ENTRIES = []


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    _ENTRIES.append((number, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ENTRIES:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(_ENTRIES):
        flag = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d}: {flag}  {description}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
