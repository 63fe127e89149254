"""Shared pytest plumbing: the BLAS thread count and the acceptance-criteria summary block.

SciPy's BLAS gets one thread, as ``cli.main`` gives it in a fresh process.
main sets this only while SciPy is not loaded yet, and test modules load it
at collection, after this file: without it an in-process ``main`` run would
factor with the default thread count and print other residual digits than
the CLI does.  A value set in the environment still wins.

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
