"""Every demo script runs to the end: exit 0 and no traceback on stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # without matplotlib the demos write CSVs into their working directory
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
