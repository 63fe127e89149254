"""Every demo script, and the README's Library example, runs to the end: exit 0
and no traceback on stderr."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def _script(demo, tmp_path):
    if demo.suffix == ".py":
        return demo
    # the README's one python block, so that the documented API cannot drift
    [block] = re.findall(r"^```python\n(.*?)^```", demo.read_text(encoding="utf-8"),
                         flags=re.MULTILINE | re.DOTALL)
    script = tmp_path / "readme_example.py"
    script.write_text(block, encoding="utf-8")
    return script


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # without matplotlib the demos write CSVs into their working directory
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(_script(demo, tmp_path))], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
