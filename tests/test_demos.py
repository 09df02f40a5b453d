import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_simulate_and_estimate.py", "03_demodulate_phase.py"])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    # the last line is the phase RMSE the README quotes (~0.09 rad)
    assert float(proc.stdout.splitlines()[-1]) < 0.1
