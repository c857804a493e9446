"""Smoke test: the quick demos run to completion without errors or warnings.

Demos 04 (system identification) and 05 (shaping search) take tens of
seconds each and are left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_plants_and_regimes.py", "02_retargeting_fidelity.py",
         "03_error_attenuation.py", "06_stats_pipeline.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
