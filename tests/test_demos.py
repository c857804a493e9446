"""Smoke test: the quick demos run to completion without errors or warnings.

Demos 04 (system identification) and 05 (shaping search) take tens of
seconds each and are left out. Demo 01, which drives ``dynamics.simulate``
and ``effective_stiffness`` with its own callbacks, must also print the
output pinned below.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_plants_and_regimes.py", "02_retargeting_fidelity.py",
         "03_error_attenuation.py", "06_stats_pipeline.py"]


PINNED_STDOUT = {"01_plants_and_regimes.py": """\
step response: q(3s) = 1.000000 (target 1.0)
impedance: tau_ext / displacement = 64.000 (Kp = 64)

gain grid: 49 cells, stiffness split at Kp = 128
  Kd=   128: CO CO CO SO SO SO SO
  Kd=    64: CO CO CO SO SO SO SO
  Kd=    32: CO CO CO SO SO SU SU
  Kd=    16: CO CO CO SU SU SU SU
  Kd=     8: CO CU CU SU SU SU SU
  Kd=     4: CU CU CU SU SU SU SU
  Kd=     2: CU CU CU SU SU SU SU

effective stiffness: bare PD 64.0, reactive policy up 115.2, down 32.0 (joint-level Kp stays 64)
2-link reach with gravity comp: q = [ 0.6 -0.4] (target [0.6, -0.4])
"""}


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
    if demo in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo]
