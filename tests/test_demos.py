"""Smoke test: the demos run to completion without errors or warnings.

Demo 05 (shaping search) takes 5-10 s and demo 04 (system
identification) 3-5 s. Demos 01-04 drive the recorded closed loop
(``dynamics.simulate``, through ``control.track`` in 02-04) and demo 05
the shaping episode (``shaping.rollout``); each must also print the output
pinned below.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_plants_and_regimes.py", "02_retargeting_fidelity.py",
         "03_error_attenuation.py", "04_system_identification.py",
         "05_shaping_search.py", "06_stats_pipeline.py"]


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
""",
                 "02_retargeting_fidelity.py": """\
demo: 1000 samples at 500 Hz, tracking err 9.18e-05 rad

 regime    kp   kd     mse@1x    mse@10x    mse@25x    mse@50x  goal@25x
     CO    16   24   9.74e-34   3.13e-05   2.22e-04   9.27e-04  True
     SO   512   24   1.35e-33   3.13e-05   2.23e-04   9.42e-04  True
     CU    16    2   1.82e-33   3.13e-05   2.23e-04   9.30e-04  True
     SU   512    2   9.33e-33   3.15e-05   3.84e-04   1.35e-03  True

retargeted commands differ per gain setting, the achieved states do not (state-matching):
  state MSE CO vs SO: 2.21e-33
  state MSE SO vs CU: 2.96e-33
  state MSE CU vs SU: 1.15e-32

task-space TPR: round-trip error 1.39e-17, max target shift at 4x stiffness 0.054
""",
                 "03_error_attenuation.py": """\
Monte Carlo vs analytic steady-state variance (sigma = 1):
   kp   kd    m  analytic  empirical     rel
    2    1    1    1.0000     1.0099   1.0%
    2    1   10    1.0000     1.0006   0.1%
    8    4    1    1.0000     0.9872   1.3%
    8    4   10    1.0000     1.0236   2.4%
   32   16    1    1.0000     1.0208   2.1%
   32   16   10    1.0000     1.0118   1.2%

attenuation factor sqrt(Kp/(2Kd)) over the grid corners:
  CO: kp=    16 kd= 128 factor=   0.250
  SO: kp=  1024 kd= 128 factor=   2.000
  CU: kp=    16 kd=   2 factor=   2.000
  SU: kp=  1024 kd=   2 factor=  16.000

open-loop replay with held action noise (50 Hz commands, sigma = 0.05 rad):
  CO: RMS deviation  0.00064 rad, goal rate 1.00
  SO: RMS deviation  0.01280 rad, goal rate 1.00
  CU: RMS deviation  0.01074 rad, goal rate 1.00
  SU: RMS deviation  0.08959 rad, goal rate 0.35
""",
                 "04_system_identification.py": """\
excitation: 200 samples at 50 Hz, amplitude 0.100 rad

fit after 1600 evaluations: loss 2.04e-24
  armature                 fit  0.22000   truth  0.22000
  static_friction          fit  0.40000   truth  0.40000
  dynamic_friction_ratio   fit  0.60000   truth  0.60000
  viscous_friction         fit  0.35000   truth  0.35000
re-simulated trajectory error: 1.02e-26
policy-output divergence along both trajectories: 6.21e-14

jitter detector on synthetic tails (threshold 0.04 rad/s):
  settled      max tail std 0.0010 rad/s -> flagged: False
  oscillating  max tail std 0.6750 rad/s -> flagged: True
""",
                 "05_shaping_search.py": """\
reward utilities at work:
  sharp at goal: 1.000
  sharp 1 lambda out: 0.238
  soft with action churn: 0.510

constrained objective (torque-rate allowance 0.2):
  feasible 80% success: 1.80
  infeasible (30% over on velocity): 0.70

 regime     kp   kd     alpha  beta  gamma      J  goal rate
     CO     16  128    0.0151     0      1  2.000       1.00
     SO   1024  128    0.0408     0      1  2.000       1.00
     CU     16    2    0.0159     0      1  2.000       1.00
     SU   1024    2    0.0159     0      1  2.000       1.00

why re-tuning matters: one fixed state-relative mapping (alpha=1, beta=1, gamma=1) across the corners:
  CO: J=1.167 success=0.17 worst violation rate=0.000  (feasible)
  SO: J=0.998 success=1.00 worst violation rate=0.003  (infeasible)
  CU: J=2.000 success=1.00 worst violation rate=0.000  (feasible)
  SU: J=0.863 success=1.00 worst violation rate=0.123  (infeasible)

the same scripted policy succeeds in every regime once the mapping is re-tuned per gain setting; the fixed mapping fully solves only one corner -- it breaks the torque budget under stiff gains and is too sluggish for the heavily damped one.
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
