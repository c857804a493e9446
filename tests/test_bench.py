"""The benchmark's traced runs on a copy of the sources.

``bench/run.py --trace 1`` wraps every layer's public functions and checks
that the workload reaches the ones it requires, that untouched layers stay
untouched and that the traced and untraced outputs agree. Exit 0 means
every such self-check passed. ``replay`` must reach ``dynamics.simulate``,
``dynamics.step``, ``dynamics.mass_matrix``, ``dynamics.gravity_torque``
and ``control.pd_torque``, among others; ``shape`` must reach
``shaping.evaluate``, ``shaping.map_action``, ``sysid.cmaes_minimize`` and
``dynamics.advance`` without touching ``control``; ``stats`` must reach
``stats.barnard_exact`` and ``stats.mannwhitney_u`` without any rollout
layer.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["replay", "shape", "stats"])
def test_traced_run_passes_every_self_check(tmp_path, workload):
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "CHECK FAILED" not in proc.stdout
