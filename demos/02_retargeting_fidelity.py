"""Torque-to-position retargeting across gains and decimation rates.

Synthesizes a scripted torque demo on the 2-link arm, retargets it to the
four regime-representative gain settings, and replays with zero-order hold
from 1x (500 Hz) to 50x (10 Hz) decimation, reporting joint-position MSE
and goal reach.
"""

import numpy as np

from gainlab import dynamics, retarget
from gainlab.control import GainConfig

arm = dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4))

q0, qf = np.array([-0.4, 0.6]), np.array([0.5, -0.3])
pos, vel, acc = retarget.quintic_reference(q0, qf, 1.5)
tracker = retarget.computed_torque_tracker(arm, pos, vel, acc)
demo = retarget.make_demo(arm, tracker, duration=2.0, base_rate=500.0,
                          q0=q0, goal=retarget.TaskGoal(qf, 0.05),
                          reference=pos)
print(f"demo: {demo.traj.n_samples} samples at {demo.base_rate:g} Hz, "
      f"tracking err {np.max(np.abs(demo.traj.q - demo.traj.q_des)):.2e} rad")

configs = {"CO": (16.0, 24.0), "SO": (512.0, 24.0),
           "CU": (16.0, 2.0), "SU": (512.0, 2.0)}
decimations = [1, 10, 25, 50]

print(f"\n{'regime':>7} {'kp':>5} {'kd':>4} " +
      " ".join(f"mse@{d}x" .rjust(10) for d in decimations) + "  goal@25x")
for name, (kp, kd) in configs.items():
    rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
    mses = []
    goal25 = None
    for d in decimations:
        _, rep = retarget.replay(rd, d, arm, source=demo)
        mses.append(rep.mse)
        if d == 25:
            goal25 = rep.goal_reached
    print(f"{name:>7} {kp:5g} {kd:4g} " +
          " ".join(f"{m:10.2e}" for m in mses) + f"  {goal25}")

print("\nretargeted commands differ per gain setting, the achieved states "
      "do not (state-matching):")
trajs = {}
for name, (kp, kd) in configs.items():
    rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
    traj, _ = retarget.replay(rd, 1, arm)
    trajs[name] = traj
names = list(configs)
for a, b in zip(names, names[1:]):
    gap = float(np.mean((trajs[a].q - trajs[b].q) ** 2))
    print(f"  state MSE {a} vs {b}: {gap:.2e}")

# task-space variant on recorded per-axis channels
rec = GainConfig(kp=np.full(6, 100.0), kd=np.full(6, 12.0))
rng = np.random.default_rng(0)
x = rng.normal(size=(100, 6)) * 0.1
x_des = x + rng.normal(size=(100, 6)) * 0.02
x_dot = rng.normal(size=(100, 6)) * 0.2
task_demo = retarget.synth_task_demo(x=x, x_des=x_des, x_dot=x_dot, recording_gains=rec)
round_trip = retarget.tpr_task(task_demo, rec)
new_gains = retarget.tpr_task(task_demo, GainConfig(kp=np.full(6, 400.0),
                                                    kd=np.full(6, 30.0)))
print(f"\ntask-space TPR: round-trip error "
      f"{np.max(np.abs(round_trip - x_des)):.2e}, "
      f"max target shift at 4x stiffness "
      f"{np.max(np.abs(new_gains - x_des)):.3f}")
