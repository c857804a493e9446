"""Gain-dependent attenuation of action noise: theory vs Monte Carlo.

Checks the closed-form steady-state variance sigma^2 Kp/(2 Kd) against
seeded simulation (including the mass-cancellation), then replays a
retargeted demo open-loop under held per-command noise to show the
compliant-overdamped corner deviating far less than the stiff-underdamped
one.
"""

import math

from gainlab import dynamics, noise, retarget
from gainlab.control import GainConfig, default_grid
from gainlab.noise import NoiseSpec

print("Monte Carlo vs analytic steady-state variance (sigma = 1):")
print(f"{'kp':>5} {'kd':>4} {'m':>4} {'analytic':>9} {'empirical':>10} {'rel':>7}")
for kp, kd in [(2.0, 1.0), (8.0, 4.0), (32.0, 16.0)]:
    for m in (1.0, 10.0):
        wn = math.sqrt(kp / m)
        zeta = kd / (2.0 * math.sqrt(m * kp))
        est = noise.simulate_perturbation(
            GainConfig(kp=kp, kd=kd), m, NoiseSpec(sigma=1.0, seed=1),
            dt=0.02 / wn, horizon=80.0 * noise.time_constant(wn, zeta),
            n_trials=100)
        rel = abs(est.value - est.analytic) / est.analytic
        print(f"{kp:5g} {kd:4g} {m:4g} {est.analytic:9.4f} "
              f"{est.value:10.4f} {rel:6.1%}")

print("\nattenuation factor sqrt(Kp/(2Kd)) over the grid corners:")
for name, (kp, kd) in default_grid().corners().items():
    pred = noise.predict_variance(GainConfig(kp=kp, kd=kd), 1.0)
    print(f"  {name}: kp={kp:6g} kd={kd:4g} factor={pred.attenuation_factor[0]:8.3f}")

plant = dynamics.point_mass(1.0)
pos, vel, acc = retarget.quintic_reference([0.0], [0.8], 1.5)
ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
demo = retarget.make_demo(plant, ctrl, 2.0, 500.0, reference=pos,
                          goal=retarget.TaskGoal([0.8], 0.05))

print("\nopen-loop replay with held action noise (50 Hz commands, "
      "sigma = 0.05 rad):")
for name, (kp, kd) in default_grid().corners().items():
    rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
    res = noise.noisy_openloop_replay(rd, plant, sigma=0.05, seed=2, n_trials=20,
                                      decimation=10)
    print(f"  {name}: RMS deviation {res.rms_deviation:8.5f} rad, "
          f"goal rate {res.goal_rate:.2f}")
