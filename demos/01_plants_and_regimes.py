"""Tour of the plant zoo and gain-regime machinery.

Simulates the three plants, shows the PD/impedance steady-state identity,
classifies the default gain grid into CO/SO/CU/SU quadrants, and probes
effective stiffness with and without a reactive policy on top.
"""

import numpy as np

from gainlab import control, dynamics
from gainlab.control import GainConfig, classify_regime, default_grid

# --- closed-loop step response on the 1-DOF point mass --------------------

plant = dynamics.point_mass(1.0)
gains = GainConfig(kp=64.0, kd=16.0)
state = dynamics.rest_state(plant)

traj, final = dynamics.simulate(
    plant, state,
    lambda s, k: control.pd_torque(gains, s.q, s.q_dot, q_des=[1.0]),
    dt=1e-3, n_steps=3000)
print(f"step response: q(3s) = {final.q[0]:.6f} (target 1.0)")

# --- impedance identity: constant push, read off Kp ----------------------

tau_ext = np.array([2.0])
_, rest = dynamics.simulate(
    plant, state,
    lambda s, k: control.pd_torque(gains, s.q, s.q_dot, q_des=[0.0]) + tau_ext,
    dt=1e-3, n_steps=8000)
print(f"impedance: tau_ext / displacement = {tau_ext[0] / rest.q[0]:.3f} "
      f"(Kp = {gains.kp[0]:g})")

# --- regime quadrants over the default 7x7 grid ---------------------------

grid = default_grid()
split = grid.stiffness_split
print(f"\ngain grid: {grid.n_cells} cells, stiffness split at Kp = {split:g}")
for kd in grid.kd_values[::-1]:
    row = []
    for kp in grid.kp_values:
        r = classify_regime(GainConfig(kp=kp, kd=kd), m_eff=1.0,
                            stiffness_split=split)
        row.append(r.label)
    print(f"  Kd={kd:6g}: " + " ".join(row))

# --- effective stiffness is policy-dependent ------------------------------

bare = control.effective_stiffness(plant, gains, [1.0], settle_time=8.0)
stiffer = control.effective_stiffness(plant, gains, [1.0], settle_time=8.0,
                                      policy=lambda s: -0.8 * s.q)
softer = control.effective_stiffness(plant, gains, [1.0], settle_time=20.0,
                                     policy=lambda s: 0.5 * s.q)
print(f"\neffective stiffness: bare PD {bare:.1f}, "
      f"reactive policy up {stiffer:.1f}, down {softer:.1f} "
      f"(joint-level Kp stays {gains.kp[0]:g})")

# --- the 2-link arm under gravity ------------------------------------------

arm = dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                        gravity_enabled=True)
g2 = GainConfig(kp=[200.0, 120.0], kd=[30.0, 20.0], gravity_comp=True)
_, settled = dynamics.simulate(
    arm, dynamics.rest_state(arm, q=[0.2, -0.1]),
    lambda s, k: control.pd_torque(g2, s.q, s.q_dot, q_des=[0.6, -0.4],
                                   gravity_term=dynamics.gravity_torque(arm, s.q)),
    dt=1e-3, n_steps=4000)
print(f"2-link reach with gravity comp: q = {np.round(settled.q, 4)} "
      f"(target [0.6, -0.4])")
