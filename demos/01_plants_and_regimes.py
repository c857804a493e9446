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
traj = dynamics.simulate(
    plant, [0.0], [0.0],
    lambda q, q_dot, k, t: (control.pd_torque(gains, q, q_dot, q_des=[1.0]), [1.0]),
    dt=1e-3, n_steps=3000)
print(f"step response: q(3s) = {traj.q[-1, 0]:.6f} (target 1.0)")

# --- impedance identity: constant push, read off Kp ----------------------

tau_ext = np.array([2.0])
pushed = dynamics.simulate(
    plant, [0.0], [0.0],
    lambda q, q_dot, k, t: (control.pd_torque(gains, q, q_dot, q_des=[0.0]) + tau_ext,
                            [0.0]),
    dt=1e-3, n_steps=8000)
print(f"impedance: tau_ext / displacement = {tau_ext[0] / pushed.q[-1, 0]:.3f} "
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
                                      policy=lambda q, q_dot: -0.8 * q)
softer = control.effective_stiffness(plant, gains, [1.0], settle_time=20.0,
                                     policy=lambda q, q_dot: 0.5 * q)
print(f"\neffective stiffness: bare PD {bare:.1f}, "
      f"reactive policy up {stiffer:.1f}, down {softer:.1f} "
      f"(joint-level Kp stays {gains.kp[0]:g})")

# --- the 2-link arm under gravity ------------------------------------------

arm = dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                        gravity_enabled=True)
g2 = GainConfig(kp=[200.0, 120.0], kd=[30.0, 20.0], gravity_comp=True)
settled = dynamics.simulate(
    arm, [0.2, -0.1], [0.0, 0.0],
    lambda q, q_dot, k, t: (control.pd_torque(g2, q, q_dot, q_des=[0.6, -0.4],
                                              gravity_term=dynamics.gravity_torque(arm, q)),
                            [0.6, -0.4]),
    dt=1e-3, n_steps=4000).q[-1]
print(f"2-link reach with gravity comp: q = {np.round(settled, 4)} "
      f"(target [0.6, -0.4])")
