"""Environment shaping: adapt the action mapping to each gain regime.

A fixed scripted feedback policy (u = goal - q) drives the 1-DOF plant
through the mapping x_des = alpha*u + gamma*beta*x + gamma*(1-beta)*x_des_prev.
The constrained two-stage objective ranks feasible candidates above any
limit-violating ones; the search finds a working (alpha, beta, gamma) in
every corner regime, with alpha spanning orders of magnitude across gains.
"""

from gainlab import dynamics, shaping
from gainlab.control import GainConfig, default_grid

plant = dynamics.point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4)

print("reward utilities at work:")
print(f"  sharp at goal: {shaping.reward_sharp([0.0], [0.0], 0.1):.3f}")
print(f"  sharp 1 lambda out: {shaping.reward_sharp([1.0], [0.0], 1.0):.3f}")
print(f"  soft with action churn: "
      f"{shaping.reward_soft([0.0], [0.0], 1.0, [0.7], 1.0):.3f}")

print("\nconstrained objective (torque-rate allowance 0.2):")
print(f"  feasible 80% success: "
      f"{shaping.constrained_objective(0.8, {}):.2f}")
print(f"  infeasible (30% over on velocity): "
      f"{shaping.constrained_objective(1.0, {'velocity': 0.3}):.2f}")

print(f"\n{'regime':>7} {'kp':>6} {'kd':>4} {'alpha':>9} {'beta':>5} "
      f"{'gamma':>6} {'J':>6} {'goal rate':>10}")
for name, (kp, kd) in default_grid().corners().items():
    problem = shaping.ToyShapingProblem(plant, GainConfig(kp=kp, kd=kd),
                                        episodes=6, seed=42)
    result = shaping.shape_search(problem, budget=160, seed=7)  # alpha in [1e-3, 30]
    rate = problem.goal_rate(result.best, n_episodes=100)
    best = result.best
    print(f"{name:>7} {kp:6g} {kd:4g} {best.alpha:9.4f} {best.beta:5d} "
          f"{best.gamma:6d} {result.objective:6.3f} {rate:10.2f}")

print("\nwhy re-tuning matters: one fixed state-relative mapping "
      "(alpha=1, beta=1, gamma=1) across the corners:")
fixed = shaping.ActionMapping(alpha=1.0, beta=1, gamma=1)
for name, (kp, kd) in default_grid().corners().items():
    problem = shaping.ToyShapingProblem(plant, GainConfig(kp=kp, kd=kd),
                                        episodes=6, seed=42)
    j, success, rates = problem.evaluate(fixed)
    worst = max(rates.values())
    print(f"  {name}: J={j:5.3f} success={success:.2f} "
          f"worst violation rate={worst:.3f}"
          + ("  (feasible)" if j >= 1.0 else "  (infeasible)"))

print("\nthe same scripted policy succeeds in every regime once the mapping "
      "is re-tuned per gain setting; the fixed mapping fully solves only "
      "one corner -- it breaks the torque budget under stiff gains and is "
      "too sluggish for the heavily damped one.")
