"""Independent brute-force oracles shared by the unit and acceptance suites."""

import math

import numpy as np

from gainlab import dynamics, shaping


def brute_force_barnard(a, b, c, d, side="greater", n_grid=50001):
    """Barnard p by direct pmf sums over a dense uniform nuisance grid.

    Independent of the library path: binomial pmfs via math.comb and
    plain powers, no log-space tricks, no refinement pass.
    """
    n1, n2 = a + b, c + d

    def stat(y1, y2):
        p1, p2 = y1 / n1, y2 / n2
        pp = (y1 + y2) / (n1 + n2)
        var = pp * (1 - pp) * (1 / n1 + 1 / n2)
        if var <= 0:
            return 0.0
        return (p1 - p2) / math.sqrt(var)

    t_obs = stat(a, c)
    tol = 1e-12 * max(1.0, abs(t_obs))
    region = []
    for y1 in range(n1 + 1):
        for y2 in range(n2 + 1):
            t = stat(y1, y2)
            keep = t >= t_obs - tol if side == "greater" else t <= t_obs + tol
            if keep:
                region.append((y1, y2))
    pis = np.linspace(0.0, 1.0, n_grid + 2)[1:-1]
    total = np.zeros_like(pis)
    for y1, y2 in region:
        coeff = math.comb(n1, y1) * math.comb(n2, y2)
        total += coeff * pis ** (y1 + y2) * (1 - pis) ** (n1 - y1 + n2 - y2)
    return float(min(1.0, total.max()))


def normal_approx_mwu_p(x, y, side="less"):
    """Tie-free normal approximation with continuity correction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    pooled = np.concatenate([x, y])
    order = pooled.argsort()
    ranks = np.empty_like(pooled)
    ranks[order] = np.arange(1, pooled.size + 1)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    mean = n1 * n2 / 2.0
    sd = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
    if side == "less":
        z = (u - mean + 0.5) / sd
        return u, 0.5 * math.erfc(-z / math.sqrt(2.0))
    z = (u - mean - 0.5) / sd
    return u, 0.5 * math.erfc(z / math.sqrt(2.0))


def per_episode_evaluate(problem, mapping, episodes=None):
    """ToyShapingProblem.evaluate rolled out one episode at a time.

    The unbatched loop: 1-D state vectors, a fresh decoupled stepper, one
    row-wise map_action call per control step, and the per-episode rates
    summed in episode order. Returns (J, success rate, violation rates).
    """
    episodes = episodes if episodes is not None else problem.episodes
    plant, gains = problem.plant, problem.gains
    advance = dynamics.decoupled_stepper(plant)
    grav = plant.mass * dynamics.GRAVITY if plant.gravity_enabled \
        else np.zeros(plant.n_joints)
    spc = int(round(problem.physics_rate / problem.control_rate))
    dt = 1.0 / problem.physics_rate
    n_steps = int(round(problem.horizon * problem.physics_rate))
    comp = gains.gravity_comp_scale * grav if gains.gravity_comp else None
    succ = 0
    rates = dict.fromkeys(shaping.CONSTRAINTS, 0.0)
    for q0, goal in episodes:
        q = np.asarray(q0, dtype=float).copy()
        qd = np.zeros_like(q)
        x_des = q.copy()
        counts = dict.fromkeys(shaping.CONSTRAINTS, 0)
        prev_tau = np.zeros(plant.n_joints)
        for k in range(n_steps):
            if k % spc == 0:
                x_des = shaping.map_action(mapping, goal - q, q, x_des)
            tau_req = gains.kp * (x_des - q) - gains.kd * qd
            if comp is not None:
                tau_req = tau_req + comp
            counts["torque"] += np.any(np.abs(tau_req) > plant.torque_limit)
            counts["torque_rate"] += np.any(
                np.abs(tau_req - prev_tau) > dt * plant.torque_rate_limit)
            prev_tau = tau_req
            tau = np.clip(tau_req, -plant.torque_limit, plant.torque_limit)
            q, qd = advance(q, qd, tau, dt)
            counts["position"] += np.any(np.abs(q) > problem.pos_limit)
            counts["velocity"] += np.any(np.abs(qd) > problem.vel_limit)
        succ += bool(np.linalg.norm(q - goal) <= problem.tol)
        for k in shaping.CONSTRAINTS:
            rates[k] += (float(counts[k]) / n_steps) / len(episodes)
    success_rate = succ / len(episodes)
    j = shaping.constrained_objective(success_rate, rates, problem.spec)
    return j, success_rate, rates
