"""Independent brute-force oracles shared by the unit and acceptance suites."""

import math

import numpy as np

from gainlab import dynamics, shaping, stats
from gainlab.control import pd_torque
from gainlab.dynamics import State, Trajectory


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


def dense_barnard(a, b, c, d, side="greater", n_grid=2001):
    """Barnard p with the rejection region summed as a dense 0/1 matrix.

    The same score statistic, tie tolerance, nuisance grid and
    golden-section refinement as ``stats.barnard_exact``, but every tail
    is the full b1 @ mask @ b2 product, O(n1*n2) per nuisance value, with
    log-binomial coefficients recomputed for every pmf table.
    """
    def pmf_table(n, pis):
        ks = np.arange(n + 1)
        logc = np.array([math.lgamma(n + 1) - math.lgamma(k + 1)
                         - math.lgamma(n - k + 1) for k in ks])
        with np.errstate(divide="ignore"):
            logp = np.log(pis)[:, None] * ks[None, :] \
                + np.log1p(-pis)[:, None] * (n - ks)[None, :]
        return np.exp(logc[None, :] + logp)

    n1, n2 = a + b, c + d
    y1 = np.arange(n1 + 1)[:, None]
    y2 = np.arange(n2 + 1)[None, :]
    T = stats._score_statistic(y1, n1, y2, n2)
    t_obs = float(stats._score_statistic(np.array(a, dtype=float), n1,
                                         np.array(c, dtype=float), n2))
    tol = 1e-12 * max(1.0, abs(t_obs))
    mask = (T >= t_obs - tol) if side == "greater" else (T <= t_obs + tol)
    mask = mask.astype(float)

    grid = np.linspace(0.0, 1.0, n_grid + 2)[1:-1]
    tail = np.einsum("pi,ij,pj->p", pmf_table(n1, grid), mask, pmf_table(n2, grid))
    k = int(np.argmax(tail))
    p_best = float(tail[k])

    def tail_at(pi):
        row1 = pmf_table(n1, np.array([pi]))[0]
        row2 = pmf_table(n2, np.array([pi]))[0]
        return float(row1 @ mask @ row2)

    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k + 1] if k < len(grid) - 1 else 1.0
    x1 = hi - stats.GOLDEN * (hi - lo)
    x2 = lo + stats.GOLDEN * (hi - lo)
    f1, f2 = tail_at(x1), tail_at(x2)
    for _ in range(60):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + stats.GOLDEN * (hi - lo)
            f2 = tail_at(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - stats.GOLDEN * (hi - lo)
            f1 = tail_at(x1)
    p_best = max(p_best, f1, f2)
    return float(min(1.0, p_best))


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


def simulate_replay(retargeted, decimation, plant, command_noise=None):
    """retarget.replay's rollout as closures around dynamics.simulate.

    Every plant steps through the generic ``dynamics.step``; returns the
    (trajectory, final state) pair of ``control.track``.
    """
    gains = retargeted.gains
    commands = retargeted.q_des[::decimation]
    if command_noise is not None:
        commands = commands + command_noise
    base_per_command = int(round(retargeted.base_rate / retargeted.command_rate))
    hold = decimation * base_per_command
    dt = 1.0 / retargeted.base_rate
    n_steps = retargeted.n_commands * base_per_command - 1
    state0 = State(q=retargeted.q0, q_dot=retargeted.q_dot0, t=0.0)

    def q_des_fn(state, k):
        return commands[min(k // hold, len(commands) - 1)]

    def torque_fn(state, k):
        grav = dynamics.gravity_torque(plant, state.q)
        tau = pd_torque(gains, state, q_des_fn(state, k), gravity_term=grav)
        return np.clip(tau, -plant.torque_limit, plant.torque_limit)

    return dynamics.simulate(plant, state0, torque_fn, dt, n_steps, q_des_fn=q_des_fn)


def loop_excite(plant, gains, amplitude=0.1, duration=4.0, log_rate=50.0,
                physics_rate=100.0, q0=None):
    """sysid.excite as two loops: simulate-and-decimate for the two-link
    arm, a hand-written decoupled-stepper loop for the diagonal plants."""
    spc = int(round(physics_rate / log_rate))
    n_cmd = int(round(duration * log_rate))
    start = dynamics.rest_state(plant, q=q0)

    def ref(t):
        return start.q + amplitude * math.sin(math.pi * t)

    dt = 1.0 / physics_rate
    g = gains.expand(plant.n_joints)

    if plant.kind == dynamics.TWO_LINK:
        def q_des_fn(state, k):
            return ref((k // spc) / log_rate)

        def torque_fn(state, k):
            grav = dynamics.gravity_torque(plant, state.q)
            tau = pd_torque(g, state, q_des_fn(state, k), gravity_term=grav)
            return np.clip(tau, -plant.torque_limit, plant.torque_limit)

        traj, _ = dynamics.simulate(plant, start, torque_fn, dt, n_cmd * spc,
                                    q_des_fn=q_des_fn)
        sl = slice(None, None, spc)
        return Trajectory(sample_rate=log_rate, t=traj.t[sl][:n_cmd],
                          q=traj.q[sl][:n_cmd], q_dot=traj.q_dot[sl][:n_cmd],
                          q_des=traj.q_des[sl][:n_cmd], tau=traj.tau[sl][:n_cmd])

    advance = dynamics.decoupled_stepper(plant)
    grav = plant.mass * dynamics.GRAVITY if plant.gravity_enabled \
        else np.zeros(plant.n_joints)
    comp = g.gravity_comp_scale * grav if g.gravity_comp else None
    q, qd = start.q.copy(), start.q_dot.copy()
    rec = {name: np.empty((n_cmd, plant.n_joints))
           for name in ("q", "q_dot", "q_des", "tau")}
    cmd = q.copy()
    for k in range(n_cmd * spc):
        if k % spc == 0:
            cmd = ref((k // spc) / log_rate)
        tau = g.kp * (cmd - q) + g.kd * (np.zeros(1) - qd)
        if comp is not None:
            tau = tau + comp
        tau = np.clip(tau, -plant.torque_limit, plant.torque_limit)
        if k % spc == 0:
            c = k // spc
            rec["q"][c] = q
            rec["q_dot"][c] = qd
            rec["q_des"][c] = cmd
            rec["tau"][c] = tau
        q, qd = advance(q, qd, tau, dt)
    t = np.arange(n_cmd) / log_rate
    return Trajectory(sample_rate=log_rate, t=t, **rec)
