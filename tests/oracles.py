"""Independent brute-force oracles shared by the unit and acceptance suites."""

import math
from dataclasses import dataclass, replace

import numpy as np

from gainlab import dynamics, noise, shaping, stats, sysid
from gainlab.control import pd_torque
from gainlab.dynamics import (GRAVITY, STICTION_VEL_EPS, TWO_LINK, NonPositiveInertiaError,
                              PlantParams, SimulationDivergedError, Trajectory, _as_vector,
                              coriolis_torque, gravity_torque, mass_matrix)


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


def three_call_log_binom_coef(n):
    """log C(n, k) for k = 0..n, three ``math.lgamma`` calls per k."""
    return np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     for k in range(n + 1)])


def full_table_barnard(a, b, c, d, side="greater"):
    """Barnard p from full-width tables: the statistic and region mask on
    all (n1 + 1, n2 + 1) cells, and both pmf tables at every count for
    the whole nuisance grid at once. Each element goes through the same
    ufunc sequence as in ``stats.barnard_exact``, so the p-values must be
    bitwise equal.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("counts must be non-negative")
    n1, n2 = a + b, c + d
    if n1 == 0 or n2 == 0:
        raise ValueError("both group margins must be positive")
    if side not in ("greater", "less"):
        raise ValueError("side must be 'greater' or 'less'")
    y1 = np.arange(n1 + 1)[:, None]
    y2 = np.arange(n2 + 1)[None, :]
    T = stats._score_statistic(y1, n1, y2, n2)
    t_obs = float(stats._score_statistic(np.array(a, dtype=float), n1,
                                         np.array(c, dtype=float), n2))
    tol = 1e-12 * max(1.0, abs(t_obs))
    mask = (T >= t_obs - tol) if side == "greater" else (T <= t_obs + tol)
    del T

    ks1 = np.arange(n1 + 1)
    ks2 = np.arange(n2 + 1)
    if side == "less":
        mask = mask[:, ::-1]
        ks2 = ks2[::-1]
    logc1 = three_call_log_binom_coef(n1)
    logc2 = three_call_log_binom_coef(n2)[ks2]
    edges = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    rows, start = np.nonzero(edges > 0)
    stop = np.nonzero(edges < 0)[1]
    inner = np.nonzero(start > 0)[0]

    def tail(pis):
        cum2 = stats._binom_pmf_table(n2, ks2, logc2, pis)
        np.cumsum(cum2, axis=1, out=cum2)
        seg = cum2[:, stop - 1]
        seg[:, inner] -= cum2[:, start[inner] - 1]
        del cum2  # free it before the group-1 table is built: peak memory
        b1 = stats._binom_pmf_table(n1, ks1, logc1, pis)
        return np.einsum("pr,pr->p", b1[:, rows], seg)

    def tail_at(pi):
        return float(tail(np.array([pi]))[0])

    grid = np.linspace(0.0, 1.0, stats.BARNARD_GRID + 2)[1:-1]
    tails = tail(grid)
    k = int(np.argmax(tails))
    p_best = float(tails[k])

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


def loop_rankdata(values):
    """Fractional (midrank) 1-based ranks by a walk over the sorted values."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_mannwhitney_u(x, y, side="less"):
    """stats.mannwhitney_u with its ranks from :func:`loop_rankdata`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    pooled = np.concatenate([x, y])
    ranks = loop_rankdata(pooled)
    u_x = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)
    _, t_counts = np.unique(pooled, return_counts=True)
    if n1 * n2 <= 400 and t_counts.size == pooled.size:
        counts = stats._mwu_exact_counts(n1, n2)
        u_int = int(round(u_x))
        tail = counts[:u_int + 1] if side == "less" else counts[u_int:]
        return u_x, float(min(1.0, tail.sum() / counts.sum()))
    nt = n1 + n2
    tie_term = float(np.sum(t_counts**3 - t_counts)) / (nt * (nt - 1.0))
    var = n1 * n2 / 12.0 * ((nt + 1.0) - tie_term)
    if var <= 0:
        return u_x, 1.0
    if side == "less":
        p = 1.0 - stats._norm_sf((u_x - n1 * n2 / 2.0 + 0.5) / math.sqrt(var))
    else:
        p = stats._norm_sf((u_x - n1 * n2 / 2.0 - 0.5) / math.sqrt(var))
    return u_x, float(min(1.0, max(0.0, p)))


def per_episode_evaluate(problem, mapping, episodes=None):
    """ToyShapingProblem.evaluate rolled out one episode at a time.

    The unbatched loop: 1-D state vectors, a fresh decoupled stepper, one
    one-lane map_action call per control step, and the per-episode rates
    summed in episode order. Returns (J, success rate, violation rates).
    """
    episodes = episodes if episodes is not None else problem.episodes
    plant, gains = problem.plant, problem.gains
    advance = dynamics.decoupled_stepper(plant)
    spc = int(round(problem.physics_rate / problem.control_rate))
    dt = 1.0 / problem.physics_rate
    n_steps = int(round(problem.horizon * problem.physics_rate))
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
                x_des = shaping.map_action(mapping.alpha, mapping.beta, mapping.gamma,
                                           goal - q, q, x_des)
            tau_req = gains.kp * (x_des - q) - gains.kd * qd
            if gains.gravity_comp:
                tau_req = tau_req + dynamics.gravity_torque(plant, q)
            counts["torque"] += np.any(np.abs(tau_req) > plant.torque_limit)
            counts["torque_rate"] += np.any(
                np.abs(tau_req - prev_tau) > dt * plant.torque_rate_limit)
            prev_tau = tau_req
            tau = np.clip(tau_req, -plant.torque_limit, plant.torque_limit)
            q, qd = advance(q, qd, tau, dt)
            counts["position"] += np.any(np.abs(q) > problem.pos_limit)
            counts["velocity"] += np.any(np.abs(qd) > problem.vel_limit)
        d = q - goal
        succ += bool(np.all(np.abs(d) <= problem.tol) and np.linalg.norm(d) <= problem.tol)
        for k in shaping.CONSTRAINTS:
            rates[k] += (float(counts[k]) / n_steps) / len(episodes)
    success_rate = succ / len(episodes)
    j = shaping.constrained_objective(success_rate, rates)
    return j, success_rate, rates


def simulate_replay(retargeted, decimation, plant, command_noise=None):
    """retarget.replay's rollout as closures around :func:`state_simulate`.

    Every plant steps through :func:`state_step`; returns the trajectory
    and the final State.
    """
    gains = retargeted.gains
    commands = retargeted.q_des[::decimation]
    if command_noise is not None:
        commands = commands + command_noise
    dt = 1.0 / retargeted.base_rate
    n_steps = retargeted.n_commands - 1
    state0 = State(q=retargeted.q0, q_dot=retargeted.q_dot0, t=0.0)

    def q_des_fn(state, k):
        return commands[min(k // decimation, len(commands) - 1)]

    def torque_fn(state, k):
        grav = dynamics.gravity_torque(plant, state.q)
        tau = pd_torque(gains, state.q, state.q_dot, q_des_fn(state, k), gravity_term=grav)
        return np.clip(tau, -plant.torque_limit, plant.torque_limit)

    return state_simulate(plant, state0, torque_fn, dt, n_steps, q_des_fn=q_des_fn)


def loop_excite(plant, gains, q0=None):
    """sysid.excite as two loops: :func:`state_simulate`-and-decimate for
    the two-link arm, a hand-written decoupled-stepper loop for the
    diagonal plants. The reference: 0.1 rad, 4 s, commanded and logged at
    50 Hz over 100 Hz physics."""
    amplitude, duration, log_rate, physics_rate = 0.1, 4.0, 50.0, 100.0
    spc = int(round(physics_rate / log_rate))
    n_cmd = int(round(duration * log_rate))
    n = plant.n_joints
    start = State(q=np.zeros(n) if q0 is None else _as_vector(q0, n), q_dot=np.zeros(n))

    def ref(t):
        return start.q + amplitude * math.sin(math.pi * t)

    dt = 1.0 / physics_rate
    g = gains.expand(plant.n_joints)

    if plant.kind == dynamics.TWO_LINK:
        def q_des_fn(state, k):
            return ref((k // spc) / log_rate)

        def torque_fn(state, k):
            grav = dynamics.gravity_torque(plant, state.q)
            tau = pd_torque(g, state.q, state.q_dot, q_des_fn(state, k), gravity_term=grav)
            return np.clip(tau, -plant.torque_limit, plant.torque_limit)

        traj, _ = state_simulate(plant, start, torque_fn, dt, n_cmd * spc,
                                 q_des_fn=q_des_fn)
        sl = slice(None, None, spc)
        return Trajectory(sample_rate=log_rate, t=traj.t[sl][:n_cmd],
                          q=traj.q[sl][:n_cmd], q_dot=traj.q_dot[sl][:n_cmd],
                          q_des=traj.q_des[sl][:n_cmd], tau=traj.tau[sl][:n_cmd])

    advance = dynamics.decoupled_stepper(plant)
    grav = plant.mass * dynamics.GRAVITY if plant.gravity_enabled \
        else np.zeros(plant.n_joints)
    comp = grav if g.gravity_comp else None
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


def two_link_terms(plant, q, q_dot):
    """M(q) with armature, C(q, q_dot) q_dot and g(q) of one 2R arm state,
    from scalar closed forms on math.cos/math.sin (g is zero without
    gravity)."""
    m1, m2 = plant.link_masses
    l1, l2 = plant.link_lengths
    c2 = math.cos(q[1])
    m11 = (m1 + m2) * l1**2 + m2 * l2**2 + 2.0 * m2 * l1 * l2 * c2
    m12 = m2 * l2**2 + m2 * l1 * l2 * c2
    M = np.array([[m11, m12], [m12, m2 * l2**2]]) + np.diag(plant.armature)
    h = -m2 * l1 * l2 * math.sin(q[1])
    qd1, qd2 = q_dot
    cor = np.array([h * qd2 * qd1 + h * (qd1 + qd2) * qd2, -h * qd1 * qd1])
    grav = np.zeros(2)
    if plant.gravity_enabled:
        c1, c12 = math.cos(q[0]), math.cos(q[0] + q[1])
        grav = np.array([(m1 + m2) * GRAVITY * l1 * c1 + m2 * GRAVITY * l2 * c12,
                         m2 * GRAVITY * l2 * c12])
    return M, cor, grav


def two_link_step(plant, q, q_dot, tau, dt):
    """One semi-implicit step of the 2R arm for one state: a 2x2 solve with
    the scalar closed forms, then the clamped dry-friction impulse."""
    M, cor, grav = two_link_terms(plant, q, q_dot)
    m_eff = np.diag(M)
    smooth = tau - cor - grav - plant.viscous_friction * q_dot
    v_cand = q_dot + dt * np.linalg.solve(M, smooth)
    dry = np.where(np.abs(q_dot) > STICTION_VEL_EPS,
                   plant.dynamic_friction_ratio * plant.static_friction,
                   plant.static_friction)
    dv = np.minimum(np.abs(v_cand), dt * dry / m_eff)
    qd_new = v_cand - np.sign(v_cand) * dv
    return q + dt * qd_new, qd_new



# The two-link closed forms with every plant constant rebuilt on each call,
# and the quintic reference on numpy for every t: the forms the per-plant
# coefficients of dynamics.PlantParams and retarget.quintic_reference's
# float path must reproduce bitwise.


def inline_mass_matrix(plant, q):
    """M(q) of a two-link plant, including armature; (B, 2, 2) for lanes."""
    arm = plant.armature
    m1, m2 = plant.link_masses
    l1, l2 = plant.link_lengths
    c2 = np.cos(q[..., 1])
    M = np.empty(np.broadcast_shapes(np.shape(c2), arm.shape[:-1]) + (2, 2))
    M[..., 0, 0] = (m1 + m2) * l1**2 + m2 * l2**2 + 2.0 * m2 * l1 * l2 * c2 \
        + arm[..., 0]
    M[..., 0, 1] = M[..., 1, 0] = m2 * l2**2 + m2 * l1 * l2 * c2
    M[..., 1, 1] = m2 * l2**2 + arm[..., 1]
    return M


def inline_coriolis_torque(plant, q, q_dot):
    """C(q, q_dot) q_dot of a two-link plant."""
    m2 = plant.link_masses[1]
    l1, l2 = plant.link_lengths
    h = -m2 * l1 * l2 * np.sin(q[..., 1])
    qd1, qd2 = q_dot[..., 0], q_dot[..., 1]
    out = np.empty(np.shape(q_dot))
    out[..., 0] = h * qd2 * qd1 + h * (qd1 + qd2) * qd2
    out[..., 1] = -h * qd1 * qd1
    return out


def inline_gravity_torque(plant, q):
    """g(q) of a two-link plant; zero when gravity is disabled."""
    if not plant.gravity_enabled:
        return np.zeros(plant.n_joints)
    m1, m2 = plant.link_masses
    l1, l2 = plant.link_lengths
    c1 = np.cos(q[..., 0])
    c12 = np.cos(q[..., 0] + q[..., 1])
    out = np.empty(np.shape(q))
    out[..., 0] = (m1 + m2) * GRAVITY * l1 * c1 + m2 * GRAVITY * l2 * c12
    out[..., 1] = m2 * GRAVITY * l2 * c12
    return out


def inline_two_link_advance(plant, q, q_dot, tau, dt):
    """One two-link step on the inline terms, g(q) subtracted even when it
    is zero."""
    M = inline_mass_matrix(plant, q)
    m_eff = np.diagonal(M, axis1=-2, axis2=-1)
    smooth = tau - inline_coriolis_torque(plant, q, q_dot) - inline_gravity_torque(plant, q) \
        - plant.viscous_friction * q_dot
    v_cand = q_dot + dt * np.linalg.solve(M, smooth[..., None])[..., 0]
    dry = np.where(np.abs(q_dot) > STICTION_VEL_EPS, plant._dry_moving, plant.static_friction)
    dv = np.minimum(np.abs(v_cand), dt * dry / m_eff)
    qd_new = v_cand - np.sign(v_cand) * dv
    return q + dt * qd_new, qd_new


def clip_quintic_reference(q0, qf, duration: float):
    """Minimum-jerk quintic from q0 to qf with zero boundary vel/acc.

    Returns pos(t), vel(t), acc(t) callables, clamped beyond [0, duration].
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    qf = _as_vector(qf, q0.size)
    dq = qf - q0
    T = float(duration)

    def _s(t):
        s = np.clip(t / T, 0.0, 1.0)
        return s

    def pos(t):
        s = _s(t)
        return q0 + dq * (10 * s**3 - 15 * s**4 + 6 * s**5)

    def vel(t):
        s = _s(t)
        inside = (t > 0.0) & (t < T) if np.ndim(t) else (0.0 < t < T)
        return dq * (30 * s**2 - 60 * s**3 + 30 * s**4) / T * inside

    def acc(t):
        s = _s(t)
        inside = (t > 0.0) & (t < T) if np.ndim(t) else (0.0 < t < T)
        return dq * (60 * s - 180 * s**2 + 120 * s**3) / T**2 * inside

    return pos, vel, acc


def per_trial_noisy_replay(retargeted, plant, sigma, seed, n_trials, decimation=1):
    """noise.noisy_openloop_replay as one simulate_replay per trial.

    The clean replay first, then trial i with noise from
    ``noise.trial_rng(seed, i)``; a diverging trial raises its own
    SimulationDivergedError. Returns (goal_rate, rms_deviation,
    per_trial_rms, clean_goal_reached).
    """
    goal = retargeted.goal
    clean_traj, clean_final = simulate_replay(retargeted, decimation, plant)
    n_cmd = retargeted.q_des[::decimation].shape[0]
    n_joints = retargeted.q_des.shape[1]
    rms = np.empty(n_trials)
    reached = 0
    for trial in range(n_trials):
        rng = noise.trial_rng(seed, trial)
        pert = rng.normal(0.0, sigma, size=(n_cmd, n_joints))
        traj, final = simulate_replay(retargeted, decimation, plant, command_noise=pert)
        m = min(traj.n_samples, clean_traj.n_samples)
        rms[trial] = math.sqrt(float(np.mean((traj.q[:m] - clean_traj.q[:m]) ** 2)))
        reached += goal.reached(final.q)
    return (reached / n_trials, float(np.mean(rms)), rms,
            goal.reached(clean_final.q))


def effective_error(gains, eps_pi: float) -> np.ndarray:
    """RMS state deviation sqrt(Kp/(2 Kd)) * eps_pi induced by action RMS error."""
    if eps_pi < 0:
        raise ValueError("eps_pi must be non-negative")
    return np.sqrt(gains.kp / (2.0 * gains.kd)) * eps_pi


def default_dt(wn: float, rate: float | None) -> float:
    """The variance check's default Monte Carlo step as the runner once
    derived it: 0.02/omega_n; with a hold rate, the largest dt <= that
    dividing 1/rate."""
    dt = 0.02 / wn
    if rate is None:
        return dt
    delta = 1.0 / rate
    if abs(round(delta / dt) * dt - delta) <= 1e-9 * delta:  # simulate_perturbation's test
        return dt
    return delta / math.ceil(delta / dt)


# ---------------------------------------------------------------------------
# Reference physics: the continuous-time laws and an RK4 integrator, which
# the library's one semi-implicit stepper is checked against.


def friction_torque(plant: PlantParams, q_dot: np.ndarray, tau_net: np.ndarray) -> np.ndarray:
    """Joint friction torque.

    Moving joints (|q_dot| > STICTION_VEL_EPS) see Coulomb drag at the
    dynamic level -sign(q_dot)*(ratio*static); joints inside the stiction
    band instead oppose the net non-friction torque up to the static
    level (stiction clamp). Viscous drag -viscous*q_dot acts in both
    regimes, keeping the law continuous at the band edge when the dry
    level vanishes.
    """
    q_dot = _as_vector(q_dot, plant.n_joints)
    tau_net = _as_vector(tau_net, plant.n_joints)
    moving = np.abs(q_dot) > STICTION_VEL_EPS
    dyn = plant.dynamic_friction_ratio * plant.static_friction
    tau_f = np.where(
        moving,
        -np.sign(q_dot) * dyn,
        -np.clip(tau_net, -plant.static_friction, plant.static_friction),
    )
    return tau_f - plant.viscous_friction * q_dot


def forward_dynamics(plant: PlantParams, q, q_dot, tau, f_ext=None) -> np.ndarray:
    """Solve M(q) q_dd + C q_dot + g = tau + tau_friction + tau_ext for q_dd."""
    n = plant.n_joints
    q, q_dot, tau = _as_vector(q, n), _as_vector(q_dot, n), _as_vector(tau, n)
    fe = np.zeros(n) if f_ext is None else _as_vector(f_ext, n)
    M = mass_matrix(plant, q)
    if plant.kind == TWO_LINK:
        if np.linalg.eigvalsh(M).min() <= 0:
            raise NonPositiveInertiaError("inertia matrix not positive definite")
    elif np.any(np.diag(M) <= 0):
        raise NonPositiveInertiaError("non-positive effective inertia")
    tau_net = tau + fe - coriolis_torque(plant, q, q_dot) - gravity_torque(plant, q)
    rhs = tau_net + friction_torque(plant, q_dot, tau_net)
    if plant.kind == TWO_LINK:
        return np.linalg.solve(M, rhs)
    return rhs / np.diag(M)


def rk4_step(plant: PlantParams, q, q_dot, tau, dt: float):
    """One classical RK4 step of :func:`forward_dynamics` with the torque
    held constant across the sub-stages (zero-order hold), intended for
    the smooth (dry-friction-free) cases. Returns the new (q, q_dot)."""
    n = plant.n_joints
    q, q_dot, tau = _as_vector(q, n), _as_vector(q_dot, n), _as_vector(tau, n)

    def deriv(q, qd):
        return qd, forward_dynamics(plant, q, qd, tau)

    k1q, k1v = deriv(q, q_dot)
    k2q, k2v = deriv(q + 0.5 * dt * k1q, q_dot + 0.5 * dt * k1v)
    k3q, k3v = deriv(q + 0.5 * dt * k2q, q_dot + 0.5 * dt * k2v)
    k4q, k4v = deriv(q + dt * k3q, q_dot + dt * k3v)
    return (q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q),
            q_dot + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def kinetic_energy(plant: PlantParams, q, q_dot) -> float:
    q_dot = np.asarray(q_dot, dtype=float)
    M = mass_matrix(plant, np.asarray(q, dtype=float))
    return 0.5 * float(q_dot @ M @ q_dot)


def limit_torque(plant: PlantParams, tau, tau_prev, dt: float) -> np.ndarray:
    """Clamp to +-torque_limit, then rate-limit against the previous torque."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = plant.n_joints
    tau = np.clip(_as_vector(tau, n), -plant.torque_limit, plant.torque_limit)
    tau_prev = _as_vector(tau_prev, n)
    max_delta = plant.torque_rate_limit * dt
    return tau_prev + np.clip(tau - tau_prev, -max_delta, max_delta)


# ---------------------------------------------------------------------------
# The State path that dynamics.simulate and dynamics.step ran before a
# state became a pair of arrays: an immutable (q, q_dot, t) record, a
# step that wraps decoupled_stepper, and a loop that logs optional
# q_des_fn targets. Kept as the reference the array loop is checked
# against bit for bit.


@dataclass(frozen=True)
class State:
    """Joint positions/velocities at time t. Immutable."""

    q: np.ndarray
    q_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q))
        object.__setattr__(self, "q_dot", _as_vector(self.q_dot, self.q.size))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.q_dot))):
            raise ValueError("state must be finite")


def state_step(plant: PlantParams, state: State, tau, dt: float) -> State:
    """Advance one physics step with torque held constant over the step:
    decoupled_stepper's ``advance``, wrapped in State."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    tau = _as_vector(tau, plant.n_joints)
    q_new, qd_new = dynamics.decoupled_stepper(plant)(state.q, state.q_dot, tau, dt)
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(qd_new))):
        raise SimulationDivergedError(step_index=int(round(state.t / dt)))
    return State(q=q_new, q_dot=qd_new, t=state.t + dt)


def state_simulate(plant: PlantParams, state0: State, torque_fn, dt: float, n_steps: int,
                   q_des_fn=None):
    """Run a closed-loop simulation and record it at the physics rate.

    ``torque_fn(state, k)`` supplies the applied torque for step k;
    ``q_des_fn(state, k)`` (optional) the logged position target. Returns
    the trajectory of n_steps+1 samples and the final State. A
    floating-point overflow or invalid operation at step k raises
    ``SimulationDivergedError(step_index=k)``.
    """
    n = plant.n_joints
    t = np.empty(n_steps + 1)
    q = np.empty((n_steps + 1, n))
    qd = np.empty((n_steps + 1, n))
    qdes = np.empty((n_steps + 1, n))
    tau = np.empty((n_steps + 1, n))
    s = state0
    last_tau = np.zeros(n)
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n_steps + 1):
                t[k], q[k], qd[k] = s.t, s.q, s.q_dot
                if k == n_steps:
                    qdes[k] = qdes[k - 1] if n_steps else s.q
                    tau[k] = last_tau
                    break
                tk = _as_vector(torque_fn(s, k), n)
                qdes[k] = _as_vector(q_des_fn(s, k), n) if q_des_fn is not None else s.q
                tau[k] = tk
                last_tau = tk
                s = state_step(plant, s, tk, dt)
    except FloatingPointError as exc:
        raise SimulationDivergedError(step_index=k) from exc
    traj = Trajectory(sample_rate=1.0 / dt, t=t, q=q, q_dot=qd, q_des=qdes, tau=tau)
    return traj, s


def state_make_demo(plant: PlantParams, controller, duration: float, base_rate: float,
                    q0=None, reference=None):
    """retarget.make_demo on the State path, with ``controller(q, q_dot,
    t)`` called on each State's fields. Returns the recorded trajectory
    (trailing sample dropped), the final State and the saturation flag."""
    n = plant.n_joints
    state0 = State(q=np.zeros(n) if q0 is None else _as_vector(q0, n), q_dot=np.zeros(n))
    saturated = False

    def torque_fn(state, k):
        nonlocal saturated
        tau = _as_vector(controller(state.q, state.q_dot, state.t), n)
        clipped = np.clip(tau, -plant.torque_limit, plant.torque_limit)
        if np.any(clipped != tau):
            saturated = True
        return clipped

    q_des_fn = None if reference is None else (lambda state, k: reference(state.t))
    traj, final = state_simulate(plant, state0, torque_fn, 1.0 / base_rate,
                                 int(round(duration * base_rate)), q_des_fn=q_des_fn)
    traj = Trajectory(sample_rate=base_rate, t=traj.t[:-1], q=traj.q[:-1],
                      q_dot=traj.q_dot[:-1], q_des=traj.q_des[:-1], tau=traj.tau[:-1])
    return traj, final, saturated


# ---------------------------------------------------------------------------
# Searches one candidate at a time: the loops that the generation-batched
# cmaes_minimize, identify and shape_search must reproduce exactly.


def loop_cmaes_minimize(objective, bounds, config=sysid.CmaesConfig()):
    """sysid.cmaes_minimize with a scalar ``objective(x) -> loss`` called
    once per candidate, in candidate order."""
    n = bounds.dim
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    lam = 4 + int(3 * math.log(n))
    mu = lam // 2
    w = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w = w / w.sum()
    mu_eff = 1.0 / np.sum(w**2)
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

    rng = np.random.default_rng(config.seed)
    mean = np.full(n, 0.5)
    sigma = config.sigma0
    C = np.eye(n)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)

    best_loss = math.inf
    best_x = lo + mean * span
    history = []
    n_evals = 0

    for gen in range(config.max_iter):
        C = (C + C.T) / 2.0
        eigvals, B = np.linalg.eigh(C)
        eigvals = np.maximum(eigvals, 1e-20)
        D = np.sqrt(eigvals)
        z = rng.standard_normal((lam, n))
        y = z @ (B * D).T
        xs = mean + sigma * y
        losses = np.empty(lam)
        for i in range(lam):
            clamped = np.clip(xs[i], 0.0, 1.0)
            dist2 = float(np.sum((xs[i] - clamped) ** 2))
            val = objective(lo + clamped * span)
            n_evals += 1
            val = math.inf if (val is None or math.isnan(val)) else float(val)
            losses[i] = val + config.penalty_weight * dist2
            if val < best_loss:
                best_loss = val
                best_x = lo + clamped * span
        if not np.any(np.isfinite(losses)):
            result = sysid.FitResult(x=best_x, params=dict(zip(bounds.names, best_x)),
                                     loss=best_loss, history=np.array(history),
                                     n_evals=n_evals)
            raise sysid.CmaesAbortedError(result)
        order = np.argsort(losses, kind="stable")
        y_sel = y[order[:mu]]
        y_w = w @ y_sel
        mean = mean + sigma * y_w

        inv_sqrt = (B / D) @ B.T
        p_sigma = (1.0 - c_sigma) * p_sigma \
            + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * (inv_sqrt @ y_w)
        norm_ps = np.linalg.norm(p_sigma)
        h_sigma = norm_ps / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (gen + 1))) \
            < (1.4 + 2.0 / (n + 1.0)) * chi_n
        p_c = (1.0 - c_c) * p_c \
            + h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w
        rank_mu = (y_sel * w[:, None]).T @ y_sel
        C = ((1.0 - c_1 - c_mu) * C
             + c_1 * (np.outer(p_c, p_c) + (1.0 - h_sigma) * c_c * (2.0 - c_c) * C)
             + c_mu * rank_mu)
        sigma = sigma * math.exp(c_sigma / d_sigma * (norm_ps / chi_n - 1.0))
        sigma = min(max(sigma, 1e-20), 1e8)
        history.append(best_loss)

    return sysid.FitResult(x=best_x, params=dict(zip(bounds.names, best_x)),
                           loss=best_loss, history=np.array(history), n_evals=n_evals)


def identification_loss(reference, plant, gains):
    """Sum of spectral MSE on positions and velocities vs the reference;
    +inf if the excitation diverges or its spectra overflow."""
    try:
        sim = sysid.excite(plant, gains, q0=reference.q[0])
    except SimulationDivergedError:
        return math.inf
    return sysid._spectral_loss(reference, sim)


def loop_identify(reference, gains, bounds, config, base_plant):
    """sysid.identify with one excitation per candidate."""
    box = bounds.subset(sysid.FREE_PARAMS)

    def objective(x):
        plant = replace(base_plant, **dict(zip(box.names, x)))
        return identification_loss(reference, plant, gains)

    return loop_cmaes_minimize(objective, box, config)


def per_candidate_objective(problem):
    """A ToyShapingProblem scored one mapping at a time through
    ``problem.evaluate``: ``objective(mapping) -> J``, appending one
    ``problem.details`` row per call (NaN rates when it raises)."""
    def objective(mapping):
        try:
            j, success_rate, rates = problem.evaluate(mapping)
        except Exception:
            problem.details.append({"success": math.nan,
                                    **dict.fromkeys(shaping.CONSTRAINTS, math.nan)})
            raise
        problem.details.append({"success": success_rate, **rates})
        return j

    return objective


def loop_shape_search(objective, budget, seed=0):
    """shaping.shape_search with ``objective(mapping) -> J`` called once per
    candidate, in ledger order, over the alpha range that
    ``shaping.ALPHA_RANGE`` holds at call time; a failure records -inf, and
    a branch whose CMA-ES aborts leaves its budget to the random filler."""
    alpha_low, alpha_high = shaping.ALPHA_RANGE
    ledger = []

    def evaluate(mapping):
        try:
            j = float(objective(mapping))
        except Exception:
            j = -math.inf
        if math.isnan(j):
            j = -math.inf
        ledger.append((mapping, j))
        return j

    def draw(rng):
        lo, hi = math.log(alpha_low), math.log(alpha_high)
        alpha = np.exp(rng.uniform(lo, hi, size=1))[0]
        return shaping.ActionMapping(alpha=alpha, beta=int(rng.integers(2)),
                                     gamma=int(rng.integers(2)))

    branches = [(b, g) for g in (0, 1) for b in (0, 1)]
    per_branch = budget // len(branches)
    extra = budget - per_branch * len(branches)
    box = sysid.SysidBounds(params=(
        ("log10_alpha", math.log10(alpha_low), math.log10(alpha_high)),))
    lam = 4  # 4 + floor(3 ln 1): CMA-ES's population on the 1-D box
    for idx, (beta, gamma) in enumerate(branches):
        n_evals = per_branch + (1 if idx < extra else 0)
        if n_evals < lam:
            continue

        def branch_obj(x, beta=beta, gamma=gamma):
            mapping = shaping.ActionMapping(alpha=(10.0 ** x)[0], beta=beta, gamma=gamma)
            return -evaluate(mapping)

        cfg = sysid.CmaesConfig(sigma0=0.6, max_iter=n_evals // lam, seed=seed + idx,
                                penalty_weight=10.0)
        try:
            loop_cmaes_minimize(branch_obj, box, cfg)
        except sysid.CmaesAbortedError:
            pass
    rng = np.random.default_rng(seed + len(branches))
    while len(ledger) < budget:
        evaluate(draw(rng))

    best_idx, best_j = 0, -math.inf
    for i, (_, j) in enumerate(ledger):
        if j > best_j:
            best_idx, best_j = i, j
    if not math.isfinite(best_j):
        best_j = -math.inf
    return shaping.ShapingResult(best=ledger[best_idx][0], objective=best_j,
                                 ledger=tuple(ledger))


def loop_run_lanes(step, state, n_steps: int):
    """dynamics._run_lanes isolating diverged lanes one at a time: on a
    raise at step k, step k is re-run once per live lane with the other
    lanes parked."""
    lanes = np.arange(len(state[0]))
    dead, errors = np.zeros(lanes.size, dtype=bool), {}
    k = 0
    with np.errstate(over="raise", invalid="raise"):
        while k < n_steps:
            try:
                for k in range(k, n_steps):
                    state = step(k, state)
                break
            except FloatingPointError:
                if dead.any():
                    try:
                        state = step(k, dynamics._park(state, dead))
                        k += 1
                        continue
                    except FloatingPointError:
                        pass
                finite = dynamics._finite_lanes(state)
                for i in lanes[~dead].tolist():
                    try:
                        step(k, dynamics._park(state, lanes != i))
                    except FloatingPointError:
                        dead[i] = True
                        errors[i] = SimulationDivergedError(step_index=k - (not finite[i]))
                if dead.all():
                    break
                state = step(k, dynamics._park(state, dead))
                k += 1
    for i in lanes[~dynamics._finite_lanes(state)].tolist():
        errors.setdefault(i, SimulationDivergedError(step_index=n_steps - 1))
    return state, errors
