"""Action-space mappings, reward utilities, and shaping search.

The action mapping x_des = alpha*u + gamma*beta*x + gamma*(1-beta)*x_des_prev
covers absolute targets (gamma=0) and relative targets integrated on the
current state (beta=1) or the previous target (beta=0). The two-stage
constrained objective ranks every feasible configuration (J in [1,2])
above every infeasible one (J in [0,1)). shape_search tunes (alpha per
joint group, beta, gamma) against a black-box objective such as the
batched goal-reaching ToyShapingProblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import control, dynamics
from .sysid import CmaesConfig, SysidBounds, cmaes_minimize

CONSTRAINTS = ("position", "velocity", "torque", "torque_rate")


@dataclass(frozen=True)
class ActionMapping:
    """Scale/integration switches of the position-target map.

    ``alpha`` holds one scale per joint group; ``beta`` and ``gamma`` are
    binary switches.
    """

    alpha: np.ndarray
    beta: int = 1
    gamma: int = 1

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if np.any(a < 0):
            raise ValueError("alpha must be non-negative")
        if self.beta not in (0, 1) or self.gamma not in (0, 1):
            raise ValueError("beta and gamma must be binary")
        object.__setattr__(self, "alpha", a)


def expand_alpha(mapping: ActionMapping, groups, n: int) -> np.ndarray:
    """Per-joint alpha vector from per-group scales.

    ``groups`` maps each joint index to a group index; None means a
    single shared group.
    """
    if groups is None:
        if mapping.alpha.size == 1:
            return np.full(n, mapping.alpha[0])
        if mapping.alpha.size == n:
            return mapping.alpha
        raise ValueError("groups required for multi-group alpha")
    groups = np.asarray(groups, dtype=int)
    if groups.size != n:
        raise ValueError("groups must assign every joint")
    return mapping.alpha[groups]


def map_action(mapping: ActionMapping, u, x, x_des_prev, groups=None) -> np.ndarray:
    """x_des = alpha*u + gamma*beta*x + gamma*(1-beta)*x_des_prev.

    ``u`` is (n,) or an (..., n) stack of lanes; ``x`` and ``x_des_prev``
    broadcast to it. Elementwise, so each row equals a row-wise call bitwise.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), u.shape)
    x_prev = np.broadcast_to(np.asarray(x_des_prev, dtype=float), u.shape)
    alpha = expand_alpha(mapping, groups, u.shape[-1])
    g, b = mapping.gamma, mapping.beta
    return alpha * u + g * b * x + g * (1 - b) * x_prev


def reward_sharp(q, g, lam: float) -> float:
    """Sharp distance reward 1 - tanh(||q - g||^2 / lambda), in (0, 1]."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    d2 = float(np.sum((np.asarray(q, dtype=float) - np.asarray(g, dtype=float)) ** 2))
    return 1.0 - math.tanh(d2 / lam)


def reward_soft(q, g, lam_large: float, delta_a, alpha_pen: float) -> float:
    """Softened reward with an action-change penalty term."""
    if alpha_pen < 0:
        raise ValueError("alpha_pen must be non-negative")
    da2 = float(np.sum(np.asarray(delta_a, dtype=float) ** 2))
    return reward_sharp(q, g, lam_large) - alpha_pen * da2


@dataclass(frozen=True)
class ConstraintSpec:
    """Allowed violation rate per constraint; torque rate tolerates 0.2."""

    position: float = 0.0
    velocity: float = 0.0
    torque: float = 0.0
    torque_rate: float = 0.2

    def __post_init__(self):
        for name in CONSTRAINTS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"allowed rate for {name} must lie in [0, 1]")

    def allowed(self, name: str) -> float:
        return getattr(self, name)


def constrained_objective(success_rate: float, violations: dict,
                          spec: ConstraintSpec = ConstraintSpec()) -> float:
    """Two-stage objective that always prefers feasible configurations.

    Feasible (every measured rate within its allowance): J = 1 + success.
    Infeasible: J = success * prod(phi_c) with phi_c = 1 when satisfied,
    else max(0, 1 - (v_c - v_bar_c)); the feasible image [1, 2] and the
    infeasible image [0, 1) are disjoint.
    """
    if not 0.0 <= success_rate <= 1.0:
        raise ValueError("success_rate must lie in [0, 1]")
    rates = {name: float(violations.get(name, 0.0)) for name in CONSTRAINTS}
    for name, v in rates.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"violation rate for {name} must lie in [0, 1]")
    feasible = all(rates[name] <= spec.allowed(name) for name in CONSTRAINTS)
    if feasible:
        return 1.0 + success_rate
    penalty = 1.0
    for name in CONSTRAINTS:
        v, v_bar = rates[name], spec.allowed(name)
        if v > v_bar:
            penalty *= max(0.0, 1.0 - (v - v_bar))
    return success_rate * penalty


@dataclass(frozen=True)
class SearchSpace:
    """Log-uniform alpha range per group plus the binary switches."""

    n_groups: int = 1
    alpha_low: float = 1e-3
    alpha_high: float = 10.0

    def __post_init__(self):
        if not (0 < self.alpha_low < self.alpha_high):
            raise ValueError("need 0 < alpha_low < alpha_high")


@dataclass(frozen=True)
class ShapingResult:
    """Best mapping with the full (candidate, J) trial ledger."""

    best: ActionMapping
    objective: float
    ledger: tuple

    def __post_init__(self):
        finite = [j for _, j in self.ledger if math.isfinite(j)]
        if finite and not math.isclose(self.objective, max(finite), rel_tol=0, abs_tol=0):
            raise ValueError("reported objective must equal the ledger max")


RANDOM = "random"
CMAES_BRANCHED = "cmaes-over-continuous-with-enumerated-discretes"


def shape_search(objective, space: SearchSpace, budget: int,
                 strategy: str = CMAES_BRANCHED, seed: int = 0) -> ShapingResult:
    """Search (alpha per group, beta, gamma) for the best objective value.

    ``objective(mapping) -> J``; evaluation failures record -inf. The
    random strategy draws log-uniform alphas with random switches; the
    branched strategy enumerates the four (beta, gamma) combinations and
    runs CMA-ES over log10(alpha) within each, splitting the budget
    evenly. Ties break toward the earliest candidate. Deterministic given
    the seed.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ledger: list[tuple[ActionMapping, float]] = []

    def evaluate(mapping: ActionMapping) -> float:
        try:
            j = float(objective(mapping))
        except Exception:
            j = -math.inf
        if math.isnan(j):
            j = -math.inf
        ledger.append((mapping, j))
        return j

    if strategy == RANDOM:
        rng = np.random.default_rng(seed)
        lo, hi = math.log(space.alpha_low), math.log(space.alpha_high)
        for _ in range(budget):
            alpha = np.exp(rng.uniform(lo, hi, size=space.n_groups))
            evaluate(ActionMapping(alpha=alpha, beta=int(rng.integers(2)),
                                   gamma=int(rng.integers(2))))
    elif strategy == CMAES_BRANCHED:
        branches = [(b, g) for g in (0, 1) for b in (0, 1)]
        per_branch = budget // len(branches)
        extra = budget - per_branch * len(branches)
        log_lo, log_hi = math.log10(space.alpha_low), math.log10(space.alpha_high)
        box = SysidBounds(params=tuple(
            (f"log10_alpha{i}", log_lo, log_hi) for i in range(space.n_groups)))
        lam = 4 + int(3 * math.log(space.n_groups))
        for idx, (beta, gamma) in enumerate(branches):
            n_evals = per_branch + (1 if idx < extra else 0)
            if n_evals < lam:
                continue  # too few evaluations for a generation; filler below

            def branch_obj(x, beta=beta, gamma=gamma):
                mapping = ActionMapping(alpha=10.0 ** np.asarray(x), beta=beta,
                                        gamma=gamma)
                return -evaluate(mapping)

            cfg = CmaesConfig(popsize=lam, sigma0=0.6, max_iter=n_evals // lam,
                              seed=seed + idx, penalty_weight=10.0)
            cmaes_minimize(branch_obj, box, cfg)
        # branch budgets round down to whole generations; spend the rest
        rng = np.random.default_rng(seed + len(branches))
        lo, hi = math.log(space.alpha_low), math.log(space.alpha_high)
        while len(ledger) < budget:
            alpha = np.exp(rng.uniform(lo, hi, size=space.n_groups))
            evaluate(ActionMapping(alpha=alpha, beta=int(rng.integers(2)),
                                   gamma=int(rng.integers(2))))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    best_idx = 0
    best_j = -math.inf
    for i, (_, j) in enumerate(ledger):
        if j > best_j:
            best_idx, best_j = i, j
    if not math.isfinite(best_j):
        best_j = -math.inf
    return ShapingResult(best=ledger[best_idx][0], objective=best_j,
                         ledger=tuple(ledger))


class ToyShapingProblem:
    """Goal reaching on a decoupled plant through the action mapping.

    The scripted policy outputs u = g - q; the searched mapping turns it
    into position targets at 50 Hz over 200 Hz physics. Success means the
    final position lands within tol of the goal; violation rates count
    the fraction of physics steps exceeding position/velocity/torque/
    torque-rate limits. Episodes are fixed given the seed so candidate
    evaluations are comparable.
    """

    def __init__(self, plant: dynamics.PlantParams, gains: control.GainConfig,
                 episodes: int = 8, seed: int = 0, horizon: float = 6.0,
                 control_rate: float = 50.0, physics_rate: float = 200.0,
                 tol: float = 0.05, pos_limit: float = 4.0, vel_limit: float = 20.0):
        self.plant = plant
        self.gains = gains.expand(plant.n_joints)
        self.horizon = horizon
        self.control_rate = control_rate
        self.physics_rate = physics_rate
        self.tol = tol
        self.pos_limit = pos_limit
        self.vel_limit = vel_limit
        self.spec = ConstraintSpec()
        rng = np.random.default_rng(seed)
        n = plant.n_joints
        self.episodes = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                         for _ in range(episodes)]
        self.details: list[dict] = []
        self._advance = dynamics.decoupled_stepper(plant)
        self._grav = plant.mass * dynamics.GRAVITY if plant.gravity_enabled \
            else np.zeros(n)

    def evaluate(self, mapping: ActionMapping, episodes=None):
        """(J, success rate, violation rates), all episodes rolled out at once.

        Each episode is one lane of (E, n) arrays; every update is
        elementwise, so a lane equals its episode rolled out alone bitwise.
        """
        episodes = episodes if episodes is not None else self.episodes
        if not episodes:
            raise ValueError("need at least one episode")
        plant, gains = self.plant, self.gains
        spc = int(round(self.physics_rate / self.control_rate))
        dt = 1.0 / self.physics_rate
        n_steps = int(round(self.horizon * self.physics_rate))
        lanes = len(episodes)
        q = np.array([q0 for q0, _ in episodes], dtype=float)
        goal = np.array([g for _, g in episodes], dtype=float)
        qd = np.zeros_like(q)
        x_des = q.copy()
        comp = gains.gravity_comp_scale * self._grav if gains.gravity_comp else None
        counts = {name: np.zeros(lanes, dtype=int) for name in CONSTRAINTS}
        prev_tau = np.zeros_like(q)
        for k in range(n_steps):
            if k % spc == 0:
                x_des = map_action(mapping, goal - q, q, x_des)
            tau_req = gains.kp * (x_des - q) - gains.kd * qd
            if comp is not None:
                tau_req = tau_req + comp
            counts["torque"] += (np.abs(tau_req) > plant.torque_limit).any(axis=1)
            counts["torque_rate"] += (
                np.abs(tau_req - prev_tau) > dt * plant.torque_rate_limit).any(axis=1)
            prev_tau = tau_req
            tau = np.clip(tau_req, -plant.torque_limit, plant.torque_limit)
            q, qd = self._advance(q, qd, tau, dt)
            counts["position"] += (np.abs(q) > self.pos_limit).any(axis=1)
            counts["velocity"] += (np.abs(qd) > self.vel_limit).any(axis=1)
        succ = 0
        rates = dict.fromkeys(CONSTRAINTS, 0.0)
        for e in range(lanes):
            succ += bool(np.linalg.norm(q[e] - goal[e]) <= self.tol)
            for name in CONSTRAINTS:
                rates[name] += float(counts[name][e]) / n_steps / lanes
        success_rate = succ / lanes
        j = constrained_objective(success_rate, rates, self.spec)
        return j, success_rate, rates

    def __call__(self, mapping: ActionMapping) -> float:
        j, success_rate, rates = self.evaluate(mapping)
        self.details.append({"success": success_rate, **rates})
        return j

    def goal_rate(self, mapping: ActionMapping, n_episodes: int = 100,
                  seed: int = 10_000) -> float:
        rng = np.random.default_rng(seed)
        n = self.plant.n_joints
        eps = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
               for _ in range(n_episodes)]
        _, rate, _ = self.evaluate(mapping, episodes=eps)
        return rate
