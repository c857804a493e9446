"""Action-space mappings, reward utilities, and shaping search.

The action mapping x_des = alpha*u + gamma*beta*x + gamma*(1-beta)*x_des_prev
covers absolute targets (gamma=0) and relative targets integrated on the
current state (beta=1) or the previous target (beta=0). The two-stage
constrained objective ranks every feasible configuration (J in [1,2])
above every infeasible one (J in [0,1)). shape_search tunes (alpha,
beta, gamma), one alpha for every joint, against a black-box objective
that scores a batch of mappings at once, such as the goal-reaching
ToyShapingProblem, which rolls out every (mapping, episode) pair as one
lane of one loop.
Given one seed per cell, shape_search runs several cells' searches in
lockstep, and rollout takes several problems that share a plant, so that
every cell's candidates of a generation are lanes of one loop, each lane
with its own gains.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import control, dynamics
from .sysid import CmaesConfig, SysidBounds, cmaes_minimize

CONSTRAINTS = ("position", "velocity", "torque", "torque_rate")
# allowed violation rate per constraint; the torque rate tolerates 0.2
ALLOWED_RATES = MappingProxyType(dict(zip(CONSTRAINTS, (0.0, 0.0, 0.0, 0.2))))


@dataclass(frozen=True)
class ActionMapping:
    """Scale/integration switches of the position-target map.

    ``alpha`` is one non-negative scale shared by every joint; ``beta``
    and ``gamma`` are binary switches.
    """

    alpha: float
    beta: int = 1
    gamma: int = 1

    def __post_init__(self):
        alpha = float(self.alpha)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.beta not in (0, 1) or self.gamma not in (0, 1):
            raise ValueError("beta and gamma must be binary")
        object.__setattr__(self, "alpha", alpha)


def map_action(alpha, beta, gamma, u, x, x_des_prev) -> np.ndarray:
    """x_des = alpha*u + gamma*beta*x + gamma*(1-beta)*x_des_prev.

    ``alpha`` is the scale (one, or one per joint) and ``beta``/``gamma``
    the 0/1 switches, for one mapping or per lane: (L, 1) columns give
    each of L lanes of an (L, n) ``u`` its own mapping. ``x`` and
    ``x_des_prev`` broadcast to ``u``. Elementwise, so each lane equals a
    one-lane call bitwise.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_des_prev, dtype=float)
    return alpha * u + gamma * beta * x + gamma * (1 - beta) * x_prev


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


def constrained_objective(success_rate: float, violations: dict) -> float:
    """Two-stage objective that always prefers feasible configurations.

    Feasible (every measured rate within its ``ALLOWED_RATES`` entry):
    J = 1 + success.
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
    feasible = all(rates[name] <= ALLOWED_RATES[name] for name in CONSTRAINTS)
    if feasible:
        return 1.0 + success_rate
    penalty = 1.0
    for name in CONSTRAINTS:
        v, v_bar = rates[name], ALLOWED_RATES[name]
        if v > v_bar:
            penalty *= max(0.0, 1.0 - (v - v_bar))
    return success_rate * penalty


# the log-uniform range of alpha that shape_search searches
ALPHA_RANGE = (1e-3, 30.0)


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


def shape_search(objective, budget: int,
                 seed: int | tuple[int, ...] = 0) -> ShapingResult | list[ShapingResult]:
    """Search (alpha, beta, gamma) for the best objective value.

    ``objective(mappings) -> J values`` scores a list of mappings at once;
    a NaN J records -inf, and a raise propagates. The search enumerates the
    four (beta, gamma) combinations and runs CMA-ES over log10(alpha),
    alpha in ``ALPHA_RANGE``, within each, splitting the budget evenly.
    The branch searches run in lockstep: one batch per generation holds
    every live branch's candidates, branch by branch. A branch whose
    generation has no finite J stops there while the others go on.
    Branch budgets round down to whole generations of 4 candidates (a
    budget under 16 leaves none), and random draws, log-uniform alphas
    with random switches, spend the rest. The ledger lists each branch's
    candidates in turn, then the random draws; ties break toward the
    earliest candidate. Deterministic given the seed.

    Given a tuple of k seeds, runs k such searches, one per cell, in
    lockstep and returns their k ``ShapingResult``s in seed order. One
    ``cmaes_minimize`` call runs all 4k branch searches, and
    ``objective(mapping_lists) -> J lists`` scores one mapping list per
    cell at once (empty for a cell with nothing to score): each
    generation of every cell's live branches is one call, and the random
    draws of every cell one more. Each cell draws from its own seed, so
    its result and its mappings' order equal its one-seed run's bitwise;
    an int seed is the k = 1 case.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lone = not isinstance(seed, tuple)
    seeds = (seed,) if lone else seed

    def evaluate(lists: list) -> list[list[tuple[ActionMapping, float]]]:
        # each cell's (mapping, J) entries, from one call if any cell has mappings
        if not any(lists):
            return [[] for _ in lists]
        js_lists = [objective(lists[0])] if lone else objective(lists)
        return [list(zip(mappings, [-math.inf if math.isnan(j) else j for j in map(float, js)],
                         strict=True))
                for mappings, js in zip(lists, js_lists, strict=True)]

    branches = [(b, g) for g in (0, 1) for b in (0, 1)]
    per_branch = budget // len(branches)
    extra = budget - per_branch * len(branches)
    alpha_low, alpha_high = ALPHA_RANGE
    box = SysidBounds(params=(("log10_alpha", math.log10(alpha_low), math.log10(alpha_high)),))
    lam = box.popsize
    searched, configs = [], []  # (cell, switches) and config of each branch search
    for cell, s in enumerate(seeds):
        for idx, switches in enumerate(branches):
            n_evals = per_branch + (1 if idx < extra else 0)
            if n_evals >= lam:  # else too few evaluations for a generation; filler below
                searched.append((cell, switches))
                configs.append(CmaesConfig(sigma0=0.6, max_iter=n_evals // lam, seed=s + idx,
                                           penalty_weight=10.0))
    trials = [[] for _ in searched]  # each branch's (mapping, J) entries

    def branch_losses(Xs):
        live = [i for i, X in enumerate(Xs) if X is not None]
        lists = [[] for _ in seeds]
        for i in live:
            cell, (beta, gamma) = searched[i]
            lists[cell] += [ActionMapping(alpha=(10.0 ** x)[0], beta=beta, gamma=gamma)
                            for x in Xs[i]]
        scored = [iter(entries) for entries in evaluate(lists)]
        losses = []
        for i in live:
            entries = list(itertools.islice(scored[searched[i][0]], len(Xs[i])))
            trials[i] += entries
            losses.append([-j for _, j in entries])
        return losses

    # an aborted branch keeps its ledgered candidates; the filler spends the rest
    cmaes_minimize(branch_losses, box, tuple(configs))
    ledgers = [[entry for (owner, _), branch in zip(searched, trials) if owner == cell
                for entry in branch] for cell in range(len(seeds))]
    lo, hi = math.log(alpha_low), math.log(alpha_high)

    def draw(rng, k: int) -> list[ActionMapping]:
        return [ActionMapping(alpha=np.exp(rng.uniform(lo, hi, size=1))[0],
                              beta=int(rng.integers(2)), gamma=int(rng.integers(2)))
                for _ in range(k)]

    filler = evaluate([draw(np.random.default_rng(s + len(branches)), budget - len(ledger))
                       for s, ledger in zip(seeds, ledgers)])
    ledgers = [ledger + fill for ledger, fill in zip(ledgers, filler)]

    results = []
    for ledger in ledgers:
        best_idx = 0
        best_j = -math.inf
        for i, (_, j) in enumerate(ledger):
            if j > best_j:
                best_idx, best_j = i, j
        if not math.isfinite(best_j):
            best_j = -math.inf
        results.append(ShapingResult(best=ledger[best_idx][0], objective=best_j,
                                     ledger=tuple(ledger)))
    return results[0] if lone else results


class ToyShapingProblem:
    """Goal reaching on a decoupled plant through the action mapping.

    The scripted policy outputs u = g - q; the searched mapping turns it
    into position targets at 50 Hz over 200 Hz physics. Success means the
    final position lands within tol of the goal; violation rates count
    the fraction of physics steps exceeding position/velocity/torque/
    torque-rate limits. Episodes are fixed given the seed so candidate
    evaluations are comparable.
    """

    horizon = 6.0  # s
    control_rate = 50.0  # Hz
    physics_rate = 200.0  # Hz
    tol = 0.05  # goal radius
    pos_limit = 4.0  # rad
    vel_limit = 20.0  # rad/s

    def __init__(self, plant: dynamics.PlantParams, gains: control.GainConfig,
                 episodes: int = 8, seed: int = 0):
        self.plant = plant
        self.gains = gains.expand(plant.n_joints)
        rng = np.random.default_rng(seed)
        n = plant.n_joints
        self.episodes = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                         for _ in range(episodes)]
        self.details: list[dict] = []

    def evaluate(self, mapping: ActionMapping, episodes=None):
        """(J, success rate, violation rates) of one mapping: a
        one-candidate :func:`rollout`, which raises its divergence."""
        (result,) = rollout(self, [mapping], episodes)
        if isinstance(result, dynamics.SimulationDivergedError):
            raise result
        return result

    def __call__(self, mappings: list[ActionMapping]) -> list[float]:
        """J of each mapping from one :func:`rollout`, with one ``details``
        row per mapping; a diverged mapping scores -inf with a NaN row."""
        return self.record(rollout(self, mappings))

    def record(self, results: list) -> list[float]:
        """J of each of this problem's :func:`rollout` results, appending
        one ``details`` row per result, as ``problem(mappings)`` does."""
        js = []
        for result in results:
            if isinstance(result, dynamics.SimulationDivergedError):
                result = -math.inf, math.nan, dict.fromkeys(CONSTRAINTS, math.nan)
            j, success_rate, rates = result
            self.details.append({"success": success_rate, **rates})
            js.append(j)
        return js

    def goal_rate(self, mapping: ActionMapping, n_episodes: int = 100) -> float:
        """Success rate of ``mapping`` on fresh episodes from a fixed seed."""
        rng = np.random.default_rng(10_000)
        n = self.plant.n_joints
        eps = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
               for _ in range(n_episodes)]
        _, rate, _ = self.evaluate(mapping, episodes=eps)
        return rate


def rollout(problem, mappings, episodes=None):
    """(J, success rate, violation rates) of each mapping on ``problem``.

    Every (mapping, episode) pair is one lane of (L, n) arrays, lane
    c*E + e for mapping c on episode e, and :func:`map_action` gives each
    lane its own mapping. Every update is elementwise, so a lane equals its
    pair rolled out alone bitwise. A mapping with a diverged lane (a
    floating-point overflow or invalid operation at step k) gets the
    earliest ``SimulationDivergedError(step_index=k)`` of its lanes in
    place of its result.

    Given a tuple of k problems and one mapping list per problem, rolls
    out every problem's pairs as lanes of the same loop, problem by
    problem, and returns one result list per problem. The problems must
    share the plant, horizon, rates, goal radius, limits and gravity
    settings (``ValueError`` otherwise); each problem's lanes carry its own (L, n)
    ``kp``/``kd`` rows and its own episodes (``episodes``, when given,
    serves every problem). The PD law is elementwise, so each problem's
    results equal its one-problem rollout bitwise; that form is the k = 1
    case.
    """
    lone = isinstance(problem, ToyShapingProblem)
    problems = (problem,) if lone else tuple(problem)
    lists = (mappings,) if lone else tuple(mappings)
    if len(lists) != len(problems):
        raise ValueError(f"{len(lists)} mapping lists for {len(problems)} problems")
    lead = problems[0]
    if any(not _same_setting(lead, other) for other in problems[1:]):
        raise ValueError("problems must share the plant, horizon, rates, goal radius, "
                         "limits and gravity settings")
    eps = [episodes if episodes is not None else p.episodes for p in problems]
    if not all(eps):
        raise ValueError("need at least one episode")
    plant, gains = lead.plant, lead.gains
    spc = int(round(lead.physics_rate / lead.control_rate))
    dt = 1.0 / lead.physics_rate
    n_steps = int(round(lead.horizon * lead.physics_rate))
    n = plant.n_joints
    # lanes problem by problem; (problem, first lane, mappings, episodes) per block
    blocks, first = [], 0
    for p, ms, e in zip(problems, lists, eps):
        blocks.append((p, first, ms, e))
        first += len(ms) * len(e)
    if not first:
        results = [[] for _ in problems]
        return results[0] if lone else results

    def lanes(per_problem):
        return np.concatenate([per_problem(p, ms, e) for p, _, ms, e in blocks])

    q = lanes(lambda p, ms, e: np.tile(np.array([q0 for q0, _ in e], dtype=float),
                                       (len(ms), 1)))
    goal = lanes(lambda p, ms, e: np.tile(np.array([g for _, g in e], dtype=float),
                                          (len(ms), 1)))
    alpha, beta, gamma = (lanes(lambda p, ms, e: np.repeat(
        np.reshape([getattr(m, name) for m in ms], (-1, 1)), len(e), axis=0))
        for name in ("alpha", "beta", "gamma"))
    kp, kd = (lanes(lambda p, ms, e: np.broadcast_to(getattr(p.gains, name),
                                                     (len(ms) * len(e), n)))
              for name in ("kp", "kd"))

    advance = dynamics.decoupled_stepper(plant)
    # row k of each record: the state (q, q_dot) step k leads to, its
    # requested torque and that torque's change from step k-1's (from zero
    # at k = 0), taken in the loop so that its overflow diverges the lane
    rec = np.zeros((4, n_steps) + q.shape)

    def step(k, state):
        q, qd, x_des = state
        if k % spc == 0:
            x_des = map_action(alpha, beta, gamma, goal - q, q, x_des)
        tau_req = kp * (x_des - q) - kd * qd
        if gains.gravity_comp:
            tau_req = tau_req + dynamics.gravity_torque(plant, q)
        d_tau = tau_req - (rec[2, k - 1] if k else 0.0)
        tau = np.minimum(np.maximum(tau_req, -plant.torque_limit), plant.torque_limit)
        q, qd = advance(q, qd, tau, dt)
        rec[:, k] = q, qd, tau_req, d_tau
        return q, qd, x_des

    (q, _, _), diverged = dynamics._run_lanes(step, (q, np.zeros_like(q), q.copy()),
                                              n_steps)
    # per lane, the steps in which any joint breaks each limit (CONSTRAINTS
    # order); the record is not read again, so |rec| overwrites it
    limits = (lead.pos_limit, lead.vel_limit, plant.torque_limit,
              dt * plant.torque_rate_limit)
    counts = (np.abs(rec, out=rec) > np.reshape(limits, (4, 1, 1, 1))).any(axis=3).sum(axis=1)
    results = []
    for _, first, ms, e in blocks:
        n_ep = len(e)
        results.append([])
        for c in range(first, first + len(ms) * n_ep, n_ep):
            errors = [diverged[lane] for lane in range(c, c + n_ep) if lane in diverged]
            if errors:
                results[-1].append(min(errors, key=lambda err: err.step_index))
                continue
            succ = 0
            rates = dict.fromkeys(CONSTRAINTS, 0.0)
            for lane in range(c, c + n_ep):
                # a lane far off on any axis misses; the norm of a huge final
                # error would overflow
                d = q[lane] - goal[lane]
                succ += bool(np.all(np.abs(d) <= lead.tol) and np.linalg.norm(d) <= lead.tol)
                for name, count in zip(CONSTRAINTS, counts[:, lane]):
                    rates[name] += float(count) / n_steps / n_ep
            success_rate = succ / n_ep
            results[-1].append((constrained_objective(success_rate, rates),
                                success_rate, rates))
    return results[0] if lone else results


def _same_setting(a: ToyShapingProblem, b: ToyShapingProblem) -> bool:
    """Whether two problems can share a rollout: the same plant, horizon,
    rates, goal radius, limits and gravity compensation."""
    fields = ("horizon", "control_rate", "physics_rate", "tol", "pos_limit", "vel_limit")
    return (all(getattr(a, f) == getattr(b, f) for f in fields)
            and a.gains.gravity_comp == b.gains.gravity_comp
            and all(np.array_equal(getattr(a.plant, f.name), getattr(b.plant, f.name))
                    for f in dataclasses.fields(a.plant)))
