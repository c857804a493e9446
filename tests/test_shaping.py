import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import dynamics, shaping
from gainlab.control import GainConfig, default_grid
from gainlab.dynamics import chain, point_mass
from gainlab.shaping import (ALLOWED_RATES, ActionMapping, SearchSpace,
                             ToyShapingProblem, constrained_objective, expand_alpha,
                             map_action, reward_sharp, reward_soft, shape_search)
from oracles import loop_shape_search, per_candidate_objective, per_episode_evaluate


class TestMapAction:
    def test_absolute_identity(self):
        m = ActionMapping(alpha=1.0, beta=0, gamma=0)
        assert_allclose(map_action(m.alpha, m.beta, m.gamma, [0.7], [0.1], [0.2]), [0.7])

    def test_relative_hold_current_position(self):
        m = ActionMapping(alpha=0.5, beta=1, gamma=1)
        assert_allclose(map_action(m.alpha, m.beta, m.gamma, [0.0], [0.3], [9.9]), [0.3])

    def test_hand_evaluation_target_integration(self):
        # gamma=1, beta=0, alpha=0.1, u=1, x_des_prev=0.5 -> 0.6
        m = ActionMapping(alpha=0.1, beta=0, gamma=1)
        assert_allclose(map_action(m.alpha, m.beta, m.gamma, [1.0], [123.0], [0.5]), [0.6])

    def test_accumulator_property(self):
        m = ActionMapping(alpha=0.2, beta=0, gamma=1)
        x_des = np.array([1.0])
        for _ in range(10):
            x_des = map_action(m.alpha, m.beta, m.gamma, [0.5], [0.0], x_des)
        assert_allclose(x_des, [1.0 + 10 * 0.2 * 0.5])

    def test_per_group_alpha(self):
        m = ActionMapping(alpha=[1.0, 10.0], beta=0, gamma=0)
        got = map_action(expand_alpha(m, [0, 0, 1], 3), m.beta, m.gamma,
                         [1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3)
        assert_allclose(got, [1.0, 1.0, 10.0])

    def test_stacked_rows_equal_row_wise_calls_bitwise(self):
        rng = np.random.default_rng(3)
        u, x, prev = (rng.normal(size=(5, 3)) for _ in range(3))
        for beta in (0, 1):
            for gamma in (0, 1):
                m = ActionMapping(alpha=[0.3, 7.0], beta=beta, gamma=gamma)
                alpha = expand_alpha(m, [0, 1, 1], 3)
                got = map_action(alpha, m.beta, m.gamma, u, x, prev)
                rows = [map_action(alpha, m.beta, m.gamma, u[e], x[e], prev[e])
                        for e in range(5)]
                assert got.shape == (5, 3)
                assert np.array_equal(got, np.array(rows))
                # a shared (n,) state broadcasts over the lanes
                shared = map_action(alpha, m.beta, m.gamma, u, x[0], prev[0])
                assert np.array_equal(shared[2], map_action(
                    alpha, m.beta, m.gamma, u[2], x[0], prev[0]))

    def test_per_lane_mappings_equal_one_lane_calls_bitwise(self):
        rng = np.random.default_rng(8)
        u, x, prev = (rng.normal(size=(6, 2)) for _ in range(3))
        mappings = [ActionMapping(alpha=10.0 ** rng.uniform(-3, 1.5, 2), beta=b, gamma=g)
                    for _ in range(2) for b in (0, 1) for g in (0, 1)][:6]
        alpha = np.array([m.alpha for m in mappings])
        beta, gamma = (np.array([[getattr(m, k)] for m in mappings]) for k in ("beta", "gamma"))
        got = map_action(alpha, beta, gamma, u, x, prev)
        for lane, m in enumerate(mappings):
            assert np.array_equal(got[lane], map_action(m.alpha, m.beta, m.gamma,
                                                        u[lane], x[lane], prev[lane]))

    def test_invalid_switches(self):
        with pytest.raises(ValueError):
            ActionMapping(alpha=1.0, beta=2, gamma=0)
        with pytest.raises(ValueError):
            ActionMapping(alpha=-0.5)


class TestRewards:
    def test_sharp_at_goal(self):
        assert reward_sharp([1.0, 2.0], [1.0, 2.0], 0.5) == pytest.approx(1.0)

    def test_sharp_at_lambda_distance(self):
        # ||q-g||^2 = lambda -> 1 - tanh(1)
        lam = 0.3
        q = [math.sqrt(lam)]
        assert reward_sharp(q, [0.0], lam) == pytest.approx(1.0 - math.tanh(1.0))
        assert reward_sharp(q, [0.0], lam) == pytest.approx(0.23840584, abs=1e-8)

    def test_sharp_monotone_decreasing(self):
        r = [reward_sharp([d], [0.0], 1.0) for d in np.linspace(0, 3, 20)]
        assert np.all(np.diff(r) < 0)

    def test_sharp_bounded(self):
        for d in (0.0, 0.5, 2.0, 4.0):
            assert 0.0 < reward_sharp([d], [0.0], 2.0) <= 1.0
        # tanh saturates in floats far from the goal; the value still
        # never leaves [0, 1]
        assert 0.0 <= reward_sharp([1e3], [0.0], 2.0) <= 1.0

    def test_soft_reduces_to_sharp_without_action_change(self):
        q, g = [0.4], [0.1]
        assert reward_soft(q, g, 2.0, [0.0], 1.0) == \
            pytest.approx(reward_sharp(q, g, 2.0))

    def test_soft_hand_evaluation(self):
        # q = g, alpha_pen=1, ||da||^2 = 0.5 -> 0.5
        assert reward_soft([1.0], [1.0], 2.0, [math.sqrt(0.5)], 1.0) == \
            pytest.approx(0.5)

    def test_soft_strictly_decreasing_in_action_change(self):
        vals = [reward_soft([0.2], [0.0], 1.0, [da], 0.7)
                for da in (0.0, 0.1, 0.5, 1.0)]
        assert np.all(np.diff(vals) < 0)

    def test_soft_below_sharp_at_equal_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.normal(size=2)
            g = rng.normal(size=2)
            da = rng.normal(size=2)
            assert reward_soft(q, g, 1.5, da, 0.3) <= reward_sharp(q, g, 1.5)


class TestConstrainedObjective:
    def test_feasible_offset(self):
        assert constrained_objective(0.8, {}) == pytest.approx(1.8)

    def test_single_violation_penalty(self):
        j = constrained_objective(1.0, {"position": 0.3})
        assert j == pytest.approx(0.7)

    def test_torque_rate_allowance(self):
        assert constrained_objective(0.5, {"torque_rate": 0.15}) == \
            pytest.approx(1.5)
        assert constrained_objective(0.5, {"torque_rate": 0.5}) == \
            pytest.approx(0.5 * (1.0 - 0.3))

    def test_feasible_dominates_infeasible(self):
        worst_feasible = constrained_objective(0.0, {})
        best_infeasible = constrained_objective(1.0, {"velocity": 1e-9})
        assert worst_feasible >= 1.0
        assert best_infeasible < 1.0

    def test_images_disjoint_on_lattice(self):
        feas, infeas = [], []
        for s in np.linspace(0, 1, 6):
            for v in np.linspace(0, 1, 6):
                for c in shaping.CONSTRAINTS:
                    j = constrained_objective(float(s), {c: float(v)})
                    if v <= ALLOWED_RATES[c]:
                        feas.append(j)
                    else:
                        infeas.append(j)
        assert min(feas) >= 1.0 and max(feas) <= 2.0
        assert min(infeas) >= 0.0 and max(infeas) < 1.0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            constrained_objective(1.2, {})
        with pytest.raises(ValueError):
            constrained_objective(0.5, {"torque": 1.4})


def rowwise(f):
    """The batch objective that scores each mapping with ``f``, in order."""
    return lambda mappings: [f(m) for m in mappings]


class TestShapeSearch:
    def test_constant_objective_bookkeeping(self):
        space = SearchSpace(n_groups=1)
        res = shape_search(rowwise(lambda m: 0.5), space, budget=37, seed=1)
        assert len(res.ledger) == 37
        assert res.objective == 0.5

    def test_known_optimum_in_branch(self):
        # spec example: objective -(alpha - 0.3)^2 on the (gamma=1, beta=1)
        # branch; other branches are heavily penalized
        def objective(m: ActionMapping) -> float:
            if m.gamma == 1 and m.beta == 1:
                return -float((m.alpha[0] - 0.3) ** 2)
            return -1e3

        space = SearchSpace(n_groups=1, alpha_low=1e-3, alpha_high=10.0)
        res = shape_search(rowwise(objective), space, budget=200, seed=0)
        assert res.best.gamma == 1 and res.best.beta == 1
        assert abs(res.best.alpha[0] - 0.3) <= 0.01

    def test_failures_recorded_as_minus_inf(self):
        calls = []

        def objective(m):
            calls.append(m)
            return math.nan if len(calls) % 2 == 0 else 1.0

        # under 16 evaluations, no branch gets a generation: all random draws
        res = shape_search(rowwise(objective), SearchSpace(), budget=10, seed=3)
        js = [j for _, j in res.ledger]
        assert js.count(-math.inf) == 5
        assert res.objective == 1.0

    def test_raising_objective_propagates(self):
        def objective(mappings):
            raise RuntimeError("boom")

        for budget in (10, 16):  # random draws only, one generation per branch
            with pytest.raises(RuntimeError, match="boom"):
                shape_search(objective, SearchSpace(), budget=budget, seed=3)

    def test_ledger_argmax_consistency_and_tie_break(self):
        res = shape_search(rowwise(lambda m: 1.0), SearchSpace(), budget=9, seed=4)
        assert res.best is res.ledger[0][0]

    def test_deterministic_given_seed(self):
        def objective(m):
            return float(-(m.alpha[0] - 1.0) ** 2 + m.beta - m.gamma)

        a = shape_search(rowwise(objective), SearchSpace(), budget=60, seed=9)
        b = shape_search(rowwise(objective), SearchSpace(), budget=60, seed=9)
        assert a.objective == b.objective
        assert np.array_equal(a.best.alpha, b.best.alpha)
        assert [j for _, j in a.ledger] == [j for _, j in b.ledger]


def _ledgers_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(ma.alpha, mb.alpha) and (ma.beta, ma.gamma, ja) == (mb.beta, mb.gamma, jb)
        for (ma, ja), (mb, jb) in zip(a, b))


def _details_equal(a, b):
    # NaN rows (failed candidates) compare equal to NaN rows
    return [{k: repr(v) for k, v in d.items()} for d in a] == \
        [{k: repr(v) for k, v in d.items()} for d in b]


class TestShapeSearchMatchesLoopOracle:
    """Batched generations give the one-candidate-at-a-time search's ledger
    and details exactly. Alphas above ~4 make this stiff point mass grow
    without bound: those up to ~7 end huge but finite (a miss), larger ones
    overflow in the loop (SimulationDivergedError), a per-lane outcome
    that scores its candidate -inf while the rest of the batch goes on.
    With alphas up to 300 each seed's random draw holds loop-diverging
    candidates (5 and 3 of 12)."""

    def _problem(self):
        return ToyShapingProblem(point_mass(0.5), GainConfig(kp=4096, kd=8),
                                 episodes=2, seed=3)

    # budget 12 is random draws only (under a generation per branch), 22 one
    # generation per branch and 6 draws; the ids are those of the strategy
    # parameter these cases once had
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("budget,alpha_high", [
        pytest.param(12, 300.0, id="random-12-300.0"),  # with and without failures
        pytest.param(12, 3.0, id="random-12-3.0"),
        pytest.param(22, 30.0, id="cmaes-over-continuous-with-enumerated-discretes-22-30.0")])
    def test_ledger_and_details(self, budget, alpha_high, seed):
        space = SearchSpace(alpha_low=1e-3, alpha_high=alpha_high)
        batched, alone = self._problem(), self._problem()
        got = shape_search(batched, space, budget, seed=seed)
        want = loop_shape_search(per_candidate_objective(alone), space, budget, seed=seed)
        assert _ledgers_equal(got.ledger, want.ledger)
        assert _details_equal(batched.details, alone.details)
        assert got.objective == want.objective
        best = next(i for i, (m, _) in enumerate(got.ledger) if m is got.best)
        assert want.ledger[best][0] is want.best
        assert len(got.ledger) == len(batched.details) == budget
        if alpha_high == 3.0:
            assert all(math.isfinite(j) for _, j in got.ledger)
        elif alpha_high == 300.0:
            assert -math.inf in [j for _, j in got.ledger]


class TestLockstepShapeSearchMatchesLoopOracle:
    """Several generations per branch, the branches in lockstep. At seed 233
    both gamma = 0 branches draw only overflowing alphas in their first
    generation and abort, while the other two go on: the objective sees
    all four branches once, then the two live ones. The ledger, the best
    candidate and the details rows, paired with the ledger by call order
    as the shape-search runner pairs them, equal the one-candidate-at-a-
    time search's."""

    @pytest.mark.parametrize("budget", [40, 160])
    def test_ledger_best_and_details(self, budget, monkeypatch):
        space = SearchSpace(alpha_low=1e-3, alpha_high=300.0)
        batched, alone = (ToyShapingProblem(point_mass(0.5), GainConfig(kp=4096, kd=8),
                                            episodes=2, seed=3) for _ in range(2))
        outcomes = []
        minimize = shaping.cmaes_minimize
        monkeypatch.setattr(shaping, "cmaes_minimize",
                            lambda *args: outcomes.extend(minimize(*args)) or outcomes)
        calls = []

        def objective(mappings):
            calls.append(list(mappings))
            return batched(mappings)

        got = shape_search(objective, space, budget, seed=233)
        want = loop_shape_search(per_candidate_objective(alone), space, budget, seed=233)
        scored = [m for call in calls for m in call]
        details = {id(m): d for m, d in zip(scored, batched.details, strict=True)}
        assert _ledgers_equal(got.ledger, want.ledger)
        assert _details_equal([details[id(m)] for m, _ in got.ledger], alone.details)
        assert got.objective == want.objective
        best = next(i for i, (m, _) in enumerate(got.ledger) if m is got.best)
        assert want.ledger[best][0] is want.best
        assert [type(o).__name__ for o in outcomes] == \
            ["CmaesAbortedError"] * 2 + ["FitResult"] * 2
        generations = budget // 16
        filler = budget - 8 - 8 * generations
        assert [len(c) for c in calls] == [16] + [8] * (generations - 1) + [filler]
        assert [(m.beta, m.gamma) for m in calls[1]] == [(0, 1)] * 4 + [(1, 1)] * 4


def _same_results(a, b):
    """Rollout results equal bitwise, a diverged mapping's error by its step."""
    def key(r):
        return (type(r), r.step_index) if isinstance(r, dynamics.SimulationDivergedError) \
            else repr(r)
    return [key(r) for r in a] == [key(r) for r in b]


class TestLockstepShapeSearchAcrossCells:
    """k cells' searches in one lockstep run, on one light plant with mixed
    gains: each cell's result and details rows equal its lone run bitwise.
    Kd = 128 is the unstable point mass of TestRolloutOfMixedBatches (every
    mapping diverges, so its branches abort and the filler spends its
    budget); the others mix finishing and diverging candidates."""

    PLANT = point_mass(0.1, torque_rate_limit=200.0)
    GAINS = [(1024, 128), (4096, 8), (256, 8), (16, 2), (1024, 4)]

    def _problem(self, gains, seed):
        return ToyShapingProblem(self.PLANT, GainConfig(*gains), episodes=2, seed=seed)

    @settings(max_examples=12, deadline=None, print_blob=True)
    @given(cells=st.lists(st.tuples(st.sampled_from(GAINS), st.integers(0, 999)),
                          min_size=1, max_size=4),
           budget=st.sampled_from([6, 16, 40]))
    def test_each_cell_equals_its_lone_run(self, cells, budget):
        space = SearchSpace(alpha_low=1e-3, alpha_high=300.0)
        problems = [self._problem(gains, seed) for gains, seed in cells]
        calls = []

        def objective(mapping_lists):
            calls.append([len(ms) for ms in mapping_lists])
            return [p.record(r) for p, r in
                    zip(problems, shaping.rollout(problems, mapping_lists), strict=True)]

        got = shape_search(objective, space, budget, seed=tuple(seed for _, seed in cells))
        assert len(got) == len(cells)
        for (gains, seed), result, problem in zip(cells, got, problems):
            alone = self._problem(gains, seed)
            want = shape_search(alone, space, budget, seed=seed)
            assert _ledgers_equal(result.ledger, want.ledger)
            assert result.objective == want.objective
            assert np.array_equal(result.best.alpha, want.best.alpha)
            assert _details_equal(problem.details, alone.details)
        # one call per generation, every cell's list in it, none of them all empty
        assert all(len(c) == len(cells) and sum(c) for c in calls)

    @settings(max_examples=12, deadline=None, print_blob=True)
    @given(data=st.data(), n_problems=st.integers(1, 4))
    def test_rollout_equals_per_problem_rollouts(self, data, n_problems):
        problems = [self._problem(data.draw(st.sampled_from(self.GAINS)),
                                  data.draw(st.integers(0, 999))) for _ in range(n_problems)]
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        lists = [[ActionMapping(alpha=10.0 ** rng.uniform(-3, 2.5), beta=int(rng.integers(2)),
                                gamma=int(rng.integers(2))) for _ in range(size)]
                 for size in data.draw(st.lists(st.integers(0, 3), min_size=n_problems,
                                                max_size=n_problems))]
        got = shaping.rollout(problems, lists)
        assert len(got) == n_problems
        for problem, mappings, results in zip(problems, lists, got):
            assert _same_results(results, shaping.rollout(problem, mappings))
        shared = problems[0].episodes
        for problem, mappings, results in zip(problems, lists,
                                              shaping.rollout(problems, lists, shared)):
            assert _same_results(results, shaping.rollout(problem, mappings, shared))

    @pytest.mark.parametrize("kw,attrs", [
        ({"plant": point_mass(0.2, torque_rate_limit=200.0)}, {}),
        ({"gains": GainConfig(16, 2, gravity_comp=True)}, {}),
        ({}, {"pos_limit": 1.0}), ({}, {"vel_limit": 5.0}),
        ({}, {"horizon": 3.0}), ({}, {"control_rate": 25.0}), ({}, {"tol": 0.1})])
    def test_problems_must_share_their_setting(self, kw, attrs):
        base = self._problem((16, 2), 0)
        other = ToyShapingProblem(**{"plant": self.PLANT, "gains": GainConfig(16, 2),
                                     "episodes": 2, "seed": 1, **kw})
        for name, value in attrs.items():
            setattr(other, name, value)
        mapping = ActionMapping(alpha=1.0)
        with pytest.raises(ValueError, match="must share"):
            shaping.rollout([base, other], [[mapping], [mapping]])


def _random_mapping(rng, beta, gamma, n_alpha=1):
    return ActionMapping(alpha=10.0 ** rng.uniform(-3, 1.5, n_alpha),
                         beta=beta, gamma=gamma)


class TestToyShapingProblemMatchesPerEpisodeOracle:
    """The batched rollout equals the one-episode-at-a-time loop exactly."""

    def test_random_mappings_all_branches(self):
        plant = point_mass(1.0, torque_limit=60.0, torque_rate_limit=2e3)
        problem = ToyShapingProblem(plant, GainConfig(kp=256, kd=4), episodes=4, seed=5)
        problem.pos_limit, problem.vel_limit = 1.2, 3.0
        rng = np.random.default_rng(11)
        results = []
        for beta in (0, 1):
            for gamma in (0, 1):
                for _ in range(2):
                    m = _random_mapping(rng, beta, gamma)
                    got = problem.evaluate(m)
                    assert got == per_episode_evaluate(problem, m)
                    results.append(got)
        # the draw exercises every counter and both outcomes
        for name in shaping.CONSTRAINTS:
            assert any(rates[name] > 0 for _, _, rates in results), name
        assert any(s > 0 for _, s, _ in results)
        assert any(s < 1 for _, s, _ in results)

    @pytest.mark.parametrize("gravity", [False, True])
    def test_default_grid_corners(self, gravity):
        plant = point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4,
                           gravity_enabled=gravity)
        m = ActionMapping(alpha=1.0, beta=1, gamma=1)
        for kp, kd in default_grid().corners().values():
            gains = GainConfig(kp=kp, kd=kd, gravity_comp=gravity)
            problem = ToyShapingProblem(plant, gains, episodes=3, seed=42)
            assert problem.evaluate(m) == per_episode_evaluate(problem, m)

    def test_two_joint_chain(self):
        plant = chain([1.0, 0.4], torque_limit=80.0, torque_rate_limit=5e3,
                      viscous_friction=[0.2, 0.1], static_friction=[0.3, 0.0],
                      dynamic_friction_ratio=[0.5, 0.0])
        problem = ToyShapingProblem(plant, GainConfig(kp=[64, 128], kd=[8, 4]),
                                    episodes=3, seed=9)
        rng = np.random.default_rng(4)
        for beta, gamma, n_alpha in ((0, 0, 1), (1, 1, 2), (0, 1, 2)):
            m = _random_mapping(rng, beta, gamma, n_alpha)
            assert problem.evaluate(m) == per_episode_evaluate(problem, m)

    def test_rollout_of_many_mappings(self):
        plant = point_mass(1.0, torque_limit=60.0, torque_rate_limit=2e3)
        problem = ToyShapingProblem(plant, GainConfig(kp=256, kd=4), episodes=3, seed=7)
        problem.pos_limit, problem.vel_limit = 1.2, 3.0
        rng = np.random.default_rng(12)
        mappings = [_random_mapping(rng, b, g) for b in (0, 1) for g in (0, 1)]
        got = shaping.rollout(problem, mappings)
        assert got == [per_episode_evaluate(problem, m) for m in mappings]
        assert problem(mappings) == [j for j, _, _ in got]
        assert problem.details == [{"success": s, **r} for _, s, r in got]

    def test_goal_rate_hundred_episodes(self):
        plant = point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4)
        problem = ToyShapingProblem(plant, GainConfig(kp=16, kd=2), episodes=6,
                                    seed=42)
        m = ActionMapping(alpha=0.01, beta=0, gamma=1)
        rng = np.random.default_rng(10_000)
        eps = [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(100)]
        rate = problem.goal_rate(m, n_episodes=100)
        assert rate == per_episode_evaluate(problem, m, episodes=eps)[1]
        assert 0.0 < rate < 1.0

    def test_two_link_gravity_comp(self):
        arm = dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                                gravity_enabled=True, torque_limit=40.0)
        gains = GainConfig(kp=[200, 120], kd=[20, 12], gravity_comp=True)
        problem = ToyShapingProblem(arm, gains, episodes=3, seed=2)
        m = ActionMapping(alpha=0.5, beta=1, gamma=1)
        assert problem.evaluate(m) == per_episode_evaluate(problem, m)

    def test_no_episodes_rejected(self):
        problem = ToyShapingProblem(point_mass(1.0), GainConfig(kp=16, kd=2),
                                    episodes=0)
        with pytest.raises(ValueError):
            problem.evaluate(ActionMapping(alpha=1.0))


class TestRolloutOfMixedBatches:
    """Batches that mix mappings that finish with mappings that diverge, so
    that steps are retried, while the limit counts come from the recorded
    rows after the loop: every finished mapping still equals the
    one-episode-at-a-time oracle bitwise, and every diverged one reports
    the step its one-mapping rollout does. Without a torque limit, alphas
    above about 10 (point mass) or 30 (chain) overflow; with a limit of 60
    every mapping finishes, and the torque counter is exercised. On the
    unstable point mass (Kd*dt/m = 6.4 > 2) every mapping diverges without
    a limit, some by overflowing the torque change alone."""

    PROBLEMS = {
        "point_mass": (point_mass(0.5, torque_rate_limit=200.0), GainConfig(kp=4096, kd=8)),
        "unstable": (point_mass(0.1, torque_rate_limit=200.0), GainConfig(kp=1024, kd=128)),
        "chain": (chain([1.0, 0.4], gravity_enabled=True, torque_rate_limit=200.0),
                  GainConfig(kp=[2048, 1024], kd=[8, 4], gravity_comp=True)),
    }

    @settings(max_examples=20, deadline=None, print_blob=True)
    @given(data=st.data(), name=st.sampled_from(sorted(PROBLEMS)),
           torque_limit=st.sampled_from([math.inf, 60.0]), seed=st.integers(0, 99))
    def test_batch_equals_oracle_and_lone_mappings(self, data, name, torque_limit, seed):
        plant, gains = self.PROBLEMS[name]
        problem = ToyShapingProblem(replace(plant, torque_limit=torque_limit), gains,
                                    episodes=2, seed=seed)
        problem.pos_limit, problem.vel_limit = 1.2, 3.0

        def mappings(lo, hi):  # log10(alpha) in [lo, hi], per joint or shared
            n_alpha = st.sampled_from(sorted({1, plant.n_joints}))
            one = st.builds(
                lambda log_alpha, beta, gamma: ActionMapping(
                    alpha=10.0 ** np.array(log_alpha), beta=beta, gamma=gamma),
                n_alpha.flatmap(lambda k: st.lists(st.floats(lo, hi), min_size=k,
                                                   max_size=k)),
                st.sampled_from([0, 1]), st.sampled_from([0, 1]))
            return st.lists(one, min_size=1, max_size=2)

        batch = data.draw(st.permutations(data.draw(mappings(-3.0, 0.5), label="tame")
                                          + data.draw(mappings(1.75, 3.0), label="wild")))
        for m, got in zip(batch, shaping.rollout(problem, batch), strict=True):
            if isinstance(got, dynamics.SimulationDivergedError):
                with pytest.raises(dynamics.SimulationDivergedError) as alone:
                    problem.evaluate(m)
                assert got.step_index == alone.value.step_index
            else:
                assert got == per_episode_evaluate(problem, m)

    def test_torque_change_overflow_is_the_divergence_step(self):
        # this lane's change of requested torque overflows at step 390, one
        # step before anything else does (and RuntimeWarnings are errors)
        problem = ToyShapingProblem(point_mass(0.1), GainConfig(kp=1024, kd=128),
                                    episodes=2, seed=0)
        with pytest.raises(dynamics.SimulationDivergedError) as err:
            problem.evaluate(ActionMapping(alpha=10.0, beta=0, gamma=0))
        assert err.value.step_index == 390



class TestRolloutMemory:
    def test_peak_of_a_bench_sized_rollout(self):
        # 16 mappings x 6 episodes, as one generation of the four branches
        # on the bench: the violation count reuses the record in place
        problem = ToyShapingProblem(point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4),
                                    GainConfig(kp=16, kd=2), episodes=6, seed=42)
        rng = np.random.default_rng(3)
        mappings = [_random_mapping(rng, b, g) for b in (0, 1) for g in (0, 1) for _ in range(4)]
        n_steps = round(problem.horizon * problem.physics_rate)
        record_nbytes = 4 * n_steps * len(mappings) * 6 * 8
        tracemalloc.start()
        try:
            shaping.rollout(problem, mappings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * record_nbytes


class TestToyShapingProblemDivergence:
    """Kd*dt/m = 6.4 > 2: the semi-implicit loop is unstable from any start."""

    def _problem(self):
        return ToyShapingProblem(point_mass(0.1), GainConfig(kp=1024, kd=128),
                                 episodes=2, seed=0)

    def test_divergence_raises_without_warnings(self):
        problem = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dynamics.SimulationDivergedError) as err:
                problem.evaluate(ActionMapping(alpha=1.0, beta=1, gamma=1))
        n_steps = round(problem.horizon * problem.physics_rate)
        assert 0 < err.value.step_index < n_steps

    def test_shape_search_records_minus_inf(self):
        # warnings ignored, as in a plain run: only a raise can mark the candidate
        problem = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = shape_search(problem, SearchSpace(), budget=4)
        assert [j for _, j in result.ledger] == [-math.inf] * 4
        assert result.objective == -math.inf
        assert all(math.isnan(d["success"]) for d in problem.details)

    @pytest.mark.parametrize("budget", [16, 40])
    def test_branched_shape_search_records_minus_inf(self, budget):
        # each branch's first generation is all -inf, which aborts its
        # CMA-ES; the next branch still runs, and at budget 40 the random
        # filler spends the 24 evaluations the aborted branches left
        problem = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = shape_search(problem, SearchSpace(), budget=budget)
        assert [j for _, j in result.ledger] == [-math.inf] * budget
        assert result.objective == -math.inf
        assert len(problem.details) == budget
        assert all(math.isnan(v) for d in problem.details for v in d.values())

    @pytest.mark.parametrize("alpha", [4.0, 5.0, 6.0, 7.0])
    def test_far_final_state_is_a_miss_with_warnings_as_errors(self, alpha):
        # the loop stays finite, but the final error is far too large to
        # square: the candidate misses, whatever the warning filter
        problem = ToyShapingProblem(point_mass(0.5), GainConfig(kp=4096, kd=8),
                                    episodes=2, seed=3)
        m = ActionMapping(alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ignored = problem.evaluate(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = problem.evaluate(m)
        assert strict == ignored
        assert strict[1] == 0.0


class TestToyShapingProblemGravity:
    def test_compensation_follows_the_two_link_configuration(self):
        # the targets stay on the start, which is the goal: with g(q)
        # compensated at every step the arm holds still and every episode
        # succeeds; a constant mass*G load would let it sag away
        arm = dynamics.two_link(gravity_enabled=True)
        problem = ToyShapingProblem(arm, GainConfig(kp=400.0, kd=40.0, gravity_comp=True),
                                    episodes=3, seed=1)
        episodes = [(q0, q0) for q0, _ in problem.episodes]
        assert_allclose(dynamics.gravity_torque(arm, episodes[0][0]), [25.52, 5.91],
                        atol=0.01)
        _, success, _ = problem.evaluate(ActionMapping(alpha=0.0, beta=1, gamma=1),
                                         episodes=episodes)
        assert success == 1.0
