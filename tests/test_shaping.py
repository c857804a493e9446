import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gainlab import shaping
from gainlab.control import GainConfig, default_grid
from gainlab.dynamics import chain, point_mass
from gainlab.shaping import (ActionMapping, ConstraintSpec, SearchSpace,
                             ToyShapingProblem, constrained_objective,
                             map_action, reward_sharp, reward_soft, shape_search)
from oracles import per_episode_evaluate


class TestMapAction:
    def test_absolute_identity(self):
        m = ActionMapping(alpha=1.0, beta=0, gamma=0)
        assert_allclose(map_action(m, [0.7], [0.1], [0.2]), [0.7])

    def test_relative_hold_current_position(self):
        m = ActionMapping(alpha=0.5, beta=1, gamma=1)
        assert_allclose(map_action(m, [0.0], [0.3], [9.9]), [0.3])

    def test_hand_evaluation_target_integration(self):
        # gamma=1, beta=0, alpha=0.1, u=1, x_des_prev=0.5 -> 0.6
        m = ActionMapping(alpha=0.1, beta=0, gamma=1)
        assert_allclose(map_action(m, [1.0], [123.0], [0.5]), [0.6])

    def test_accumulator_property(self):
        m = ActionMapping(alpha=0.2, beta=0, gamma=1)
        x_des = np.array([1.0])
        for _ in range(10):
            x_des = map_action(m, [0.5], [0.0], x_des)
        assert_allclose(x_des, [1.0 + 10 * 0.2 * 0.5])

    def test_per_group_alpha(self):
        m = ActionMapping(alpha=[1.0, 10.0], beta=0, gamma=0)
        got = map_action(m, [1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3,
                         groups=[0, 0, 1])
        assert_allclose(got, [1.0, 1.0, 10.0])

    def test_stacked_rows_equal_row_wise_calls_bitwise(self):
        rng = np.random.default_rng(3)
        u, x, prev = (rng.normal(size=(5, 3)) for _ in range(3))
        for beta in (0, 1):
            for gamma in (0, 1):
                m = ActionMapping(alpha=[0.3, 7.0], beta=beta, gamma=gamma)
                got = map_action(m, u, x, prev, groups=[0, 1, 1])
                rows = [map_action(m, u[e], x[e], prev[e], groups=[0, 1, 1])
                        for e in range(5)]
                assert got.shape == (5, 3)
                assert np.array_equal(got, np.array(rows))
                # a shared (n,) state broadcasts over the lanes
                shared = map_action(m, u, x[0], prev[0], groups=[0, 1, 1])
                assert np.array_equal(shared[2], map_action(
                    m, u[2], x[0], prev[0], groups=[0, 1, 1]))

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
        spec = ConstraintSpec()
        feas, infeas = [], []
        for s in np.linspace(0, 1, 6):
            for v in np.linspace(0, 1, 6):
                for c in shaping.CONSTRAINTS:
                    j = constrained_objective(float(s), {c: float(v)}, spec)
                    if v <= spec.allowed(c):
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


class TestShapeSearch:
    def test_constant_objective_bookkeeping(self):
        space = SearchSpace(n_groups=1)
        for strategy in (shaping.RANDOM, shaping.CMAES_BRANCHED):
            res = shape_search(lambda m: 0.5, space, budget=37,
                               strategy=strategy, seed=1)
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
        res = shape_search(objective, space, budget=200, seed=0)
        assert res.best.gamma == 1 and res.best.beta == 1
        assert abs(res.best.alpha[0] - 0.3) <= 0.01

    def test_random_strategy_finds_coarse_optimum(self):
        def objective(m: ActionMapping) -> float:
            return -abs(math.log10(m.alpha[0]))  # optimum at alpha = 1

        space = SearchSpace(n_groups=1, alpha_low=1e-3, alpha_high=1e3)
        res = shape_search(objective, space, budget=400,
                           strategy=shaping.RANDOM, seed=2)
        assert 0.5 < res.best.alpha[0] < 2.0

    def test_failures_recorded_as_minus_inf(self):
        calls = []

        def objective(m):
            calls.append(m)
            if len(calls) % 2 == 0:
                raise RuntimeError("boom")
            return 1.0

        res = shape_search(objective, SearchSpace(), budget=10,
                           strategy=shaping.RANDOM, seed=3)
        js = [j for _, j in res.ledger]
        assert js.count(-math.inf) == 5
        assert res.objective == 1.0

    def test_ledger_argmax_consistency_and_tie_break(self):
        res = shape_search(lambda m: 1.0, SearchSpace(), budget=9,
                           strategy=shaping.RANDOM, seed=4)
        assert res.best is res.ledger[0][0]

    def test_deterministic_given_seed(self):
        def objective(m):
            return float(-(m.alpha[0] - 1.0) ** 2 + m.beta - m.gamma)

        a = shape_search(objective, SearchSpace(), budget=60, seed=9)
        b = shape_search(objective, SearchSpace(), budget=60, seed=9)
        assert a.objective == b.objective
        assert np.array_equal(a.best.alpha, b.best.alpha)
        assert [j for _, j in a.ledger] == [j for _, j in b.ledger]


def _random_mapping(rng, beta, gamma, n_alpha=1):
    return ActionMapping(alpha=10.0 ** rng.uniform(-3, 1.5, n_alpha),
                         beta=beta, gamma=gamma)


class TestToyShapingProblemMatchesPerEpisodeOracle:
    """The batched rollout equals the one-episode-at-a-time loop exactly."""

    def test_random_mappings_all_branches(self):
        plant = point_mass(1.0, torque_limit=60.0, torque_rate_limit=2e3)
        problem = ToyShapingProblem(plant, GainConfig(kp=256, kd=4), episodes=4,
                                    seed=5, pos_limit=1.2, vel_limit=3.0)
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
            gains = GainConfig(kp=kp, kd=kd, gravity_comp=gravity,
                               gravity_comp_scale=0.9)
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

    def test_no_episodes_rejected(self):
        problem = ToyShapingProblem(point_mass(1.0), GainConfig(kp=16, kd=2),
                                    episodes=0)
        with pytest.raises(ValueError):
            problem.evaluate(ActionMapping(alpha=1.0))
