import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import dynamics, noise, retarget
from gainlab.control import GainConfig, default_grid
from gainlab.dynamics import SimulationDivergedError, Trajectory, point_mass
from gainlab.noise import (NoiseSpec, PerturbationDivergedError, crandall_oracle,
                           discretize, noisy_openloop_replay,
                           predict_variance, simulate_perturbation)
from oracles import default_dt, effective_error, per_trial_noisy_replay, simulate_replay


class TestPredictVariance:
    def test_theorem_arithmetic(self):
        pred = predict_variance(GainConfig(kp=2.0, kd=1.0), sigma=1.0)
        assert_allclose(pred.var_pos, [1.0])
        assert_allclose(pred.attenuation_factor, [1.0])

    def test_zero_noise(self):
        pred = predict_variance(GainConfig(kp=7.0, kd=3.0), sigma=0.0)
        assert_allclose(pred.var_pos, [0.0])

    def test_mass_never_enters(self):
        # the prediction has no mass argument at all; the Monte Carlo
        # check below carries the physical mass-independence claim
        a = predict_variance(GainConfig(kp=4.0, kd=2.0), 0.3)
        assert_allclose(a.var_pos, [0.09 * 4.0 / 4.0])


class TestCrandallOracle:
    def test_formula_arithmetic(self):
        assert crandall_oracle(1.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_proof_chain_identity(self):
        # substituting sigma_n^2 = wn^4 sigma^2 reproduces the variance
        # prediction: wn/(4 zeta) == Kp/(2 Kd), mass cancels
        rng = np.random.default_rng(9)
        for _ in range(100):
            kp = float(rng.uniform(0.5, 500.0))
            kd = float(rng.uniform(0.5, 200.0))
            m = float(rng.uniform(0.1, 30.0))
            sigma = float(rng.uniform(0.01, 2.0))
            wn = math.sqrt(kp / m)
            zeta = kd / (2.0 * math.sqrt(m * kp))
            via_crandall = crandall_oracle(wn, zeta, wn**2 * sigma)
            direct = predict_variance(GainConfig(kp=kp, kd=kd), sigma).var_pos[0]
            assert via_crandall == pytest.approx(direct, rel=1e-12)

    def test_large_damping_limit(self):
        assert crandall_oracle(1.0, 1e9, 1.0) < 1e-8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            crandall_oracle(1.0, 0.0, 1.0)


class TestEffectiveError:
    def test_zero_error(self):
        assert_allclose(effective_error(GainConfig(kp=5.0, kd=1.0), 0.0), [0.0])

    def test_equal_gains_factor(self):
        assert_allclose(effective_error(GainConfig(kp=3.0, kd=3.0), 1.0),
                        [math.sqrt(0.5)])

    def test_grid_ranking_reverses_attenuation(self):
        grid = default_grid()
        cells = list(grid.cells())
        eff = np.array([effective_error(GainConfig(kp=kp, kd=kd), 0.1)[0]
                        for kp, kd in cells])
        att = np.array([1.0 / predict_variance(GainConfig(kp=kp, kd=kd), 1.0)
                        .attenuation_factor[0] for kp, kd in cells])
        assert np.argmax(eff) == np.argmin(att)
        # pairwise: more attenuation <=> less effective error (ties agree)
        de = np.sign(eff[:, None] - eff[None, :])
        da = np.sign(att[:, None] - att[None, :])
        assert np.array_equal(de, -da)


class TestSimulatePerturbation:
    def test_zero_noise_zero_variance(self):
        est = simulate_perturbation(GainConfig(kp=2.0, kd=1.0), 1.0,
                                    NoiseSpec(sigma=0.0), dt=1e-3,
                                    horizon=60.0, n_trials=3)
        assert est.value == 0.0

    def test_matches_theorem_continuous_limit(self):
        est = simulate_perturbation(GainConfig(kp=2.0, kd=1.0), 1.0,
                                    NoiseSpec(sigma=1.0, seed=7), dt=2e-3,
                                    horizon=200.0, n_trials=150)
        assert abs(est.value - 1.0) <= 0.05

    def test_mass_independence_within_3_sigma(self):
        g = GainConfig(kp=2.0, kd=1.0)
        e1 = simulate_perturbation(g, 1.0, NoiseSpec(sigma=1.0, seed=21),
                                   dt=2e-3, horizon=200.0, n_trials=120)
        e10 = simulate_perturbation(g, 10.0, NoiseSpec(sigma=1.0, seed=22),
                                    dt=6e-3, horizon=400.0, n_trials=120)
        band = 3.0 * math.hypot(e1.stderr, e10.stderr)
        assert abs(e1.value - e10.value) <= band

    def test_no_significant_slope_of_variance_on_mass(self):
        g = GainConfig(kp=2.0, kd=1.0)
        masses = [1.0, 4.0, 10.0]
        ests = [simulate_perturbation(g, m, NoiseSpec(sigma=1.0, seed=30 + i),
                                      dt=2e-3 * math.sqrt(m),
                                      horizon=200.0 * math.sqrt(m),
                                      n_trials=80)
                for i, m in enumerate(masses)]
        x = np.array(masses)
        y = np.array([e.value for e in ests])
        X = np.column_stack([np.ones_like(x), x])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        dof = len(x) - 2
        s2 = float(resid @ resid) / dof
        se_slope = math.sqrt(s2 * np.linalg.inv(X.T @ X)[1, 1])
        # fall back to the Monte Carlo stderr when the residual-based SE
        # underestimates (3 points barely constrain it)
        se_slope = max(se_slope, float(np.mean([e.stderr for e in ests]))
                       / (x.max() - x.min()))
        assert abs(beta[1]) <= 3.0 * se_slope

    def test_held_mode_converges_to_continuous(self):
        # hold rate 10 wn / (2 pi) should land within 10% of the theorem
        g = GainConfig(kp=4.0, kd=2.0)
        wn = 2.0
        f = 10.0 * wn / (2.0 * math.pi)
        dt = (1.0 / f) / 24
        est = simulate_perturbation(g, 1.0, NoiseSpec(sigma=0.5,
                                                      rate=f, seed=5),
                                    dt=dt, horizon=300.0, n_trials=100)
        assert abs(est.value - est.analytic) / est.analytic < 0.10

    def test_dt_resolution_precondition(self):
        with pytest.raises(ValueError):
            simulate_perturbation(GainConfig(kp=100.0, kd=1.0), 1e-4,
                                  NoiseSpec(sigma=1.0), dt=1e-3, horizon=1.0,
                                  n_trials=2)

    def test_short_horizon_warns(self):
        with pytest.warns(UserWarning):
            simulate_perturbation(GainConfig(kp=2.0, kd=1.0), 1.0,
                                  NoiseSpec(sigma=0.1, seed=1), dt=1e-3,
                                  horizon=30.0, n_trials=2)

    def test_trial_streams_order_free(self):
        # same seed, different trial counts: shared prefix of trial seeds
        a = noise.trial_rng(123, 5).normal(size=4)
        b = noise.trial_rng(123, 5).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(noise.trial_rng(123, 6).normal(size=4), a)

    def test_kd_zero_unbounded(self):
        # Kd = 0 is rejected at construction (GainConfig requires Kd > 0),
        # which is where the unbounded-variance case surfaces
        with pytest.raises(ValueError):
            predict_variance(GainConfig(kp=1.0, kd=0.0), 1.0)


class TestDiscretize:
    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(log_kp=st.floats(-2, 4), log_kd=st.floats(-2, 3), log_m=st.floats(-2, 2),
           rate=st.none() | st.floats(0.1, 1000.0))
    def test_defaults_match_the_reference(self, log_kp, log_kd, log_m, rate):
        kp, kd, m = 10.0**log_kp, 10.0**log_kd, 10.0**log_m
        gains = GainConfig(kp=kp, kd=kd)
        wn = math.sqrt(kp / m)
        horizon = 60.0 * noise.time_constant(wn, kd / (2.0 * math.sqrt(m * kp)))
        dt, hold, n_steps, burn = discretize(gains, m, rate)
        assert dt == default_dt(wn, rate)
        assert n_steps == int(round(horizon / dt))
        assert discretize(gains, m, rate, horizon=horizon) == (dt, hold, n_steps, burn)

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(log_kp=st.floats(-2, 4), log_kd=st.floats(-2, 3), log_m=st.floats(-2, 2),
           rate=st.none() | st.floats(0.1, 1000.0),
           dt=st.none() | st.floats(1e-6, 1.0) | st.integers(1, 500),
           horizon=st.none() | st.floats(-10.0, 1e4))
    def test_a_returned_discretization_holds_its_contract(self, log_kp, log_kd, log_m,
                                                           rate, dt, horizon):
        kp, kd, m = 10.0**log_kp, 10.0**log_kd, 10.0**log_m
        if isinstance(dt, int):  # a step dividing the hold (1 ms without one)
            dt = (1e-3 if rate is None else 1.0 / rate) / dt
        try:
            dt, hold, n_steps, burn = discretize(GainConfig(kp=kp, kd=kd), m, rate, dt,
                                                 horizon)
        except ValueError as exc:
            event(str(exc).split()[0])  # which rule refused
            return
        event("returned")
        assert math.sqrt(kp / m) * dt < 0.1
        if rate is None:
            assert hold == 1
        else:
            assert abs(hold * dt - 1.0 / rate) <= 1e-9 / rate
        assert n_steps > burn

    def test_each_rule_raises(self):
        g = GainConfig(kp=2.0, kd=1.0)  # omega_n = sqrt(2), 10 time constants = 20 s
        with pytest.raises(ValueError, match="dt too coarse"):
            discretize(g, 1.0, dt=0.08)
        with pytest.raises(ValueError, match="does not divide"):
            discretize(g, 1.0, 50.0, dt=0.003)
        burn_in = 10.0 * noise.time_constant(math.sqrt(2.0), 1.0 / (2.0 * math.sqrt(2.0)))
        for horizon in (-1.0, 0.0, 15.0, burn_in):
            with pytest.raises(ValueError, match="^horizon"):
                discretize(g, 1.0, horizon=horizon)
        assert discretize(g, 1.0, 50.0, dt=0.004, horizon=30.0) == (0.004, 5, 7500, 5000)


class _Stepped(Exception):
    """Raised in place of the trial streams: the run passed its checks."""


class TestPerturbationStability:
    def test_unstable_step_fails_typed_before_any_step(self):
        # Kd*dt/m = 2.86 at the default dt = 0.02/omega_n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PerturbationDivergedError, match=r"b = Kd\*dt/m = 2\.862"):
                simulate_perturbation(GainConfig(kp=16.0, kd=128.0), 0.05,
                                      NoiseSpec(sigma=1.0), n_trials=4)

    @settings(max_examples=200, deadline=None, print_blob=True)
    @given(log_kp=st.floats(-1, 4), log_b=st.floats(-3, 3) | st.floats(0.25, 0.35),
           log_m=st.floats(-2, 2), log_dt=st.floats(-5, -1))
    @example(log_kp=2.0, log_b=math.log10(1.94), log_m=0.0, log_dt=-3.0)
    @example(log_kp=2.0, log_b=math.log10(2.06), log_m=0.0, log_dt=-3.0)
    def test_jury_criterion_matches_a_noise_free_run(self, log_kp, log_b, log_m, log_dt):
        # Kd is drawn through b = Kd*dt/m: decades either side of the b = 2
        # edge, and half the draws within 1.78 < b < 2.24
        kp, m, dt = 10.0**log_kp, 10.0**log_m, 10.0**log_dt
        kd = 10.0**log_b * m / dt
        a, b = kp * dt * dt / m, kd * dt / m
        assume(math.sqrt(kp / m) * dt < 0.1)  # a step discretize accepts
        assume(abs(2.0 - b) >= 0.05 and abs(4.0 - 2.0 * b - a) >= 0.05)
        with mock.patch.object(noise, "trial_rng", side_effect=_Stepped):
            try:
                simulate_perturbation(GainConfig(kp=kp, kd=kd), m, NoiseSpec(sigma=0.0), 2,
                                      dt=dt)
            except _Stepped:
                stable = True
            except PerturbationDivergedError:
                stable = False
        event("stable" if stable else "unstable")
        # the same recursion, noise-free from (q, v) = (1, 0)
        c_kp, c_kd = dt * kp / m, dt * kd / m
        q, v = 1.0, 0.0
        for _ in range(5000):
            v += c_kp * (0.0 - q) - c_kd * v
            q += dt * v
            if not abs(q) <= 1e6:
                break
        assert (abs(q) <= 1e6) == stable, (a, b)


def _demo_1dof():
    plant = point_mass(1.0)
    pos, vel, acc = retarget.quintic_reference([0.0], [0.8], 1.5)
    ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
    return plant, retarget.make_demo(plant, ctrl, 2.0, 500.0, reference=pos,
                                     goal=retarget.TaskGoal([0.8], 0.05))


class TestNoisyOpenloopReplay:
    def test_zero_noise_matches_clean(self):
        plant, demo = _demo_1dof()
        rd = retarget.tpr_joint(demo, GainConfig(kp=64.0, kd=16.0))
        res = noisy_openloop_replay(rd, plant, sigma=0.0, seed=0, n_trials=2,
                                    decimation=10)
        assert res.rms_deviation == 0.0
        assert res.goal_rate == float(res.clean_goal_reached)

    def test_attenuation_ordering_co_below_su(self):
        plant, demo = _demo_1dof()
        corners = default_grid().corners()
        rms = {}
        for name in ("CO", "SU"):
            kp, kd = corners[name]
            rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
            res = noisy_openloop_replay(rd, plant, sigma=0.05, seed=3, n_trials=5,
                                        decimation=10)
            rms[name] = res.per_trial_rms
        assert np.all(rms["CO"] < rms["SU"])

    def test_doubling_sigma_doubles_deviation(self):
        plant, demo = _demo_1dof()
        rd = retarget.tpr_joint(demo, GainConfig(kp=64.0, kd=16.0))
        r1 = noisy_openloop_replay(rd, plant, sigma=0.02, seed=3, n_trials=4,
                                   decimation=10)
        r2 = noisy_openloop_replay(rd, plant, sigma=0.04, seed=3, n_trials=4,
                                   decimation=10)
        assert r2.rms_deviation == pytest.approx(2.0 * r1.rms_deviation,
                                                 rel=1e-9)

    def test_needs_a_trial(self):
        plant, demo = _demo_1dof()
        rd = retarget.tpr_joint(demo, GainConfig(kp=64.0, kd=16.0))
        with pytest.raises(ValueError, match="n_trials"):
            noisy_openloop_replay(rd, plant, sigma=0.01, seed=0, n_trials=0,
                                  decimation=10)


# Gravity (compensated at 0.9 on the stiff gains), dry and viscous friction,
# and a torque limit the stiff cells hit.
LANE_PLANTS = {
    "point_mass": (point_mass(1.5, gravity_enabled=True, static_friction=0.3,
                              dynamic_friction_ratio=0.6, viscous_friction=0.2,
                              torque_limit=20.0), [0.1], [0.7]),
    "chain": (dynamics.chain([1.0, 0.4, 2.0], gravity_enabled=True,
                             static_friction=[0.2, 0.1, 0.0], dynamic_friction_ratio=0.5,
                             viscous_friction=0.1, torque_limit=15.0),
              [0.0, 0.2, -0.3], [0.5, -0.4, 0.3]),
    "two_link": (dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                                   gravity_enabled=True, static_friction=0.1,
                                   dynamic_friction_ratio=0.5, viscous_friction=0.05,
                                   torque_limit=12.0), [-0.4, 0.6], [0.5, -0.3]),
}
LANE_GAINS = [GainConfig(kp=64.0, kd=8.0),
              GainConfig(kp=512.0, kd=24.0, gravity_comp=True)]


def _rest_demo(n=1000, base_rate=100.0):
    traj = Trajectory(sample_rate=base_rate, t=np.arange(n) / base_rate,
                      q=np.zeros((n, 1)), q_dot=np.zeros((n, 1)),
                      q_des=np.zeros((n, 1)), tau=np.zeros((n, 1)))
    return retarget.TorqueDemo(base_rate=base_rate, traj=traj,
                               goal=retarget.TaskGoal([0.0]))


class TestNoisyReplayMatchesPerTrialOracle:
    """The lanes of one replay reproduce the per-trial loop bit for bit."""

    @pytest.mark.parametrize("decimation", [1, 10])
    @pytest.mark.parametrize("gains", LANE_GAINS, ids=["pd", "pd_gravity_comp"])
    @pytest.mark.parametrize("name", list(LANE_PLANTS))
    def test_lanes_equal_per_trial_loop(self, name, gains, decimation):
        plant, q0, qf = LANE_PLANTS[name]
        pos, vel, acc = retarget.quintic_reference(q0, qf, 1.5)
        ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
        demo = retarget.make_demo(plant, ctrl, 2.0, 500.0, q0=q0, reference=pos,
                                  goal=retarget.TaskGoal(qf, 0.05))
        rd = retarget.tpr_joint(demo, gains, plant=plant)
        got = noisy_openloop_replay(rd, plant, 0.05, 7, 4, decimation=decimation)
        goal_rate, rms, per_trial, clean = per_trial_noisy_replay(rd, plant, 0.05, 7, 4,
                                                                  decimation)
        assert got.goal_rate == goal_rate
        assert got.rms_deviation == rms
        assert np.array_equal(got.per_trial_rms, per_trial)
        assert got.clean_goal_reached == clean

    # An unstable stiff loop (Kp dt^2 / m = 10) held by stiction: a trial
    # diverges once one of its noisy commands asks for more torque than the
    # static friction, and the clean replay never moves.
    PLANT = point_mass(1.0, static_friction=320.0, dynamic_friction_ratio=0.5)

    def _diverging_steps(self, rd, sigma, seed, n_trials):
        steps = []
        for trial in range(n_trials):
            pert = noise.trial_rng(seed, trial).normal(0.0, sigma, (100, 1))
            try:
                simulate_replay(rd, 10, self.PLANT, command_noise=pert)
                steps.append(None)
            except SimulationDivergedError as exc:
                steps.append(exc.step_index)
        return steps

    @pytest.mark.parametrize("seed, steps", [
        (25, [None, None, 354, None, None]),  # one diverging lane
        (54, [763, None, None, None, 363]),  # the later trial diverges first
    ])
    def test_divergence_raises_the_per_trial_error(self, seed, steps):
        rd = retarget.tpr_joint(_rest_demo(), GainConfig(kp=1e5, kd=1.0))
        assert self._diverging_steps(rd, 1e-3, seed, 5) == steps
        with pytest.raises(SimulationDivergedError) as want:
            per_trial_noisy_replay(rd, self.PLANT, 1e-3, seed, 5, decimation=10)
        with pytest.raises(SimulationDivergedError) as got:
            noisy_openloop_replay(rd, self.PLANT, 1e-3, seed, 5, decimation=10)
        first_in_trial_order = next(s for s in steps if s is not None)
        assert got.value.step_index == want.value.step_index == first_in_trial_order


@functools.cache
def _short_demo(name):
    """A 0.3 s demo at 500 Hz on LANE_PLANTS[name]."""
    plant, q0, qf = LANE_PLANTS[name]
    pos, vel, acc = retarget.quintic_reference(q0, qf, 0.2)
    ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
    return retarget.make_demo(plant, ctrl, 0.3, 500.0, q0=q0, reference=pos,
                              goal=retarget.TaskGoal(qf, 0.05))


def _outcome(call):
    try:
        return call()
    except (SimulationDivergedError, PerturbationDivergedError) as exc:
        return exc


def _same_replay_outcome(got, alone) -> bool:
    if isinstance(alone, Exception):
        return type(got) is type(alone) and repr(got) == repr(alone)
    return (isinstance(got, noise.NoisyReplayResult) and got.goal_rate == alone.goal_rate
            and got.rms_deviation == alone.rms_deviation
            and np.array_equal(got.per_trial_rms, alone.per_trial_rms)
            and got.clean_goal_reached == alone.clean_goal_reached)


class TestNoisyReplayGainLanes:
    """A lane-stacked GainConfig retargets and replays each lane as its
    one-gain call does, bit for bit, in results or in the error raised."""

    @settings(max_examples=40, deadline=None, print_blob=True)
    @given(st.data())
    def test_every_lane_equals_its_one_gain_call(self, data):
        name = data.draw(st.sampled_from(sorted(LANE_PLANTS)), label="plant")
        plant = LANE_PLANTS[name][0]
        demo = _short_demo(name)
        if data.draw(st.booleans(), label="no torque limit"):  # lets the stiff lanes diverge
            plant = dataclasses.replace(plant, torque_limit=math.inf)
        n_lanes = data.draw(st.integers(1, 3), label="lanes")
        width = data.draw(st.sampled_from([1, plant.n_joints]), label="gain columns")
        kp, kd = (10.0 ** np.reshape(data.draw(st.lists(
            st.floats(lo, hi), min_size=n_lanes * width, max_size=n_lanes * width),
            label=f"log10 {key}"), (n_lanes, width))
            for key, lo, hi in (("kp", 0.0, 9.0), ("kd", -1.0, 4.0)))
        comp = dict(gravity_comp=data.draw(st.booleans(), label="gravity comp"))
        sigma = data.draw(st.sampled_from([0.0, 0.01, 0.05]), label="sigma")
        n_trials = data.draw(st.integers(1, 3), label="trials")
        decimation = data.draw(st.integers(1, 5), label="decimation")
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=n_lanes,
                                   max_size=n_lanes), label="seeds")
        rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd, **comp), plant=plant)
        got = noisy_openloop_replay(rd, plant, sigma, seeds, n_trials, decimation=decimation)
        assert len(got) == n_lanes
        for i, lane in enumerate(got):
            one = retarget.tpr_joint(demo, GainConfig(kp=kp[i], kd=kd[i], **comp), plant=plant)
            assert np.array_equal(rd.q_des[:, i], one.q_des)
            alone = _outcome(lambda: noisy_openloop_replay(one, plant, sigma, seeds[i], n_trials,
                                                           decimation=decimation))
            assert _same_replay_outcome(lane, alone), (i, lane, alone)

    def test_lanes_need_one_seed_each(self):
        rd = retarget.tpr_joint(_rest_demo(n=20), GainConfig(kp=[[4.0], [8.0]], kd=1.0))
        with pytest.raises(ValueError, match="one seed per gain lane"):
            noisy_openloop_replay(rd, point_mass(1.0), 0.01, [1, 2, 3], 2)

    def test_replay_noise_list_pairs_with_the_gain_lanes(self):
        rd = retarget.tpr_joint(_rest_demo(n=20), GainConfig(kp=[[4.0], [8.0]], kd=1.0))
        with pytest.raises(ValueError, match="command_noise"):
            retarget.replay(rd, 1, point_mass(1.0), command_noise=[None] * 3)


class TestNoisyReplayOverflow:
    def test_an_overflowing_deviation_fails_typed_naming_the_trial(self):
        # Kp dt^2 / m = 8: the trials leave the stiction band and grow huge,
        # but stay finite over the 0.5 s replay; the clean replay stays put
        plant = point_mass(1.0, static_friction=320.0, dynamic_friction_ratio=0.5)
        rd = retarget.tpr_joint(_rest_demo(n=250, base_rate=500.0),
                                GainConfig(kp=2e6, kd=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PerturbationDivergedError,
                               match="trial 0: deviation from the clean replay overflows"):
                noisy_openloop_replay(rd, plant, 1e-3, 7, 5, decimation=10)
