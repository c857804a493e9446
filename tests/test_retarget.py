import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import dynamics, retarget
from gainlab.control import GainConfig, pd_torque
from gainlab.dynamics import Trajectory, point_mass, two_link
from gainlab.retarget import (TaskGoal, TorqueDemo, computed_torque_tracker,
                              make_demo, quintic_reference, replay,
                              synth_task_demo, tpr_joint, tpr_task)
from oracles import clip_quintic_reference, two_link_terms


def linear_demo(plant=None, q_to=0.8, duration=2.0, base_rate=500.0):
    plant = plant or point_mass(1.0)
    pos, vel, acc = quintic_reference(np.zeros(plant.n_joints),
                                      np.full(plant.n_joints, q_to),
                                      0.75 * duration)
    ctrl = computed_torque_tracker(plant, pos, vel, acc)
    goal = TaskGoal(q_goal=np.full(plant.n_joints, q_to), tol=0.05)
    return make_demo(plant, ctrl, duration, base_rate, goal=goal, reference=pos)


class TestTprJoint:
    def test_rest_sample_maps_to_current_position(self):
        traj = Trajectory(sample_rate=10.0, t=[0.0], q=[[0.3]], q_dot=[[0.0]],
                          q_des=[[0.0]], tau=[[0.0]])
        demo = TorqueDemo(base_rate=10.0, traj=traj, goal=TaskGoal([0.3]))
        rd = tpr_joint(demo, GainConfig(kp=10.0, kd=1.0))
        assert_allclose(rd.q_des, [[0.3]])

    def test_hand_evaluation(self):
        # q=0.3, tau=2, qd=0.5, Kp=10, Kd=1 -> 0.3 + (2 + 0.5)/10 = 0.55
        traj = Trajectory(sample_rate=10.0, t=[0.0], q=[[0.3]], q_dot=[[0.5]],
                          q_des=[[0.0]], tau=[[2.0]])
        demo = TorqueDemo(base_rate=10.0, traj=traj, goal=TaskGoal([0.3]))
        rd = tpr_joint(demo, GainConfig(kp=10.0, kd=1.0))
        assert_allclose(rd.q_des, [[0.55]])

    def test_first_step_torque_identity(self):
        demo = linear_demo()
        gains = GainConfig(kp=64.0, kd=8.0)
        rd = tpr_joint(demo, gains)
        tau0 = pd_torque(gains, demo.traj.q[0], demo.traj.q_dot[0], rd.q_des[0])
        assert_allclose(tau0, demo.traj.tau[0], atol=1e-12)

    def test_round_trip_reproduces_torques_exactly(self):
        demo = linear_demo()
        for kp, kd in [(16.0, 128.0), (1024.0, 2.0), (77.0, 13.0)]:
            gains = GainConfig(kp=kp, kd=kd)
            rd = tpr_joint(demo, gains)
            tau_back = gains.kp * (rd.q_des - demo.traj.q) \
                + gains.kd * (0.0 - demo.traj.q_dot)
            assert_allclose(tau_back, demo.traj.tau, atol=1e-12)

    def test_command_offset_scales_inverse_kp(self):
        demo = linear_demo()
        kd = 1e-12
        off = {}
        for kp in (10.0, 20.0):
            rd = tpr_joint(demo, GainConfig(kp=kp, kd=kd))
            off[kp] = np.max(np.abs(rd.q_des - demo.traj.q))
        assert off[10.0] == pytest.approx(2.0 * off[20.0], rel=1e-9)

    def test_gravity_compensated_gains_need_plant(self):
        demo = linear_demo()
        with pytest.raises(ValueError):
            tpr_joint(demo, GainConfig(kp=10.0, kd=1.0, gravity_comp=True))


@st.composite
def recorded_demos(draw, gravity_comp):
    """A plant with gravity, a torque demo on it and diagonal gains.

    Torques stay at least 0.1 in magnitude, so rtol bounds the
    cancellation in Kp (q_des - q) - Kd q_dot."""
    kind = draw(st.sampled_from(["chain", "two_link"]))
    n = draw(st.integers(1, 3)) if kind == "chain" else 2
    rows = draw(st.integers(1, 20))

    def vec(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    def block(lo, hi):
        return np.array([vec(lo, hi) for _ in range(rows)])

    if kind == "chain":
        plant = dynamics.chain(vec(0.1, 5.0), gravity_enabled=True)
    else:
        plant = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                         gravity_enabled=True)
    sign = np.where(block(-1.0, 1.0) < 0, -1.0, 1.0)
    traj = Trajectory(sample_rate=100.0, t=np.arange(rows) / 100.0, q=block(-2.0, 2.0),
                      q_dot=block(-5.0, 5.0), q_des=np.zeros((rows, n)),
                      tau=sign * block(0.1, 100.0))
    demo = TorqueDemo(base_rate=100.0, traj=traj, goal=TaskGoal(np.zeros(n)))
    gains = GainConfig(kp=vec(1.0, 1e3), kd=vec(0.1, 100.0), gravity_comp=gravity_comp)
    return plant, demo, gains


class TestTprIdentity:
    @pytest.mark.parametrize("gravity_comp", [False, True])
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(data=st.data())
    def test_pd_torque_on_targets_reproduces_demo_torque(self, gravity_comp, data):
        plant, demo, gains = data.draw(recorded_demos(gravity_comp))
        traj = demo.traj
        rd = tpr_joint(demo, gains, plant=plant)
        tau = pd_torque(gains, traj.q, traj.q_dot, rd.q_des,
                        gravity_term=dynamics.gravity_torque(plant, traj.q))
        assert_allclose(tau, traj.tau, rtol=1e-9, atol=0)

    def test_gravity_excluded_bitwise_per_row(self):
        arm = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                       gravity_enabled=True)
        demo = linear_demo(arm)
        gains = GainConfig(kp=[200.0, 120.0], kd=[30.0, 20.0], gravity_comp=True)
        traj = demo.traj
        grav = np.array([two_link_terms(arm, q, qd)[2] for q, qd in zip(traj.q, traj.q_dot)])
        want = traj.q + (traj.tau - grav + gains.kd * traj.q_dot) / gains.kp
        got = tpr_joint(demo, gains, plant=arm).q_des
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTprTask:
    def test_zero_wrench_zero_velocity_identity(self):
        demo = synth_task_demo(x=np.zeros((5, 6)), x_des=np.zeros((5, 6)),
                               x_dot=np.zeros((5, 6)),
                               recording_gains=GainConfig(kp=100.0, kd=10.0))
        x_des = tpr_task(demo, GainConfig(kp=200.0, kd=20.0))
        assert_allclose(x_des, demo.x)

    def test_hand_evaluation_single_axis(self):
        # Kp'=100, Kd'=10, F=5, xd=0.2 -> offset (5 + 2)/100 = 0.07
        demo = retarget.TaskSpaceDemo(x=[[0.0]], x_dot=[[0.2]], wrench=[[5.0]])
        x_des = tpr_task(demo, GainConfig(kp=100.0, kd=10.0))
        assert_allclose(x_des, [[0.07]])

    def test_recording_gains_reproduce_original_targets(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 6))
        x_des = x + rng.normal(scale=0.1, size=(20, 6))
        x_dot = rng.normal(size=(20, 6))
        rec = GainConfig(kp=np.full(6, 80.0), kd=np.full(6, 12.0))
        demo = synth_task_demo(x=x, x_des=x_des, x_dot=x_dot, recording_gains=rec)
        assert_allclose(tpr_task(demo, rec), x_des, atol=1e-12)


class TestReplay:
    def test_base_rate_replay_is_exact_on_linear_plant(self):
        plant = point_mass(1.0)
        demo = linear_demo(plant)
        rd = tpr_joint(demo, GainConfig(kp=64.0, kd=8.0))
        _, rep = replay(rd, 1, plant, source=demo)
        assert rep.mse < 1e-9
        assert rep.goal_reached

    def test_state_matching_across_gain_configs(self):
        plant = point_mass(1.0)
        demo = linear_demo(plant)
        trajs = []
        for kp, kd in [(16.0, 128.0), (1024.0, 2.0), (64.0, 8.0)]:
            rd = tpr_joint(demo, GainConfig(kp=kp, kd=kd))
            traj, _ = replay(rd, 1, plant)
            trajs.append(traj.q)
        for a in trajs:
            for b in trajs:
                assert float(np.mean((a - b) ** 2)) <= 1e-6

    def test_decimation_50_no_better_than_25(self):
        arm = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4))
        demo = linear_demo(arm, q_to=0.5)
        rd = tpr_joint(demo, GainConfig(kp=64.0, kd=16.0))
        _, rep25 = replay(rd, 25, arm, source=demo)
        _, rep50 = replay(rd, 50, arm, source=demo)
        assert rep50.mse >= rep25.mse

    def test_decimation_validation(self):
        demo = linear_demo()
        rd = tpr_joint(demo, GainConfig(kp=10.0, kd=1.0))
        with pytest.raises(ValueError):
            replay(rd, 0, point_mass(1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_reports_diverged(self):
        # huge decimated command jumps on an undamped stiff loop stay
        # finite; force divergence with an absurd dt via base_rate
        traj = Trajectory(sample_rate=1.0, t=np.arange(30.0),
                          q=np.zeros((30, 1)), q_dot=np.zeros((30, 1)),
                          q_des=np.zeros((30, 1)), tau=np.full((30, 1), 1.0))
        demo = TorqueDemo(base_rate=1.0, traj=traj, goal=TaskGoal([0.0]))
        rd = tpr_joint(demo, GainConfig(kp=1e6, kd=1e-6))
        with pytest.raises(dynamics.SimulationDivergedError):
            replay(rd, 1, point_mass(1e-9))

    def test_overflowing_fidelity_mse_is_typed(self):
        # at Kp = 2e6 the decimated replay stays finite but ends so far off
        # the demo that its squared error overflows (warnings are errors)
        demo = linear_demo(duration=0.5)
        stiff = tpr_joint(demo, GainConfig(kp=2e6, kd=1.0))
        with pytest.raises(retarget.FidelityOverflowError, match="overflows"):
            replay(stiff, 10, point_mass(1.0), source=demo)
        lanes = tpr_joint(demo, GainConfig(kp=[[16.0], [2e6]], kd=[[1.0], [1.0]]))
        tame, wild = replay(lanes, 10, point_mass(1.0), source=demo, command_noise=[None, None])
        assert tame[1] == replay(tpr_joint(demo, GainConfig(kp=16.0, kd=1.0)), 10,
                                 point_mass(1.0), source=demo)[1]
        assert isinstance(wild, retarget.FidelityOverflowError)


class TestMakeDemo:
    def test_duration_guard(self):
        with pytest.raises(ValueError):
            make_demo(point_mass(1.0), lambda q, q_dot, t: [0.0], 0.0, 500.0)

    @pytest.mark.parametrize("duration,base_rate,match", [
        (math.inf, 500.0, "duration"),  # was OverflowError
        (math.nan, 500.0, "duration"),
        (-math.inf, 500.0, "duration"),
        (-1.0, 500.0, "duration"),
        (1.0, math.inf, "base_rate"),  # was OverflowError
        (1.0, 0.0, "base_rate"),  # was ZeroDivisionError
        (1.0, math.nan, "base_rate"),
        (0.0009, 500.0, "duration"),  # rounds to no sample: was IndexError downstream
        (0.001, 500.0, "duration"),  # round(0.5) is 0
        (1e200, 1e200, "duration"),  # finitely many samples
    ])
    def test_typed_errors(self, duration, base_rate, match):
        with pytest.raises(ValueError, match=match):
            make_demo(point_mass(1.0), lambda q, q_dot, t: [0.0], duration, base_rate)
        with pytest.raises(ValueError, match=match):
            retarget.demo_samples(duration, base_rate)

    def test_one_sample(self):
        demo = make_demo(point_mass(1.0), lambda q, q_dot, t: [1.0], 0.0011, 500.0)
        assert demo.traj.n_samples == retarget.demo_samples(0.0011, 500.0) == 1

    def test_sample_count_bookkeeping(self):
        demo = linear_demo(duration=2.0, base_rate=500.0)
        assert demo.traj.n_samples == 1000

    def test_tracker_accuracy_on_two_link(self):
        arm = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                       gravity_enabled=True)
        pos, vel, acc = quintic_reference([-0.4, 0.6], [0.5, -0.3], 1.5)
        ctrl = computed_torque_tracker(arm, pos, vel, acc)
        demo = make_demo(arm, ctrl, 2.0, 500.0, q0=[-0.4, 0.6], reference=pos)
        assert np.max(np.abs(demo.traj.q - demo.traj.q_des)) < 1e-4

    def test_saturation_flagged(self):
        plant = point_mass(1.0, torque_limit=0.5)
        demo = make_demo(plant, lambda q, q_dot, t: [10.0], 0.1, 500.0)
        assert demo.torque_saturated
        assert np.max(np.abs(demo.traj.tau)) <= 0.5


class TestQuinticMatchesClipOracle:
    """quintic_reference evaluates a float t in Python floats and an array t
    on numpy; both equal the all-numpy form (``clip_quintic_reference``)
    bitwise, and so does a demo tracked on either."""

    REFS = [([0.0], [0.8], 1.5), ([-0.4, 0.6], [0.5, -0.3], 1.5),
            ([0.3, -0.7], [-0.6, 0.1], 4.5), ([0.2], [-0.2], 0.0015)]

    @staticmethod
    def assert_same(q0, qf, T, ts):
        for new, old in zip(quintic_reference(q0, qf, T), clip_quintic_reference(q0, qf, T)):
            for t in ts:
                got, want = new(t), old(t)
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), t

    @staticmethod
    def grid(duration, rate):
        # dynamics.simulate's times: dt accumulated from 0, as Python floats
        n = int(round(duration * rate)) + 5
        return np.concatenate(([0.0], np.cumsum(np.full(n, 1.0 / rate)))).tolist()

    @pytest.mark.parametrize("q0,qf,T", REFS)
    @pytest.mark.parametrize("rate", [500.0, 100.0, 333.0])
    def test_on_the_simulate_grid(self, q0, qf, T, rate):
        ts = self.grid(T / 0.75, rate)
        assert all(type(t) is float for t in ts)
        self.assert_same(q0, qf, T, ts)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(ends=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
           T=st.floats(1e-3, 10.0), rate=st.sampled_from([50.0, 500.0, 1000.0, 777.0]))
    def test_random_references_on_the_grid(self, ends, T, rate):
        n = len(ends) // 2
        self.assert_same(ends[:n], ends[n:2 * n], T, self.grid(min(T / 0.75, 4.0), rate))

    @pytest.mark.parametrize("q0,qf,T", REFS)
    def test_other_times(self, q0, qf, T):
        ts = [0, 0.0, -0.0, -0.3, T, math.nextafter(T, 0.0), math.nextafter(T, math.inf),
              T + 1.0, 10 * T, 1, 0.4 * T]
        # array t as a column, one row per time, and as a 0-d array
        grid = np.array(self.grid(T / 0.75, 500.0))[:, None]
        self.assert_same(q0, qf, T, ts + [np.float64(t) for t in ts]
                         + [np.asarray(0.4 * T), grid, np.array([[-1.0], [T], [2 * T]])])

    @pytest.mark.parametrize("q0,qf,T", REFS)
    def test_a_1d_grid_is_a_column(self, q0, qf, T):
        # N times give one row per time, (N, n), as a 1-D array or a column;
        # a 1-D grid on a reference of two or more joints used to raise
        grid = np.array(self.grid(T / 0.75, 500.0))
        for f in quintic_reference(q0, qf, T):
            got, want = f(grid), f(grid[:, None])
            assert got.shape == want.shape == (grid.size, len(q0))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_duration_must_be_finite_and_positive(self, duration):
        # 0 raised ZeroDivisionError at the first call; -1 and inf gave a
        # flat reference and NaN a NaN one
        with pytest.raises(ValueError, match="duration"):
            quintic_reference([0.0], [1.0], duration)

    @pytest.mark.parametrize("plant", [
        point_mass(1.0, torque_limit=2.0),
        two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4)),
        two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4), gravity_enabled=True,
                 torque_limit=8.0, armature=[0.02, 0.01], viscous_friction=0.1)],
        ids=["point_mass", "two_link", "two_link_gravity_clamped"])
    def test_demo_equals_the_oracle_driven_demo(self, plant):
        n = plant.n_joints
        q0, qf = np.linspace(-0.4, 0.6, n), np.linspace(0.7, -0.5, n)
        demos = []
        for ref in (quintic_reference, clip_quintic_reference):
            pos, vel, acc = ref(q0, qf, 0.6)
            demos.append(make_demo(plant, computed_torque_tracker(plant, pos, vel, acc), 0.8,
                                   500.0, q0=q0, reference=pos))
        new, old = demos
        for name in ("t", "q", "q_dot", "q_des", "tau"):
            assert np.array_equal(getattr(new.traj, name), getattr(old.traj, name)), name
        assert new.torque_saturated == old.torque_saturated
        assert new.torque_saturated == (plant.torque_limit < math.inf)
