import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import control, dynamics, retarget, sysid
from gainlab.control import (GainConfig, GainGrid, classify_regime, default_grid,
                             effective_stiffness, pd_torque)
from gainlab.dynamics import point_mass
from oracles import limit_torque, loop_excite, simulate_replay


class TestPdTorque:
    def test_zero_at_setpoint(self):
        g = GainConfig(kp=100.0, kd=10.0)
        assert_allclose(pd_torque(g, np.array([0.2]), np.array([0.0]), q_des=[0.2]), [0.0])

    def test_linear_law(self):
        g = GainConfig(kp=100.0, kd=1e-6)
        assert_allclose(pd_torque(g, np.array([0.0]), np.array([0.0]), q_des=[0.1]), [10.0])

    def test_velocity_reference_defaults_to_zero(self):
        g = GainConfig(kp=1.0, kd=5.0)
        assert_allclose(pd_torque(g, np.array([0.0]), np.array([2.0]), q_des=[0.0]), [-10.0])

    def test_gravity_compensation_toggle(self):
        q = q_dot = np.array([0.0])
        on = GainConfig(kp=1.0, kd=1.0, gravity_comp=True)
        off = GainConfig(kp=1.0, kd=1.0, gravity_comp=False)
        grav = np.array([3.0])
        assert_allclose(pd_torque(on, q, q_dot, [0.0], gravity_term=grav), [3.0])
        assert_allclose(pd_torque(off, q, q_dot, [0.0], gravity_term=grav), [0.0])

    def test_impedance_relation_at_steady_state(self):
        # constant external torque, simulate to rest: tau_ext = Kp (q - q_des)
        plant = point_mass(1.0)
        gains = GainConfig(kp=40.0, kd=15.0)
        tau_ext = np.array([1.7])

        def torque_fn(q, q_dot, k, t):
            return pd_torque(gains, q, q_dot, [0.0]) + tau_ext, [0.0]

        traj = dynamics.simulate(plant, [0.0], [0.0], torque_fn, 1e-3, 12000)
        assert_allclose(gains.kp * (traj.q[-1] - 0.0), tau_ext, rtol=1e-6)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            GainConfig(kp=0.0, kd=1.0)
        with pytest.raises(ValueError):
            GainConfig(kp=[1.0, 2.0], kd=[1.0, -1.0])


class TestLimitTorque:
    def _plant(self):
        return point_mass(1.0, torque_limit=87.0, torque_rate_limit=990.0)

    def test_within_limits_unchanged(self):
        p = self._plant()
        assert_allclose(limit_torque(p, [1.5], [1.0], 1e-3), [1.5])

    def test_rate_limit_paper_value(self):
        # requesting 2 Nm from rest in 1 ms under the 990 Nm/s cap -> 0.99
        p = self._plant()
        assert_allclose(limit_torque(p, [2.0], [0.0], 1e-3), [0.99])

    def test_magnitude_clamp(self):
        p = point_mass(1.0, torque_limit=87.0, torque_rate_limit=1e12)
        assert_allclose(limit_torque(p, [1e6], [0.0], 1e-3), [87.0])

    def test_idempotent_on_limited_sequence(self):
        p = self._plant()
        rng = np.random.default_rng(2)
        raw = rng.normal(scale=150.0, size=(60, 1))
        dt = 1e-3
        limited = [np.zeros(1)]
        for tau in raw:
            limited.append(limit_torque(p, tau, limited[-1], dt))
        relimited = [limited[0]]
        for tau in limited[1:]:
            relimited.append(limit_torque(p, tau, relimited[-1], dt))
        assert_allclose(np.array(relimited), np.array(limited))


# rollouts clamp torque as np.minimum(np.maximum(tau, -lim), lim), which
# dispatches faster than np.clip and must stay bitwise equal to it
CLAMP_SPECIALS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324,
                  -5e-324, 300.0, -300.0, 1e-300, -1e-300]


def _clamp_outcome(clamp):
    with np.errstate(over="raise", invalid="raise", under="raise", divide="raise"):
        try:
            return clamp().tobytes()
        except FloatingPointError as exc:
            return repr(exc)


class TestMinMaxClampIsClip:
    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(tau=st.lists(st.sampled_from(CLAMP_SPECIALS) | st.floats(), min_size=1, max_size=6),
           lim=st.sampled_from([math.inf, 300.0, 1e-300])
           | st.floats(min_value=5e-324, allow_infinity=True))
    def test_same_bits_and_errors(self, tau, lim):
        tau = np.array(tau)
        assert _clamp_outcome(lambda: np.minimum(np.maximum(tau, -lim), lim)) \
            == _clamp_outcome(lambda: np.clip(tau, -lim, lim))

    @pytest.mark.parametrize("lim", [math.inf, 300.0, 1e-300])
    def test_every_special_value(self, lim):
        tau = np.array(CLAMP_SPECIALS)
        got = _clamp_outcome(lambda: np.minimum(np.maximum(tau, -lim), lim))
        assert got == _clamp_outcome(lambda: np.clip(tau, -lim, lim))
        assert isinstance(got, bytes)  # neither form raises


class TestRegime:
    def test_critical_damping_formula(self):
        r = classify_regime(GainConfig(kp=4.0, kd=4.0), 1.0, 8.0)
        assert_allclose(r.zeta, [1.0])
        assert_allclose(r.omega_n, [2.0])
        assert r.label == "CO"

    def test_underdamped_paper_corner(self):
        # Kp=16, Kd=2 is the compliant-underdamped representative
        r = classify_regime(GainConfig(kp=16.0, kd=2.0), 1.0, 128.0)
        assert_allclose(r.zeta, [0.25])
        assert r.label == "CU"

    def test_mass_scaling_halves_wn_and_zeta(self):
        g = GainConfig(kp=16.0, kd=2.0)
        r1 = classify_regime(g, 1.0, 128.0)
        r4 = classify_regime(g, 4.0, 128.0)
        assert_allclose(r4.omega_n, r1.omega_n / 2.0)
        assert_allclose(r4.zeta, r1.zeta / 2.0)

    def test_joint_scaling_preserves_label(self):
        # zeta^2 = Kd^2/(4 m Kp): scaling Kd^2 and m by the same factor
        # with Kp fixed leaves zeta unchanged, and the fixed Kp keeps the
        # stiff/compliant half of the label too.
        g1 = GainConfig(kp=16.0, kd=2.0)
        c = 9.0
        g2 = GainConfig(kp=16.0, kd=2.0 * math.sqrt(c))
        r1 = classify_regime(g1, 1.0, 128.0)
        r2 = classify_regime(g2, c, 128.0)
        assert_allclose(r2.zeta, r1.zeta)
        assert r1.label == r2.label

    def test_per_joint_labels(self):
        r = classify_regime(GainConfig(kp=[16.0, 512.0], kd=[24.0, 2.0]),
                            [1.0, 1.0], 128.0)
        assert r.labels == ("CO", "SU")
        assert r.label == "mixed"


class TestGainGrid:
    def test_default_grid_shape_and_split(self):
        grid = default_grid()
        assert grid.n_cells == 49
        assert grid.kp_values[0] == 16.0 and grid.kp_values[-1] == 1024.0
        assert grid.kd_values[0] == 2.0 and grid.kd_values[-1] == 128.0
        assert grid.stiffness_split == pytest.approx(128.0)

    def test_cell_enumeration_row_major_kd_outer(self):
        grid = GainGrid(kp_values=np.array([1.0, 2.0]),
                        kd_values=np.array([10.0, 20.0]))
        assert list(grid.cells()) == [(1.0, 10.0), (2.0, 10.0),
                                      (1.0, 20.0), (2.0, 20.0)]

    def test_corners(self):
        c = default_grid().corners()
        assert c == {"CO": (16.0, 128.0), "SO": (1024.0, 128.0),
                     "CU": (16.0, 2.0), "SU": (1024.0, 2.0)}

    def test_median_is_numpys_bitwise(self):
        rng = np.random.default_rng(8)
        for n in range(1, 60):
            x = rng.lognormal(0.0, 3.0, size=n)
            assert control._median(x) == float(np.median(x))
            assert control._median(list(np.round(x))) == float(np.median(np.round(x)))
        assert math.isnan(control._median([1.0, float("nan"), 2.0]))
        for _ in range(200):
            kp = np.cumsum(rng.uniform(0.1, 50.0, size=rng.integers(1, 12)))
            grid = GainGrid(kp_values=kp, kd_values=np.array([1.0]))
            assert grid.stiffness_split == float(np.exp(np.median(np.log(kp))))

    def test_axes_must_increase(self):
        with pytest.raises(ValueError):
            GainGrid(kp_values=np.array([2.0, 1.0]), kd_values=np.array([1.0]))


class TestEffectiveStiffness:
    def test_bare_pd_equals_kp(self):
        plant = point_mass(1.0)
        g = GainConfig(kp=50.0, kd=20.0)
        k = effective_stiffness(plant, g, [2.0], settle_time=8.0)
        assert k == pytest.approx(50.0, rel=1e-6)

    def test_composed_proportional_policy(self):
        # policy shifts the target against displacement:
        # q_des = -k_pol q  =>  K_eff = Kp (1 + k_pol)
        plant = point_mass(1.0)
        g = GainConfig(kp=50.0, kd=20.0)
        k_up = effective_stiffness(plant, g, [2.0], 8.0,
                                   policy=lambda q, q_dot: -0.7 * q)
        assert k_up == pytest.approx(50.0 * 1.7, rel=1e-6)

    def test_policy_can_realize_stiffness_below_kp(self):
        plant = point_mass(1.0)
        g = GainConfig(kp=50.0, kd=20.0)
        k_down = effective_stiffness(plant, g, [2.0], 20.0,
                                     policy=lambda q, q_dot: 0.5 * q)
        assert k_down == pytest.approx(25.0, rel=1e-6)
        assert k_down < 50.0

    def test_zero_probe_force_rejected(self):
        with pytest.raises(ValueError):
            effective_stiffness(point_mass(1.0), GainConfig(kp=1.0, kd=1.0),
                                [0.0], 1.0)

    def test_not_settled_raises(self):
        # far-too-short settle window
        plant = point_mass(1.0)
        g = GainConfig(kp=50.0, kd=1.0)
        with pytest.raises(control.NotSettledError):
            effective_stiffness(plant, g, [2.0], settle_time=0.05)


# Gravity, dry and viscous friction, and a torque limit the stiff cells hit.
TRACK_PLANTS = {
    "point_mass": (dynamics.point_mass(1.5, gravity_enabled=True, static_friction=0.3,
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
TRACK_GAINS = [GainConfig(kp=64.0, kd=8.0),
               GainConfig(kp=512.0, kd=24.0, gravity_comp=True)]


class TestTrackMatchesLoopOracles:
    """control.track reproduces the rollout loops it replaced, bit for bit."""

    FIELDS = ("q", "q_dot", "q_des", "tau")

    @pytest.mark.parametrize("decimation", [1, 10, 25])
    @pytest.mark.parametrize("gains", TRACK_GAINS, ids=["pd", "pd_gravity_comp"])
    @pytest.mark.parametrize("name", list(TRACK_PLANTS))
    def test_replay(self, name, gains, decimation):
        plant, q0, qf = TRACK_PLANTS[name]
        pos, vel, acc = retarget.quintic_reference(q0, qf, 1.5)
        ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
        demo = retarget.make_demo(plant, ctrl, 2.0, 500.0, q0=q0, reference=pos)
        rd = retarget.tpr_joint(demo, gains, plant=plant)
        noise = np.random.default_rng(3).normal(0.0, 0.05, rd.q_des[::decimation].shape)
        for command_noise in (None, noise):
            want, final = simulate_replay(rd, decimation, plant, command_noise)
            commands = rd.q_des[::decimation]
            if command_noise is not None:
                commands = commands + command_noise
            got = control.track(plant, gains, commands, decimation, 1.0 / rd.base_rate,
                                rd.q0, rd.q_dot0, rd.n_commands - 1)
            replayed, _ = retarget.replay(rd, decimation, plant,
                                          command_noise=command_noise)
            for f in ("t",) + self.FIELDS:
                assert np.array_equal(getattr(got, f), getattr(want, f)), f
                assert np.array_equal(getattr(replayed, f), getattr(want, f)), f
            assert np.array_equal(got.q[-1], final.q)
            assert np.array_equal(got.q_dot[-1], final.q_dot)
            assert got.t[-1] == final.t

    @pytest.mark.parametrize("gains", TRACK_GAINS, ids=["pd", "pd_gravity_comp"])
    @pytest.mark.parametrize("name", list(TRACK_PLANTS))
    def test_excite(self, name, gains):
        plant, q0, _ = TRACK_PLANTS[name]
        traj = sysid.excite(plant, gains, q0=q0)
        want = loop_excite(plant, gains, q0=q0)
        for f in self.FIELDS:
            assert np.array_equal(getattr(traj, f), getattr(want, f)), f
        # the arm's oracle logs the State path's accumulated t
        assert_allclose(traj.t, want.t, rtol=0, atol=1e-12)


def _same_outcome(got, alone):
    """A lane of a stacked track call against its one-lane call: the same
    trajectory bitwise, or the same divergence step."""
    if isinstance(alone, dynamics.SimulationDivergedError):
        return isinstance(got, dynamics.SimulationDivergedError) and \
            got.step_index == alone.step_index
    return isinstance(got, dynamics.Trajectory) and all(
        np.array_equal(getattr(got, f), getattr(alone, f))
        for f in ("t", "q", "q_dot", "q_des", "tau"))


def _track_alone(*args):
    try:
        return control.track(*args)
    except dynamics.SimulationDivergedError as exc:
        return exc


class TestTrackDt:
    @pytest.mark.parametrize("n_steps", [0, 3])
    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_dt_must_be_finite_and_positive(self, dt, n_steps):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            control.track(point_mass(1.0), GainConfig(kp=4.0, kd=1.0), [[0.5]], 1, dt,
                          0.0, 0.0, n_steps)


class TestTrackLanesDivergeAlone:
    """A diverging lane of a stack gets the error it raises alone, and every
    other lane is the trajectory it gets alone."""

    M, DT = 1e-6, 0.01

    @settings(max_examples=100, deadline=None, print_blob=True)
    @given(st.data())
    def test_every_lane_equals_its_one_lane_call(self, data):
        # a lane's semi-implicit step is unstable when (Kd + viscous)*dt/m_eff
        # exceeds 2: here 0.01*(1 + visc)/(1e-6 + armature) spans 0.01-2e4,
        # and a lane with zero commands rests at the start even when unstable
        n_lanes = data.draw(st.integers(1, 5), label="lanes")
        lane_floats = st.lists(st.floats(0.0, 1.0), min_size=n_lanes, max_size=n_lanes)
        armature = 10.0 ** np.array(data.draw(
            st.lists(st.floats(-8.0, 0.0), min_size=n_lanes, max_size=n_lanes),
            label="log10 armature"))[:, None]
        visc = np.array(data.draw(lane_floats, label="visc"))[:, None]
        hold = data.draw(st.integers(1, 4), label="hold")
        n_steps = data.draw(st.integers(0, 150), label="n_steps")
        kp = data.draw(st.floats(0.1, 100.0), label="kp")
        scale = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.01, 1.0]), min_size=n_lanes,
                                            max_size=n_lanes), label="command scale"))
        n_cmd = max(1, -(-n_steps // hold))
        commands = scale[None, :, None] * np.random.default_rng(
            data.draw(st.integers(0, 2**16), label="seed")).uniform(-1, 1, (n_cmd, n_lanes, 1))
        gains = GainConfig(kp=kp, kd=1.0)
        plant = point_mass(self.M, armature=armature, viscous_friction=visc)
        got = control.track(plant, gains, commands, hold, self.DT, 0.0, 0.0, n_steps)
        assert len(got) == n_lanes
        for i, lane in enumerate(got):
            one = point_mass(self.M, armature=armature[i, 0], viscous_friction=visc[i, 0])
            alone = _track_alone(one, gains, commands[:, i], hold, self.DT, 0.0, 0.0,
                                 n_steps)
            assert _same_outcome(lane, alone), (i, lane, alone)

    @pytest.mark.parametrize("n_steps", [20, 8])
    def test_silent_solve_overflow(self, n_steps):
        # a 1e308 command makes np.linalg.solve overflow without a
        # floating-point error at step 7; the next step raises, or with 8
        # steps the lane ends non-finite
        arm = dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4))
        gains = GainConfig(kp=1.0, kd=1.0)
        commands = np.zeros((20, 2, 2))
        commands[:, 0] = [0.3, -0.2]
        commands[7, 1] = [1e308, -1e308]
        got = control.track(arm, gains, commands, 1, 1e-3, [0.2, -0.1], 0.0, n_steps)
        alone = [_track_alone(arm, gains, commands[:, i], 1, 1e-3, [0.2, -0.1], 0.0, n_steps)
                 for i in range(2)]
        assert isinstance(alone[0], dynamics.Trajectory)
        assert alone[1].step_index == 7
        assert all(_same_outcome(g, a) for g, a in zip(got, alone))

    def test_zero_steps(self):
        # the one row holds the start state, its command and zero torque
        gains, armature = GainConfig(kp=4.0, kd=1.0), [0.0, 0.5]
        got = control.track(point_mass(1.0, armature=np.array(armature)[:, None]), gains,
                            [[0.7]], 1, 0.01, 0.1, 0.2, 0)
        for lane, arm in zip(got, armature, strict=True):
            one = point_mass(1.0, armature=arm)
            assert _same_outcome(lane, control.track(one, gains, [[0.7]], 1, 0.01, 0.1, 0.2, 0))
            assert (lane.t.tolist(), lane.q.tolist(), lane.q_dot.tolist(), lane.q_des.tolist(),
                    lane.tau.tolist()) == ([0.0], [[0.1]], [[0.2]], [[0.1]], [[0.0]])


def _lane_gains(data, n_lanes: int, n: int):
    """(kp, kd) rows for n_lanes lanes, (B, n) or (B, 1), log-uniform over
    ranges whose top ends make a 500 Hz step unstable."""
    width = data.draw(st.sampled_from([1, n]), label="gain columns")
    size = n_lanes * width
    kp, kd = (10.0 ** np.reshape(data.draw(st.lists(st.floats(lo, hi), min_size=size,
                                                    max_size=size), label=f"log10 {name}"),
                                 (n_lanes, width))
              for name, lo, hi in (("kp", 0.0, 9.0), ("kd", -1.0, 4.0)))
    return kp, kd


class TestGainLanes:
    def test_lanes_and_expand(self):
        g = GainConfig(kp=[[4.0], [8.0]], kd=2.0, gravity_comp=True)
        assert g.lanes == (2,) and g.n_joints == 1
        wide = g.expand(3)
        assert wide.lanes == (2,) and wide.n_joints == 3 and wide.gravity_comp
        assert wide.kp.tolist() == [[4.0] * 3, [8.0] * 3] and wide.kd.tolist() == [[2.0] * 3] * 2
        assert GainConfig(kp=[4.0, 8.0], kd=1.0).lanes == ()
        assert GainConfig(kp=[[4.0, 8.0]], kd=[[1.0], [2.0]]).kp.shape == (2, 2)

    @pytest.mark.parametrize("kp, kd", [([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 3),
                                        ([1.0, 2.0], [1.0, 2.0, 3.0]),
                                        ([[[1.0]]], 1.0)])
    def test_shapes_that_do_not_broadcast(self, kp, kd):
        with pytest.raises(ValueError):
            GainConfig(kp=kp, kd=kd)

    def test_two_lane_gains_expand_lane_by_lane_only(self):
        with pytest.raises(ValueError, match="cannot expand"):
            GainConfig(kp=[[1.0, 2.0]], kd=1.0).expand(3)

    @pytest.mark.parametrize("gain_lanes, command_lanes, plant_lanes", [
        (2, 3, None), (2, None, 3), (None, 2, 3), (2, 2, 3)])
    def test_mismatched_lane_counts_raise(self, gain_lanes, command_lanes, plant_lanes):
        gains = GainConfig(kp=4.0 if gain_lanes is None else np.full((gain_lanes, 1), 4.0),
                           kd=1.0)
        commands = np.zeros((5, 1) if command_lanes is None else (5, command_lanes, 1))
        plant = point_mass(1.0, armature=0.0 if plant_lanes is None
                           else np.zeros((plant_lanes, 1)))
        with pytest.raises(ValueError, match="lane counts differ"):
            control.track(plant, gains, commands, 1, 0.01, 0.0, 0.0, 4)

    def test_a_diverging_gain_lane_fails_alone(self):
        # Kp dt^2 / m = 400 diverges; the compliant lane is its one-gain run
        plant, kp = point_mass(1.0), np.array([[64.0], [1e8]])
        commands = np.full((200, 1), 0.3)
        got = control.track(plant, GainConfig(kp=kp, kd=8.0), commands, 1, 2e-3, 0.0, 0.0, 199)
        alone = [_track_alone(plant, GainConfig(kp=k, kd=8.0), commands, 1, 2e-3, 0.0, 0.0, 199)
                 for k in kp]
        assert isinstance(alone[0], dynamics.Trajectory)
        assert isinstance(alone[1], dynamics.SimulationDivergedError)
        assert all(_same_outcome(g, a) for g, a in zip(got, alone, strict=True))

    @settings(max_examples=80, deadline=None, print_blob=True)
    @given(st.data())
    def test_every_lane_equals_its_one_gain_call(self, data):
        name = data.draw(st.sampled_from(sorted(TRACK_PLANTS)), label="plant")
        plant, q0, _ = TRACK_PLANTS[name]
        if data.draw(st.booleans(), label="no torque limit"):  # lets the stiff lanes diverge
            plant = dataclasses.replace(plant, torque_limit=math.inf)
        n = plant.n_joints
        n_lanes = data.draw(st.integers(1, 4), label="lanes")
        kp, kd = _lane_gains(data, n_lanes, n)
        comp = dict(gravity_comp=data.draw(st.booleans(), label="gravity comp"))
        hold = data.draw(st.integers(1, 4), label="hold")
        n_steps = data.draw(st.integers(0, 120), label="n_steps")
        n_cmd = max(1, -(-n_steps // hold))
        per_lane = data.draw(st.booleans(), label="a command column per lane")
        commands = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")).uniform(
            -1.0, 1.0, (n_cmd, n_lanes, n) if per_lane else (n_cmd, n))
        got = control.track(plant, GainConfig(kp=kp, kd=kd, **comp), commands, hold, 2e-3, q0,
                            0.0, n_steps)
        assert len(got) == n_lanes
        for i, lane in enumerate(got):
            alone = _track_alone(plant, GainConfig(kp=kp[i], kd=kd[i], **comp),
                                 commands[:, i] if per_lane else commands, hold, 2e-3, q0,
                                 0.0, n_steps)
            assert _same_outcome(lane, alone), (i, lane, alone)
