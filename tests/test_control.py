import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gainlab import control, dynamics, retarget, sysid
from gainlab.control import (GainConfig, GainGrid, classify_regime, default_grid,
                             effective_stiffness, limit_torque, pd_torque)
from gainlab.dynamics import State, point_mass
from oracles import loop_excite, simulate_replay


class TestPdTorque:
    def test_zero_at_setpoint(self):
        g = GainConfig(kp=100.0, kd=10.0)
        s = State(q=[0.2], q_dot=[0.0])
        assert_allclose(pd_torque(g, s, q_des=[0.2]), [0.0])

    def test_linear_law(self):
        g = GainConfig(kp=100.0, kd=1e-6)
        s = State(q=[0.0], q_dot=[0.0])
        assert_allclose(pd_torque(g, s, q_des=[0.1]), [10.0])

    def test_velocity_reference_defaults_to_zero(self):
        g = GainConfig(kp=1.0, kd=5.0)
        s = State(q=[0.0], q_dot=[2.0])
        assert_allclose(pd_torque(g, s, q_des=[0.0]), [-10.0])

    def test_gravity_compensation_toggle(self):
        s = State(q=[0.0], q_dot=[0.0])
        on = GainConfig(kp=1.0, kd=1.0, gravity_comp=True)
        off = GainConfig(kp=1.0, kd=1.0, gravity_comp=False)
        assert_allclose(pd_torque(on, s, [0.0], gravity_term=[3.0]), [3.0])
        assert_allclose(pd_torque(off, s, [0.0], gravity_term=[3.0]), [0.0])
        scaled = GainConfig(kp=1.0, kd=1.0, gravity_comp=True,
                            gravity_comp_scale=0.5)
        assert_allclose(pd_torque(scaled, s, [0.0], gravity_term=[3.0]), [1.5])

    def test_impedance_relation_at_steady_state(self):
        # constant external torque, simulate to rest: tau_ext = Kp (q - q_des)
        plant = point_mass(1.0)
        gains = GainConfig(kp=40.0, kd=15.0)
        tau_ext = np.array([1.7])
        state = dynamics.rest_state(plant)

        def torque_fn(s, k):
            return pd_torque(gains, s, [0.0])

        _, final = dynamics.simulate(plant, state, torque_fn, 1e-3, 12000,
                                     f_ext_fn=lambda s, k: tau_ext)
        assert_allclose(gains.kp * (final.q - 0.0), tau_ext, rtol=1e-6)

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
                                   policy=lambda s: -0.7 * s.q)
        assert k_up == pytest.approx(50.0 * 1.7, rel=1e-6)

    def test_policy_can_realize_stiffness_below_kp(self):
        plant = point_mass(1.0)
        g = GainConfig(kp=50.0, kd=20.0)
        k_down = effective_stiffness(plant, g, [2.0], 20.0,
                                     policy=lambda s: 0.5 * s.q)
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
               GainConfig(kp=512.0, kd=24.0, gravity_comp=True, gravity_comp_scale=0.9)]


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
            got, state = control.track(plant, gains, commands, decimation,
                                       1.0 / rd.base_rate, rd.q0, rd.q_dot0,
                                       rd.n_commands - 1)
            replayed, _ = retarget.replay(rd, decimation, plant,
                                          command_noise=command_noise)
            for f in ("t",) + self.FIELDS:
                assert np.array_equal(getattr(got, f), getattr(want, f)), f
                assert np.array_equal(getattr(replayed, f), getattr(want, f)), f
            assert np.array_equal(state.q, final.q)
            assert np.array_equal(state.q_dot, final.q_dot)
            assert state.t == final.t

    @pytest.mark.parametrize("gains", TRACK_GAINS, ids=["pd", "pd_gravity_comp"])
    @pytest.mark.parametrize("name", list(TRACK_PLANTS))
    def test_excite(self, name, gains):
        plant, q0, _ = TRACK_PLANTS[name]
        traj = sysid.excite(plant, gains, q0=q0)
        want = loop_excite(plant, gains, q0=q0)
        for f in self.FIELDS:
            assert np.array_equal(getattr(traj, f), getattr(want, f)), f
        # the arm's oracle logs simulate's accumulated State.t
        assert_allclose(traj.t, want.t, rtol=0, atol=1e-12)
