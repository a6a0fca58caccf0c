import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st
from plant_oracle import oracle_rhs

from platoon_asmc.arena import NO_ARENA, Arena, SpeedBreaker
from platoon_asmc.vehicle import RobotParams, plant_step_for, wheel_torque_split

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
nonneg = st.floats(min_value=0, max_value=10, allow_nan=False)


def params(**kw):
    base = dict(m=1.0, J=0.1, R=0.05, L=0.2,
                f_kr=0.0, f_kl=0.0, f_cr=0.0, f_cl=0.0)
    base.update(kw)
    return RobotParams(**base)


def deriv(p, x=0.0, y=0.0, theta=0.0, v=0.0, omega=0.0, F=0.0, tau=0.0,
          arena=NO_ARENA):
    return oracle_rhs(x, y, theta, v, omega, F, tau, p, arena)


def friction_forces(v, omega, p):
    """(f_v, f_w) read back from the stage derivative at zero wrench: with
    unit m and J, dv = -f_v and domega = -f_w exactly."""
    _, _, _, dv, dw = deriv(dataclasses.replace(p, m=1.0, J=1.0),
                            v=v, omega=omega)
    return -dv, -dw


def wheel_speeds(v, omega, L):
    """(v_r, v_l) as the friction term sees them: a unit viscous coefficient
    on one wheel only makes that wheel's contact speed the whole force."""
    v_r, _ = friction_forces(v, omega, params(L=L, f_cr=1.0))
    v_l, _ = friction_forces(v, omega, params(L=L, f_cl=1.0))
    return v_r, v_l


class TestWheelSpeeds:
    def test_zero_yaw_rate_is_symmetric(self):
        assert wheel_speeds(1.0, 0.0, 0.2) == (1.0, 1.0)

    def test_pure_rotation(self):
        v_r, v_l = wheel_speeds(0.0, 2.0, 0.2)
        assert math.isclose(v_r, 0.2, rel_tol=1e-12)
        assert math.isclose(v_l, -0.2, rel_tol=1e-12)

    def test_mixed_motion(self):
        v_r, v_l = wheel_speeds(2.0, 1.0, 0.4)
        assert math.isclose(v_r, 2.2, rel_tol=1e-12)
        assert math.isclose(v_l, 1.8, rel_tol=1e-12)

    @given(v1=finite, w1=finite, v2=finite, w2=finite,
           L=st.floats(min_value=0.01, max_value=2, allow_nan=False))
    def test_linearity_superposition(self, v1, w1, v2, w2, L):
        a = wheel_speeds(v1, w1, L)
        b = wheel_speeds(v2, w2, L)
        c = wheel_speeds(v1 + v2, w1 + w2, L)
        assert math.isclose(c[0], a[0] + b[0], rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(c[1], a[1] + b[1], rel_tol=1e-12, abs_tol=1e-12)


class TestFrictionForces:
    def test_straight_rolling(self):
        p = params(f_kr=0.1, f_kl=0.1, f_cr=0.05, f_cl=0.05, L=0.2)
        f_v, f_w = friction_forces(1.0, 0.0, p)
        # smooth sign saturates at 1 for v = 1 >> smoothing width
        assert math.isclose(f_v, 0.3, rel_tol=1e-9)
        assert f_w == 0.0

    def test_rest_gives_zero(self):
        p = params(f_kr=3.0, f_kl=7.0, f_cr=2.0, f_cl=9.0)
        f_v, f_w = friction_forces(0.0, 0.0, p)
        assert f_v == 0.0 and f_w == 0.0

    def test_pure_spin_viscous_torque(self):
        # v_r = 0.2, v_l = -0.2 -> per-wheel forces +-0.01, torque (0.02)*L
        p = params(f_cr=0.05, f_cl=0.05, L=0.2)
        f_v, f_w = friction_forces(0.0, 2.0, p)
        assert math.isclose(f_v, 0.0, abs_tol=1e-15)
        assert math.isclose(f_w, 0.004, rel_tol=1e-12)

    @given(v=finite, w=finite, fk=nonneg, fc=nonneg,
           L=st.floats(min_value=0.01, max_value=2, allow_nan=False))
    @settings(max_examples=300)
    def test_passivity_with_symmetric_coefficients(self, v, w, fk, fc, L):
        # Unforced kinetic energy cannot grow: m*v*dv + J*w*dw <= 0 holds for
        # per-side symmetric coefficients (the shipped configs; quadrant
        # scaling preserves it).
        p = params(m=1.0, J=1.0, f_kr=fk, f_kl=fk, f_cr=fc, f_cl=fc, L=L)
        _, _, _, dv, dw = deriv(p, v=v, omega=w)
        assert p.m * v * dv + p.J * w * dw <= 1e-12


class TestPlantDerivative:
    def test_equilibrium(self):
        assert deriv(params()) == (0, 0, 0, 0, 0)

    def test_force_accelerates(self):
        dx, _, _, dv, _ = deriv(params(m=2.0), F=1.0)
        assert math.isclose(dv, 0.5, rel_tol=1e-12)
        assert dx == 0.0

    def test_heading_aligned_with_y(self):
        dx, dy, _, _, _ = deriv(params(), theta=math.pi / 2, v=3.0)
        assert abs(dx) < 1e-15
        assert math.isclose(dy, 3.0, rel_tol=1e-12)

    def test_disturbance_enters_additively(self):
        # a breaker band adds its force and torque on top of the wrench
        p = params(m=2.0, J=0.5)
        band = Arena(speed_breakers=(SpeedBreaker(0.0, 0.0, 1.0, amp_force=1.0,
                                                  amp_torque=0.25),)).pack()
        free = deriv(p, v=5.0, F=0.3, tau=0.1)
        bumped = deriv(p, v=5.0, F=0.3, tau=0.1, arena=band)
        assert bumped[:3] == free[:3]
        assert math.isclose(bumped[3] - free[3], -0.5, rel_tol=1e-12)
        assert math.isclose(bumped[4] - free[4], -0.5, rel_tol=1e-12)


class TestWheelTorqueSplit:
    def test_pure_force(self):
        tau_r, tau_l = wheel_torque_split(2.0, 0.0, params(R=0.5, L=0.2))
        assert math.isclose(tau_r, 0.5, rel_tol=1e-12)
        assert math.isclose(tau_l, 0.5, rel_tol=1e-12)

    def test_zero_map(self):
        assert wheel_torque_split(0.0, 0.0, params()) == (0.0, 0.0)

    def test_pure_torque(self):
        tau_r, tau_l = wheel_torque_split(0.0, 1.0, params(R=0.5, L=0.5))
        assert math.isclose(tau_r, 0.5, rel_tol=1e-12)
        assert math.isclose(tau_l, -0.5, rel_tol=1e-12)

    @given(F=finite, tau=finite,
           R=st.floats(min_value=0.01, max_value=1, allow_nan=False),
           L=st.floats(min_value=0.01, max_value=1, allow_nan=False))
    def test_round_trip(self, F, tau, R, L):
        # the forward map F = (tau_r + tau_l)/R, tau = (tau_r - tau_l)*L/R
        # recovers the wrench. The error is relative to the wrench scale:
        # splitting mixes F with tau/L, so a tiny F recovered next to a large
        # tau/L carries that term's ulps
        tau_r, tau_l = wheel_torque_split(F, tau, params(R=R, L=L))
        back_F = (tau_r + tau_l) / R
        back_tau = (tau_r - tau_l) * L / R
        assert abs(back_F - F) <= 1e-12 * max(1.0, abs(F) + abs(tau) / L)
        assert abs(back_tau - tau) <= 1e-12 * max(1.0, abs(tau) + abs(F) * L)


def test_frictionless_constant_force_gives_linear_velocity():
    p = params(m=2.0)
    step = plant_step_for(p, NO_ARENA)
    v = step(0.0, 0.0, 0.0, 0.25, 0.0, 1.5, 0.0, 4000, 1e-3)[3]
    # v(t) = v0 + (F/m) t exactly; RK4 is exact for a linear-in-t velocity
    assert math.isclose(v, 0.25 + 0.75 * 4.0, rel_tol=1e-9)
