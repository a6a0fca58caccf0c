import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoon_asmc.arena import NO_ARENA
from platoon_asmc.control import (
    STEP_FIELDS,
    AsmcConfig,
    KinematicGains,
    adapt_gains,
    adapt_gains_baseline,
    asmc_force,
    asmc_torque,
    baseline_asmc,
    kinematic_control,
    laws_step_for,
    posture_error,
    step_for,
    update_sliding,
    wrap_angle,
)
from platoon_asmc.vehicle import RobotParams, plant_step_for

CFG = AsmcConfig()
GAIN_NAMES = ("K_v0", "K_v1", "K_w2", "K_w0", "K_w1", "K_v2")
NO_INTEGRALS = (0.0, 0.0)


def gain_tuple(**gains):
    """The gains tuple in GAIN_NAMES order, each gain not named at 0.01."""
    assert set(gains) <= set(GAIN_NAMES), gains
    return tuple(gains.get(name, 0.01) for name in GAIN_NAMES)


def named(gains):
    return dict(zip(GAIN_NAMES, gains))


class TestPostureError:
    def test_zero_heading_is_identity(self):
        assert posture_error(0, 0, 0, 1, 2, 0.5) == (1, 2, 0.5)

    def test_rotated_frame(self):
        e1, e2, e3 = posture_error(0, 0, math.pi / 2, 1, 0, math.pi / 2)
        assert abs(e1) < 1e-12
        assert math.isclose(e2, -1.0, rel_tol=1e-12)
        assert e3 == 0.0

    def test_coincident_poses(self):
        assert posture_error(3, -2, 1.1, 3, -2, 1.1) == (0, 0, 0)

    def test_heading_error_wraps_after_full_turns(self):
        e3 = posture_error(0, 0, 6 * math.pi + 0.1, 0, 0, 0.2)[2]
        assert math.isclose(e3, 0.1, abs_tol=1e-9)

    def test_wrap_angle_range(self):
        for a in np.linspace(-30, 30, 401):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi


class TestKinematicControl:
    def test_zero_error_passes_reference_through(self):
        v_c, omega_c = kinematic_control(
            *posture_error(0, 0, 0, 0, 0, 0), 2.0, 0.3, KinematicGains())
        assert v_c == 2.0 and omega_c == 0.3

    def test_longitudinal_term(self):
        v_c, _ = kinematic_control(0.1, 0, 0, 2.0, 0.0,
                                   KinematicGains(k1=5, k2=3, k3=2))
        assert math.isclose(v_c, 2.5, rel_tol=1e-12)

    def test_lateral_term(self):
        _, omega_c = kinematic_control(0, 0.2, 0, 2.0, 0.0,
                                       KinematicGains(k1=5, k2=3, k3=2))
        assert math.isclose(omega_c, 1.2, rel_tol=1e-12)


class TestSlidingVariables:
    def test_zero_error_zero_surface(self):
        s_v, s_w, _, _, integrals = update_sliding(
            NO_INTEGRALS, 1.0, 0.5, 1.0, 0.5, CFG, 0.01)
        assert s_v == 0.0 and s_w == 0.0
        assert integrals == (0.0, 0.0)

    def test_constant_error_grows_linearly(self):
        # e_v held at 1 from t=0 with phi_v = 0.5: s(t_k) = 1 + 0.5 * t_k
        integrals = NO_INTEGRALS
        dt = 0.01
        for k in range(500):
            s_v, _, _, _, integrals = update_sliding(
                integrals, 1.0, 0.0, 0.0, 0.0, CFG, dt)
            assert math.isclose(s_v, 1.0 + 0.5 * (k * dt), rel_tol=1e-9)

    def test_surface_identity_is_exact(self):
        s_v, s_w, _, _, _ = update_sliding((0.7, -0.3), 1.4, 0.2, 1.1, 0.6,
                                           CFG, 0.01)
        # s is built from the integral held before the call
        assert s_v == (1.4 - 1.1) + CFG.phi_v * 0.7
        assert s_w == (0.2 - 0.6) + CFG.phi_w * -0.3

    def test_xi_norm(self):
        xi_v = update_sliding((2.0, 0.0), 1.0, 0.0, 0.0, 0.0, CFG, 0.01)[2]
        assert math.isclose(xi_v, math.sqrt(5.0), rel_tol=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            update_sliding(NO_INTEGRALS, 0, 0, 0, 0, CFG, 0.0)


class TestForceTorqueLaws:
    def test_force_vanishes_on_surface(self):
        assert asmc_force(0.0, 0.0, 0.0, gain_tuple(), CFG) == 0.0

    def test_force_outside_boundary_layer(self):
        K = gain_tuple(K_v0=0.2)
        F = asmc_force(1.0, 0.0, 0.0, K, AsmcConfig(Lambda_v=3.0))
        assert math.isclose(F, -3.2, rel_tol=1e-12)

    def test_force_odd_symmetry_example(self):
        K = gain_tuple(K_v0=0.2)
        F = asmc_force(-1.0, 0.0, 0.0, K, AsmcConfig(Lambda_v=3.0))
        assert math.isclose(F, 3.2, rel_tol=1e-12)

    def test_torque_vanishes_on_surface(self):
        assert asmc_torque(0.0, 0.0, 0.0, gain_tuple(), CFG) == 0.0

    def test_torque_outside_boundary_layer(self):
        K = gain_tuple(K_w0=0.1)
        tau = asmc_torque(1.0, 0.0, 0.0, K, AsmcConfig(Lambda_w=2.0))
        assert math.isclose(tau, -2.1, rel_tol=1e-12)

    @given(s_v=st.floats(-10, 10, allow_nan=False),
           s_w=st.floats(-10, 10, allow_nan=False),
           xi_v=st.floats(0, 10, allow_nan=False),
           xi_w=st.floats(0, 10, allow_nan=False))
    def test_odd_symmetry(self, s_v, s_w, xi_v, xi_w):
        K = gain_tuple(K_v0=0.3, K_v1=0.2, K_w2=0.1, K_w0=0.4, K_w1=0.5,
                       K_v2=0.6)
        F1 = asmc_force(s_v, xi_v, xi_w, K, CFG)
        F2 = asmc_force(-s_v, xi_v, xi_w, K, CFG)
        t1 = asmc_torque(s_w, xi_v, xi_w, K, CFG)
        t2 = asmc_torque(-s_w, xi_v, xi_w, K, CFG)
        assert math.isclose(F1, -F2, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(t1, -t2, rel_tol=1e-12, abs_tol=1e-12)

    def test_baseline_uses_constant_bound_only(self):
        K = gain_tuple(K_v0=0.2, K_v1=9.0, K_w2=9.0, K_w0=0.1, K_w1=9.0,
                       K_v2=9.0)
        F, tau = baseline_asmc(1.0, 1.0, K,
                               AsmcConfig(Lambda_v=3.0, Lambda_w=2.0))
        assert math.isclose(F, -3.2, rel_tol=1e-12)
        assert math.isclose(tau, -2.1, rel_tol=1e-12)

    def test_baseline_zero_surface(self):
        F, tau = baseline_asmc(0.0, 0.0, gain_tuple(), CFG)
        assert F == 0.0 and tau == 0.0


class TestGainAdaptation:
    def test_pure_leak_rate(self):
        K = gain_tuple(K_v0=1.0)
        dt = 0.01
        after = adapt_gains(K, 0.0, 0.0, 0.0, 0.0, AsmcConfig(alpha_v0=2.5), dt)
        assert math.isclose((after[0] - K[0]) / dt, -2.5, rel_tol=1e-12)

    def test_drive_minus_leak(self):
        K = gain_tuple(K_v1=0.01)
        dt = 1e-3
        after = adapt_gains(K, 1.0, 0.0, 2.0, 0.0, AsmcConfig(alpha_v1=2.5), dt)
        assert math.isclose((after[1] - K[1]) / dt, 1.975, rel_tol=1e-9)

    def test_cross_coupled_drives(self):
        # K_w2 adapts on the yaw-channel signals, K_v2 on the force-channel ones
        cfg = AsmcConfig()
        dt = 0.01
        K = named(adapt_gains((0.01,) * 6, 1.0, 0.0, 2.0, 0.0, cfg, dt))
        assert K["K_v2"] > 0.01 * (1 - cfg.alpha_v2 * dt) + 1e-9
        assert K["K_w2"] < 0.01  # only leaks
        K = named(adapt_gains((0.01,) * 6, 0.0, 1.0, 0.0, 2.0, cfg, dt))
        assert K["K_w2"] > 0.01 * (1 - cfg.alpha_w2 * dt) + 1e-9
        assert K["K_v2"] < 0.01

    def test_pure_leak_decays_monotonically_positive(self):
        prev = (0.01,) * 6
        for _ in range(2000):
            now = adapt_gains(prev, 0.0, 0.0, 0.0, 0.0, CFG, 0.01)
            assert all(0 < g <= p for g, p in zip(now, prev))
            prev = now

    @given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False),
                              st.floats(-5, 5, allow_nan=False),
                              st.floats(0, 5, allow_nan=False),
                              st.floats(0, 5, allow_nan=False)),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_positivity_under_bounded_signals(self, signals):
        cfg = AsmcConfig(gain_clamp=None)
        dt = 0.01
        K = (0.01,) * 6
        decay = 1.0
        for s_v, s_w, xi_v, xi_w in signals:
            K = adapt_gains(K, s_v, s_w, xi_v, xi_w, cfg, dt)
            decay *= 1.0 - cfg.max_alpha() * dt
            floor = 0.99 * 0.01 * decay
            assert all(g > 0 for g in K)
            assert all(g >= floor for g in K)

    def test_clamp_caps_gains(self):
        cfg = AsmcConfig(gain_clamp=0.02)
        K = adapt_gains((0.019,) * 6, 100.0, 100.0, 10.0, 10.0, cfg, 0.01)
        assert all(g <= 0.02 for g in K)

    def test_oversized_step_is_rejected_not_silently_negative(self):
        # alpha * dt >= 1 would flip a gain's sign; the update refuses instead
        with pytest.raises(ValueError, match="positive domain"):
            adapt_gains((0.01,) * 6, 0.0, 0.0, 0.0, 0.0,
                        AsmcConfig(alpha_w0=5.0), dt=0.5)

    def test_baseline_adapts_constant_gains_only(self):
        K = named(adapt_gains_baseline((0.01,) * 6, 1.0, 1.0, CFG, 0.01))
        assert K["K_v0"] > 0.01 and K["K_w0"] > 0.01
        assert K["K_v1"] == 0.01 and K["K_w1"] == 0.01
        assert K["K_v2"] == 0.01 and K["K_w2"] == 0.01


def test_frozen_gain_surface_attraction():
    """With gains frozen and the switching bound above the plant's lumped
    uncertainty, s^2 decreases outside the boundary layer (scalar force
    channel with known friction)."""
    m = 1.0
    f_k, f_c = 0.3, 0.6  # combined both-wheel coefficients, straight motion

    def friction(v):
        return f_k * math.tanh(v / 0.01) + f_c * v

    cfg = AsmcConfig()
    rho = 10.0  # exceeds |eps_v| = |f(v)| for the speeds this run visits
    frozen = gain_tuple(K_v0=rho, K_v1=0.0, K_w2=0.0)
    v, v_c = 0.0, 1.0
    integrals = NO_INTEGRALS
    dt = 1e-3
    prev_s = None
    for _ in range(4000):
        s_v, _, xi_v, xi_w, integrals = update_sliding(
            integrals, v, 0.0, v_c, 0.0, cfg, dt)
        if prev_s is not None and abs(prev_s) > cfg.epsilon_bl:
            assert s_v ** 2 < prev_s ** 2
        prev_s = s_v
        F = asmc_force(s_v, xi_v, xi_w, frozen, cfg)
        v += dt * (F - friction(v)) / m
        assert abs(friction(v)) < rho


# The laws as they were written before both controllers shared one switching
# law and `adapt_gains` advanced K_v0 / K_w0 through `adapt_gains_baseline`:
# the oracle for the bitwise test below.
def oracle_sat(x):
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


def oracle_force(s_v, xi_v, xi_w, gains, cfg):
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    rho = K_v0 + K_v1 * xi_v + K_w2 * xi_w
    return -cfg.Lambda_v * s_v - rho * oracle_sat(s_v / cfg.epsilon_bl)


def oracle_torque(s_w, xi_v, xi_w, gains, cfg):
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    rho = K_w0 + K_w1 * xi_w + K_v2 * xi_v
    return -cfg.Lambda_w * s_w - rho * oracle_sat(s_w / cfg.epsilon_bl)


def oracle_baseline(s_v, s_w, gains, cfg):
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    F = -cfg.Lambda_v * s_v - K_v0 * oracle_sat(s_v / cfg.epsilon_bl)
    tau = -cfg.Lambda_w * s_w - K_w0 * oracle_sat(s_w / cfg.epsilon_bl)
    return F, tau


def oracle_clamp(k, clamp):
    if k <= 0.0:
        raise ValueError(k)
    if clamp is not None and k > clamp:
        return clamp
    return k


def oracle_adapt(gains, s_v, s_w, xi_v, xi_w, cfg, dt):
    if not dt > 0:
        raise ValueError(dt)
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    abs_sv = abs(s_v)
    abs_sw = abs(s_w)
    drive_v = abs_sv * xi_v
    drive_w = abs_sw * xi_w
    c = cfg.gain_clamp
    K_v0 = oracle_clamp(K_v0 + dt * (abs_sv - cfg.alpha_v0 * K_v0), c)
    K_v1 = oracle_clamp(K_v1 + dt * (drive_v - cfg.alpha_v1 * K_v1), c)
    K_w2 = oracle_clamp(K_w2 + dt * (drive_w - cfg.alpha_w2 * K_w2), c)
    K_w0 = oracle_clamp(K_w0 + dt * (abs_sw - cfg.alpha_w0 * K_w0), c)
    K_w1 = oracle_clamp(K_w1 + dt * (drive_w - cfg.alpha_w1 * K_w1), c)
    K_v2 = oracle_clamp(K_v2 + dt * (drive_v - cfg.alpha_v2 * K_v2), c)
    return K_v0, K_v1, K_w2, K_w0, K_w1, K_v2


def oracle_adapt_baseline(gains, s_v, s_w, cfg, dt):
    if not dt > 0:
        raise ValueError(dt)
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    c = cfg.gain_clamp
    K_v0 = oracle_clamp(K_v0 + dt * (abs(s_v) - cfg.alpha_v0 * K_v0), c)
    K_w0 = oracle_clamp(K_w0 + dt * (abs(s_w) - cfg.alpha_w0 * K_w0), c)
    return K_v0, K_v1, K_w2, K_w0, K_w1, K_v2


def bits(call):
    """The float bits of the result (a float or a tuple of floats), every
    NaN as one NaN, or the type of the exception raised. Which operand's
    payload a NaN sum carries is not fixed in CPython, so NaN payloads are
    not compared."""
    try:
        out = call()
    except ValueError as exc:
        return type(exc)
    if isinstance(out, float):
        out = (out,)
    return struct.pack(f"{len(out)}d", *(math.nan if v != v else v for v in out))


EPS = (0.05, 1e-3, 0.7)
# s around, inside and outside the boundary layer |s| <= eps of each width
EDGE_S = [f * m for e in EPS for f in (e, math.nextafter(e, 0.0),
                                       math.nextafter(e, math.inf))
          for m in (1.0, -1.0)] + [0.0, -0.0, 5e-324, 1e300, -1e300,
                                   math.inf, -math.inf, math.nan]
SIGNAL = st.sampled_from(EDGE_S) | st.floats(-5.0, 5.0) | st.floats()
NORM = st.sampled_from((0.0, 1e-300, 1e300, math.inf, math.nan)) | \
    st.floats(0.0, 10.0)
GAIN = st.sampled_from((0.01, 5e-324, 1e4, 1e300, math.inf, math.nan)) | \
    st.floats(1e-6, 100.0)
# (s_v, s_w, xi_v, xi_w), as `update_sliding` returns them
sliding_st = st.tuples(SIGNAL, SIGNAL, NORM, NORM)
gains_st = st.tuples(*[GAIN] * 6)
asmc_st = st.builds(
    AsmcConfig, Lambda_v=st.floats(0.1, 10.0), Lambda_w=st.floats(0.1, 10.0),
    alpha_v0=st.floats(0.1, 10.0), alpha_w1=st.floats(0.1, 10.0),
    epsilon_bl=st.sampled_from(EPS) | st.floats(1e-4, 1.0),
    gain_clamp=st.sampled_from((None, 1e4, 0.02, 1e300)))
DT = st.sampled_from((1e-2, 1e-3, 0.5, 0.0, -1e-2)) | st.floats(1e-4, 0.05)


class TestMatchesTheSeparateLaws:
    """The laws share `_switching` and `adapt_gains` calls
    `adapt_gains_baseline`, with the same bits as the separate laws."""

    @settings(max_examples=300, deadline=None)
    @given(sliding_st, gains_st, asmc_st)
    def test_force_torque_and_baseline(self, sv, K, cfg):
        s_v, s_w, xi_v, xi_w = sv
        assert bits(lambda: asmc_force(s_v, xi_v, xi_w, K, cfg)) == \
            bits(lambda: oracle_force(s_v, xi_v, xi_w, K, cfg))
        assert bits(lambda: asmc_torque(s_w, xi_v, xi_w, K, cfg)) == \
            bits(lambda: oracle_torque(s_w, xi_v, xi_w, K, cfg))
        assert bits(lambda: baseline_asmc(s_v, s_w, K, cfg)) == \
            bits(lambda: oracle_baseline(s_v, s_w, K, cfg))

    @settings(max_examples=300, deadline=None)
    @given(sliding_st, gains_st, asmc_st, DT)
    def test_adaptation(self, sv, K, cfg, dt):
        s_v, s_w, xi_v, xi_w = sv
        for law, oracle, signals in (
                (adapt_gains, oracle_adapt, sv),
                (adapt_gains_baseline, oracle_adapt_baseline, (s_v, s_w))):
            assert bits(lambda: law(K, *signals, cfg, dt)) == \
                bits(lambda: oracle(K, *signals, cfg, dt))


def outcome(call):
    """`call()`'s float bits, every NaN as one NaN (see `bits`), with the
    result itself; or the type and message of the ValueError it raises."""
    try:
        out = call()
    except ValueError as exc:
        return (type(exc), str(exc)), None
    return bits(lambda: out), out


class TestBoundStepMatchesTheLaws:
    """`step_for`'s step gives the laws' record fields bit for bit, and
    raises where they raise, call after call along one robot's run."""

    ROBOT, KIN, DT = RobotParams(), KinematicGains(), 0.01

    def pair(self, asmc, proposed, dt=DT):
        return (step_for(asmc, self.KIN, self.ROBOT, dt, proposed),
                laws_step_for(asmc, self.KIN, self.ROBOT, dt, proposed))

    def same(self, step, laws, args):
        """One call of each on `args`: their common outcome and row."""
        got, row = outcome(lambda: step(*args))
        assert got == outcome(lambda: laws(*args))[0], args
        return got, row

    def closed_loop(self, asmc, proposed, n=600):
        """The rows of a robot that starts at rest, 0.5 m off a 2 m circle
        at 1.3 m/s, under the friction of `RobotParams()`, its plant driven by
        the step's wrench; the laws see the same inputs."""
        step, laws = self.pair(asmc, proposed)
        plant = plant_step_for(self.ROBOT, NO_ARENA)
        state, v_d, radius = (0.0, -0.5, 0.4, 0.0, 0.0), 1.3, 2.0
        rows = []
        for k in range(n):
            thr = v_d / radius * k * self.DT
            reference = (radius * math.sin(thr), radius * (1.0 - math.cos(thr)),
                         thr, v_d, v_d / radius)
            _, row = self.same(step, laws, (*state, *reference))
            rows.append(row)
            F, tau = row[STEP_FIELDS.index("F")], row[STEP_FIELDS.index("tau")]
            state = plant(*state, F, tau, 10, self.DT / 10)
        return np.array(rows)

    @pytest.mark.parametrize("proposed", [True, False])
    @pytest.mark.parametrize("gain_clamp", [1e4, None])
    def test_along_an_adaptive_run(self, proposed, gain_clamp):
        rows = self.closed_loop(AsmcConfig(gain_clamp=gain_clamp), proposed)
        assert np.isfinite(rows).all()
        gains = rows[:, STEP_FIELDS.index("K_v0"):STEP_FIELDS.index("e_x")]
        # every adapted gain moved off k_init
        adapted = range(6) if proposed else (0, 3)
        assert all(len(set(gains[:, g])) > 100 for g in adapted)

    @pytest.mark.parametrize("proposed", [True, False])
    def test_where_the_clamp_is_hit(self, proposed):
        rows = self.closed_loop(AsmcConfig(gain_clamp=0.05), proposed)
        gains = rows[:, STEP_FIELDS.index("K_v0"):STEP_FIELDS.index("e_x")]
        assert (gains == 0.05).sum(axis=0)[0] > 100
        assert gains.max() == 0.05

    def test_a_nan_gain_passes_and_the_wrench_aborts(self):
        # a speed of 1e200 overflows K_v1's and K_v2's drive |s_v| |xi_v|
        # while F stays finite: with no clamp both gains are inf after the
        # first call, so the second call's F is not finite, the engine's
        # abort; their update there is inf - inf, a NaN that passes as
        # `_clamp_gain` lets it, and the third call logs it
        step, laws = self.pair(AsmcConfig(gain_clamp=None), True)
        calm = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        rows = [self.same(step, laws, args)[1]
                for args in ((0.0, 0.0, 0.0, 1e200, *calm[4:]), calm, calm)]
        F, K_v1 = STEP_FIELDS.index("F"), STEP_FIELDS.index("K_v1")
        assert all(map(math.isfinite, rows[0]))
        assert rows[1][K_v1] == math.inf and not math.isfinite(rows[1][F])
        assert math.isnan(rows[2][K_v1]) and math.isnan(rows[2][F])

    @pytest.mark.parametrize("proposed", [True, False])
    def test_oversized_step_raises_as_the_laws_do(self, proposed):
        # alpha_w0 * dt = alpha_w1 * dt = 1.5: K_w0 and K_w1 leave the
        # positive domain at once, and the error names K_w0, checked first
        step, laws = self.pair(AsmcConfig(), proposed, dt=0.3)
        got, _ = self.same(step, laws, (0.0,) * 10)
        K_w0 = 0.01 + 0.3 * (0.0 - 5.0 * 0.01)
        assert got == (ValueError, f"adaptive gain left the positive domain "
                       f"({K_w0}); alpha * dt must stay below 1")

    def test_rejects_a_control_period_that_is_not_positive(self):
        for dt in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="control_period"):
                step_for(CFG, self.KIN, self.ROBOT, dt, True)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[SIGNAL] * 10), min_size=1, max_size=6),
           asmc_st, st.booleans(), st.floats(1e-4, 0.05))
    def test_on_any_inputs(self, calls, cfg, proposed, dt):
        step, laws = self.pair(cfg, proposed, dt)
        for args in calls:
            got, _ = self.same(step, laws, args)
            if got[0] is ValueError:
                break  # the engine's abort; the states part ways here
