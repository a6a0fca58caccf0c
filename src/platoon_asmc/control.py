"""Two-stage tracking controller for one robot.

Stage 1 (kinematic): backstepping law turning a body-frame posture error into
velocity commands (v_c, omega_c). Stage 2 (dynamic): sliding-mode force/torque
laws with online gain adaptation. The proposed variant carries state-dependent
switching-gain terms; the baseline variant keeps only the constant terms and
serves as the comparison controller.

The controller is a discrete-time component: integral and gain states advance
with explicit Euler at the control period, independently of the plant
integrator.

The engine runs a robot's controller as one call per robot-step: the step
that `step_for` binds once per robot and episode, which holds the robot's
`Gains` and its integrals, the pair (int_v, int_w), as its own state. The
per-function laws below hold no state (a law that advances the gains or the
integrals returns the new values). `laws_step_for` composes them into the
same step, call by call; it is `step_for`'s bitwise oracle, and the step
`step_for` returns while a law is rebound in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arena import finite, require
from .vehicle import RobotParams, wheel_torque_split

Gains = tuple[float, float, float, float, float, float]
"""The six adaptive gains in the trace's column order, (K_v0, K_v1, K_w2,
K_w0, K_w1, K_v2): the force law's three, then the torque law's three."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True)
class KinematicGains:
    k1: float = 5.0
    k2: float = 3.0
    k3: float = 2.0

    def __post_init__(self) -> None:
        require(self, ("k1", "k2", "k3"), "> 0")


@dataclass(frozen=True)
class AsmcConfig:
    """Gains of the sliding-mode layer.

    phi_v/phi_w weight the error integral in the sliding variables; Lambda_v /
    Lambda_w are the linear sliding gains; the alpha_* are leakage rates of the
    six adaptive gains; epsilon_bl is the boundary-layer width replacing the
    hard sign with a saturation; k_init seeds all six adaptive gains (> 0);
    gain_clamp optionally caps the gains against numerical escape in
    pathological configs (None disables, and validation-grade runs disable it
    so it cannot mask instability).
    """

    phi_v: float = 0.5
    phi_w: float = 0.1
    Lambda_v: float = 3.0
    Lambda_w: float = 2.0
    alpha_v0: float = 2.5
    alpha_v1: float = 2.5
    alpha_w2: float = 3.0
    alpha_w0: float = 5.0
    alpha_w1: float = 5.0
    alpha_v2: float = 1.5
    epsilon_bl: float = 0.05
    k_init: float = 0.01
    gain_clamp: float | None = 1e4

    def __post_init__(self) -> None:
        require(self, ("phi_v", "phi_w", "Lambda_v", "Lambda_w", "alpha_v0",
                       "alpha_v1", "alpha_w2", "alpha_w0", "alpha_w1",
                       "alpha_v2", "epsilon_bl", "k_init"), "> 0")
        if self.gain_clamp is not None and not (finite(self.gain_clamp)
                                                and self.gain_clamp > 0):
            raise ValueError(
                f"gain_clamp must be finite and > 0 or null, got {self.gain_clamp}")
        if self.gain_clamp is not None and self.k_init > self.gain_clamp:
            raise ValueError(
                f"k_init {self.k_init} exceeds gain_clamp {self.gain_clamp}")

    def max_alpha(self) -> float:
        return max(self.alpha_v0, self.alpha_v1, self.alpha_w2,
                   self.alpha_w0, self.alpha_w1, self.alpha_v2)


def posture_error(x: float, y: float, theta: float, x_r: float, y_r: float,
                  theta_r: float) -> tuple[float, float, float]:
    """Rotate the inertial pose error into the robot body frame: the
    longitudinal e1 (m), lateral e2 (m) and heading e3 (rad) errors.

    e1 = cos(th)*dx + sin(th)*dy, e2 = -sin(th)*dx + cos(th)*dy, e3 = dth
    wrapped to (-pi, pi] so full revolutions never produce large commands.
    """
    dx = x_r - x
    dy = y_r - y
    c = math.cos(theta)
    s = math.sin(theta)
    return c * dx + s * dy, -s * dx + c * dy, wrap_angle(theta_r - theta)


def kinematic_control(e1: float, e2: float, e3: float, v_d: float,
                      omega_d: float, gains: KinematicGains
                      ) -> tuple[float, float]:
    """Backstepping velocity law, the commands (v_c, omega_c):
    v_c = v_d cos e3 + k1 e1, omega_c = omega_d + k2 v_d e2 + k3 v_d sin e3."""
    return (v_d * math.cos(e3) + gains.k1 * e1,
            omega_d + gains.k2 * v_d * e2 + gains.k3 * v_d * math.sin(e3))


def update_sliding(integrals: tuple[float, float], v: float, omega: float,
                   v_c: float, omega_c: float, cfg: AsmcConfig, dt: float
                   ) -> tuple[float, float, float, float, tuple[float, float]]:
    """Sliding variables at the current sample, and the advanced integrals.

    Returns (s_v, s_w, xi_v, xi_w, integrals'): s = e + phi * int(e) of the
    velocity and yaw-rate channels, and the norms |xi| = hypot(e, int(e))
    that drive adaptation. s uses `integrals`, the pair (int_v, int_w)
    accumulated up to (not including) this sample, so a constant error e
    held from t=0 yields s(t) = e * (1 + phi * t) exactly on the sample grid;
    integrals' adds e * dt to each for the next call.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    e_v = v - v_c
    e_w = omega - omega_c
    int_v, int_w = integrals
    return (e_v + cfg.phi_v * int_v, e_w + cfg.phi_w * int_w,
            math.hypot(e_v, int_v), math.hypot(e_w, int_w),
            (int_v + e_v * dt, int_w + e_w * dt))


def _switching(s: float, lam: float, rho: float, eps: float) -> float:
    """The switching law of both controllers: -lam s - rho sat(s/eps), with
    the boundary-layer saturation clipping s/eps to [-1, 1]."""
    x = s / eps
    if x > 1.0:
        x = 1.0
    elif x < -1.0:
        x = -1.0
    return -lam * s - rho * x


def asmc_force(s_v: float, xi_v: float, xi_w: float, gains: Gains,
               cfg: AsmcConfig) -> float:
    """Force law F = -Lambda_v s_v - rho_v sat(s_v/eps) with the
    state-dependent bound rho_v = K_v0 + K_v1 |xi_v| + K_w2 |xi_w|."""
    rho = gains[0] + gains[1] * xi_v + gains[2] * xi_w
    return _switching(s_v, cfg.Lambda_v, rho, cfg.epsilon_bl)


def asmc_torque(s_w: float, xi_v: float, xi_w: float, gains: Gains,
                cfg: AsmcConfig) -> float:
    """Torque law, mirror of `asmc_force` on the yaw channel with
    rho_w = K_w0 + K_w1 |xi_w| + K_v2 |xi_v|."""
    rho = gains[3] + gains[4] * xi_w + gains[5] * xi_v
    return _switching(s_w, cfg.Lambda_w, rho, cfg.epsilon_bl)


def baseline_asmc(s_v: float, s_w: float, gains: Gains,
                  cfg: AsmcConfig) -> tuple[float, float]:
    """Bounded-gain comparison controller: the proposed laws with the
    state-dependent terms masked off, rho_v = K_v0 and rho_w = K_w0, i.e. a
    switching gain that can only track an a-priori-bounded uncertainty level.
    """
    return (_switching(s_v, cfg.Lambda_v, gains[0], cfg.epsilon_bl),
            _switching(s_w, cfg.Lambda_w, gains[3], cfg.epsilon_bl))


def _left_positive_domain(*gains: float) -> ValueError:
    """The error for the first of `gains` at or below 0: unreachable when
    alpha * dt < 1 and the incoming gains are positive, it guards direct API
    use with an oversized step."""
    k = next(k for k in gains if k <= 0.0)
    return ValueError(f"adaptive gain left the positive domain ({k}); "
                      "alpha * dt must stay below 1")


def _clamp_gain(k: float, clamp: float | None) -> float:
    if k <= 0.0:
        raise _left_positive_domain(k)
    if clamp is not None and k > clamp:
        return clamp
    return k


def adapt_gains(gains: Gains, s_v: float, s_w: float, xi_v: float,
                xi_w: float, cfg: AsmcConfig, dt: float) -> Gains:
    """The six adaptive gains after one explicit-Euler step of their ODEs.

    Drives: K_v0 <- |s_v|; K_v1 <- |s_v||xi_v|; K_w0 <- |s_w|;
    K_w1 <- |s_w||xi_w|; and the cross-coupled pair K_w2 <- |s_w||xi_w|
    (used by the force law) and K_v2 <- |s_v||xi_v| (used by the torque law).
    Each gain leaks at its own alpha rate. K_v0 and K_w0 advance as in
    `adapt_gains_baseline`; each update reads only its own gain.
    """
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = adapt_gains_baseline(
        gains, s_v, s_w, cfg, dt)
    drive_v = abs(s_v) * xi_v
    drive_w = abs(s_w) * xi_w
    c = cfg.gain_clamp
    K_v1 = _clamp_gain(K_v1 + dt * (drive_v - cfg.alpha_v1 * K_v1), c)
    K_w2 = _clamp_gain(K_w2 + dt * (drive_w - cfg.alpha_w2 * K_w2), c)
    K_w1 = _clamp_gain(K_w1 + dt * (drive_w - cfg.alpha_w1 * K_w1), c)
    K_v2 = _clamp_gain(K_v2 + dt * (drive_v - cfg.alpha_v2 * K_v2), c)
    return K_v0, K_v1, K_w2, K_w0, K_w1, K_v2


def adapt_gains_baseline(gains: Gains, s_v: float, s_w: float,
                         cfg: AsmcConfig, dt: float) -> Gains:
    """Baseline adaptation: only the constant-bound gains K_v0 / K_w0 adapt;
    the state-dependent gains are returned untouched (they are not used)."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    K_v0, K_v1, K_w2, K_w0, K_w1, K_v2 = gains
    c = cfg.gain_clamp
    K_v0 = _clamp_gain(K_v0 + dt * (abs(s_v) - cfg.alpha_v0 * K_v0), c)
    K_w0 = _clamp_gain(K_w0 + dt * (abs(s_w) - cfg.alpha_w0 * K_w0), c)
    return K_v0, K_v1, K_w2, K_w0, K_w1, K_v2


# The record fields a step returns, in the trace's column order.
STEP_FIELDS = ("vc", "wc", "F", "tau", "tau_r", "tau_l", "s_v", "s_w",
               "K_v0", "K_v1", "K_w2", "K_w0", "K_w1", "K_v2", "e_x", "e_y")

# The laws a step runs, as this module binds them.
_LAWS = tuple((law.__name__, law) for law in (
    posture_error, kinematic_control, update_sliding, asmc_force, asmc_torque,
    adapt_gains, baseline_asmc, adapt_gains_baseline))


def laws_step_for(asmc: AsmcConfig, kin: KinematicGains, robot: RobotParams,
                  control_period: float, proposed: bool,
                  split=wheel_torque_split):
    """`step_for`'s step as the laws called in turn, each looked up by its
    name in this module at every call, and `split` for the wheel torques."""
    dt = control_period
    gains, integrals = (asmc.k_init,) * 6, (0.0, 0.0)

    def step(x, y, th, v, w, xr, yr, thr, v_d, omega_d):
        nonlocal gains, integrals
        e1, e2, e3 = posture_error(x, y, th, xr, yr, thr)
        v_c, w_c = kinematic_control(e1, e2, e3, v_d, omega_d, kin)
        s_v, s_w, xi_v, xi_w, after_int = update_sliding(
            integrals, v, w, v_c, w_c, asmc, dt)
        if proposed:
            F = asmc_force(s_v, xi_v, xi_w, gains, asmc)
            tau = asmc_torque(s_w, xi_v, xi_w, gains, asmc)
            after = adapt_gains(gains, s_v, s_w, xi_v, xi_w, asmc, dt)
        else:
            F, tau = baseline_asmc(s_v, s_w, gains, asmc)
            after = adapt_gains_baseline(gains, s_v, s_w, asmc, dt)
        row = (v_c, w_c, F, tau, *split(F, tau, robot), s_v, s_w, *gains,
               xr - x, yr - y)
        gains, integrals = after, after_int
        return row

    return step


def step_for(asmc: AsmcConfig, kin: KinematicGains, robot: RobotParams,
             control_period: float, proposed: bool,
             split=wheel_torque_split):
    """One robot's controller, bound once per episode.

    Returns `step(x, y, th, v, w, xr, yr, thr, v_d, omega_d)`, which runs
    `posture_error`, `kinematic_control`, `update_sliding`, the switching
    laws (`asmc_force` and `asmc_torque`, or `baseline_asmc`), the
    adaptation (`adapt_gains`, or `adapt_gains_baseline`) and
    `vehicle.wheel_torque_split` in one body, with the same float
    expressions in the same order. It returns the robot-step's record
    fields named in STEP_FIELDS, the gains as they were before the update.

    The step holds the robot's gains, from `asmc.k_init`, and its
    integrals, from 0, and advances them on each call that returns. A
    null `gain_clamp` is read as inf, so no gain is above it; a NaN gain
    passes the clamp as it passes `_clamp_gain`, and makes the robot's next
    wrench NaN. As the laws do, the step raises ValueError where a math.*
    call rejects an angle that has run off, or where a gain leaves the
    positive domain.

    While one of the laws is rebound in this module (a timing wrapper, an
    injected fault), or `split` is not `vehicle.wheel_torque_split`, the
    step is `laws_step_for`'s, so that each call reaches them.
    """
    if not control_period > 0:
        raise ValueError(f"control_period must be > 0, got {control_period}")
    if split is not wheel_torque_split or any(
            globals()[name] is not law for name, law in _LAWS):
        return laws_step_for(asmc, kin, robot, control_period, proposed, split)
    dt = control_period
    k1, k2, k3 = kin.k1, kin.k2, kin.k3
    phi_v, phi_w, eps = asmc.phi_v, asmc.phi_w, asmc.epsilon_bl
    lam_v, lam_w = asmc.Lambda_v, asmc.Lambda_w
    a_v0, a_v1, a_w2 = asmc.alpha_v0, asmc.alpha_v1, asmc.alpha_w2
    a_w0, a_w1, a_v2 = asmc.alpha_w0, asmc.alpha_w1, asmc.alpha_v2
    clamp = math.inf if asmc.gain_clamp is None else asmc.gain_clamp
    half_R, L = 0.5 * robot.R, robot.L
    cos, sin, hypot, fmod = math.cos, math.sin, math.hypot, math.fmod
    pi, two_pi = math.pi, 2.0 * math.pi
    K_v0 = K_v1 = K_w2 = K_w0 = K_w1 = K_v2 = asmc.k_init
    int_v = int_w = 0.0

    def step(x, y, th, v, w, xr, yr, thr, v_d, omega_d):
        nonlocal K_v0, K_v1, K_w2, K_w0, K_w1, K_v2, int_v, int_w
        # the posture error in the body frame, the heading error wrapped
        dx = xr - x
        dy = yr - y
        c = cos(th)
        s = sin(th)
        e1 = c * dx + s * dy
        e2 = -s * dx + c * dy
        e3 = fmod(thr - th, two_pi)
        if e3 > pi:
            e3 -= two_pi
        elif e3 <= -pi:
            e3 += two_pi
        # the kinematic law, then the sliding variables on the integrals
        # accumulated before this sample
        v_c = v_d * cos(e3) + k1 * e1
        w_c = omega_d + k2 * v_d * e2 + k3 * v_d * sin(e3)
        e_v = v - v_c
        e_w = w - w_c
        s_v = e_v + phi_v * int_v
        s_w = e_w + phi_w * int_w
        xi_v = hypot(e_v, int_v)
        xi_w = hypot(e_w, int_w)
        # the switching laws, s/eps saturated to [-1, 1]
        sat_v = s_v / eps
        if sat_v > 1.0:
            sat_v = 1.0
        elif sat_v < -1.0:
            sat_v = -1.0
        sat_w = s_w / eps
        if sat_w > 1.0:
            sat_w = 1.0
        elif sat_w < -1.0:
            sat_w = -1.0
        abs_sv, abs_sw = abs(s_v), abs(s_w)
        v0 = K_v0 + dt * (abs_sv - a_v0 * K_v0)
        w0 = K_w0 + dt * (abs_sw - a_w0 * K_w0)
        if proposed:
            F = -lam_v * s_v - (K_v0 + K_v1 * xi_v + K_w2 * xi_w) * sat_v
            tau = -lam_w * s_w - (K_w0 + K_w1 * xi_w + K_v2 * xi_v) * sat_w
            drive_v = abs_sv * xi_v
            drive_w = abs_sw * xi_w
            v1 = K_v1 + dt * (drive_v - a_v1 * K_v1)
            w2 = K_w2 + dt * (drive_w - a_w2 * K_w2)
            w1 = K_w1 + dt * (drive_w - a_w1 * K_w1)
            v2 = K_v2 + dt * (drive_v - a_v2 * K_v2)
        else:
            F = -lam_v * s_v - K_v0 * sat_v
            tau = -lam_w * s_w - K_w0 * sat_w
            # the state-dependent gains are not adapted
            v1, w2, w1, v2 = K_v1, K_w2, K_w1, K_v2
        if v0 <= 0.0 or w0 <= 0.0 or v1 <= 0.0 or w2 <= 0.0 or w1 <= 0.0 \
                or v2 <= 0.0:
            raise _left_positive_domain(v0, w0, v1, w2, w1, v2)
        t = tau / L
        row = (v_c, w_c, F, tau, half_R * (F + t), half_R * (F - t), s_v, s_w,
               K_v0, K_v1, K_w2, K_w0, K_w1, K_v2, dx, dy)
        int_v += e_v * dt
        int_w += e_w * dt
        K_v0 = clamp if v0 > clamp else v0
        K_v1 = clamp if v1 > clamp else v1
        K_w2 = clamp if w2 > clamp else w2
        K_w0 = clamp if w0 > clamp else w0
        K_w1 = clamp if w1 > clamp else w1
        K_v2 = clamp if v2 > clamp else v2
        return row

    return step
