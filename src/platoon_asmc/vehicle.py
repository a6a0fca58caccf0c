"""Differential-drive plant model: parameters, state, and the plant dynamics.

`plant_rhs_for` is the single formulation of the plant: the body kinematics,
the per-wheel Coulomb + viscous friction scaled by the arena's quadrant
friction field, and the speed-breaker disturbances, all evaluated at one
state. It binds one robot's parameters and arena once and returns the
right-hand side that the engine's RK4 calls at every integrator stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arena import quadrant_of

# Width of the smoothed Coulomb sign, m/s. Keeps the plant right-hand side
# Lipschitz so the fixed-step integrator behaves near wheel reversal.
SIGN_SMOOTHING_V = 0.01


@dataclass(frozen=True)
class RobotParams:
    """Physical parameters of one robot (ground truth, hidden from controllers).

    m, J are mass (kg) and yaw inertia (kg m^2); R is wheel radius (m);
    L is the half-width (track width is 2L, m). f_kr/f_kl are per-wheel
    Coulomb friction magnitudes (N) and f_cr/f_cl viscous coefficients (N s/m).
    """

    m: float = 1.2
    J: float = 0.05
    R: float = 0.033
    L: float = 0.08
    f_kr: float = 0.4
    f_kl: float = 0.4
    f_cr: float = 0.6
    f_cl: float = 0.6

    def __post_init__(self) -> None:
        for name in ("m", "J", "R", "L"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("f_kr", "f_kl", "f_cr", "f_cl"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class RobotState:
    """Pose and body velocities. theta is stored unwrapped (accumulates laps)."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    v: float = 0.0
    omega: float = 0.0


# The clear box of `plant_rhs_for`: its half-width B (m); the clearance
# beyond every band's half-width that its centre keeps, which must exceed
# B * sqrt(2) (m); and the bound on coordinates and band half-widths (m)
# within which the box is used at all.
CLEAR_BOX = 0.25
CLEAR_MARGIN = 0.5
CLEAR_LIMIT = 1e6


def plant_rhs_for(params: RobotParams, arena: tuple):
    """The plant right-hand side of one robot in one arena, as
    `rhs(x, y, theta, v, omega, F, tau)` returning the time derivative of
    (x, y, theta, v, omega) under the wrench (F, tau).

    `arena` is a packed `(scales, breakers)` pair from `Arena.pack`, or
    `arena.NO_ARENA`. Every wheel friction coefficient is scaled by the
    friction ratio of the quadrant containing (x, y). Per wheel the friction
    is f_i = f_ki * tanh(v_i / SIGN_SMOOTHING_V) + f_ci * v_i with contact
    speeds v_r = v + omega*L/2 and v_l = v - omega*L/2 (track width 2L with
    the wheel offset taken as L/2, the identity the controller's uncertainty
    bounds are built on); the longitudinal resultant is f_r + f_l and the yaw
    resultant (f_r - f_l) * L. Each breaker band containing (x, y) adds a
    force amp_force * tanh(v / SIGN_SMOOTHING_V), which opposes the motion
    and vanishes at rest, and a yaw torque amp_torque; overlapping bands sum.

    The constants are bound once: L/2, m, J and, per quadrant, each friction
    coefficient times the quadrant's scale (the products the formula above
    forms first, so the floats are the same). The quadrant of (x, y) is read
    from a table keyed by the signs of x and y and built with
    `arena.quadrant_of`.

    `rhs` keeps a clear box, an axis-aligned square of half-width CLEAR_BOX
    around a point it found farther than half_width + CLEAR_MARGIN from
    every band centre. A stage inside the box skips the band tests: none
    of them can hit there, so the loop would leave the disturbance at
    0.0. Any other stage runs the tests and, if every band is that far
    away, moves the box to its own position. The box serves one trajectory,
    so build one `rhs` per robot and episode.
    """
    scales, breakers = arena
    half_L, L, m, J = 0.5 * params.L, params.L, params.m, params.J
    wheels = [(params.f_kr * s, params.f_cr * s, params.f_kl * s,
               params.f_cl * s) for s in scales]
    # indexed by (x < 0) + 2 * (y < 0)
    by_sign = tuple(wheels[quadrant_of(sx, sy) - 1] for sx, sy in
                    ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)))
    # Why a stage inside the box hits no band, for B = CLEAR_BOX = 0.25 and
    # M = CLEAR_MARGIN = 0.5. Take a band with centre c and squared
    # half-width W2 (w = sqrt(W2)) with |c_x|, |c_y|, w <= 1e6 = CLEAR_LIMIT,
    # and a box centre p with |p_x|, |p_y| <= CLEAR_LIMIT. Every squared
    # distance below is then under 1e13 m^2, and its float value, a few
    # roundings of relative size 2**-53 away, is off by under 5e-3 m^2; the
    # float `clear2` is off from (w + M)^2 by under 1e-3 m^2.
    # - At p the loop found d^2 > clear2 in floats, so exactly |p - c|^2 >
    #   (w + M)^2 - 6e-3, and as w + M >= 0.5, |p - c| > w + M - 0.012.
    # - A stage q inside the box (whose edges p -+ B are rounded by under
    #   1e-9) has |q - p| < B * sqrt(2) + 1e-9 < 0.354, so |q - c| > w + 0.13
    #   and exactly |q - c|^2 > W2 + 0.0169.
    # - The loop's float d^2 at q is then above W2 + 0.0119, its test
    #   d^2 <= W2 fails, and skipping the loop leaves d_v = d_w = 0.0, as
    #   the loop would.
    # A NaN fails every comparison, so it never sits inside a box nor
    # centres one. With any band past the bounds, no box is ever placed.
    bounded = all(abs(bx) <= CLEAR_LIMIT and abs(by) <= CLEAR_LIMIT
                  and 0.0 <= hw2 <= CLEAR_LIMIT * CLEAR_LIMIT
                  for bx, by, hw2, _, _ in breakers)
    bands = tuple(
        (bx, by, hw2,
         (math.sqrt(hw2) + CLEAR_MARGIN) ** 2 if bounded else math.inf, af, at)
        for bx, by, hw2, af, at in breakers)
    x_lo = y_lo = math.inf  # empty until a stage finds a clear point
    x_hi = y_hi = -math.inf
    tanh, cos, sin = math.tanh, math.cos, math.sin

    def rhs(x, y, theta, v, omega, F, tau):
        nonlocal x_lo, x_hi, y_lo, y_hi
        kr, cr, kl, cl = by_sign[(x < 0.0) + 2 * (y < 0.0)]
        d_v = 0.0
        d_w = 0.0
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            clear = bounded and -CLEAR_LIMIT <= x <= CLEAR_LIMIT \
                and -CLEAR_LIMIT <= y <= CLEAR_LIMIT
            for bx, by, hw2, clear2, amp_force, amp_torque in bands:
                dx = x - bx
                dy = y - by
                d2 = dx * dx + dy * dy
                if d2 <= hw2:
                    d_v += amp_force * tanh(v / SIGN_SMOOTHING_V)
                    d_w += amp_torque
                if not d2 > clear2:
                    clear = False
            if clear:
                x_lo, x_hi = x - CLEAR_BOX, x + CLEAR_BOX
                y_lo, y_hi = y - CLEAR_BOX, y + CLEAR_BOX
        half = half_L * omega
        v_r = v + half
        v_l = v - half
        f_r = kr * tanh(v_r / SIGN_SMOOTHING_V) + cr * v_r
        f_l = kl * tanh(v_l / SIGN_SMOOTHING_V) + cl * v_l
        return (
            v * cos(theta),
            v * sin(theta),
            omega,
            (F - (f_r + f_l) - d_v) / m,
            (tau - (f_r - f_l) * L - d_w) / J,
        )

    return rhs


def wheel_torque_split(F: float, tau: float, params: RobotParams
                       ) -> tuple[float, float]:
    """Invert the body wrench into per-wheel torques (tau_r, tau_l).

    The forward map is F = (tau_r + tau_l)/R, tau = (tau_r - tau_l)*L/R, so
    tau_r = R*(F + tau/L)/2 and tau_l = R*(F - tau/L)/2. Round-tripping
    recovers (F, tau) exactly up to floating point.
    """
    t = tau / params.L
    return 0.5 * params.R * (F + t), 0.5 * params.R * (F - t)
