"""Differential-drive plant model: parameters and the plant dynamics.

`plant_step_for` is the single formulation of the plant: the body
kinematics, the per-wheel Coulomb + viscous friction scaled by the arena's
quadrant friction field, and the speed-breaker disturbances, evaluated at
every stage of a fixed-step RK4 integrator. It binds one robot's parameters
and arena once and returns the stepper that the engine calls once per
robot-step, with each stage written out in its loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arena import quadrant_of, require

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
        require(self, ("m", "J", "R", "L"), "> 0")
        require(self, ("f_kr", "f_kl", "f_cr", "f_cl"), ">= 0")


# The clear box of `plant_step_for`: its half-width B (m); the clearance
# beyond every band's half-width that its centre keeps, which must exceed
# B * sqrt(2) (m); and the bound on coordinates and band half-widths (m)
# within which the box is used at all.
CLEAR_BOX = 0.25
CLEAR_MARGIN = 0.5
CLEAR_LIMIT = 1e6


def plant_step_for(params: RobotParams, arena: tuple):
    """The plant of one robot in one arena, as `step(x, y, theta, v, omega,
    F, tau, n, h)`: n classical RK4 steps of size h under the held wrench
    (F, tau), returning the new (x, y, theta, v, omega).

    `arena` is a packed `(scales, breakers)` pair from `Arena.pack`, or
    `arena.NO_ARENA`. The right-hand side, evaluated at every RK4 stage, is
    the body kinematics (x' = v cos theta, y' = v sin theta, theta' = omega)
    and m v' = F - (f_r + f_l) - d_v, J omega' = tau - (f_r - f_l) * L - d_w.
    Every wheel friction coefficient is scaled by the friction ratio of the
    quadrant containing (x, y). Per wheel the friction is
    f_i = f_ki * tanh(v_i / SIGN_SMOOTHING_V) + f_ci * v_i with contact
    speeds v_r = v + omega*L/2 and v_l = v - omega*L/2 (track width 2L with
    the wheel offset taken as L/2, the identity the controller's uncertainty
    bounds are built on). Each breaker band containing (x, y) adds to d_v a
    force amp_force * tanh(v / SIGN_SMOOTHING_V), which opposes the motion
    and vanishes at rest, and to d_w a yaw torque amp_torque; overlapping
    bands sum.

    The constants are bound once: L/2, m, J and, per quadrant, each friction
    coefficient times the quadrant's scale (the products the formula above
    forms first, so the floats are the same). The quadrant of (x, y) is read
    from a table keyed by the signs of x and y and built with
    `arena.quadrant_of`. Each stage is written out in the RK4 loop.

    `step` keeps a clear box, an axis-aligned square of half-width CLEAR_BOX
    around a point a stage found farther than half_width + CLEAR_MARGIN from
    every band centre. A stage inside the box skips the band tests: none of
    them can hit there, so d_v and d_w stay 0.0. Any other stage runs the
    tests and, if every band is that far away, moves the box to its own
    position. The box serves one trajectory, so build one `step` per robot
    and episode.
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
    S = SIGN_SMOOTHING_V
    tanh, cos, sin = math.tanh, math.cos, math.sin

    def disturbance(x, y, v):
        """(d_v, d_w) of the bands at a stage outside the box, which moves
        to (x, y) if every band is clear of it."""
        nonlocal x_lo, x_hi, y_lo, y_hi
        d_v = 0.0
        d_w = 0.0
        clear = bounded and -CLEAR_LIMIT <= x <= CLEAR_LIMIT \
            and -CLEAR_LIMIT <= y <= CLEAR_LIMIT
        for bx, by, hw2, clear2, amp_force, amp_torque in bands:
            dx = x - bx
            dy = y - by
            d2 = dx * dx + dy * dy
            if d2 <= hw2:
                d_v += amp_force * tanh(v / S)
                d_w += amp_torque
            if not d2 > clear2:
                clear = False
        if clear:
            x_lo, x_hi = x - CLEAR_BOX, x + CLEAR_BOX
            y_lo, y_hi = y - CLEAR_BOX, y + CLEAR_BOX
        return d_v, d_w

    def step(x, y, th, v, w, F, tau, n, h):
        h2 = 0.5 * h
        h6 = h / 6.0
        for _ in range(n):
            # stage 1 at (x, y, th, v, w)
            kr, cr, kl, cl = by_sign[(x < 0.0) + 2 * (y < 0.0)]
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                d_v = d_w = 0.0
            else:
                d_v, d_w = disturbance(x, y, v)
            half = half_L * w
            v_r = v + half
            v_l = v - half
            f_r = kr * tanh(v_r / S) + cr * v_r
            f_l = kl * tanh(v_l / S) + cl * v_l
            a1 = v * cos(th)
            b1 = v * sin(th)
            d1 = (F - (f_r + f_l) - d_v) / m
            e1 = (tau - (f_r - f_l) * L - d_w) / J
            # stage 2, half a step along stage 1
            xs = x + h2 * a1
            ys = y + h2 * b1
            ts = th + h2 * w
            vs = v + h2 * d1
            ws = w + h2 * e1
            kr, cr, kl, cl = by_sign[(xs < 0.0) + 2 * (ys < 0.0)]
            if x_lo <= xs <= x_hi and y_lo <= ys <= y_hi:
                d_v = d_w = 0.0
            else:
                d_v, d_w = disturbance(xs, ys, vs)
            half = half_L * ws
            v_r = vs + half
            v_l = vs - half
            f_r = kr * tanh(v_r / S) + cr * v_r
            f_l = kl * tanh(v_l / S) + cl * v_l
            a2 = vs * cos(ts)
            b2 = vs * sin(ts)
            c2 = ws
            d2 = (F - (f_r + f_l) - d_v) / m
            e2 = (tau - (f_r - f_l) * L - d_w) / J
            # stage 3, half a step along stage 2
            xs = x + h2 * a2
            ys = y + h2 * b2
            ts = th + h2 * c2
            vs = v + h2 * d2
            ws = w + h2 * e2
            kr, cr, kl, cl = by_sign[(xs < 0.0) + 2 * (ys < 0.0)]
            if x_lo <= xs <= x_hi and y_lo <= ys <= y_hi:
                d_v = d_w = 0.0
            else:
                d_v, d_w = disturbance(xs, ys, vs)
            half = half_L * ws
            v_r = vs + half
            v_l = vs - half
            f_r = kr * tanh(v_r / S) + cr * v_r
            f_l = kl * tanh(v_l / S) + cl * v_l
            a3 = vs * cos(ts)
            b3 = vs * sin(ts)
            c3 = ws
            d3 = (F - (f_r + f_l) - d_v) / m
            e3 = (tau - (f_r - f_l) * L - d_w) / J
            # stage 4, a whole step along stage 3
            xs = x + h * a3
            ys = y + h * b3
            ts = th + h * c3
            vs = v + h * d3
            ws = w + h * e3
            kr, cr, kl, cl = by_sign[(xs < 0.0) + 2 * (ys < 0.0)]
            if x_lo <= xs <= x_hi and y_lo <= ys <= y_hi:
                d_v = d_w = 0.0
            else:
                d_v, d_w = disturbance(xs, ys, vs)
            half = half_L * ws
            v_r = vs + half
            v_l = vs - half
            f_r = kr * tanh(v_r / S) + cr * v_r
            f_l = kl * tanh(v_l / S) + cl * v_l
            x += h6 * (a1 + 2.0 * (a2 + a3) + vs * cos(ts))
            y += h6 * (b1 + 2.0 * (b2 + b3) + vs * sin(ts))
            th += h6 * (w + 2.0 * (c2 + c3) + ws)
            v += h6 * (d1 + 2.0 * (d2 + d3) + (F - (f_r + f_l) - d_v) / m)
            w += h6 * (e1 + 2.0 * (e2 + e3) + (tau - (f_r - f_l) * L - d_w) / J)
        return x, y, th, v, w

    return step


def wheel_torque_split(F: float, tau: float, params: RobotParams
                       ) -> tuple[float, float]:
    """Invert the body wrench into per-wheel torques (tau_r, tau_l).

    The forward map is F = (tau_r + tau_l)/R, tau = (tau_r - tau_l)*L/R, so
    tau_r = R*(F + tau/L)/2 and tau_l = R*(F - tau/L)/2. Round-tripping
    recovers (F, tau) exactly up to floating point.
    """
    t = tau / params.L
    return 0.5 * params.R * (F + t), 0.5 * params.R * (F - t)
