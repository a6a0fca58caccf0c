"""Differential-drive plant model: parameters, state, and the plant dynamics.

`plant_rhs` is the single formulation of the plant: the body kinematics, the
per-wheel Coulomb + viscous friction scaled by the arena's quadrant friction
field, and the speed-breaker disturbances, all evaluated at one state. The
engine's RK4 calls it at every integrator stage.
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

    def validate(self) -> None:
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


def plant_rhs(x: float, y: float, theta: float, v: float, omega: float,
              F: float, tau: float, params: RobotParams, arena: tuple
              ) -> tuple[float, float, float, float, float]:
    """Time derivative of (x, y, theta, v, omega) under the wrench (F, tau).

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
    """
    scales, breakers = arena
    sc = scales[quadrant_of(x, y) - 1]
    d_v = 0.0
    d_w = 0.0
    for bx, by, hw2, amp_force, amp_torque in breakers:
        dx = x - bx
        dy = y - by
        if dx * dx + dy * dy <= hw2:
            d_v += amp_force * math.tanh(v / SIGN_SMOOTHING_V)
            d_w += amp_torque
    L = params.L
    half = 0.5 * L * omega
    v_r = v + half
    v_l = v - half
    f_r = params.f_kr * sc * math.tanh(v_r / SIGN_SMOOTHING_V) \
        + params.f_cr * sc * v_r
    f_l = params.f_kl * sc * math.tanh(v_l / SIGN_SMOOTHING_V) \
        + params.f_cl * sc * v_l
    return (
        v * math.cos(theta),
        v * math.sin(theta),
        omega,
        (F - (f_r + f_l) - d_v) / params.m,
        (tau - (f_r - f_l) * L - d_w) / params.J,
    )


def wheel_torque_split(F: float, tau: float, params: RobotParams
                       ) -> tuple[float, float]:
    """Invert the body wrench into per-wheel torques (tau_r, tau_l).

    The forward map is F = (tau_r + tau_l)/R, tau = (tau_r - tau_l)*L/R, so
    tau_r = R*(F + tau/L)/2 and tau_l = R*(F - tau/L)/2. Round-tripping
    recovers (F, tau) exactly up to floating point.
    """
    if params.R <= 0 or params.L <= 0:
        raise ValueError("wheel_torque_split requires R > 0 and L > 0")
    t = tau / params.L
    return 0.5 * params.R * (F + t), 0.5 * params.R * (F - t)
