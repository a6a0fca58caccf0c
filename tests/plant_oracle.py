"""The plain formulation of the plant, kept as the oracle for
`vehicle.plant_step_for`: the right-hand side evaluated afresh at one state,
with no bound constants and no clear box, and a generic RK4 loop that calls
it at every stage. `tests/test_plant_exact.py` checks the stepper against
`oracle_integrate` bit for bit; tests that need one derivative call
`oracle_rhs`, and a test that needs the stages passes its own `rhs`."""

import math

from platoon_asmc.arena import quadrant_of
from platoon_asmc.vehicle import SIGN_SMOOTHING_V


def oracle_rhs(x, y, theta, v, omega, F, tau, params, arena):
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


def oracle_integrate(x, y, th, v, w, F, tau, n, h, params, arena,
                     rhs=oracle_rhs):
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(n):
        a1, b1, c1, d1, e1 = rhs(x, y, th, v, w, F, tau, params, arena)
        a2, b2, c2, d2, e2 = rhs(x + h2 * a1, y + h2 * b1, th + h2 * c1,
                                 v + h2 * d1, w + h2 * e1, F, tau, params,
                                 arena)
        a3, b3, c3, d3, e3 = rhs(x + h2 * a2, y + h2 * b2, th + h2 * c2,
                                 v + h2 * d2, w + h2 * e2, F, tau, params,
                                 arena)
        a4, b4, c4, d4, e4 = rhs(x + h * a3, y + h * b3, th + h * c3,
                                 v + h * d3, w + h * e3, F, tau, params, arena)
        x += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        y += h6 * (b1 + 2.0 * (b2 + b3) + b4)
        th += h6 * (c1 + 2.0 * (c2 + c3) + c4)
        v += h6 * (d1 + 2.0 * (d2 + d3) + d4)
        w += h6 * (e1 + 2.0 * (e2 + e3) + e4)
    return x, y, th, v, w
