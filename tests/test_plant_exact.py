"""The plant right-hand side from `plant_rhs_for`, with its bound constants
and its clear box, gives the same bits as the plain formulation it
replaced, transcribed below as the oracle: per stage and through the RK4
loop, over sequences of calls that move the box in and out of the bands."""

import math
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from platoon_asmc.arena import quadrant_of
from platoon_asmc.engine import _integrate_robot
from platoon_asmc.vehicle import (
    CLEAR_BOX,
    CLEAR_MARGIN,
    SIGN_SMOOTHING_V,
    RobotParams,
    plant_rhs_for,
)


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


def oracle_integrate(x, y, th, v, w, F, tau, n, h, params, arena):
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(n):
        a1, b1, c1, d1, e1 = oracle_rhs(x, y, th, v, w, F, tau, params, arena)
        a2, b2, c2, d2, e2 = oracle_rhs(x + h2 * a1, y + h2 * b1, th + h2 * c1,
                                        v + h2 * d1, w + h2 * e1, F, tau,
                                        params, arena)
        a3, b3, c3, d3, e3 = oracle_rhs(x + h2 * a2, y + h2 * b2, th + h2 * c2,
                                        v + h2 * d2, w + h2 * e2, F, tau,
                                        params, arena)
        a4, b4, c4, d4, e4 = oracle_rhs(x + h * a3, y + h * b3, th + h * c3,
                                        v + h * d3, w + h * e3, F, tau,
                                        params, arena)
        x += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        y += h6 * (b1 + 2.0 * (b2 + b3) + b4)
        th += h6 * (c1 + 2.0 * (c2 + c3) + c4)
        v += h6 * (d1 + 2.0 * (d2 + d3) + d4)
        w += h6 * (e1 + 2.0 * (e2 + e3) + e4)
    return x, y, th, v, w


def bits(call):
    """The result's float bits (so -0.0 compares exactly), every NaN as one
    NaN, or the type of the exception it raised. Which operand's payload a
    NaN sum carries is not fixed in CPython: 3.11's specializing interpreter
    changes it once a function has warmed up, so NaN bits differ between
    two calls of the same code."""
    try:
        out = call()
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return struct.pack(f"{len(out)}d", *(math.nan if v != v else v for v in out))


EXTREME = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6, 1e6 + 0.5,
                           3e6, 1e300, -1e300, math.inf, -math.inf, math.nan))
COORD = st.floats(-30.0, 30.0) | EXTREME
ANY = st.floats(allow_nan=True, allow_infinity=True) | EXTREME
# distances from a band's edge, in and around the box and margin sizes
OFFSETS = (-0.3, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.05, 0.13, 0.2, 0.3,
           CLEAR_BOX, CLEAR_BOX * math.sqrt(2.0), 0.4, 0.49, CLEAR_MARGIN,
           0.51, 0.6, 0.75, 1.0, 2.0)

params_st = st.builds(
    RobotParams,
    m=st.floats(0.1, 5.0), J=st.floats(0.01, 1.0), L=st.floats(0.01, 0.5),
    f_kr=st.floats(0.0, 2.0), f_kl=st.floats(0.0, 2.0),
    f_cr=st.floats(0.0, 2.0), f_cl=st.floats(0.0, 2.0))


@st.composite
def arenas(draw):
    """A packed arena with 0-3 bands: small, huge and overlapping ones,
    centred anywhere from the origin's axes to far out."""
    scales = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=4,
                                 max_size=4)))
    bands = []
    for _ in range(draw(st.integers(0, 3))):
        if bands and draw(st.booleans()):
            # overlap a band drawn before
            px, py = bands[-1][:2]
            bx = px + draw(st.floats(-1.0, 1.0))
            by = py + draw(st.floats(-1.0, 1.0))
        else:
            bx = draw(COORD.filter(math.isfinite))
            by = draw(COORD.filter(math.isfinite))
        hw = draw(st.floats(0.01, 3.0) | st.sampled_from(
            (1e-9, CLEAR_BOX, CLEAR_MARGIN, 1e5, 1e6, 2e6, 1e200)))
        hw2 = hw * hw
        amp = st.floats(-5.0, 5.0).filter(bool)
        bands.append((bx, by, hw2, draw(amp), draw(amp)))
    return scales, tuple(bands)


@st.composite
def positions(draw, bands):
    """Positions for successive calls: around a band's edge, on the axes,
    or anywhere."""
    kind = draw(st.sampled_from(("band", "axis", "any")))
    if kind == "band" and bands:
        bx, by, hw2 = draw(st.sampled_from(bands))[:3]
        hw = math.sqrt(hw2)
        a = draw(st.sampled_from((0.0, math.pi / 4)) | st.floats(0.0, 6.3))
        points = []
        for _ in range(draw(st.integers(1, 8))):
            if draw(st.booleans()):
                # one float either side of the edge
                r = math.nextafter(hw, draw(st.sampled_from((0.0, math.inf))))
            else:
                r = hw + draw(st.sampled_from(OFFSETS) | st.floats(-1.0, 1.0))
            points.append((bx + r * math.cos(a), by + r * math.sin(a)))
        return points
    if kind == "axis":
        zero = st.sampled_from((0.0, -0.0))
        return draw(st.lists(st.tuples(zero, COORD) | st.tuples(COORD, zero),
                             min_size=1, max_size=6))
    return draw(st.lists(st.tuples(ANY, ANY), min_size=1, max_size=6))


@st.composite
def episodes(draw):
    """One robot's parameters, an arena and a run of states for one `rhs`:
    positions drawn a few at a time, each group with its own velocities
    and wrench."""
    arena = draw(arenas())
    states = []
    for _ in range(draw(st.integers(1, 4))):
        rest = draw(st.tuples(st.floats(-7.0, 7.0), st.floats(-3.0, 3.0),
                              st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                              st.floats(-1.0, 1.0)) | st.tuples(*[ANY] * 5))
        states += [(x, y, *rest) for x, y in draw(positions(arena[1]))]
    return draw(params_st), arena, states


@st.composite
def walks(draw):
    """One band and a walk along a straight line through its centre, in
    steps smaller than the box: from outside the margin into the band and
    out again, so that the box is placed, left and placed again."""
    bx, by = draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0))
    hw = draw(st.floats(0.01, 3.0) | st.sampled_from((CLEAR_BOX, CLEAR_MARGIN)))
    band = (bx, by, hw * hw, draw(st.floats(0.1, 5.0)),
            draw(st.floats(0.1, 1.0)))
    a = draw(st.sampled_from((0.0, math.pi / 4, 2.0)) | st.floats(0.0, 6.3))
    r0 = hw + draw(st.sampled_from((0.3, 0.32, 0.36, 0.45, CLEAR_MARGIN, 0.55,
                                    1.0)))
    step = draw(st.sampled_from((0.005, 0.01, 0.03)))
    radii = [r0 - i * step for i in range(int((r0 - hw + 0.2) / step))]
    radii += radii[::-1]
    pts = [(bx + r * math.cos(a), by + r * math.sin(a)) for r in radii]
    return ((1.0, 1.0, 1.3, 1.0), (band,)), pts


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


@SETTINGS
@given(episodes())
def test_rhs_matches_the_plain_formulation(episode):
    params, arena, states = episode
    rhs = plant_rhs_for(params, arena)
    for s in states:
        assert bits(lambda: rhs(*s)) == \
            bits(lambda: oracle_rhs(*s, params, arena)), s


@SETTINGS
@given(params_st, walks(), st.floats(-3.0, 3.0))
def test_walk_across_a_band_matches_the_plain_formulation(params, walk, v):
    arena, pts = walk
    rhs = plant_rhs_for(params, arena)
    for x, y in pts:
        s = (x, y, 0.3, v, 0.2, 1.0, 0.1)
        assert bits(lambda: rhs(*s)) == \
            bits(lambda: oracle_rhs(*s, params, arena)), s


@SETTINGS
@given(episodes(), st.integers(1, 3), st.sampled_from((1e-3, 1e-2, 0.05)))
def test_rk4_matches_the_plain_formulation(episode, n, h):
    params, arena, states = episode
    rhs = plant_rhs_for(params, arena)
    for s in states:
        assert bits(lambda: _integrate_robot(*s, n, h, rhs)) == \
            bits(lambda: oracle_integrate(*s, n, h, params, arena)), s
