"""The stepper from `plant_step_for`, with each RK4 stage written out in its
loop, its bound constants and its clear box, gives the same bits as the
plain formulation it replaced: `plant_oracle.oracle_integrate`, a generic
RK4 loop over a right-hand side evaluated afresh at every stage. Every
property runs a sequence of calls on one stepper, so that the box it keeps
between calls moves in and out of the bands, or, with a band past
CLEAR_LIMIT, is never placed."""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from plant_oracle import oracle_integrate

from platoon_asmc.vehicle import (
    CLEAR_BOX,
    CLEAR_LIMIT,
    CLEAR_MARGIN,
    RobotParams,
    plant_step_for,
)


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


# a band that keeps every box away: centred past CLEAR_LIMIT, or wider
FAR_BANDS = ((3.0 * CLEAR_LIMIT, 0.0, 1.0, 1.0, 0.1),
             (0.0, 0.0, (2.0 * CLEAR_LIMIT) ** 2, 1.0, 0.1))


@st.composite
def walks(draw):
    """One band and a walk along a straight line through its centre, in
    steps smaller than the box: from outside the margin into the band and
    out again, so that the box is placed, left and placed again. Bands near
    the origin put the walk across the axes, between quadrants. Sometimes a
    band past CLEAR_LIMIT joins it, and then no box is ever placed."""
    centre = st.floats(-30.0, 30.0) | st.floats(-1.0, 1.0)
    bx, by = draw(centre), draw(centre)
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
    far = draw(st.sampled_from(((),) + tuple((b,) for b in FAR_BANDS)))
    return ((1.0, 1.1, 1.3, 1.2), (band, *far)), pts


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])
STEPS = st.sampled_from((1, 2, 3, 10))


def same_bits(params, arena, states, n, h):
    """Step every state in turn on one stepper, and each result against
    the oracle's from the same state."""
    step = plant_step_for(params, arena)
    for s in states:
        assert bits(lambda: step(*s, n, h)) == \
            bits(lambda: oracle_integrate(*s, n, h, params, arena)), s


@SETTINGS
@given(episodes(), st.sampled_from((1e-9, 1e-3)))
def test_rhs_matches_the_plain_formulation(episode, h):
    # one short step: all four stages sit at or next to the drawn state,
    # on the band edges, axes and extremes the positions were drawn at
    same_bits(*episode, 1, h)


@SETTINGS
@given(params_st, walks(), st.floats(-3.0, 3.0), STEPS)
def test_walk_across_a_band_matches_the_plain_formulation(params, walk, v, n):
    arena, pts = walk
    same_bits(params, arena, [(x, y, 0.3, v, 0.2, 1.0, 0.1) for x, y in pts],
              n, 1e-3)


@SETTINGS
@given(episodes(), STEPS, st.sampled_from((1e-3, 1e-2, 0.05)))
def test_rk4_matches_the_plain_formulation(episode, n, h):
    same_bits(*episode, n, h)


@SETTINGS
@given(walks(), st.floats(1.0, 3.0), st.floats(-0.02, 0.02), STEPS)
def test_drive_through_a_band_matches_the_plain_formulation(walk, v, tau, n):
    # the stepper's own stages carry the robot from the walk's start across
    # the band and out: each call starts where the oracle's last one ended,
    # under a force that about holds the speed against the wheel friction
    # and the bands, and with a yaw inertia that keeps the band's torque from
    # spinning it round
    params = RobotParams(J=5.0)
    arena, pts = walk
    (bx, by), (x0, y0) = arena[1][0][:2], pts[0]
    state = (x0, y0, math.atan2(by - y0, bx - x0), v, 0.0)
    wrench = (2.0 * (params.f_kr + params.f_cr * v)
              + sum(band[3] for band in arena[1]), tau)
    step = plant_step_for(params, arena)
    length = 2.0 * math.hypot(bx - x0, by - y0) + 0.5
    for _ in range(8000 // n):
        if math.hypot(state[0] - x0, state[1] - y0) > length:
            break
        mine = step(*state, *wrench, n, 1e-3)
        theirs = oracle_integrate(*state, *wrench, n, 1e-3, params, arena)
        assert bits(lambda: mine) == bits(lambda: theirs), state
        state = mine


@pytest.mark.parametrize("n", (1, 2, 3, 10))
def test_non_finite_states_match_the_plain_formulation(n):
    # a NaN passes through; an infinite heading makes math.cos raise
    params, arena = RobotParams(), ((1.0, 1.1, 1.3, 1.2),
                                    ((0.0, 0.0, 1.0, 2.0, 0.2),))
    step = plant_step_for(params, arena)
    for s in ((math.nan, 0.5, 0.0, 1.0, 0.0), (0.5, 0.5, math.nan, 1.0, 0.0),
              (0.5, 0.5, 0.0, math.nan, 0.0), (0.5, 0.5, 0.0, 1.0, math.nan)):
        out = step(*s, 1.0, 0.1, n, 1e-3)
        assert any(v != v for v in out), s
        assert bits(lambda: out) == bits(
            lambda: oracle_integrate(*s, 1.0, 0.1, n, 1e-3, params, arena))
    for th in (math.inf, -math.inf):
        s = (0.5, 0.5, th, 1.0, 0.0, 1.0, 0.1, n, 1e-3)
        with pytest.raises(ValueError):
            step(*s)
        with pytest.raises(ValueError):
            oracle_integrate(*s, params, arena)
