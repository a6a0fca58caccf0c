import math
import random

import numpy as np
import pytest
from plant_oracle import oracle_rhs

from platoon_asmc.arena import NO_ARENA, Arena, SpeedBreaker, quadrant_of
from platoon_asmc.vehicle import RobotParams

# Unit mass and inertia, so the stage derivative reads the forces back exactly.
VISCOUS = RobotParams(m=1.0, J=1.0, f_kr=0.0, f_kl=0.0, f_cr=1.0, f_cl=1.0)
FRICTIONLESS = RobotParams(m=1.0, J=1.0, f_kr=0.0, f_kl=0.0, f_cr=0.0, f_cl=0.0)


def friction_scale_at(arena, x, y):
    """Friction multiplier at (x, y), as the ratio of the stage's viscous
    friction there to the unscaled friction at the same speed."""
    dv = oracle_rhs(x, y, 0.0, 1.0, 0.0, 0.0, 0.0, VISCOUS, arena.pack())[3]
    dv_unit = oracle_rhs(x, y, 0.0, 1.0, 0.0, 0.0, 0.0, VISCOUS, NO_ARENA)[3]
    return dv / dv_unit


def breaker_disturbance(arena, x, y, v):
    """(d_v, d_w) the stage adds at (x, y, v): with no friction and no wrench
    they are the negated accelerations."""
    _, _, _, dv, dw = oracle_rhs(x, y, 0.0, v, 0.0, 0.0, 0.0, FRICTIONLESS,
                                 arena.pack())
    return -dv, -dw


class TestFrictionField:
    def test_base_quadrant(self):
        assert friction_scale_at(Arena(), 1.0, 1.0) == 1.0

    def test_high_friction_quadrant(self):
        assert math.isclose(friction_scale_at(Arena(), -1.0, -1.0), 1.3,
                            rel_tol=1e-12)

    def test_half_open_boundaries(self):
        # axes belong to the x >= 0 / y >= 0 side
        assert quadrant_of(0.0, 0.0) == 1
        assert quadrant_of(0.0, 1.0) == 1
        assert quadrant_of(-1e-12, 0.0) == 2
        assert quadrant_of(-1.0, -1e-12) == 3
        assert quadrant_of(0.0, -1.0) == 4
        # the same rule elementwise on arrays, as the metrics apply it
        xs = np.array([0.0, 0.0, -1e-12, -1.0, 0.0])
        ys = np.array([0.0, 1.0, 0.0, -1e-12, -1.0])
        assert quadrant_of(xs, ys).tolist() == [1, 1, 2, 3, 4]

    def test_every_position_is_covered(self):
        arena = Arena(quadrant_mu=(0.1, 0.2, 0.3, 0.4))
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 2.0):
                s = friction_scale_at(arena, x, y)
                assert any(math.isclose(s, v, rel_tol=1e-12)
                           for v in (1.0, 2.0, 3.0, 4.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="quadrant_mu"):
            Arena(quadrant_mu=(0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="quadrant_mu"):
            Arena(quadrant_mu=(0.1, 0.1, 0.0, 0.1))
        with pytest.raises(ValueError, match="half_width"):
            Arena(speed_breakers=(SpeedBreaker(0, 0, 0.0),))


class TestSpeedBreakers:
    def test_outside_band_no_disturbance(self):
        arena = Arena(speed_breakers=(SpeedBreaker(5.0, 5.0, 0.5),))
        assert breaker_disturbance(arena, 0.0, 0.0, 2.0) == (0.0, 0.0)

    def test_inside_band_opposes_motion(self):
        arena = Arena(speed_breakers=(SpeedBreaker(0.0, 0.0, 0.5, amp_force=2.0,
                                                   amp_torque=0.2),))
        d_v, d_w = breaker_disturbance(arena, 0.1, 0.1, 2.0)
        assert math.isclose(d_v, 2.0, rel_tol=1e-12)  # smooth sign saturated
        assert d_w == 0.2
        d_v, _ = breaker_disturbance(arena, 0.1, 0.1, -2.0)
        assert math.isclose(d_v, -2.0, rel_tol=1e-12)

    def test_at_rest_no_force(self):
        arena = Arena(speed_breakers=(SpeedBreaker(0.0, 0.0, 0.5),))
        d_v, d_w = breaker_disturbance(arena, 0.0, 0.0, 0.0)
        assert d_v == 0.0
        assert d_w == 0.2

    def test_overlapping_bands_sum(self):
        arena = Arena(speed_breakers=(SpeedBreaker(0.0, 0.0, 1.0, amp_force=1.0),
                                      SpeedBreaker(0.1, 0.0, 1.0, amp_force=3.0)))
        d_v, _ = breaker_disturbance(arena, 0.0, 0.0, 5.0)
        assert math.isclose(d_v, 4.0, rel_tol=1e-12)


class TestPack:
    ARENA = Arena(quadrant_mu=(0.1, 0.2, 0.13, 0.1), speed_breakers=(
        SpeedBreaker(1.0, 2.0, 0.5, amp_force=2.0, amp_torque=0.2),
        SpeedBreaker(-3.0, 4.0, 0.25, amp_force=1.5, amp_torque=0.3)))

    def test_no_seed_is_the_unjittered_arena(self):
        scales, breakers = self.ARENA.pack()
        assert self.ARENA.pack(None) == (scales, breakers)
        assert scales == (1.0, 2.0, 1.3, 1.0)
        assert breakers == ((1.0, 2.0, 0.25, 2.0, 0.2),
                            (-3.0, 4.0, 0.0625, 1.5, 0.3))

    def test_seed_jitters_amplitudes_reproducibly(self):
        scales, breakers = self.ARENA.pack(7)
        assert self.ARENA.pack(7) == (scales, breakers)
        assert scales == self.ARENA.pack()[0]
        # amp_force, then amp_torque, band by band, in the order of the draws
        rng = random.Random(7)
        for (x, y, hw2, af, at), plain in zip(breakers, self.ARENA.pack()[1]):
            assert (x, y, hw2) == plain[:3]
            for got, amp in ((af, plain[3]), (at, plain[4])):
                factor = rng.uniform(0.9, 1.1)
                assert 0.9 <= factor <= 1.1
                assert got == amp * factor
        assert self.ARENA.pack(8)[1] != breakers
