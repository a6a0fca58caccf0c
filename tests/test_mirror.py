"""Metamorphic oracle: a whole closed-loop episode is mirror-symmetric.

Reflecting the scenario in the x-axis (the course, the quadrant friction
table and the speed breakers) must negate every lateral signal, swap the
wheel torques and leave everything else as it was, bit for bit. The relation
needs two facts of the model: Q1 and Q4 have the same friction, since the
scales are relative to mu_1; and a breaker's yaw torque has a fixed sign,
independent of how the robot moves, so the mirrored breaker's is negated.
"""

import dataclasses

import numpy as np
import pytest

from platoon_asmc import run_episode
from platoon_asmc.arena import Arena
from platoon_asmc.engine import PER_ROBOT_FIELDS, default_path_for
from platoon_asmc.platoon import figure_eight_lap, tile_lap

NEGATED = {"y", "theta", "omega", "yref", "wc", "tau", "s_w", "e_y"}
SWAPPED = {"tau_r": "tau_l", "tau_l": "tau_r"}


def mirrored(arena: Arena) -> Arena:
    q1, q2, q3, q4 = arena.quadrant_mu
    return Arena(quadrant_mu=(q4, q3, q2, q1), speed_breakers=tuple(
        dataclasses.replace(b, y=-b.y, amp_torque=-b.amp_torque)
        for b in arena.speed_breakers))


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_mirrored_scenario_gives_the_mirrored_trace(cfg, controller):
    # only Q1 = Q4 repeat, so every other quadrant swap shows; 28 s takes the
    # platoon through Q3 and then the leader through the Q2 breaker band
    arena = dataclasses.replace(cfg.arena, quadrant_mu=(0.1, 0.11, 0.13, 0.1))
    assert arena.speed_breakers
    sim = dataclasses.replace(cfg.sim, duration=28.0)
    path, start = default_path_for(cfg.platoon, sim)
    lap_x, lap_y = figure_eight_lap()
    flipped = tile_lap(lap_x, -lap_y, len(path) // len(lap_x))
    assert np.array_equal(flipped.arc, path.arc)

    a, b = (run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon, ar,
                        sim, controller, path=p, lead_start_arc=start)
            for p, ar in ((path, arena), (flipped, mirrored(arena))))
    # array_equal, not bytes: -0.0 and 0.0 differ in their bytes
    for name in PER_ROBOT_FIELDS:
        expect = -a[name] if name in NEGATED else a[SWAPPED.get(name, name)]
        assert np.array_equal(b[name], expect), name
    assert np.array_equal(b.gap_err, a.gap_err)


def _shipped_run(cfg, controller, arena):
    sim = dataclasses.replace(cfg.sim, duration=28.0)
    assert sim.seed is None  # a seed draws the jitter band by band
    return run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon, arena,
                       sim, controller)


def _same_bits(a, b):
    assert a.rec.tobytes() == b.rec.tobytes()
    assert a.gap_err.tobytes() == b.gap_err.tobytes()


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_scaled_friction_and_reordered_bands_give_the_same_trace(cfg,
                                                                 controller):
    # The plant reads friction only as mu_q / mu_1, which scaling every mu
    # by a power of two leaves exact; and bands that do not overlap add
    # their disturbance one at a time in any order. Over 28 s the platoon
    # crosses Q3 and the leader the Q2 band, so both run through the
    # stepper's band tests.
    arena = cfg.arena
    bands = arena.speed_breakers
    assert len(bands) > 1 and all(
        np.hypot(p.x - q.x, p.y - q.y) > p.half_width + q.half_width
        for i, p in enumerate(bands) for q in bands[i + 1:])
    base = _shipped_run(cfg, controller, arena)
    scaled = dataclasses.replace(
        arena, quadrant_mu=tuple(4.0 * mu for mu in arena.quadrant_mu))
    _same_bits(_shipped_run(cfg, controller, scaled), base)
    reordered = dataclasses.replace(arena, speed_breakers=bands[::-1])
    _same_bits(_shipped_run(cfg, controller, reordered), base)
