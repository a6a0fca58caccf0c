"""Spatial disturbance environment: quadrant friction field and speed breakers.

The arena scales every wheel friction coefficient of a robot by the friction
ratio of the quadrant it is in, and injects localized force/torque
disturbances inside circular speed-breaker bands. `Arena.pack` flattens both
into the plain tuples that `vehicle.plant_step_for` binds into a robot's
plant stepper; `quadrant_of` is the one quadrant rule for the plant and the
metrics. `require` is the one value rule of every config section, and
`finite` its meaning of finite.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

# Packed arena (see `Arena.pack`) with unit friction scales and no breakers.
NO_ARENA = ((1.0, 1.0, 1.0, 1.0), ())

# What each bound of `require` lets through besides finite values.
_WITHIN = {"": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0}


def finite(v) -> bool:
    """Whether v is within float range: not +-inf, NaN, or an int past the
    largest float. Judged by comparison, so that such an int is no
    OverflowError."""
    return -sys.float_info.max <= v <= sys.float_info.max


def require(section, names, bound: str = "") -> None:
    """Raise ValueError for the first of `names`, fields of `section`, that
    is not `finite` or breaks `bound` ("> 0" or ">= 0")."""
    for name in names:
        value = getattr(section, name)
        if not (finite(value) and _WITHIN[bound](value)):
            rule = f" and {bound}" if bound else ""
            raise ValueError(f"{name} must be finite{rule}, got {value}")


@dataclass(frozen=True)
class SpeedBreaker:
    """Disturbance band: inside `half_width` of (x, y) the robot sees an
    opposing longitudinal force of magnitude amp_force and a yaw torque
    amp_torque."""

    x: float
    y: float
    half_width: float
    amp_force: float = 2.0
    amp_torque: float = 0.2

    def __post_init__(self) -> None:
        require(self, ("x", "y", "half_width", "amp_force", "amp_torque"))
        if not self.half_width > 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        try:
            self.half_width ** 2  # as `Arena.pack` squares it
        except OverflowError:
            raise ValueError(f"half_width {self.half_width} is too large: "
                             "its square overflows") from None


@dataclass(frozen=True)
class Arena:
    """Quadrant friction multipliers (Q1..Q4) plus speed breakers.

    quadrant_mu holds the surface friction value per quadrant; the scale
    applied to a robot's wheel friction coefficients is mu_quadrant / mu_1.
    The defaults are the shipped scenario's: Q3 at 1.3x the others, and two
    bands on the figure-eight course. `speed_breakers=()` is a bare arena.
    """

    quadrant_mu: tuple[float, float, float, float] = (0.1, 0.1, 0.13, 0.1)
    speed_breakers: tuple[SpeedBreaker, ...] = (
        SpeedBreaker(x=-2.709293, y=2.525828, half_width=0.4),
        SpeedBreaker(x=7.897371, y=-4.915739, half_width=0.4))

    def __post_init__(self) -> None:
        if len(self.quadrant_mu) != 4:
            raise ValueError(f"quadrant_mu needs 4 values, got {len(self.quadrant_mu)}")
        for i, mu in enumerate(self.quadrant_mu, start=1):
            if not (finite(mu) and mu > 0):
                raise ValueError(
                    f"quadrant_mu[{i}] must be finite and > 0, got {mu}")
            if not finite(mu / self.quadrant_mu[0]):  # as `pack` scales
                raise ValueError(
                    f"quadrant_mu[{i}] / quadrant_mu[1] must be finite, got "
                    f"{mu} / {self.quadrant_mu[0]}")

    def pack(self, seed: int | None = None
             ) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """(scales, breakers) for `vehicle.plant_step_for`: the friction
        multiplier mu_q / mu_1 of quadrants 1..4, and per breaker the tuple
        (x, y, half_width**2, amp_force, amp_torque). A seed scales each
        breaker's amp_force, then its amp_torque, by a factor in [0.9, 1.1]
        drawn from `random.Random(seed)`."""
        base = self.quadrant_mu[0]
        scales = tuple(mu / base for mu in self.quadrant_mu)
        rng = None if seed is None else random.Random(seed)
        jitter = (lambda: 1.0) if rng is None else lambda: rng.uniform(0.9, 1.1)
        breakers = tuple((b.x, b.y, b.half_width ** 2, b.amp_force * jitter(),
                          b.amp_torque * jitter()) for b in self.speed_breakers)
        return scales, breakers


def quadrant_of(x, y):
    """Quadrant index 1..4 under the half-open convention:
    Q1 x>=0,y>=0; Q2 x<0,y>=0; Q3 x<0,y<0; Q4 x>=0,y<0.

    Works on floats and, elementwise, on numpy arrays."""
    return 1 + ((x < 0) ^ (y < 0)) + 2 * (y < 0)
