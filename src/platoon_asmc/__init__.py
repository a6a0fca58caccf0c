"""Deterministic leader-follower platoon simulator for differential-drive
robots under state-dependent friction, with an adaptive sliding mode
controller and a bounded-gain baseline for comparison. The root exports one
experiment's three calls; every other name comes from its own module."""

from .config import default_config
from .engine import run_episode
from .metrics import report_from_trace

__all__ = ["default_config", "report_from_trace", "run_episode"]

__version__ = "0.1.0"
