"""Run configuration: a single JSON document with one section per subsystem.

The accepted shapes come from the dataclass annotations, read once per class:
a dataclass takes a JSON object with known keys only (absent keys keep their
defaults); `tuple[X, ...]` and fixed-length `tuple[X, Y, Z]` take lists;
`A | B` takes the arm that fits the value's JSON shape; a scalar must match
its type (bool is never a number, `int` fields take integers only).
Integers in number fields are stored, and echoed, as floats.

Each dataclass checks its own values when it is built, so a section or a
`RunConfig` that exists is valid. A section checks that every number is
finite and in the section's own ranges; the builder reports a rejected value
as a ConfigError naming its place in the document. A `RunConfig` adds, in
`RunConfig.validate`, the rules of the run as a whole: those that tie
sections together (`engine.check_sections`), memory, warm-up and
controller. These errors, and (in the CLI) a `path_file` that is missing,
malformed or too short for the run, come before any output is written. The
effective configuration is echoed back to JSON; re-running from the echo
reproduces the run byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field

from .arena import Arena, SpeedBreaker, require
from .control import AsmcConfig, KinematicGains
from .engine import CONTROLLERS, PER_ROBOT_FIELDS, SimConfig, check_sections
from .platoon import DEFAULT_SPACING, PlatoonConfig
from .vehicle import RobotParams


class ConfigError(ValueError):
    """Configuration rejected: bad key, bad type, or violated invariant."""


@dataclass(frozen=True)
class MetricsConfig:
    """warmup_cutoff (s) drops an initial transient window from RMS reports;
    0 keeps the full run."""

    warmup_cutoff: float = 0.0

    def __post_init__(self) -> None:
        require(self, ("warmup_cutoff",), ">= 0")


@dataclass(frozen=True)
class RunConfig:
    robot: RobotParams | tuple[RobotParams, ...] = field(
        default_factory=RobotParams)
    kinematic: KinematicGains = field(default_factory=KinematicGains)
    asmc: AsmcConfig = field(default_factory=AsmcConfig)
    platoon: PlatoonConfig = field(default_factory=PlatoonConfig)
    arena: Arena = field(default_factory=Arena)
    sim: SimConfig = field(default_factory=SimConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    path_file: str | None = None
    output_dir: str | None = None
    controller: str = "both"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """The run-level rules, checked when the config is built; each
        section checked its own when it was built."""
        try:
            check_sections(self.robot, self.asmc, self.platoon, self.sim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Bytes of an episode's big arrays: the trace columns and, with no
        # path_file, the tiled default path's five, which reach back over the
        # platoon's length. In floats, so that an absurd run gives inf, not
        # an overflow.
        sim, n = self.sim, self.platoon.n_robots
        need = 8 * (sim.duration / sim.control_period + 1) * \
            (len(PER_ROBOT_FIELDS) + 1) * n
        if self.path_file is None:
            need += 8 * 5 * (self.platoon.v_d * sim.duration +
                             (n - 1) * self.platoon.gap_des) / DEFAULT_SPACING
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # size unknown (Windows)
            memory = sys.maxsize  # the most that any process can map
        if need > memory:
            raise ConfigError(
                f"[sim] a {sim.duration} s run needs about {need / 2**30:.3g} "
                f"GiB, more than the {memory / 2**30:.3g} GiB the machine holds")
        if self.metrics.warmup_cutoff > \
                self.sim.n_periods() * self.sim.control_period:
            raise ConfigError(
                f"[metrics] warmup_cutoff {self.metrics.warmup_cutoff} is past "
                f"the end of the {self.sim.duration} s run")
        if self.controller not in CONTROLLERS + ("both",):
            raise ConfigError(
                f"[controller] must be one of {CONTROLLERS + ('both',)}, "
                f"got {self.controller!r}")
        if self.output_dir == "" or "\0" in (self.output_dir or ""):
            # no file system takes either
            raise ConfigError(f"[output_dir] must be non-empty and hold no "
                              f"NUL byte, got {self.output_dir!r}")

    def scenario_hash(self) -> str:
        """Digest of everything that defines the physics and references; two
        traces are comparable iff their hashes match."""
        doc = self.to_dict()
        doc.pop("output_dir")
        doc.pop("controller")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return _lists(dataclasses.asdict(self))


def _lists(obj):
    """The asdict document with every tuple turned into an editable list."""
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_lists(v) for v in obj]
    return obj


@functools.cache
def _hints(cls) -> dict[str, typing.Any]:
    return typing.get_type_hints(cls)


_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
            str: ((str,), "a string"), type(None): ((type(None),), "null")}


@functools.cache
def _arms(hint) -> tuple[tuple[typing.Any, tuple[type, ...], str], ...]:
    """Per arm of an annotation (`A | B` has two): the arm, the JSON types it
    takes (never bool) and their name in errors."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    return tuple(
        (arm, (dict,), "an object") if dataclasses.is_dataclass(arm) else
        (arm, (list,), "a list") if typing.get_origin(arm) is tuple else
        (arm, *_SCALARS[arm])
        for arm in (typing.get_args(hint) if union else (hint,)))


def _build(hint, value, where: str):
    """The value of annotation `hint` built from a parsed JSON value; `where`
    names it in errors."""
    arms = _arms(hint)
    arm = next((a for a, takes, _ in arms if isinstance(value, takes) and
                not isinstance(value, bool)), None)
    if arm is None:
        want = " or ".join(name for _, _, name in arms)
        raise ConfigError(f"[{where}] must be {want}, got {value!r}")
    if isinstance(value, dict):
        hints = _hints(arm)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"[{where}] unknown key(s): {', '.join(unknown)}")
        prefix = f"{where}." if where != "config" else ""
        kwargs = {k: _build(hints[k], v, prefix + k) for k, v in value.items()}
        try:  # a section checks its own values as it is built
            return arm(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{where}] {exc}") from exc
    if isinstance(value, list):
        items = typing.get_args(arm)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(
                f"[{where}] must be a list of {len(items)}, got {value!r}")
        return tuple(_build(h, v, f"{where}[{i}]")
                     for i, (h, v) in enumerate(zip(items, value)))
    if arm is float:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"[{where}] {exc}") from exc
    return value


def from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document: strict keys and types,
    each section and then the run as a whole checked as it is built."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(RunConfig, doc, "config")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is rejected, not kept last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, nesting, digits or keys
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(doc)


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_config() -> RunConfig:
    """The shipped default scenario: three robots on the figure-eight with the
    quadrant friction field and two speed-breaker bands on the course."""
    return RunConfig(arena=Arena(speed_breakers=(
        SpeedBreaker(x=-2.709293, y=2.525828, half_width=0.4,
                     amp_force=2.0, amp_torque=0.2),
        SpeedBreaker(x=7.897371, y=-4.915739, half_width=0.4,
                     amp_force=2.0, amp_torque=0.2),
    )))
