"""Run configuration: a single JSON document with one section per subsystem.

Parsing is strict: unknown keys anywhere are hard errors (no silent defaults
for typos), every scalar value must match its field's annotation, and
invariant violations surface as errors naming the offending field. The
effective configuration can be echoed back to JSON; re-running from the echo
reproduces the run byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass

from .arena import Arena, SpeedBreaker
from .control import AsmcConfig, KinematicGains
from .engine import CONTROLLERS, SimConfig
from .platoon import PlatoonConfig
from .vehicle import RobotParams


class ConfigError(ValueError):
    """Configuration rejected: bad key, bad type, or violated invariant."""


@dataclass(frozen=True)
class MetricsConfig:
    """warmup_cutoff (s) drops an initial transient window from RMS reports;
    0 keeps the full run."""

    warmup_cutoff: float = 0.0

    def validate(self) -> None:
        if not self.warmup_cutoff >= 0:
            raise ValueError(
                f"warmup_cutoff must be >= 0, got {self.warmup_cutoff}")


@dataclass(frozen=True)
class RunConfig:
    robot: RobotParams | tuple[RobotParams, ...]
    kinematic: KinematicGains
    asmc: AsmcConfig
    platoon: PlatoonConfig
    arena: Arena
    sim: SimConfig
    metrics: MetricsConfig
    path_file: str | None = None
    output_dir: str | None = None
    controller: str = "both"

    def validate(self) -> None:
        robots = self.robot if isinstance(self.robot, tuple) else (self.robot,)
        for section, obj in (
                *((f"robot[{i}]" if len(robots) > 1 else "robot", rp)
                  for i, rp in enumerate(robots)),
                ("kinematic", self.kinematic), ("asmc", self.asmc),
                ("platoon", self.platoon), ("arena", self.arena),
                ("sim", self.sim), ("metrics", self.metrics)):
            try:
                obj.validate()
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        if isinstance(self.robot, tuple) and \
                len(self.robot) != self.platoon.n_robots:
            raise ConfigError(
                f"[robot] {len(self.robot)} parameter sets for "
                f"{self.platoon.n_robots} robots")
        if self.metrics.warmup_cutoff > \
                self.sim.n_periods() * self.sim.control_period:
            raise ConfigError(
                f"[metrics] warmup_cutoff {self.metrics.warmup_cutoff} is past "
                f"the end of the {self.sim.duration} s run")
        if self.controller not in CONTROLLERS + ("both",):
            raise ConfigError(
                f"[controller] must be one of {CONTROLLERS + ('both',)}, "
                f"got {self.controller!r}")
        if self.asmc.max_alpha() * self.sim.control_period >= 1.0:
            raise ConfigError(
                "[asmc] leakage rate too fast for the control period: require "
                "max(alpha_*) * control_period < 1")

    def scenario_hash(self) -> str:
        """Digest of everything that defines the physics and references; two
        traces are comparable iff their hashes match."""
        doc = self.to_dict()
        doc.pop("output_dir")
        doc.pop("controller")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "robot": [dataclasses.asdict(r) for r in self.robot]
            if isinstance(self.robot, tuple) else dataclasses.asdict(self.robot),
            "kinematic": dataclasses.asdict(self.kinematic),
            "asmc": dataclasses.asdict(self.asmc),
            "platoon": {
                "n_robots": self.platoon.n_robots,
                "gap_des": self.platoon.gap_des,
                "v_d": self.platoon.v_d,
                "start_poses": None if self.platoon.start_poses is None
                else [list(p) for p in self.platoon.start_poses],
                "follower_heading": self.platoon.follower_heading,
            },
            "arena": {
                "quadrant_mu": list(self.arena.quadrant_mu),
                "mu_lateral": self.arena.mu_lateral,
                "speed_breakers": [dataclasses.asdict(b)
                                   for b in self.arena.speed_breakers],
            },
            "sim": dataclasses.asdict(self.sim),
            "metrics": dataclasses.asdict(self.metrics),
            "path_file": self.path_file,
            "output_dir": self.output_dir,
            "controller": self.controller,
        }


# JSON types accepted for each scalar annotation; bool is excluded
# everywhere although it is an int subclass.
_SCALAR_TYPES = {float: (int, float), int: (int,), str: (str,),
                 type(None): (type(None),)}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               type(None): "null"}


@functools.cache
def _scalar_fields(cls) -> dict[str, tuple]:
    """Field name -> the scalar types its annotation admits, resolved once
    per class; () for composite fields (tuples, nested sections), which
    `from_dict` builds and checks itself."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        arms = typing.get_args(hint) if isinstance(hint, types.UnionType) \
            else (hint,)
        out[name] = arms if all(a in _SCALAR_TYPES for a in arms) else ()
    return out


def _type_ok(value, arms) -> bool:
    return not isinstance(value, bool) and \
        any(isinstance(value, _SCALAR_TYPES[a]) for a in arms)


def _check_type(where: str, value, arms) -> None:
    if arms and not _type_ok(value, arms):
        want = " or ".join(_TYPE_NAMES[a] for a in arms)
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _build(cls, doc: dict, section: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"[{section}] expected an object, got {type(doc).__name__}")
    fields = _scalar_fields(cls)
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"[{section}] unknown key(s): {', '.join(unknown)}")
    for name, value in doc.items():
        _check_type(f"[{section}] {name}", value, fields[name])
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _numbers(seq, n: int | None) -> bool:
    """Whether seq is a list of numbers (of length n, when given)."""
    return isinstance(seq, (list, tuple)) and (n is None or len(seq) == n) and \
        all(_type_ok(v, (float,)) for v in seq)


def _section(doc: dict, name: str) -> dict:
    """A copy of the named section (empty when absent), which must be an object."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(
            f"[{name}] expected an object, got {type(section).__name__}")
    return dict(section)


def from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document (strict keys, no validation
    of invariants yet; call .validate() after)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"robot", "kinematic", "asmc", "platoon", "arena", "sim", "metrics",
             "path_file", "output_dir", "controller"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")

    platoon_doc = _section(doc, "platoon")
    poses = platoon_doc.get("start_poses")
    if poses is not None:
        if not (isinstance(poses, (list, tuple)) and
                all(_numbers(p, 3) for p in poses)):
            raise ConfigError(
                "[platoon] start_poses must be a list of [x, y, theta]")
        platoon_doc["start_poses"] = tuple(tuple(float(v) for v in p)
                                           for p in poses)

    arena_doc = _section(doc, "arena")
    if "quadrant_mu" in arena_doc:
        mu = arena_doc["quadrant_mu"]
        if not _numbers(mu, None):
            raise ConfigError("[arena] quadrant_mu must be a list of 4 numbers")
        arena_doc["quadrant_mu"] = tuple(float(m) for m in mu)
    if "speed_breakers" in arena_doc:
        bs = arena_doc["speed_breakers"]
        if not isinstance(bs, list):
            raise ConfigError("[arena] speed_breakers must be a list of objects")
        arena_doc["speed_breakers"] = tuple(
            _build(SpeedBreaker, b, f"arena.speed_breakers[{i}]")
            for i, b in enumerate(bs))

    robot_doc = doc.get("robot", {})
    if isinstance(robot_doc, list):
        robot = tuple(_build(RobotParams, r, f"robot[{i}]")
                      for i, r in enumerate(robot_doc))
    else:
        robot = _build(RobotParams, robot_doc, "robot")

    fields = _scalar_fields(RunConfig)
    for name in ("path_file", "output_dir", "controller"):
        if name in doc:
            _check_type(f"[{name}]", doc[name], fields[name])

    return RunConfig(
        robot=robot,
        kinematic=_build(KinematicGains, doc.get("kinematic", {}), "kinematic"),
        asmc=_build(AsmcConfig, doc.get("asmc", {}), "asmc"),
        platoon=_build(PlatoonConfig, platoon_doc, "platoon"),
        arena=_build(Arena, arena_doc, "arena"),
        sim=_build(SimConfig, doc.get("sim", {}), "sim"),
        metrics=_build(MetricsConfig, doc.get("metrics", {}), "metrics"),
        path_file=doc.get("path_file"),
        output_dir=doc.get("output_dir"),
        controller=doc.get("controller", "both"),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(doc)


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_config() -> RunConfig:
    """The shipped default scenario: three robots on the figure-eight with the
    quadrant friction field and two speed-breaker bands on the course."""
    return RunConfig(
        robot=RobotParams(),
        kinematic=KinematicGains(),
        asmc=AsmcConfig(),
        platoon=PlatoonConfig(),
        arena=Arena(speed_breakers=(
            SpeedBreaker(x=-2.709293, y=2.525828, half_width=0.4,
                         amp_force=2.0, amp_torque=0.2),
            SpeedBreaker(x=7.897371, y=-4.915739, half_width=0.4,
                         amp_force=2.0, amp_torque=0.2),
        )),
        sim=SimConfig(),
        metrics=MetricsConfig(),
    )
