"""Closed-loop episode engine.

Runs the full platoon at a fixed control rate: per control period each robot
(lead first) computes its reference, posture error, velocity command, sliding
variables, wrench and gain update; its plant then advances with RK4 substeps
under a zero-order-hold wrench, with the arena's friction field and breaker
disturbances evaluated at every integrator stage. Each robot's control step
(`control.step_for`) and plant stepper (`vehicle.plant_step_for`) are built
once per episode and each called once per robot-step; a robot's projection
walks from its last marker (`platoon.nearest_index_from`), and a follower's
target search starts from its previous target. Identical inputs produce
bit-identical traces.

Coupling runs one way, down the platoon: a follower reads only its
predecessor's path marker at the same step. So `run_episode` runs the
robots as a pipeline of contiguous groups through `run_forked`: the
leader's group in the calling process and each later group in a forked
child that follows the group before it a few steps behind. Every group runs
the same loop, each robot in turn lead-to-tail from reference to plant,
writes its records into one shared buffer and returns its abort, if any;
one group is the serial engine. The group count is `min(processes, robots)`
(`processes` defaults to the usable cores), lowered so that each group
holds at least MIN_GROUP_ROBOT_STEPS robot-steps. The engine stays serial
where it cannot fork (no `os.fork`) or should not (other threads running).
The traces and aborts are the same bytes for every group count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import control as ctl
from .arena import Arena, require
from .control import AsmcConfig, KinematicGains
from .platoon import (
    PROJECTION_WINDOW,
    Path,
    PlatoonConfig,
    build_path,
    figure_eight_lap,
    follower_target,
    nearest_index,
    nearest_index_from,
    pose_at_arc,
)
from .vehicle import RobotParams, plant_step_for, wheel_torque_split

CONTROLLERS = ("proposed", "baseline")

# A pipeline group writes its step count to the next one every this many
# steps; the next group runs up to two chunks behind.
PROGRESS_CHUNK = 16
# Fewest robot-steps a pipeline group may hold. Forking and reaping a group
# costs 2.2-3.4 ms; 500 robot-steps take about 4-8 ms with one RK4 substep
# and 16-19 ms with the default ten (ranges over three sets of five serial
# 20 s episodes, 2-vCPU Xeon VM, CPython 3.11).
MIN_GROUP_ROBOT_STEPS = 500

# Per-robot trace columns, in the order they appear in the CSV contract.
# The control step returns the fields from "vc" on.
PER_ROBOT_FIELDS = ("x", "y", "theta", "v", "omega", "xref", "yref",
                    *ctl.STEP_FIELDS)

# Linux's prctl; `prctl(PR_SET_PDEATHSIG, sig)` in a forked child has the
# kernel send it `sig` when the process that forked it dies
PR_SET_PDEATHSIG = 1
try:
    _prctl = ctypes.CDLL(None).prctl
except (AttributeError, OSError, TypeError):  # no prctl, or no C library
    _prctl = None


def _whole_multiple(total: float, step: float) -> bool:
    """Whether `total` is a whole multiple of `step`, within 1e-9 of `total`.
    An infinite ratio (a subnormal step) cannot be rounded, so it is not."""
    ratio = total / step
    return ratio < math.inf and abs(round(ratio) * step - total) <= 1e-9 * total


@dataclass(frozen=True)
class SimConfig:
    """Timing of one episode: plant step, control period, duration, RNG seed.

    seed=None (the default) means fully deterministic inputs; a seed only adds
    a reproducible per-breaker amplitude jitter, drawn by `Arena.pack`.
    """

    dt_plant: float = 1e-3
    control_period: float = 1e-2
    duration: float = 600.0
    seed: int | None = None

    def __post_init__(self) -> None:
        require(self, ("dt_plant", "control_period"), "> 0")
        if self.dt_plant > self.control_period:
            raise ValueError(
                f"dt_plant {self.dt_plant} exceeds control_period {self.control_period}")
        if not _whole_multiple(self.control_period, self.dt_plant):
            raise ValueError(
                f"control_period {self.control_period} is not an integer multiple "
                f"of dt_plant {self.dt_plant}")
        require(self, ("duration",), ">= 0")
        # n_periods() rounds; a run must not silently change its length
        if not _whole_multiple(self.duration, self.control_period):
            raise ValueError(
                f"duration {self.duration} is not an integer multiple "
                f"of control_period {self.control_period}")

    def substeps(self) -> int:
        return int(round(self.control_period / self.dt_plant))

    def n_periods(self) -> int:
        return int(round(self.duration / self.control_period))


class EpisodeAborted(RuntimeError):
    """Raised when a robot's command goes non-finite or its control raises;
    carries a diagnostic record of the robot's last finite step."""

    def __init__(self, step: int, t: float, robot: int, diagnostic: dict):
        self.step = step
        self.t = t
        self.robot = robot
        self.diagnostic = diagnostic
        super().__init__(
            f"episode aborted at step {step} (t={t:.3f} s): non-finite signal "
            f"for robot {robot + 1}; last finite record: {diagnostic}")

    def __reduce__(self):
        # rebuild from the constructor arguments, so the exception survives
        # the trip back from a forked job
        return EpisodeAborted, (self.step, self.t, self.robot, self.diagnostic)


# Column of each per-robot field in the last axis of `Trace.rec`.
_FIELD_INDEX = {name: i for i, name in enumerate(PER_ROBOT_FIELDS)}
# One robot-step's record, native float64s as numpy stores them.
_ROW = struct.Struct(f"{len(PER_ROBOT_FIELDS)}d")


@dataclass
class Trace:
    """Uniform-grid log of one episode.

    `t` has one entry per control step (duration/control_period + 1 records).
    `rec` is an (n_records, n_robots, len(PER_ROBOT_FIELDS)) array: one row
    per robot-step, its fields in `PER_ROBOT_FIELDS` order, which is also the
    order of a robot's columns in the CSV. `trace[name]` (and `data[name]`)
    is the (n_records, n_robots) view of one field. `gap_err` is an
    (n_records, n_robots-1) array of arc-gap errors between consecutive pairs.
    """

    controller: str
    scenario: str
    t: np.ndarray
    rec: np.ndarray
    gap_err: np.ndarray

    def __getitem__(self, key: str) -> np.ndarray:
        return self.rec[:, :, _FIELD_INDEX[key]]

    @property
    def data(self) -> dict[str, np.ndarray]:
        return {name: self[name] for name in PER_ROBOT_FIELDS}

    @property
    def n_records(self) -> int:
        return len(self.t)

    @property
    def n_robots(self) -> int:
        return self.rec.shape[1]


def _index_at_arc(path: Path, s: float) -> int:
    """Vertex index nearest to arc position s."""
    j = int(np.searchsorted(path.arc, s))
    if j <= 0:
        return 0
    if j >= len(path):
        return len(path) - 1
    return j if path.arc[j] - s <= s - path.arc[j - 1] else j - 1


@functools.cache
def _lap() -> tuple[np.ndarray, np.ndarray]:
    """`figure_eight_lap`, sampled once per process; read-only, as it is
    shared."""
    lap_x, lap_y = figure_eight_lap()
    lap_x.flags.writeable = lap_y.flags.writeable = False
    return lap_x, lap_y


@functools.lru_cache(maxsize=1)
def _tiled_course(laps: int) -> Path:
    lap_x, lap_y = _lap()
    return build_path(np.tile(lap_x, laps), np.tile(lap_y, laps))


def default_path_for(platoon: PlatoonConfig, sim: SimConfig) -> tuple[Path, float]:
    """Built-in figure-eight tiled with enough laps for the whole episode.

    Returns the path and the leader's starting arc position: the first vertex
    of a later lap copy, i.e. exactly the (14, 0) course start, with whole
    laps behind it, at least one and enough for the platoon's (n - 1) gaps,
    so the followers (and the backward gap targeting) always have path to
    walk back over.

    The course is shared: the process keeps the last one built, keyed by its
    lap count, and returns that same `Path`, whose arrays are read-only, to
    every call that needs as many laps.
    """
    lap_x, lap_y = _lap()
    # the length of the one-lap course, summed as build_path sums its arc
    lap_len = float(np.cumsum(np.hypot(np.diff(lap_x), np.diff(lap_y)))[-1])
    behind = max(1, math.ceil((platoon.n_robots - 1) * platoon.gap_des / lap_len))
    need = behind * lap_len + platoon.v_d * sim.duration + lap_len
    laps = max(2 + behind, int(math.ceil(need / lap_len)) + 1)
    path = _tiled_course(laps)
    return path, float(path.arc[behind * len(lap_x)])


def lead_start_on(path: Path, platoon: PlatoonConfig, sim: SimConfig,
                  lead_start_arc: float | None = None) -> float:
    """The leader's starting arc position on `path`, checked so that the
    followers' start slots fit behind it and its reference stays on the path
    for the whole episode. On a custom path it defaults to just far enough
    in for the followers to fit."""
    tail = (platoon.n_robots - 1) * platoon.gap_des
    if lead_start_arc is None:
        lead_start_arc = tail
    if not lead_start_arc >= tail:
        raise ValueError(
            f"the leader starts at arc {lead_start_arc:.3f} m, short of the "
            f"{tail:.3f} m its {platoon.n_robots - 1} followers need behind it")
    # the leader's last reference arc, as `_run_group` computes it
    end = lead_start_arc + platoon.v_d * (sim.n_periods() * sim.control_period)
    if not 0.0 <= lead_start_arc <= end <= path.total_length:
        raise ValueError(
            f"the leader's reference runs from arc {lead_start_arc:.3f} to "
            f"{end:.3f} m, outside the path of length {path.total_length:.3f} m")
    return lead_start_arc


def check_sections(robot: RobotParams | list[RobotParams] | tuple[RobotParams, ...],
                   asmc: AsmcConfig, platoon: PlatoonConfig,
                   sim: SimConfig) -> None:
    """The rules that tie the sections of one run together; each section
    checked its own when it was built. Raises ValueError, naming the section
    at fault in brackets, for a count of robot parameter sets other than one
    or `n_robots`, and for adaptive leakage too fast for the control period
    (the gains stay positive only while max(alpha_*) * control_period < 1)."""
    if not isinstance(robot, RobotParams) and len(robot) != platoon.n_robots:
        raise ValueError(f"[robot] {len(robot)} parameter sets for "
                         f"{platoon.n_robots} robots")
    rate = asmc.max_alpha() * sim.control_period
    if rate >= 1.0:
        raise ValueError(
            "[asmc] adaptive leakage too fast for the control period: require "
            f"max(alpha_*) * control_period < 1, got {rate:.3g}")


def _integrate_robot(x, y, th, v, w, F, tau, n, h, step):
    """n RK4 steps of size h under a held wrench, by the robot's stepper
    from `vehicle.plant_step_for`: the engine's one call into the plant,
    under a name of its own so that `bench/tracer.py` can time the plant
    as `engine.integrate`."""
    return step(x, y, th, v, w, F, tau, n, h)


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether this process may fork safely: it has `os.fork`, and no other
    thread runs whose locks a child would inherit held."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _group_bounds(n_robots: int, n_records: int,
                  processes: int | None) -> list[tuple[int, int]]:
    """Contiguous robot groups `[lo, hi)` for the pipeline, lead group first.

    At most `processes` groups (default: the usable cores), one per robot at
    most, none with fewer than MIN_GROUP_ROBOT_STEPS robot-steps, and only
    one when the process cannot fork safely.
    """
    groups = min(n_robots, usable_cores() if processes is None else processes,
                 n_robots * n_records // MIN_GROUP_ROBOT_STEPS)
    if groups < 2 or not _can_fork():
        return [(0, n_robots)]
    size, extra = divmod(n_robots, groups)
    bounds, lo = [], 0
    for g in range(groups):
        hi = lo + size + (g < extra)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_episode(
    robot: RobotParams | list[RobotParams] | tuple[RobotParams, ...],
    kin: KinematicGains,
    asmc: AsmcConfig,
    platoon: PlatoonConfig,
    arena: Arena,
    sim: SimConfig,
    controller: str,
    path: Path | None = None,
    lead_start_arc: float | None = None,
    scenario_label: str = "default",
    processes: int | None = None,
) -> Trace:
    """Simulate one full episode and return its trace.

    `robot` is either one parameter set shared by the platoon or one per
    robot. Per control period the robots are updated strictly lead-to-tail so
    each follower targets its predecessor's same-period path index. Raises
    EpisodeAborted with a diagnostic record at the first robot-step, in step
    order and then platoon order, whose wrench (F, tau, tau_r, tau_l) is not
    finite or whose control's math.* calls raise ValueError or OverflowError;
    a plant state that runs off does so at the robot's next step. Raises
    MemoryError if its record buffers cannot be mapped.

    `processes` caps the number of robot groups run as a pipeline, one
    process each (default: the usable cores); the trace and any
    EpisodeAborted are the same for every value.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}, got {controller!r}")
    if processes is not None and (type(processes) is not int or processes < 1):
        raise ValueError(f"processes must be an int >= 1 or None, got {processes!r}")
    check_sections(robot, asmc, platoon, sim)

    R = platoon.n_robots
    robots = [robot] * R if isinstance(robot, RobotParams) else list(robot)
    if path is None:
        path, default_start = default_path_for(platoon, sim)
        if lead_start_arc is None:
            lead_start_arc = default_start
    lead_start_arc = lead_start_on(path, platoon, sim, lead_start_arc)
    packed = arena.pack(sim.seed)

    mean_spacing = path.total_length / (len(path) - 1)
    start_arcs = [lead_start_arc - r * platoon.gap_des for r in range(R)]
    slots = [pose_at_arc(path, s) for s in start_arcs]
    poses = platoon.start_poses or slots

    # Robots enter the scenario at cruise: v = v_d with the local path
    # curvature's yaw rate, so the episode starts at the operating point
    # rather than with a standing-start catch-up transient.
    states = [(p[0], p[1], p[2], platoon.v_d, slot[3] * platoon.v_d)
              for p, slot in zip(poses, slots)]
    # Initial progress markers; custom start poses must sit near their nominal
    # along-path slots for the windowed projection to lock on. A window as long
    # as the path searches all of it, and caps a subnormal spacing's ratio.
    init_window = max(PROJECTION_WINDOW,
                      int(round(min(20.0 / mean_spacing, len(path)))))
    markers = [
        nearest_index(path, p[0], p[1], hint=_index_at_arc(path, s), window=init_window)
        for p, s in zip(poses, start_arcs)
    ]

    N = sim.n_periods()
    cp = sim.control_period
    n_rec = N + 1
    bounds = _group_bounds(R, n_rec, processes)

    # the records and the markers, which a pipeline shares with its children
    n_rows = n_rec * R
    try:
        buf = mmap.mmap(-1, n_rows * _ROW.size)
        log = mmap.mmap(-1, 8 * n_rows)
    except OSError as exc:
        raise MemoryError(f"no memory for the episode's records: {exc}") from exc
    rec = np.frombuffer(buf, np.float64).reshape(n_rec, R, len(PER_ROBOT_FIELDS))
    marks = np.frombuffer(log, np.int64).reshape(n_rec, R)
    proposed = controller == "proposed"
    # the steps split the wrench by this module's `wheel_torque_split`, so
    # that a wrapper put in its place is called
    run = functools.partial(
        _run_group, path, states, markers,
        [ctl.step_for(asmc, kin, rp, cp, proposed, wheel_torque_split)
         for rp in robots],
        [plant_step_for(rp, packed) for rp in robots], platoon, sim,
        lead_start_arc, buf, memoryview(log).cast("q"))
    path.clear2  # built here, so that forked groups inherit the table
    aborts = [a for a in _run_pipeline(run, bounds) if a is not None]
    if aborts:
        k, r = min(aborts)
        raise EpisodeAborted(k, k * cp, r, _diagnostic(
            rec, marks, path, platoon.gap_des, k, r))
    return Trace(controller=controller, scenario=scenario_label,
                 t=np.arange(n_rec) * cp, rec=rec,
                 gap_err=_gap_errors(path, marks, platoon.gap_des))


def _gap_errors(path: Path, marks: np.ndarray, gap_des: float) -> np.ndarray:
    """Arc-gap error arc[m_r] - arc[m_{r+1}] - gap_des of each consecutive
    pair of path markers along the last axis of `marks`."""
    at = path.arc[marks]
    gap = at[..., :-1] - at[..., 1:]
    gap -= gap_des
    return gap


def _run_group(path: Path, states: list, markers: list, controls: list,
               plants: list, platoon: PlatoonConfig, sim: SimConfig,
               lead_start_arc: float, buf: mmap.mmap, marks: memoryview,
               lo: int, hi: int, recv_fd: int | None, send_fd: int | None
               ) -> tuple[int, tuple[int, int] | None]:
    """Run robots lo..hi-1 as one group of the pipeline, per step each in
    turn from projection to plant; return how many steps of their records
    are complete, and the group's abort or None.

    The per-robot lists hold the whole platoon, each group advancing only
    its own robots; a state is `(x, y, theta, v, omega)`, theta unwrapped.
    `controls` and `plants` hold each robot's bound control step and plant
    stepper, which the group alone calls. The group writes its records into
    `buf` and never reads them; `marks` views the markers flat, the one
    thing a robot reads of its predecessor.

    Every PROGRESS_CHUNK steps the group writes that count to the next group
    (`send_fd`). It takes robot lo's predecessor's marker (at lo > 0) from
    the group before, waiting on `recv_fd` until the step is published. A
    group stops at its first abort, the first robot-step whose control
    raises or whose wrench is not finite, which it returns as (step, robot);
    where the group before stopped short; and once the next group has
    stopped reading, which it does only past an abort that comes before any
    step this one has left.
    """
    N, cp, n_sub = sim.n_periods(), sim.control_period, sim.substeps()
    h = cp / n_sub
    v_d, gap_des = platoon.v_d, platoon.gap_des
    R = len(states)
    pack_row = _ROW.pack_into
    row_size = _ROW.size
    isfinite = math.isfinite
    ready = N + 1 if recv_fd is None else 0  # upstream steps published
    targets = [None] * R  # each follower's last target, its next search's hint

    for k in range(N + 1):
        if k and not k % PROGRESS_CHUNK and not _publish(send_fd, k):
            return k, None
        t = k * cp
        lead_arc = lead_start_arc + v_d * t
        base = k * R
        for r in range(lo, hi):
            x, y, th, v, w = states[r]
            markers[r] = m = nearest_index_from(path, x, y, markers[r])
            marks[base + r] = m
            if r == 0:
                xr, yr, thr, kappa = pose_at_arc(path, lead_arc)
            else:
                # the predecessor's step-k marker; upstream of robot lo it is
                # another group's, published through recv_fd
                if r == lo and k >= ready:
                    ready = _wait(recv_fd, k)
                    if ready <= k:
                        return k, None
                xr, yr, thr, kappa, targets[r] = follower_target(
                    path, marks[base + r - 1], gap_des, targets[r])
            try:
                row = controls[r](x, y, th, v, w, xr, yr, thr, v_d,
                                  kappa * v_d)
            except (ValueError, OverflowError):
                # math.* rejects an angle or gain that has run off
                return k, (k, r)
            pack_row(buf, (base + r) * row_size, x, y, th, v, w, xr, yr, *row)
            F, tau, tau_r, tau_l = row[2:6]  # see ctl.STEP_FIELDS
            if not (isfinite(F) and isfinite(tau) and isfinite(tau_r)
                    and isfinite(tau_l)):
                return k, (k, r)
            if k < N:
                try:
                    states[r] = _integrate_robot(x, y, th, v, w, F, tau, n_sub,
                                                 h, plants[r])
                except (ValueError, OverflowError):
                    # the state ran off inside a substep, where math.cos(inf)
                    # raises; the robot's next command is then not finite
                    states[r] = (math.nan,) * 5
    return N + 1, None


def _publish(fd: int | None, steps: int) -> bool:
    """Tell the next group, if any, that `steps` steps are complete; False
    once it has stopped reading."""
    try:
        return fd is None or os.write(fd, steps.to_bytes(8, "little")) > 0
    except BrokenPipeError:
        return False


def _wait(fd: int, k: int) -> int:
    """Block until the group upstream has published step k; its count, or
    -1 once it has stopped short of k. Each count is one atomic 8-byte
    write, so a read returns whole counts, the newest last."""
    while True:
        data = os.read(fd, 4096)
        if not data:
            return -1
        steps = int.from_bytes(data[-8:], "little")
        if steps > k:
            return steps


def _run_pipeline(run, bounds: list[tuple[int, int]]) -> list:
    """Each group's abort or None, lead group first: `run(lo, hi, recv_fd,
    send_fd)` runs one group as `_run_group` does, and the groups run through
    `run_forked`, each reading its predecessor's progress from a pipe. A
    pipe that cannot be made is ForkedJobLost for the group that reads it."""
    progress, open_fds = [], set()  # progress[g]: group g -> group g + 1

    def close_all_but(*keep):
        for fd in open_fds.difference(keep):
            os.close(fd)
        open_fds.intersection_update(keep)

    def group(g):
        recv = progress[g - 1][0] if g else None
        send = progress[g][1] if g < len(progress) else None
        close_all_but(recv, send)  # so that a group that stops reads as EOF
        try:
            done, abort = run(*bounds[g], recv, send)
            _publish(send, done)
            return abort
        finally:
            close_all_but()

    try:
        for g in range(1, len(bounds)):
            try:
                progress.append(os.pipe())
            except OSError as exc:
                raise ForkedJobLost(
                    f"forked job {g} could not start: {exc}") from exc
            open_fds.update(progress[-1])
        return run_forked([functools.partial(group, g)
                           for g in range(len(bounds))])
    finally:
        close_all_but()


class ForkedJobLost(RuntimeError):
    """A forked job could not start, or ended without sending back its
    outcome."""


def run_forked(jobs: list) -> list:
    """Run `jobs[0]()` here and each later job in a forked child, all at
    once; return their return values in job order. Each child pickles `(ok,
    value)`, its return value or the exception it raised, to its own pipe.
    Once every job has ended, the first failure in job order is raised, as
    ForkedJobLost for a child that sent back nothing. A job whose pipe or
    fork fails raises ForkedJobLost at once, and a KeyboardInterrupt here
    propagates; both kill the children already started. No child outlives
    the call, nor a caller killed by a signal: on Linux each child gets
    SIGKILL when the process that forked it dies, so a SIGTERM to the caller
    ends every process forked below it too. Where the process may not fork,
    the jobs run here in turn."""
    if not _can_fork():
        return [job() for job in jobs]
    pids, reads, parent = [], [], os.getpid()
    try:
        for i, job in enumerate(jobs[1:], 1):
            try:
                read, write = os.pipe()
                reads.append(read)
                try:
                    pids.append(os.fork())
                    if not pids[-1]:
                        _child(job, i, write, parent)
                finally:
                    os.close(write)
            except OSError as exc:
                raise ForkedJobLost(
                    f"forked job {i} could not start: {exc}") from exc
        try:
            outcomes = [(True, jobs[0]())]
        except Exception as exc:
            outcomes = [(False, exc)]
        while pids:
            with open(reads.pop(0), "rb") as fh:
                blob = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            outcomes.append(pickle.loads(blob) if blob and not code else (
                False, ForkedJobLost(f"forked job {len(outcomes)} ended "
                                     f"without an outcome: {how}")))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in reads:
            os.close(fd)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(job, i: int, result: int, parent: int) -> None:
    """Body of forked job i; never returns. The child must not unwind into
    its caller's frames: every exception ends here, pickled to `result`. It
    dies with `parent`, the process that forked it."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if _prctl is not None:
            _prctl(PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # it died before the death signal was set
            return
        try:
            outcome = True, job()
        except BaseException as exc:
            outcome = False, exc
        try:
            blob = pickle.dumps(outcome)
        except Exception as exc:
            blob = pickle.dumps((False, RuntimeError(
                f"forked job {i} cannot send back {outcome[1]!r}: {exc}")))
        with open(result, "wb") as fh:
            fh.write(blob)
        code = 0
    finally:
        os._exit(code)


def _diagnostic(rec: np.ndarray, marks: np.ndarray, path: Path,
                gap_des: float, k: int, r: int) -> dict:
    """Snapshot of the aborting robot's record at step k - 1, the last
    before the abort at step k, whose records are incomplete, with that
    step's gap errors. The record is finite: its wrench was, and a wrench
    computed from a non-finite state, reference, command or gain is not, or
    its control raises."""
    if k == 0:
        return {"step": None, "robot": r + 1}
    j = k - 1
    return {
        "step": j,
        "robot": r + 1,
        **dict(zip(PER_ROBOT_FIELDS, rec[j, r].tolist())),
        "gap_err": _gap_errors(path, marks[j], gap_des).tolist(),
    }

