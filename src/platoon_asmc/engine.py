"""Closed-loop episode engine.

Runs the full platoon at a fixed control rate: per control period each robot
(lead first) computes its reference, posture error, velocity command, sliding
variables, wrench and gain update; the plant then advances with RK4 substeps
under a zero-order-hold wrench, with the arena's friction field and breaker
disturbances evaluated at every integrator stage. Each robot's plant
stepper is built once per episode (`vehicle.plant_step_for`) and called
once per robot-step, and the whole loop runs inside one `np.errstate` so
that the per-step path projection need not enter its own. Identical inputs
produce bit-identical traces.

Coupling runs one way, down the platoon: a follower reads only its
predecessor's path marker and heading at the same step. So `run_episode`
runs the robots as a pipeline of contiguous groups through `run_forked`:
the leader's group in the calling process and each later group in a forked
child that follows the group before it a few steps behind. Every group runs
the same loop, control for its robots lead-to-tail and then their plant,
writes its records into one shared buffer and returns its abort, if any;
one group is the serial engine. The group count is `min(processes, robots)`
(`processes` defaults to the usable cores), lowered so that each group
holds at least MIN_GROUP_ROBOT_STEPS robot-steps. The engine stays serial
where it cannot fork (no `os.fork`) or should not (other threads running).
The traces and aborts are the same bytes for every group count.
"""

from __future__ import annotations

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
from .arena import Arena
from .control import AdaptiveState, AsmcConfig, KinematicGains, VelocityReference
from .platoon import (
    Path,
    PlatoonConfig,
    figure_eight_lap,
    follower_target,
    nearest_index,
    nearest_index_unguarded,
    pose_at_arc,
    tile_lap,
)
from .vehicle import RobotParams, RobotState, plant_step_for, wheel_torque_split

CONTROLLERS = ("proposed", "baseline")

# A pipeline group writes its step count to the next one every this many
# steps; the next group runs up to two chunks behind.
PROGRESS_CHUNK = 16
# Fewest robot-steps a pipeline group may hold. Forking and reaping a group
# costs 2.2-3.4 ms; 500 robot-steps take about 11-18 ms with one RK4
# substep and 25-38 ms with the default ten (ranges over five serial 20 s
# episodes, 2-vCPU Xeon VM, CPython 3.11).
MIN_GROUP_ROBOT_STEPS = 500

# Per-robot trace columns, in the order they appear in the CSV contract.
PER_ROBOT_FIELDS = (
    "x", "y", "theta", "v", "omega", "xref", "yref", "vc", "wc",
    "F", "tau", "tau_r", "tau_l", "s_v", "s_w",
    "K_v0", "K_v1", "K_w2", "K_w0", "K_w1", "K_v2", "e_x", "e_y",
)


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
        for name in ("dt_plant", "control_period"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.dt_plant > self.control_period:
            raise ValueError(
                f"dt_plant {self.dt_plant} exceeds control_period {self.control_period}")
        if not _whole_multiple(self.control_period, self.dt_plant):
            raise ValueError(
                f"control_period {self.control_period} is not an integer multiple "
                f"of dt_plant {self.dt_plant}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and >= 0, got {self.duration}")
        # n_periods() rounds; a run must not silently change its length
        if not _whole_multiple(self.duration, self.control_period):
            raise ValueError(
                f"duration {self.duration} is not an integer multiple "
                f"of control_period {self.control_period}")

    def substeps(self) -> int:
        return max(1, int(round(self.control_period / self.dt_plant)))

    def n_periods(self) -> int:
        return int(round(self.duration / self.control_period))


class EpisodeAborted(RuntimeError):
    """Raised when a state or command goes non-finite; carries a diagnostic
    record of the last finite step."""

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
_THETA = _FIELD_INDEX["theta"]
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
    n_robots: int
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


def _index_at_arc(path: Path, s: float) -> int:
    """Vertex index nearest to arc position s."""
    j = int(np.searchsorted(path.arc, s))
    if j <= 0:
        return 0
    if j >= len(path):
        return len(path) - 1
    return j if path.arc[j] - s <= s - path.arc[j - 1] else j - 1


def default_path_for(platoon: PlatoonConfig, sim: SimConfig) -> tuple[Path, float]:
    """Built-in figure-eight tiled with enough laps for the whole episode.

    Returns the path and the leader's starting arc position: the first vertex
    of a later lap copy, i.e. exactly the (14, 0) course start, with whole
    laps behind it, at least one and enough for the platoon's (n - 1) gaps,
    so the followers (and the backward gap targeting) always have path to
    walk back over.
    """
    lap_x, lap_y = figure_eight_lap()
    # the length of the one-lap course, summed as build_path sums its arc
    lap_len = float(np.cumsum(np.hypot(np.diff(lap_x), np.diff(lap_y)))[-1])
    behind = max(1, math.ceil((platoon.n_robots - 1) * platoon.gap_des / lap_len))
    need = behind * lap_len + platoon.v_d * sim.duration + lap_len
    laps = max(2 + behind, int(math.ceil(need / lap_len)) + 1)
    path = tile_lap(lap_x, lap_y, laps)
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
    end = lead_start_arc + platoon.v_d * sim.n_periods() * sim.control_period
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
    EpisodeAborted with a diagnostic record if any state or command goes
    non-finite, or so large that the plant or controller's math.* calls
    raise ValueError or OverflowError.

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
    states = [
        RobotState(x=p[0], y=p[1], theta=p[2], v=platoon.v_d,
                   omega=slot[3] * platoon.v_d)
        for p, slot in zip(poses, slots)
    ]
    # Initial progress markers; custom start poses must sit near their nominal
    # along-path slots for the windowed projection to lock on. A window as long
    # as the path searches all of it, and caps a subnormal spacing's ratio.
    init_window = max(200, int(round(min(20.0 / mean_spacing, len(path)))))
    markers = [
        nearest_index(path, st.x, st.y, hint=_index_at_arc(path, s), window=init_window)
        for st, s in zip(states, start_arcs)
    ]

    N = sim.n_periods()
    cp = sim.control_period
    n_rec = N + 1
    bounds = _group_bounds(R, n_rec, processes)

    # the records and the markers, which a pipeline shares with its children
    n_rows = n_rec * R
    buf = mmap.mmap(-1, n_rows * _ROW.size)
    log = mmap.mmap(-1, 8 * n_rows)
    rec = np.frombuffer(buf, np.float64).reshape(n_rec, R, len(PER_ROBOT_FIELDS))
    marks = np.frombuffer(log, np.int64).reshape(n_rec, R)
    ep = _Episode(
        path=path, robots=robots, states=states, markers=markers,
        adaptives=[AdaptiveState.fresh(asmc.k_init) for _ in range(R)],
        kin=kin, asmc=asmc, platoon=platoon, sim=sim,
        proposed=controller == "proposed",
        plants=[plant_step_for(rp, packed) for rp in robots],
        lead_start_arc=lead_start_arc, buf=buf,
        marks=memoryview(log).cast("q"))
    # the groups project without entering an errstate per call
    with np.errstate(over="ignore"):
        aborts = [a for a in _run_pipeline(ep, bounds) if a is not None]
    if aborts:
        k, phase, r = min(aborts)
        raise EpisodeAborted(k, k * cp, r, _diagnostic(
            rec, marks, path, platoon.gap_des, k, phase, r))
    return Trace(controller=controller, scenario=scenario_label, n_robots=R,
                 t=np.arange(n_rec) * cp, rec=rec,
                 gap_err=_gap_errors(path, marks, platoon.gap_des))


def _gap_errors(path: Path, marks: np.ndarray, gap_des: float) -> np.ndarray:
    """Arc-gap error arc[m_r] - arc[m_{r+1}] - gap_des of each consecutive
    pair of path markers along the last axis of `marks`."""
    at = path.arc[marks]
    gap = at[..., :-1] - at[..., 1:]
    gap -= gap_des
    return gap


@dataclass
class _Episode:
    """What every robot group of one episode reads: the fixed inputs, the
    per-robot state lists (each group advances only its own robots), the
    buffer of records, and a flat view of the markers."""

    path: Path
    robots: list[RobotParams]
    states: list[RobotState]
    markers: list[int]
    adaptives: list[AdaptiveState]
    kin: KinematicGains
    asmc: AsmcConfig
    platoon: PlatoonConfig
    sim: SimConfig
    proposed: bool
    plants: list
    lead_start_arc: float
    buf: mmap.mmap
    marks: memoryview


def _run_group(ep: _Episode, lo: int, hi: int, recv_fd: int | None,
               send_fd: int | None) -> tuple[int, tuple[int, int, int] | None]:
    """Run robots lo..hi-1 as one group of the pipeline; return how many
    steps of their records are complete, and the group's abort or None.

    Every PROGRESS_CHUNK steps the group writes that count to the next group
    (`send_fd`). It takes robot lo's predecessor (at lo > 0) from the group
    before, waiting on `recv_fd` until the step is published. A group stops
    at its first abort, which it returns as (step, phase, robot) with the
    control as phase 0 and the plant as phase 1; where the group before
    stopped short; and once the next group has stopped reading, which it
    does only past an abort that comes before any step this one has left.
    """
    path, robots, states, markers = ep.path, ep.robots, ep.states, ep.markers
    adaptives, kin, asmc, proposed = ep.adaptives, ep.kin, ep.asmc, ep.proposed
    plants, lead_start_arc = ep.plants, ep.lead_start_arc
    N, cp, n_sub = ep.sim.n_periods(), ep.sim.control_period, ep.sim.substeps()
    h = cp / n_sub
    v_d, gap_des = ep.platoon.v_d, ep.platoon.gap_des
    heading_from_predecessor = ep.platoon.follower_heading == "predecessor"
    buf, marks = ep.buf, ep.marks
    rows = memoryview(buf).cast("d")
    R = len(states)
    nf = len(PER_ROBOT_FIELDS)
    pack_row = _ROW.pack_into
    row_size = _ROW.size
    isfinite = math.isfinite
    ready = N + 1 if recv_fd is None else 0  # upstream steps published

    wrenches = [(0.0, 0.0)] * R
    for k in range(N + 1):
        if k and not k % PROGRESS_CHUNK and not _publish(send_fd, k):
            return k, None
        t = k * cp
        lead_arc = lead_start_arc + v_d * t
        base = k * R
        for r in range(lo, hi):
            st = states[r]
            markers[r] = m = nearest_index_unguarded(path, st.x, st.y,
                                                     markers[r])
            marks[base + r] = m
            if r == 0:
                xr, yr, thr, kappa = pose_at_arc(path, lead_arc)
                ref = VelocityReference(v_d, kappa * v_d)
            else:
                # the predecessor's step-k record; upstream of robot lo it is
                # another group's, published through recv_fd
                if r == lo and k >= ready:
                    ready = _wait(recv_fd, k)
                    if ready <= k:
                        return k, None
                xr, yr, thr, ref = follower_target(path, marks[base + r - 1],
                                                   gap_des, v_d)
                if heading_from_predecessor:
                    thr = rows[(base + r - 1) * nf + _THETA]

            ad = adaptives[r]
            gains_now = ad.gains()
            try:
                err = ctl.posture_error(st.x, st.y, st.theta, xr, yr, thr)
                cmd = ctl.kinematic_control(err, ref, kin)
                sv = ctl.update_sliding(ad, st.v, st.omega, cmd, asmc, cp)
                if proposed:
                    F = ctl.asmc_force(sv, ad, asmc)
                    tau = ctl.asmc_torque(sv, ad, asmc)
                    ctl.adapt_gains(ad, sv, asmc, cp)
                else:
                    F, tau = ctl.baseline_asmc(sv, ad, asmc)
                    ctl.adapt_gains_baseline(ad, sv, asmc, cp)
            except (ValueError, OverflowError):
                # math.* rejects an angle or gain that has run off
                return k, (k, 0, r)
            tau_r, tau_l = wheel_torque_split(F, tau, robots[r])
            wrenches[r] = (F, tau)

            pack_row(buf, (base + r) * row_size,
                     st.x, st.y, st.theta, st.v, st.omega, xr, yr,
                     cmd.v_c, cmd.omega_c, F, tau, tau_r, tau_l,
                     sv.s_v, sv.s_w, *gains_now, xr - st.x, yr - st.y)

            if not (isfinite(F) and isfinite(tau) and isfinite(tau_r)
                    and isfinite(tau_l)):
                return k, (k, 0, r)

        if k == N:
            break
        for r in range(lo, hi):
            st = states[r]
            F, tau = wrenches[r]
            try:
                nx, ny, nth, nv, nw = _integrate_robot(
                    st.x, st.y, st.theta, st.v, st.omega, F, tau, n_sub, h,
                    plants[r])
                finite = all(map(isfinite, (nx, ny, nth, nv, nw)))
            except (ValueError, OverflowError):
                # the state ran off inside a substep, where math.cos(inf) raises
                finite = False
            if not finite:
                # step k's records are complete: downstream control at k runs
                return k + 1, (k, 1, r)
            st.x, st.y, st.theta, st.v, st.omega = nx, ny, nth, nv, nw
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


def _run_pipeline(ep: _Episode, bounds: list[tuple[int, int]]) -> list:
    """Each group's abort or None, lead group first: the groups run through
    `run_forked`, each reading its predecessor's progress from a pipe."""
    progress = [os.pipe() for _ in bounds[1:]]  # group g -> group g + 1
    open_fds = {fd for pair in progress for fd in pair}

    def close_all_but(*keep):
        for fd in open_fds.difference(keep):
            os.close(fd)
        open_fds.intersection_update(keep)

    def group(g):
        recv = progress[g - 1][0] if g else None
        send = progress[g][1] if g < len(progress) else None
        close_all_but(recv, send)  # so that a group that stops reads as EOF
        try:
            done, abort = _run_group(ep, *bounds[g], recv, send)
            _publish(send, done)
            return abort
        finally:
            close_all_but()

    try:
        return run_forked([functools.partial(group, g)
                           for g in range(len(bounds))])
    finally:
        close_all_but()


class ForkedJobLost(RuntimeError):
    """A forked job ended without sending back its outcome."""


def run_forked(jobs: list) -> list:
    """Run `jobs[0]()` here and each later job in a forked child, all at
    once; return their return values in job order. Each child pickles `(ok,
    value)`, its return value or the exception it raised, to its own pipe.
    Once every job has ended, the first failure in job order is raised, as
    ForkedJobLost for a child that sent back nothing. A KeyboardInterrupt
    here kills the children instead. No child outlives the call."""
    pids, reads = [], []
    try:
        for i, job in enumerate(jobs[1:], 1):
            read, write = os.pipe()
            reads.append(read)
            try:
                pids.append(os.fork())
                if not pids[-1]:
                    _child(job, i, write)
            finally:
                os.close(write)
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


def _child(job, i: int, result: int) -> None:
    """Body of forked job i; never returns. The child must not unwind into
    its caller's frames: every exception ends here, pickled to `result`."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
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
                gap_des: float, k: int, phase: int, r: int) -> dict:
    """Snapshot of the aborting robot's last fully finite record before the
    abort at step k, with that step's gap errors. Step k itself counts only
    after a plant-phase abort: a control-phase abort leaves step k's records
    incomplete."""
    j = k if phase else k - 1
    while j >= 0 and not np.isfinite(rec[j, r]).all():
        j -= 1
    if j < 0:
        return {"step": None, "robot": r + 1}
    return {
        "step": j,
        "robot": r + 1,
        **dict(zip(PER_ROBOT_FIELDS, rec[j, r].tolist())),
        "gap_err": _gap_errors(path, marks[j], gap_des).tolist(),
    }

