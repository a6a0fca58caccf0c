"""Closed-loop episode engine.

Runs the full platoon at a fixed control rate: per control period each robot
(lead first) computes its reference, posture error, velocity command, sliding
variables, wrench and gain update; the plant then advances with RK4 substeps
under a zero-order-hold wrench, with the arena's friction field and breaker
disturbances evaluated at every integrator stage. Identical inputs produce
bit-identical traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import control as ctl
from .arena import NO_ARENA, Arena
from .control import AdaptiveState, AsmcConfig, KinematicGains, VelocityReference
from .platoon import (
    Path,
    PlatoonConfig,
    figure_eight_lap,
    follower_target,
    nearest_index,
    pose_at_arc,
    tile_lap,
)
from .vehicle import RobotParams, RobotState, plant_rhs, wheel_torque_split

CONTROLLERS = ("proposed", "baseline")

# Per-robot trace columns, in the order they appear in the CSV contract.
PER_ROBOT_FIELDS = (
    "x", "y", "theta", "v", "omega", "xref", "yref", "vc", "wc",
    "F", "tau", "tau_r", "tau_l", "s_v", "s_w",
    "K_v0", "K_v1", "K_w2", "K_w0", "K_w1", "K_v2", "e_x", "e_y",
)


@dataclass(frozen=True)
class SimConfig:
    """Timing of one episode: plant step, control period, duration, RNG seed.

    seed=None (the default) means fully deterministic inputs; a seed only adds
    a reproducible per-breaker amplitude jitter drawn once per episode.
    """

    dt_plant: float = 1e-3
    control_period: float = 1e-2
    duration: float = 600.0
    seed: int | None = None

    def validate(self) -> None:
        if not self.dt_plant > 0:
            raise ValueError(f"dt_plant must be > 0, got {self.dt_plant}")
        if self.dt_plant > self.control_period:
            raise ValueError(
                f"dt_plant {self.dt_plant} exceeds control_period {self.control_period}")
        # substeps() cannot round an infinite or NaN ratio
        if not (self.control_period / self.dt_plant < math.inf and
                abs(self.substeps() * self.dt_plant - self.control_period)
                <= 1e-9 * self.control_period):
            raise ValueError(
                f"control_period {self.control_period} is not an integer multiple "
                f"of dt_plant {self.dt_plant}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and >= 0, got {self.duration}")
        # n_periods() rounds; a run must not silently change its length
        if not (self.duration / self.control_period < math.inf and
                abs(self.n_periods() * self.control_period - self.duration)
                <= 1e-9 * self.duration):
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
        # the trip back from a pool worker
        return EpisodeAborted, (self.step, self.t, self.robot, self.diagnostic)


# Column of each per-robot field in the last axis of `Trace.rec`.
_FIELD_INDEX = {name: i for i, name in enumerate(PER_ROBOT_FIELDS)}


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
    control_period: float
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
    of the second lap copy, i.e. exactly the (14, 0) course start, with a full
    lap behind it so the followers (and the backward gap targeting) always
    have path to walk back over.
    """
    lap_x, lap_y = figure_eight_lap()
    # the length of the one-lap course, summed as build_path sums its arc
    lap_len = float(np.cumsum(np.hypot(np.diff(lap_x), np.diff(lap_y)))[-1])
    need = lap_len + platoon.v_d * sim.duration + lap_len
    laps = max(3, int(math.ceil(need / lap_len)) + 1)
    path = tile_lap(lap_x, lap_y, laps)
    return path, float(path.arc[len(lap_x)])


def lead_start_on(path: Path, platoon: PlatoonConfig, sim: SimConfig,
                  lead_start_arc: float | None = None) -> float:
    """The leader's starting arc position on `path`, checked so that its
    reference stays on the path for the whole episode. On a custom path it
    defaults to just far enough in for the followers to fit."""
    if lead_start_arc is None:
        lead_start_arc = (platoon.n_robots - 1) * platoon.gap_des
    end = lead_start_arc + platoon.v_d * sim.n_periods() * sim.control_period
    if not 0.0 <= lead_start_arc <= end <= path.total_length:
        raise ValueError(
            f"the leader's reference runs from arc {lead_start_arc:.3f} to "
            f"{end:.3f} m, outside the path of length {path.total_length:.3f} m")
    return lead_start_arc


def _jittered_arena(arena: Arena, seed: int | None) -> Arena:
    """Apply the optional seeded amplitude jitter (+-10%) to breaker bands."""
    if seed is None or not arena.speed_breakers:
        return arena
    rng = random.Random(seed)
    jittered = tuple(
        replace(b, amp_force=b.amp_force * rng.uniform(0.9, 1.1),
                amp_torque=b.amp_torque * rng.uniform(0.9, 1.1))
        for b in arena.speed_breakers
    )
    return replace(arena, speed_breakers=jittered)


def _integrate_robot(x, y, th, v, w, F, tau, n, h, params, arena):
    """n RK4 steps of size h under a held wrench; `arena` is a packed
    `(scales, breakers)` pair, re-evaluated by `plant_rhs` at every stage."""
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(n):
        a1, b1, c1, d1, e1 = plant_rhs(x, y, th, v, w, F, tau, params, arena)
        a2, b2, c2, d2, e2 = plant_rhs(x + h2 * a1, y + h2 * b1, th + h2 * c1,
                                       v + h2 * d1, w + h2 * e1, F, tau,
                                       params, arena)
        a3, b3, c3, d3, e3 = plant_rhs(x + h2 * a2, y + h2 * b2, th + h2 * c2,
                                       v + h2 * d2, w + h2 * e2, F, tau,
                                       params, arena)
        a4, b4, c4, d4, e4 = plant_rhs(x + h * a3, y + h * b3, th + h * c3,
                                       v + h * d3, w + h * e3, F, tau,
                                       params, arena)
        x += h6 * (a1 + 2.0 * (a2 + a3) + a4)
        y += h6 * (b1 + 2.0 * (b2 + b3) + b4)
        th += h6 * (c1 + 2.0 * (c2 + c3) + c4)
        v += h6 * (d1 + 2.0 * (d2 + d3) + d4)
        w += h6 * (e1 + 2.0 * (e2 + e3) + e4)
    return x, y, th, v, w


def integrate_plant(state: RobotState, F: float, tau: float, params: RobotParams,
                    dt: float, n_steps: int, arena: Arena | None = None) -> RobotState:
    """Integrate one robot under a constant wrench (F, tau) (RK4, fixed step).

    With arena=None there is no friction scaling and no disturbance; this is
    the path the integrator-order checks drive directly.
    """
    x, y, th, v, w = _integrate_robot(
        state.x, state.y, state.theta, state.v, state.omega, F, tau,
        n_steps, dt, params, NO_ARENA if arena is None else arena.pack())
    return RobotState(x=x, y=y, theta=th, v=v, omega=w)


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
) -> Trace:
    """Simulate one full episode and return its trace.

    `robot` is either one parameter set shared by the platoon or one per
    robot. Per control period the robots are updated strictly lead-to-tail so
    each follower targets its predecessor's same-period path index. Raises
    EpisodeAborted with a diagnostic record if any state or command goes
    non-finite, or so large that the plant or controller's math.* calls
    raise ValueError or OverflowError.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}, got {controller!r}")
    if isinstance(robot, RobotParams):
        robots = [robot] * platoon.n_robots
    else:
        robots = list(robot)
        if len(robots) != platoon.n_robots:
            raise ValueError(
                f"got {len(robots)} robot parameter sets for "
                f"{platoon.n_robots} robots")
    for rp in robots:
        rp.validate()
    kin.validate()
    asmc.validate()
    platoon.validate()
    arena.validate()
    sim.validate()
    if asmc.max_alpha() * sim.control_period >= 1.0:
        raise ValueError(
            "adaptive leakage too fast for the control period: require "
            f"max(alpha) * control_period < 1, got "
            f"{asmc.max_alpha() * sim.control_period:.3g}")

    R = platoon.n_robots
    if path is None:
        path, default_start = default_path_for(platoon, sim)
        if lead_start_arc is None:
            lead_start_arc = default_start
    lead_start_arc = lead_start_on(path, platoon, sim, lead_start_arc)
    arena = _jittered_arena(arena, sim.seed)

    mean_spacing = path.total_length / (len(path) - 1)
    start_arcs = [lead_start_arc - r * platoon.gap_des for r in range(R)]
    if platoon.start_poses is not None:
        poses = list(platoon.start_poses)
    else:
        poses = [pose_at_arc(path, s)[:3] for s in start_arcs]

    # Robots enter the scenario at cruise: v = v_d with the local path
    # curvature's yaw rate, so the episode starts at the operating point
    # rather than with a standing-start catch-up transient.
    states = [
        RobotState(x=p[0], y=p[1], theta=p[2], v=platoon.v_d,
                   omega=pose_at_arc(path, s)[3] * platoon.v_d)
        for p, s in zip(poses, start_arcs)
    ]
    adaptives = [AdaptiveState.fresh(asmc.k_init) for _ in range(R)]
    # Initial progress markers; custom start poses must sit near their nominal
    # along-path slots for the windowed projection to lock on.
    init_window = max(200, int(round(20.0 / mean_spacing)))
    markers = [
        nearest_index(path, st.x, st.y, hint=_index_at_arc(path, s), window=init_window)
        for st, s in zip(states, start_arcs)
    ]

    N = sim.n_periods()
    cp = sim.control_period
    n_sub = sim.substeps()
    h = cp / n_sub
    n_rec = N + 1

    t_arr = np.arange(n_rec) * cp
    rec = np.empty((n_rec, R, len(PER_ROBOT_FIELDS)))
    gap_arr = np.empty((n_rec, R - 1)) if R > 1 else np.empty((n_rec, 0))

    packed = arena.pack()
    proposed = controller == "proposed"
    arc = path.arc.item
    v_d = platoon.v_d
    gap_des = platoon.gap_des
    heading_from_predecessor = platoon.follower_heading == "predecessor"

    wrenches = [(0.0, 0.0)] * R
    for k in range(N + 1):
        t = k * cp
        lead_arc = lead_start_arc + v_d * t
        for r in range(R):
            st = states[r]
            markers[r] = nearest_index(path, st.x, st.y, markers[r])
            if r == 0:
                xr, yr, thr, kappa = pose_at_arc(path, lead_arc)
                ref = VelocityReference(v_d, kappa * v_d)
            else:
                _, (xr, yr, thr), ref = follower_target(path, markers[r - 1],
                                                        gap_des, v_d)
                if heading_from_predecessor:
                    thr = states[r - 1].theta

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
                # math.* rejects an angle or gain that has run off; nothing of
                # this robot-step is recorded, so report the step before
                raise EpisodeAborted(k, t, r, _diagnostic(rec, gap_arr, k - 1, r)) \
                    from None
            tau_r, tau_l = wheel_torque_split(F, tau, robots[r])
            wrenches[r] = (F, tau)

            rec[k, r] = (st.x, st.y, st.theta, st.v, st.omega, xr, yr,
                         cmd.v_c, cmd.omega_c, F, tau, tau_r, tau_l,
                         sv.s_v, sv.s_w, *gains_now, xr - st.x, yr - st.y)

            if not (math.isfinite(F) and math.isfinite(tau)):
                raise EpisodeAborted(k, t, r, _diagnostic(rec, gap_arr, k, r))

        for j in range(R - 1):
            gap_arr[k, j] = (arc(markers[j]) - arc(markers[j + 1])) - gap_des

        if k == N:
            break
        for r in range(R):
            st = states[r]
            F, tau = wrenches[r]
            try:
                nx, ny, nth, nv, nw = _integrate_robot(
                    st.x, st.y, st.theta, st.v, st.omega, F, tau, n_sub, h,
                    robots[r], packed)
                finite = all(map(math.isfinite, (nx, ny, nth, nv, nw)))
            except (ValueError, OverflowError):
                # the state ran off inside a substep, where math.cos(inf) raises
                finite = False
            if not finite:
                raise EpisodeAborted(k, t, r, _diagnostic(rec, gap_arr, k, r))
            st.x, st.y, st.theta, st.v, st.omega = nx, ny, nth, nv, nw

    return Trace(controller=controller, scenario=scenario_label, n_robots=R,
                 control_period=cp, t=t_arr, rec=rec, gap_err=gap_arr)


def _diagnostic(rec: np.ndarray, gap_arr: np.ndarray, k: int, r: int) -> dict:
    """Snapshot of the last fully finite record, at step k or before, for the
    aborting robot."""
    if k < 0:
        return {"step": None, "robot": r + 1}
    j = k
    while j > 0 and not np.isfinite(rec[j, r]).all():
        j -= 1
    return {
        "step": j,
        "robot": r + 1,
        **dict(zip(PER_ROBOT_FIELDS, rec[j, r].tolist())),
        "gap_err": [float(g) for g in gap_arr[j]] if j < len(gap_arr) else [],
    }


# Plant parameters for the kinematics-only runner: with zero wrench and no
# friction the velocities stay at the commanded values over a period.
_FRICTIONLESS = RobotParams(f_kr=0.0, f_kl=0.0, f_cr=0.0, f_cl=0.0)


@dataclass
class KinematicRun:
    """Posture-error history of a kinematics-only tracking run."""

    t: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    x: np.ndarray
    y: np.ndarray


def run_kinematic_episode(
    kin: KinematicGains,
    v_d: float,
    path: Path,
    start_arc: float,
    duration: float,
    control_period: float = 1e-2,
    initial_pose: tuple[float, float, float] | None = None,
    n_sub: int = 10,
) -> KinematicRun:
    """Track the arc-parameterized reference with the dynamics bypassed.

    The commanded (v_c, omega_c) feed the kinematics directly (perfect
    velocity tracking): each period the plant's (v, omega) is reset to the
    command and the pose integrates with the plant RK4 under zero wrench,
    without friction or arena. Used to check the kinematic loop in isolation.
    """
    N = int(round(duration / control_period))
    h = control_period / n_sub
    x0, y0, th0, _ = pose_at_arc(path, start_arc)
    if initial_pose is not None:
        x0, y0, th0 = initial_pose
    x, y, th = x0, y0, th0

    t_arr = np.arange(N + 1) * control_period
    e1 = np.empty(N + 1)
    e2 = np.empty(N + 1)
    e3 = np.empty(N + 1)
    xs = np.empty(N + 1)
    ys = np.empty(N + 1)
    for k in range(N + 1):
        xr, yr, thr, kappa = pose_at_arc(path, start_arc + v_d * (k * control_period))
        err = ctl.posture_error(x, y, th, xr, yr, thr)
        cmd = ctl.kinematic_control(
            err, VelocityReference(v_d=v_d, omega_d=kappa * v_d), kin)
        e1[k], e2[k], e3[k] = err.e1, err.e2, err.e3
        xs[k], ys[k] = x, y
        if k == N:
            break
        x, y, th, _, _ = _integrate_robot(x, y, th, cmd.v_c, cmd.omega_c,
                                          0.0, 0.0, n_sub, h, _FRICTIONLESS,
                                          NO_ARENA)
    return KinematicRun(t=t_arr, e1=e1, e2=e2, e3=e3, x=xs, y=ys)
