import dataclasses
import math

import numpy as np
import pytest
from plant_oracle import oracle_rhs

from platoon_asmc import (
    Arena,
    AsmcConfig,
    EpisodeAborted,
    KinematicGains,
    PlatoonConfig,
    RobotParams,
    SimConfig,
    run_episode,
)
from platoon_asmc.arena import NO_ARENA
from platoon_asmc.engine import _integrate_robot, default_path_for, lead_start_on
from platoon_asmc.platoon import build_path, figure_eight_lap, pose_at_arc, tile_lap
from platoon_asmc.vehicle import plant_step_for

FRICTIONLESS = RobotParams(f_kr=0, f_kl=0, f_cr=0, f_cl=0)


class TestSimConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="dt_plant"):
            SimConfig(dt_plant=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            SimConfig(dt_plant=0.02, control_period=0.01)
        with pytest.raises(ValueError, match="integer multiple"):
            SimConfig(dt_plant=0.003, control_period=0.01)
        # rounding to 100 periods would simulate 1.00 s
        with pytest.raises(ValueError, match="duration 1.005"):
            SimConfig(duration=1.005)

    def test_period_counts(self):
        assert SimConfig(duration=0.0).n_periods() == 0
        assert SimConfig(duration=1.0).n_periods() == 100


def _abort_of(cfg, **edits):
    """(step, t, robot, diagnostic) of the EpisodeAborted the edited default
    episode raises."""
    args = dict(robot=cfg.robot, kin=cfg.kinematic, asmc=cfg.asmc,
                platoon=cfg.platoon, arena=cfg.arena, sim=cfg.sim,
                controller="proposed")
    args.update(edits)
    with pytest.raises(EpisodeAborted) as exc:
        run_episode(**args)
    e = exc.value
    return e.step, e.t, e.robot, e.diagnostic


# The abort cases TestRunEpisode checks, plus: an F of -inf at step 0; a leader
# whose plant overflows at step 0, after every robot's control ran; and that
# leader ahead of a follower whose control fails at step 0, which comes
# first although the leader's group finds its own abort first.
ABORTS = {
    "plant_overflow": lambda cfg: dict(
        asmc=dataclasses.replace(cfg.asmc, Lambda_v=1e300),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "inside_substep": lambda cfg: dict(
        platoon=dataclasses.replace(cfg.platoon, start_poses=(
            (100.0, 100.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        sim=dataclasses.replace(cfg.sim, duration=2.0)),
    "controller_math": lambda cfg: dict(
        platoon=dataclasses.replace(
            cfg.platoon, follower_heading="predecessor",
            start_poses=((14.0, 0.0, 1e308), (13.0, 0.0, -1e308),
                         (12.0, 0.0, 0.0))),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "infinite_force_at_step_0": lambda cfg: dict(
        asmc=dataclasses.replace(cfg.asmc, Lambda_v=1e308, gain_clamp=None),
        platoon=dataclasses.replace(cfg.platoon, start_poses=(
            (16.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "leader_plant_at_step_0": lambda cfg: dict(
        robot=(dataclasses.replace(cfg.robot, m=1e-300), cfg.robot, cfg.robot),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "follower_control_before_leader_plant": lambda cfg: dict(
        robot=(dataclasses.replace(cfg.robot, m=1e-300), cfg.robot, cfg.robot),
        **ABORTS["controller_math"](cfg)),
}


class TestRunEpisode:
    def test_near_equilibrium_on_straight_frictionless_path(self, straight_path):
        sim = SimConfig(duration=10.0)
        tr = run_episode(FRICTIONLESS, KinematicGains(), AsmcConfig(),
                         PlatoonConfig(n_robots=1), Arena(), sim, "proposed",
                         path=straight_path)
        assert np.max(np.abs(tr["e_x"])) <= 1e-3
        assert np.max(np.abs(tr["e_y"])) <= 1e-3

    def test_zero_duration_gives_single_record(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=0.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                         cfg.arena, sim, "proposed")
        assert tr.n_records == 1
        assert tr.t[0] == 0.0

    def test_subnormal_path_spacing_runs(self, cfg):
        # 20 m over a 1e-320 m spacing overflows; the start search window
        # is capped at the path's length
        path = build_path([0.0, 1e-320], [0.0, 0.0])
        platoon = dataclasses.replace(cfg.platoon, n_robots=1)
        sim = dataclasses.replace(cfg.sim, duration=0.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, platoon,
                         cfg.arena, sim, "proposed", path=path)
        assert tr.n_records == 1

    def test_record_count_contract(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=2.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                         cfg.arena, sim, "proposed")
        assert tr.n_records == 201

    def test_identical_inputs_identical_traces(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=3.0)
        a = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")
        b = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")
        for name in a.data:
            assert np.array_equal(a.data[name], b.data[name])
        assert np.array_equal(a.gap_err, b.gap_err)

    def test_seed_jitters_breaker_amplitudes_reproducibly(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=0.0, seed=42)
        a = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")
        b = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")
        assert np.array_equal(a["x"], b["x"])

    def test_update_order_is_lead_to_tail(self, cfg):
        # followers see the predecessor's same-period index: at t=0 every gap
        # error is the placement error, well below one waypoint spacing
        sim = dataclasses.replace(cfg.sim, duration=0.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                         cfg.arena, sim, "proposed")
        assert np.max(np.abs(tr.gap_err)) <= 0.05

    def test_platoon_longer_than_a_lap_starts_in_its_slots(self, cfg):
        # two 50 m gaps reach back past one 73.4 m lap of the built-in course
        sim = dataclasses.replace(cfg.sim, duration=0.0)
        long = dataclasses.replace(cfg.platoon, gap_des=50.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, long,
                         cfg.arena, sim, "proposed")
        assert len({(tr["x"][0, r], tr["y"][0, r]) for r in range(3)}) == 3
        assert np.max(np.abs(tr.gap_err[0])) < 0.05

    def test_rejects_leader_start_short_of_its_followers(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        path, start = default_path_for(cfg.platoon, sim)
        long = dataclasses.replace(cfg.platoon, gap_des=50.0)
        with pytest.raises(ValueError, match="followers need"):
            lead_start_on(path, long, sim, start)

    def test_per_robot_parameter_sets(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        robots = (cfg.robot, dataclasses.replace(cfg.robot, m=2.5), cfg.robot)
        tr_mixed = run_episode(robots, cfg.kinematic, cfg.asmc, cfg.platoon,
                               cfg.arena, sim, "proposed")
        tr_shared = run_episode(cfg.robot, cfg.kinematic, cfg.asmc,
                                cfg.platoon, cfg.arena, sim, "proposed")
        # robot 2 carries different mass, robot 1 is untouched
        assert not np.array_equal(tr_mixed["v"][:, 1], tr_shared["v"][:, 1])
        assert np.array_equal(tr_mixed["v"][:, 0], tr_shared["v"][:, 0])
        with pytest.raises(ValueError, match="parameter sets"):
            run_episode(robots[:2], cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")

    def test_follower_heading_modes(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        alt = dataclasses.replace(cfg.platoon, follower_heading="predecessor")
        a = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed")
        b = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, alt,
                        cfg.arena, sim, "proposed")
        assert not np.array_equal(a["wc"][:, 1:], b["wc"][:, 1:])
        assert np.array_equal(a["wc"][:, 0], b["wc"][:, 0])  # leader unaffected
        with pytest.raises(ValueError, match="follower_heading"):
            dataclasses.replace(cfg.platoon, follower_heading="gps")

    def test_rejects_path_too_short_for_the_run(self, cfg, straight_path):
        # the 200 m straight path holds 99 s of the leader at 2 m/s
        sim = SimConfig(duration=100.0)
        with pytest.raises(ValueError, match="outside the path"):
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed", path=straight_path)

    def test_rejects_unknown_controller(self, cfg):
        with pytest.raises(ValueError, match="controller"):
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, cfg.sim, "pid")

    def test_rejects_too_fast_leakage(self, cfg):
        bad = dataclasses.replace(cfg.asmc, alpha_w0=150.0)
        with pytest.raises(ValueError, match="leakage"):
            run_episode(cfg.robot, cfg.kinematic, bad, cfg.platoon,
                        cfg.arena, cfg.sim, "proposed")

    def test_abort_carries_diagnostic_record(self, cfg):
        # an absurd linear gain overflows the plant within a few periods
        diag = _abort_of(cfg, **ABORTS["plant_overflow"](cfg))[3]
        assert {"step", "robot", "x", "v", "s_v"} <= set(diag)
        assert all(math.isfinite(v) for k, v in diag.items()
                   if isinstance(v, float))

    def test_state_blowing_up_inside_a_substep_aborts(self, cfg):
        # a start pose far off its slot drives the plant to inf within an RK4
        # substep, where math.cos(inf) raises ValueError
        step, _, robot, diag = _abort_of(cfg, **ABORTS["inside_substep"](cfg))
        assert robot == 0
        assert diag["step"] < step
        assert all(math.isfinite(v) for v in diag.values()
                   if isinstance(v, float))

    def test_controller_math_error_aborts_before_recording(self, cfg):
        # headings of +-1e308 make the follower's heading error overflow to
        # inf at the first step, which wrap_angle's math.fmod rejects
        step, _, robot, diag = _abort_of(cfg, **ABORTS["controller_math"](cfg))
        assert (step, robot) == (0, 1)
        assert diag == {"step": None, "robot": 2}

    def test_baseline_matches_proposed_when_state_terms_are_inactive(
            self, straight_path):
        # on a frictionless straight path started at the operating point the
        # state-dependent terms multiply exact zeros, so both controllers
        # produce the same trajectory
        sim = SimConfig(duration=5.0)
        out = {}
        for ctl in ("proposed", "baseline"):
            out[ctl] = run_episode(FRICTIONLESS, KinematicGains(), AsmcConfig(),
                                   PlatoonConfig(n_robots=1), Arena(), sim, ctl,
                                   path=straight_path)
        for name in ("x", "y", "v", "omega", "F", "tau"):
            assert np.max(np.abs(out["proposed"][name] - out["baseline"][name])) \
                <= 1e-6


class TestIntegratorQuality:
    def test_rk4_order_on_constant_wrench(self):
        # friction-free, constant force, constant yaw rate: closed-form pose
        m, v0, w0, F, T = 1.0, 0.5, 20.0, 2.0, 10.0
        p = dataclasses.replace(FRICTIONLESS, m=m)
        a = F / m

        def analytic():
            th = w0 * T
            x = (v0 / w0) * math.sin(th) + (a / w0 ** 2) * (math.cos(th) - 1.0) \
                + (a * T / w0) * math.sin(th)
            y = -(v0 / w0) * (math.cos(th) - 1.0) + (a / w0 ** 2) * math.sin(th) \
                - (a * T / w0) * math.cos(th)
            return x, y

        xa, ya = analytic()
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            x, y, *_ = _integrate_robot(0.0, 0.0, 0.0, v0, w0, F, 0.0,
                                        int(round(T / dt)), dt,
                                        plant_step_for(p, NO_ARENA))
            errs.append(math.hypot(x - xa, y - ya))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7, f"observed orders {orders}"

    def test_step_refinement(self, cfg):
        # halving the plant step moves the 60 s final positions by < 1e-4 m
        final = {}
        for dtp in (1e-3, 5e-4):
            sim = dataclasses.replace(cfg.sim, duration=60.0, dt_plant=dtp)
            tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                             cfg.arena, sim, "proposed")
            final[dtp] = (tr["x"][-1], tr["y"][-1])
        for r in range(cfg.platoon.n_robots):
            d = math.hypot(final[1e-3][0][r] - final[5e-4][0][r],
                           final[1e-3][1][r] - final[5e-4][1][r])
            assert d < 1e-4

    def test_energy_decays_without_actuation(self):
        # symmetric friction dissipates: kinetic energy is non-increasing
        p = RobotParams()
        step = plant_step_for(p, NO_ARENA)
        st = (0.0, 0.0, 0.0, 2.0, 1.0)
        ke = 0.5 * p.m * st[3] ** 2 + 0.5 * p.J * st[4] ** 2
        for _ in range(3000):
            st = _integrate_robot(*st, 0.0, 0.0, 1, 1e-3, step)
            ke_next = 0.5 * p.m * st[3] ** 2 + 0.5 * p.J * st[4] ** 2
            assert ke_next <= ke + 1e-15
            ke = ke_next

    def test_friction_monotonicity_for_baseline(self, cfg):
        # raising the high-friction quadrant's value raises the baseline's
        # tracking error inside that quadrant
        from platoon_asmc.metrics import quadrant_mask

        rms_q3 = {}
        for mu3 in (0.13, 0.20):
            arena = dataclasses.replace(cfg.arena,
                                        quadrant_mu=(0.1, 0.1, mu3, 0.1))
            sim = dataclasses.replace(cfg.sim, duration=120.0)
            tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                             arena, sim, "baseline")
            m = quadrant_mask(tr, 0, 3)
            rms_q3[mu3] = math.sqrt(float(np.mean(
                tr["e_x"][m, 0] ** 2 + tr["e_y"][m, 0] ** 2)))
        assert rms_q3[0.20] > rms_q3[0.13]


@pytest.mark.parametrize("inside_breaker", [False, True])
def test_integrator_matches_scipy_reference(cfg, inside_breaker):
    """Independent cross-check: the fixed-step integrator agrees with scipy's
    adaptive RK45 at tight tolerance on the full physics, on segments where
    the right-hand side is smooth (entirely outside a breaker band, and
    entirely inside one; band-edge crossings are inherently step-limited)."""
    from scipy.integrate import solve_ivp

    from platoon_asmc import SpeedBreaker

    params = cfg.robot
    if inside_breaker:
        # disk wide enough to contain the whole 2 s trajectory
        breakers = (SpeedBreaker(x=2.0, y=2.0, half_width=10.0),)
    else:
        breakers = ()
    arena = dataclasses.replace(cfg.arena, speed_breakers=breakers)
    wrench = (1.2, 0.02)
    start = [2.0, 2.0, 0.2, 1.5, 0.1]  # stays in the first quadrant

    packed = arena.pack()

    def rhs(_t, s):
        return oracle_rhs(*s, *wrench, params, packed)

    T = 2.0
    ref = solve_ivp(rhs, (0.0, T), start, method="RK45", rtol=1e-12,
                    atol=1e-12)
    mine = _integrate_robot(*start, *wrench, 2000, 1e-3,
                            plant_step_for(params, packed))
    assert ref.success
    err = np.max(np.abs(np.array(mine) - ref.y[:, -1]))
    assert err < 1e-8, err


def test_default_course_traverses_quadrants_in_order(cfg):
    # one lap runs Q1 -> Q3 -> Q2 -> Q4; the high-friction stretch (Q3) and
    # the breaker placements rely on this ordering
    from platoon_asmc.arena import quadrant_of

    p = tile_lap(*figure_eight_lap(), 1)
    seen = [quadrant_of(*pose_at_arc(p, f * p.total_length)[:2])
            for f in (0.125, 0.375, 0.625, 0.875)]
    assert seen == [1, 3, 2, 4]


def test_fast_path_matches_public_ops_bitwise(cfg):
    """One RK4 step of the engine's stepper must equal the same step
    composed by hand from the oracle's stage function, bit for bit."""
    params = cfg.robot
    packed = cfg.arena.pack()
    F, tau = 0.7, -0.05
    h = 1e-3

    def rhs(s):
        return oracle_rhs(*s, F, tau, params, packed)

    def shift(s, d, w):
        return [si + w * di for si, di in zip(s, d)]

    for s0 in ([1.0, 1.0, 0.0, 2.0, 0.3],
               [-1.0, -1.0, 0.0, 1.5, -0.2],
               [-2.709293, 2.525828, 0.0, 2.0, 0.0],  # inside breaker
               [0.0, -0.5, 0.0, -0.4, 1.0]):
        k1 = rhs(s0)
        k2 = rhs(shift(s0, k1, h / 2))
        k3 = rhs(shift(s0, k2, h / 2))
        k4 = rhs(shift(s0, k3, h))
        manual = tuple(s0[i] + h / 6 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                       for i in range(5))
        assert _integrate_robot(*s0, F, tau, 1, h,
                                plant_step_for(params, packed)) == manual


def _children() -> list[int]:
    """Live child processes of this process, from /proc."""
    from pathlib import Path

    return [int(pid) for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()]


def test_abort_with_no_finite_record_reports_no_step(cfg):
    # the leader's force is -inf at step 0, so no record of it is finite;
    # the diagnostic used to print that row and an unwritten gap row
    k, t, r, diag = _abort_of(cfg, **ABORTS["infinite_force_at_step_0"](cfg))
    assert (k, t, r) == (0, 0.0, 0)
    assert diag == {"step": None, "robot": 1}


class TestPipeline:
    """Robot groups in forked processes give the serial trace and abort."""

    @pytest.fixture(autouse=True)
    def pipeline_any_length(self, monkeypatch):
        # let the short episodes here split, count the forks, and fail a
        # test that hangs on a wait between groups
        import os
        import signal

        from platoon_asmc import engine

        monkeypatch.setattr(engine, "MIN_GROUP_ROBOT_STEPS", 1)
        self.forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                self.forks.append(pid)
            return pid

        def hung(*_):
            raise TimeoutError("pipelined episode still running after 60 s")

        monkeypatch.setattr(os, "fork", counted_fork)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert _children() == []

    @staticmethod
    def _bits(trace):
        return trace.rec.tobytes(), trace.t.tobytes(), trace.gap_err.tobytes()

    @pytest.mark.parametrize("heading", ["tangent", "predecessor"])
    @pytest.mark.parametrize("controller", ["proposed", "baseline"])
    def test_trace_is_bitwise_the_serial_trace(self, cfg, controller, heading):
        platoon = dataclasses.replace(cfg.platoon, follower_heading=heading)
        sim = dataclasses.replace(cfg.sim, duration=1.0, seed=5)
        traces = {p: run_episode(cfg.robot, cfg.kinematic, cfg.asmc, platoon,
                                 cfg.arena, sim, controller, processes=p)
                  for p in (1, 2, 3)}
        assert len(self.forks) == 0 + 1 + 2
        for p in (2, 3):
            assert self._bits(traces[p]) == self._bits(traces[1])

    @pytest.mark.parametrize("controller", ["proposed", "baseline"])
    def test_eight_robots_in_eight_processes(self, cfg, controller):
        platoon = dataclasses.replace(cfg.platoon, n_robots=8, gap_des=4.0,
                                      follower_heading="predecessor")
        sim = dataclasses.replace(cfg.sim, duration=1.0, dt_plant=1e-2)
        serial, split = (run_episode(cfg.robot, cfg.kinematic, cfg.asmc,
                                     platoon, cfg.arena, sim, controller,
                                     processes=p) for p in (1, 8))
        assert len(self.forks) == 7
        assert self._bits(split) == self._bits(serial)

    @pytest.mark.parametrize("case", sorted(ABORTS))
    def test_abort_is_the_serial_abort(self, cfg, case):
        serial = _abort_of(cfg, processes=1, **ABORTS[case](cfg))
        for p in (2, 3):
            assert _abort_of(cfg, processes=p, **ABORTS[case](cfg)) == serial

    def test_child_exception_is_raised_in_the_caller(self, cfg, monkeypatch):
        import os

        from platoon_asmc import engine

        caller = os.getpid()
        follower_target = engine.follower_target

        def fails_in_a_child(*args):
            if os.getpid() != caller:
                raise KeyError("from a child")
            return follower_target(*args)

        monkeypatch.setattr(engine, "follower_target", fails_in_a_child)
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        with pytest.raises(KeyError, match="from a child"):
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed", processes=3)

    def test_killed_group_raises_forked_job_lost(self, cfg, monkeypatch):
        import os
        import signal

        from platoon_asmc import engine

        caller = os.getpid()
        follower_target = engine.follower_target

        def dies_in_a_child(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return follower_target(*args)

        monkeypatch.setattr(engine, "follower_target", dies_in_a_child)
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        with pytest.raises(engine.ForkedJobLost, match="job 1 .* signal 9"):
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed", processes=2)

    def test_rejects_bad_process_count(self, cfg):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="processes"):
                run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                            cfg.arena, cfg.sim, "proposed", processes=bad)


def test_group_bounds():
    import threading

    from platoon_asmc.engine import MIN_GROUP_ROBOT_STEPS, _group_bounds

    assert _group_bounds(8, 501, 2) == [(0, 4), (4, 8)]
    assert _group_bounds(3, 801, 2) == [(0, 2), (2, 3)]
    assert _group_bounds(3, 801, 8) == [(0, 1), (1, 2), (2, 3)]
    assert _group_bounds(3, 801, 1) == [(0, 3)]
    # each group holds at least MIN_GROUP_ROBOT_STEPS robot-steps
    n = MIN_GROUP_ROBOT_STEPS
    assert _group_bounds(2, n - 1, 2) == [(0, 2)]
    assert _group_bounds(2, n, 2) == [(0, 1), (1, 2)]
    # a child forked while another thread runs could inherit a held lock
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _group_bounds(8, 501, 2) == [(0, 8)]
    finally:
        stop.set()
        thread.join()


class TestRunForked:
    """Jobs in forked children return their values and failures in order."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        import signal

        def hung(*_):
            raise TimeoutError("forked jobs still running after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert _children() == []

    def test_values_come_back_in_job_order(self):
        import os

        from platoon_asmc.engine import run_forked

        got = run_forked([lambda i=i: (i, os.getpid()) for i in range(4)])
        assert [i for i, _ in got] == [0, 1, 2, 3]
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 4

    @pytest.mark.parametrize("first", [0, 1])
    def test_first_failure_in_job_order_is_raised(self, first):
        import time

        from platoon_asmc.engine import run_forked

        def fails(exc, delay=0.0):
            def job():
                time.sleep(delay)
                raise exc
            return job

        # the first failure in job order is raised, not the first in time
        jobs = [lambda: "ok"] * first + [fails(KeyError("first"), 0.2),
                                         fails(ValueError("second")),
                                         lambda: "ok"]
        with pytest.raises(KeyError, match="first"):
            run_forked(jobs)

    def test_result_that_cannot_be_pickled_is_named(self):
        import threading

        from platoon_asmc.engine import run_forked

        with pytest.raises(RuntimeError,
                           match="forked job 1 cannot send back <.*lock"):
            run_forked([lambda: None, threading.Lock])

    def test_child_that_dies_is_forked_job_lost(self):
        import os
        import signal

        from platoon_asmc.engine import ForkedJobLost, run_forked

        def dies():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ForkedJobLost,
                           match="job 2 ended without an outcome: signal 9"):
            run_forked([lambda: None, lambda: None, dies])
        with pytest.raises(ForkedJobLost, match="job 1 .*: exit code 0"):
            run_forked([lambda: None, lambda: os._exit(0)])
