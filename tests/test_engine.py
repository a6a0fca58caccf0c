import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from plant_oracle import oracle_rhs

from platoon_asmc import platoon as platoon_mod
from platoon_asmc.arena import NO_ARENA, Arena
from platoon_asmc.control import (
    AsmcConfig,
    KinematicGains,
    adapt_gains,
    adapt_gains_baseline,
    asmc_force,
    asmc_torque,
    baseline_asmc,
    update_sliding,
)
from platoon_asmc.engine import (
    PER_ROBOT_FIELDS,
    EpisodeAborted,
    ForkedJobLost,
    SimConfig,
    default_path_for,
    lead_start_on,
    run_episode,
)
from platoon_asmc.metrics import compare_reports, report_from_trace
from platoon_asmc.platoon import (
    PlatoonConfig,
    build_path,
    figure_eight_lap,
    pose_at_arc,
)
from platoon_asmc.vehicle import RobotParams, plant_step_for

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


def _control_fails_at_start(cfg, monkeypatch):
    """Episode edits under which robot 2's control raises ValueError at step
    0, as math.fmod does on an angle that has run off: each control step
    that `control.step_for` binds is wrapped to raise on robot 2's start
    pose, the state it holds at step 0 alone. The poses are the course's
    start slots."""
    from platoon_asmc import control

    poses = ((14.0, 0.0, 1.6), (13.8, -1.0, 1.6), (13.6, -2.0, 1.6))
    step_for = control.step_for

    def raising_step_for(*args):
        step = step_for(*args)

        def raises(x, y, theta, *reference):
            if (x, y, theta) == poses[1]:
                raise ValueError("math domain error")
            return step(x, y, theta, *reference)

        return raises

    monkeypatch.setattr(control, "step_for", raising_step_for)
    return dict(platoon=dataclasses.replace(cfg.platoon, start_poses=poses),
                sim=dataclasses.replace(cfg.sim, duration=1.0))


# The abort cases TestRunEpisode checks, plus: an F of -inf at step 0; a leader
# whose plant overflows during step 0, which its command at step 1 reports;
# and that leader ahead of a follower whose control fails at step 0, which
# comes first. Each gives the edits to the default episode, and may patch the
# control through `monkeypatch`.
ABORTS = {
    "plant_overflow": lambda cfg, monkeypatch: dict(
        asmc=dataclasses.replace(cfg.asmc, Lambda_v=1e300),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "inside_substep": lambda cfg, monkeypatch: dict(
        platoon=dataclasses.replace(cfg.platoon, start_poses=(
            (100.0, 100.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        sim=dataclasses.replace(cfg.sim, duration=2.0)),
    "controller_math": _control_fails_at_start,
    "infinite_force_at_step_0": lambda cfg, monkeypatch: dict(
        asmc=dataclasses.replace(cfg.asmc, Lambda_v=1e308, gain_clamp=None),
        platoon=dataclasses.replace(cfg.platoon, start_poses=(
            (16.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "leader_plant_at_step_0": lambda cfg, monkeypatch: dict(
        robot=(dataclasses.replace(cfg.robot, m=1e-300), cfg.robot, cfg.robot),
        sim=dataclasses.replace(cfg.sim, duration=1.0)),
    "follower_control_before_leader_plant": lambda cfg, monkeypatch: dict(
        robot=(dataclasses.replace(cfg.robot, m=1e-300), cfg.robot, cfg.robot),
        **_control_fails_at_start(cfg, monkeypatch)),
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

    def test_abort_carries_diagnostic_record(self, cfg, monkeypatch):
        # an absurd linear gain overflows the plant within a few periods
        diag = _abort_of(cfg, **ABORTS["plant_overflow"](cfg, monkeypatch))[3]
        assert {"step", "robot", "x", "v", "s_v"} <= set(diag)
        assert all(math.isfinite(v) for k, v in diag.items()
                   if isinstance(v, float))

    def test_state_blowing_up_inside_a_substep_aborts(self, cfg, monkeypatch):
        # a start pose far off its slot drives the plant to inf within an RK4
        # substep, where math.cos(inf) raises ValueError
        step, _, robot, diag = _abort_of(
            cfg, **ABORTS["inside_substep"](cfg, monkeypatch))
        assert robot == 0
        assert diag["step"] < step
        assert all(math.isfinite(v) for v in diag.values()
                   if isinstance(v, float))

    def test_controller_math_error_aborts_before_recording(self, cfg,
                                                           monkeypatch):
        # robot 2's control raises at step 0, before its record is written,
        # so the abort has no finite record to report
        step, _, robot, diag = _abort_of(
            cfg, **ABORTS["controller_math"](cfg, monkeypatch))
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
        step = plant_step_for(p, NO_ARENA)
        for dt in (4e-3, 2e-3, 1e-3):
            x, y, *_ = step(0.0, 0.0, 0.0, v0, w0, F, 0.0, int(round(T / dt)),
                            dt)
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

    def test_reports_converge_in_the_plant_step(self, cfg):
        # the shipped scenario over 28 s, gain clamp off: at each coarser
        # plant step against a 1e-4 s reference, every report RMS moves by at
        # most 2e-4 m and every improvement by at most 0.5 percentage points,
        # keeping its sign
        asmc = dataclasses.replace(cfg.asmc, gain_clamp=None)

        def reports(dt_plant):
            sim = dataclasses.replace(cfg.sim, duration=28.0, dt_plant=dt_plant)
            rb, rp = (report_from_trace(
                run_episode(cfg.robot, cfg.kinematic, asmc, cfg.platoon,
                            cfg.arena, sim, ctl), cfg.metrics.warmup_cutoff)
                for ctl in ("baseline", "proposed"))
            values = [v for r in (rb, rp) for v in r.rms_x + r.rms_y + r.rms_gap]
            return values, [row["improvement_pct"]
                            for row in compare_reports(rb, rp)]

        ref_rms, ref_pct = reports(1e-4)
        assert len(ref_rms) == 16 and len(ref_pct) == 8
        for dt_plant in (1e-3, 5e-3, 1e-2):
            got_rms, got_pct = reports(dt_plant)
            d_rms = max(abs(a - b) for a, b in zip(got_rms, ref_rms))
            d_pct = max(abs(a - b) for a, b in zip(got_pct, ref_pct))
            assert d_rms <= 2e-4, (dt_plant, d_rms)
            assert d_pct <= 0.5, (dt_plant, d_pct)
            assert [a > 0 for a in got_pct] == [b > 0 for b in ref_pct], (
                dt_plant, got_pct, ref_pct)

    def test_energy_decays_without_actuation(self):
        # symmetric friction dissipates: kinetic energy is non-increasing
        p = RobotParams()
        step = plant_step_for(p, NO_ARENA)
        st = (0.0, 0.0, 0.0, 2.0, 1.0)
        ke = 0.5 * p.m * st[3] ** 2 + 0.5 * p.J * st[4] ** 2
        for _ in range(3000):
            st = step(*st, 0.0, 0.0, 1, 1e-3)
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

    from platoon_asmc.arena import SpeedBreaker

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
    mine = plant_step_for(params, packed)(*start, *wrench, 2000, 1e-3)
    assert ref.success
    err = np.max(np.abs(np.array(mine) - ref.y[:, -1]))
    assert err < 1e-8, err


def test_default_course_traverses_quadrants_in_order(cfg):
    # one lap runs Q1 -> Q3 -> Q2 -> Q4; the high-friction stretch (Q3) and
    # the breaker placements rely on this ordering
    from platoon_asmc.arena import quadrant_of

    p = build_path(*figure_eight_lap())
    seen = [quadrant_of(*pose_at_arc(p, f * p.total_length)[:2])
            for f in (0.125, 0.375, 0.625, 0.875)]
    assert seen == [1, 3, 2, 4]


def _bits(trace):
    return trace.rec.tobytes(), trace.t.tobytes(), trace.gap_err.tobytes()


class TestDefaultCourse:
    """`default_path_for` keeps the last course it built, read-only."""

    @staticmethod
    def course(cfg, duration):
        return default_path_for(cfg.platoon,
                                dataclasses.replace(cfg.sim, duration=duration))

    def test_equal_inputs_share_one_read_only_course(self, cfg):
        (a, start_a), (b, start_b) = (self.course(cfg, 20.0) for _ in "ab")
        assert a is b and start_a == start_b
        for name in ("cx", "cy", "arc", "tangent", "curvature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(a, name)[0] = 0.0

    def test_another_lap_count_builds_another_course(self, cfg):
        short, _ = self.course(cfg, 20.0)
        long, _ = self.course(cfg, 600.0)
        assert len(long) > len(short)
        # only the last course is kept
        again, _ = self.course(cfg, 20.0)
        assert again is not short and again.cx.tobytes() == short.cx.tobytes()

    @pytest.mark.parametrize("controller", ["proposed", "baseline"])
    def test_episode_on_it_is_the_episode_on_an_explicit_course(
            self, cfg, controller):
        sim = dataclasses.replace(cfg.sim, duration=5.0)
        path, start = default_path_for(cfg.platoon, sim)
        lap_x, lap_y = figure_eight_lap()
        laps = len(path) // len(lap_x)
        explicit = build_path(np.tile(lap_x, laps), np.tile(lap_y, laps))
        cached, given = (
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, controller, **course)
            for course in ({}, {"path": explicit, "lead_start_arc": start}))
        assert _bits(cached) == _bits(given)

    def test_threads_running_the_default_episode_give_the_serial_trace(
            self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=20.0)

        def episode(**processes):
            return _bits(run_episode(cfg.robot, cfg.kinematic, cfg.asmc,
                                     cfg.platoon, cfg.arena, sim, "proposed",
                                     **processes))

        serial = episode(processes=1)
        self.course(cfg, 600.0)  # so that both threads look the course up
        results = []
        threads = [threading.Thread(target=lambda: results.append(episode()))
                   for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial, serial]


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_walk_certifies_nearly_every_projection(cfg, controller, monkeypatch):
    """The engine's projection falls back to the scan on under 1 % of
    robot-steps, on the 20 s default episode and on eight robots at a 4 m
    gap with one RK4 substep; the count includes the start-up projections.
    A walk that always fell back would give the same traces, only slower."""
    scans = []
    scan = platoon_mod.nearest_index_unguarded

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(platoon_mod, "nearest_index_unguarded", counted)
    for platoon, sim in (
            (cfg.platoon, dataclasses.replace(cfg.sim, duration=20.0)),
            (dataclasses.replace(cfg.platoon, n_robots=8, gap_des=4.0),
             dataclasses.replace(cfg.sim, duration=20.0,
                                 dt_plant=cfg.sim.control_period))):
        scans.clear()
        trace = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, platoon,
                            cfg.arena, sim, controller, processes=1)
        assert len(scans) < 0.01 * trace.n_records * trace.n_robots


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
        assert plant_step_for(params, packed)(*s0, F, tau, 1, h) == manual


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_trace_replays_through_the_laws(cfg, controller):
    """Each robot's logged v, omega, vc and wc, fed through the control laws
    from fresh gains and integrals, give its logged s_v, s_w, F, tau and
    gains bit for bit: the engine logs the gains before their update, and
    builds the sliding variables from the integrals before they advance."""
    sim = dataclasses.replace(cfg.sim, duration=20.0)
    trace = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, controller, processes=2)
    asmc, cp = cfg.asmc, sim.control_period
    logged = [PER_ROBOT_FIELDS.index(name) for name in (
        "s_v", "s_w", "F", "tau", "K_v0", "K_v1", "K_w2", "K_w0", "K_w1",
        "K_v2")]
    inputs = [PER_ROBOT_FIELDS.index(name) for name in ("v", "omega", "vc",
                                                         "wc")]
    for r in range(trace.n_robots):
        gains, integrals = (asmc.k_init,) * 6, (0.0, 0.0)
        replay = []
        for v, omega, v_c, omega_c in trace.rec[:, r, inputs].tolist():
            s_v, s_w, xi_v, xi_w, integrals = update_sliding(
                integrals, v, omega, v_c, omega_c, asmc, cp)
            if controller == "proposed":
                F = asmc_force(s_v, xi_v, xi_w, gains, asmc)
                tau = asmc_torque(s_w, xi_v, xi_w, gains, asmc)
                after = adapt_gains(gains, s_v, s_w, xi_v, xi_w, asmc, cp)
            else:
                F, tau = baseline_asmc(s_v, s_w, gains, asmc)
                after = adapt_gains_baseline(gains, s_v, s_w, asmc, cp)
            replay.append((s_v, s_w, F, tau, *gains))
            gains = after
        assert np.array(replay).tobytes() == \
            np.ascontiguousarray(trace.rec[:, r, logged]).tobytes()


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_rebound_laws_are_called_and_move_no_bit(cfg, controller,
                                                 monkeypatch):
    """Laws rebound in `control`, and `wheel_torque_split` rebound in
    `engine`, as a timing wrapper rebinds them, are each called once per
    robot-step, and the trace is the bound step's bit for bit."""
    from platoon_asmc import control, engine

    sim = dataclasses.replace(cfg.sim, duration=2.0)
    args = (cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon, cfg.arena, sim,
            controller)
    bound = run_episode(*args, processes=1)
    calls = dict.fromkeys((
        "posture_error", "kinematic_control", "update_sliding", "asmc_force",
        "asmc_torque", "adapt_gains", "baseline_asmc", "adapt_gains_baseline",
        "wheel_torque_split"), 0)

    def counted(owner, name):
        law = getattr(owner, name)

        def wrapper(*a):
            calls[name] += 1
            return law(*a)

        monkeypatch.setattr(owner, name, wrapper)

    for name in calls:
        counted(engine if name == "wheel_torque_split" else control, name)
    laws = run_episode(*args, processes=1)
    assert _bits(laws) == _bits(bound)
    steps = laws.n_records * laws.n_robots
    # adapt_gains runs adapt_gains_baseline for K_v0 and K_w0
    called = {"baseline_asmc", "adapt_gains_baseline", "posture_error",
              "kinematic_control", "update_sliding", "wheel_torque_split"}
    if controller == "proposed":
        called = called - {"baseline_asmc"} | {"asmc_force", "asmc_torque",
                                               "adapt_gains"}
    assert calls == {name: steps if name in called else 0 for name in calls}


def _children() -> list[int]:
    """Live child processes of this process, from /proc."""
    from pathlib import Path

    return [int(pid) for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()]


def test_abort_with_no_finite_record_reports_no_step(cfg, monkeypatch):
    # the leader's force is -inf at step 0, so no record of it is finite;
    # the diagnostic used to print that row and an unwritten gap row
    k, t, r, diag = _abort_of(
        cfg, **ABORTS["infinite_force_at_step_0"](cfg, monkeypatch))
    assert (k, t, r) == (0, 0.0, 0)
    assert diag == {"step": None, "robot": 1}


@pytest.mark.parametrize("controller", ["proposed", "baseline"])
def test_coupling_runs_one_way(cfg, controller):
    """The first r robots of an n-robot episode are the r-robot episode, bit
    for bit: nothing a robot does reaches the robots ahead of it. The longer
    episodes run in 2 and 3 robot groups, so that group boundaries fall
    inside the prefix and at its edge. On the default course this holds
    while (n - 1) gap_des fits in one lap, so that every n tiles the same
    course."""
    sim = dataclasses.replace(cfg.sim, duration=20.0)

    def run(n, processes=1):
        platoon = dataclasses.replace(cfg.platoon, n_robots=n)
        return run_episode(cfg.robot, cfg.kinematic, cfg.asmc, platoon,
                           cfg.arena, sim, controller, processes=processes)

    def assert_prefix(longer, shorter):
        r = shorter.n_robots
        assert longer.t.tobytes() == shorter.t.tobytes()
        assert longer.rec[:, :r].tobytes() == shorter.rec.tobytes()
        assert longer.gap_err[:, :r - 1].tobytes() == shorter.gap_err.tobytes()

    assert 7 * cfg.platoon.gap_des < build_path(*figure_eight_lap()).total_length
    shorter = {n: run(n) for n in (1, 2, 3)}
    for processes in (2, 3):
        three, eight = run(3, processes), run(8, processes)
        for r in (1, 2):
            assert_prefix(three, shorter[r])
        assert_prefix(eight, shorter[3])


def _second_call_fails(monkeypatch, call, exc):
    """Make `os.<call>` raise `exc` on its second call."""
    import os

    real, calls = getattr(os, call), itertools.count(1)

    def fails_second(*args):
        if next(calls) == 2:
            raise exc
        return real(*args)

    monkeypatch.setattr(os, call, fails_second)


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

    @pytest.mark.parametrize("controller", ["proposed", "baseline"])
    def test_trace_is_bitwise_the_serial_trace(self, cfg, controller):
        sim = dataclasses.replace(cfg.sim, duration=1.0, seed=5)
        traces = {p: run_episode(cfg.robot, cfg.kinematic, cfg.asmc,
                                 cfg.platoon, cfg.arena, sim, controller,
                                 processes=p)
                  for p in (1, 2, 3)}
        assert len(self.forks) == 0 + 1 + 2
        for p in (2, 3):
            assert _bits(traces[p]) == _bits(traces[1])

    @pytest.mark.parametrize("controller", ["proposed", "baseline"])
    def test_eight_robots_in_eight_processes(self, cfg, controller):
        platoon = dataclasses.replace(cfg.platoon, n_robots=8, gap_des=4.0)
        sim = dataclasses.replace(cfg.sim, duration=1.0, dt_plant=1e-2)
        serial, split = (run_episode(cfg.robot, cfg.kinematic, cfg.asmc,
                                     platoon, cfg.arena, sim, controller,
                                     processes=p) for p in (1, 8))
        assert len(self.forks) == 7
        assert _bits(split) == _bits(serial)

    @pytest.mark.parametrize("case", sorted(ABORTS))
    def test_abort_is_the_serial_abort(self, cfg, monkeypatch, case):
        edits = ABORTS[case](cfg, monkeypatch)
        serial = _abort_of(cfg, processes=1, **edits)
        for p in (2, 3):
            assert _abort_of(cfg, processes=p, **edits) == serial

    @pytest.mark.parametrize("control_fails", [True, False])
    def test_plant_run_off_aborts_at_the_robots_next_step(
            self, cfg, monkeypatch, control_fails):
        # robot 1's plant runs off during step k, so its command at step
        # k + 1 is the abort; robot 3's control, when it fails at step k,
        # comes first, although robot 1's plant ran off before it
        from platoon_asmc import control, engine

        k = 40
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        robots = (RobotParams(), RobotParams(), RobotParams())
        clean = run_episode(robots, cfg.kinematic, cfg.asmc, cfg.platoon,
                            cfg.arena, sim, "proposed", processes=1)
        plant_step_for, step_for = engine.plant_step_for, control.step_for

        def fails_on_call(n, fn, bad):
            """fn, except that its n-th call returns `bad`."""
            calls = itertools.count(1)
            return lambda *args: bad if next(calls) == n else fn(*args)

        def plant_fails(rp, arena):
            # built once per robot and episode, in the caller
            step = plant_step_for(rp, arena)
            if rp is robots[0]:
                return fails_on_call(k + 1, step, (math.nan,) * 5)
            return step

        def control_fails_for(asmc, kin, rp, *args):
            # as the plant's, so each episode counts afresh
            step = step_for(asmc, kin, rp, *args)
            if rp is robots[2]:
                return fails_on_call(k + 1, step,
                                     (math.nan,) * len(control.STEP_FIELDS))
            return step

        monkeypatch.setattr(engine, "plant_step_for", plant_fails)
        if control_fails:
            monkeypatch.setattr(control, "step_for", control_fails_for)
        for p in (1, 2, 3):
            step, _, robot, diag = _abort_of(cfg, robot=robots, sim=sim,
                                             processes=p)
            if control_fails:
                assert (step, robot, diag["step"]) == (k, 2, k - 1)
            else:
                # the last finite record is the step the plant ran off in
                assert (step, robot, diag["step"]) == (k + 1, 0, k)
                assert len(diag["gap_err"]) == 2
                assert all(map(math.isfinite, diag["gap_err"]))
                assert diag["gap_err"] == clean.gap_err[k].tolist()
        assert len(self.forks) == 0 + 1 + 2

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

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_group_that_cannot_start_raises_forked_job_lost(
            self, cfg, monkeypatch, call):
        # the second pipe or fork fails with three groups; the first group's
        # pipe is closed and its child, if forked, is reaped
        import os

        _second_call_fails(monkeypatch, call, BlockingIOError(
            11, "Resource temporarily unavailable"))
        fds = sorted(os.listdir("/proc/self/fd"))
        sim = dataclasses.replace(cfg.sim, duration=1.0)
        with pytest.raises(ForkedJobLost, match=r"job 2 could not start: "
                                                r"\[Errno 11\]"):
            run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, sim, "proposed", processes=3)
        assert sorted(os.listdir("/proc/self/fd")) == fds

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

    def test_jobs_run_in_turn_where_the_process_may_not_fork(self,
                                                            monkeypatch):
        import os

        from platoon_asmc import engine

        def fails():
            raise KeyError("first")

        ran = []
        monkeypatch.setattr(engine, "_can_fork", lambda: False)
        assert engine.run_forked([lambda i=i: ran.append((i, os.getpid()))
                                  for i in range(3)]) == [None] * 3
        assert ran == [(i, os.getpid()) for i in range(3)]
        # the first failure propagates, and no later job runs
        with pytest.raises(KeyError, match="first"):
            engine.run_forked([fails, lambda: ran.append("late")])
        assert ran[-1] == (2, os.getpid())

    def test_result_that_cannot_be_pickled_is_named(self):
        import threading

        from platoon_asmc.engine import run_forked

        with pytest.raises(RuntimeError,
                           match="forked job 1 cannot send back <.*lock"):
            run_forked([lambda: None, threading.Lock])

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_job_that_cannot_start_is_forked_job_lost(self, monkeypatch,
                                                      call):
        # job 2's pipe or fork fails: the caller's job never runs, and job
        # 1's child is killed, not waited for
        import time

        from platoon_asmc.engine import run_forked

        _second_call_fails(monkeypatch, call, OSError(24, "Too many open files"))
        ran, start = [], time.monotonic()
        with pytest.raises(ForkedJobLost,
                           match=r"job 2 could not start: \[Errno 24\]"):
            run_forked([lambda: ran.append(0), lambda: time.sleep(30),
                        lambda: None])
        assert ran == []
        assert time.monotonic() - start < 10

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
