"""End-to-end acceptance of the default benchmark scenario.

Runs the full 600 s figure-eight episode (high-friction third quadrant, two
speed breakers) for both controllers plus a 1200 s extension, then checks
every acceptance criterion at its stated tolerance, printing one PASS/FAIL
line per criterion. Long episodes are session-scoped fixtures shared across
the criteria.

The adaptive-gain clamp is disabled for these runs so it cannot mask
instability.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from platoon_asmc import default_config, run_episode
from platoon_asmc.arena import NO_ARENA
from platoon_asmc.control import (
    VelocityReference,
    kinematic_control,
    posture_error,
)
from platoon_asmc.cli import main as cli_main
from platoon_asmc.config import dump_config
from platoon_asmc.engine import _integrate_robot, default_path_for
from platoon_asmc.metrics import quadrant_mask, rms
from platoon_asmc.platoon import build_path, pose_at_arc, target_waypoint
from platoon_asmc.vehicle import RobotParams, plant_step_for

GAIN_COLS = ("K_v0", "K_v1", "K_w2", "K_w0", "K_w1", "K_v2")
EPISODE_SECONDS = 600.0
RUNTIME_LIMIT_SECONDS = 120.0


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def acceptance_cfg():
    cfg = default_config()
    return dataclasses.replace(
        cfg,
        asmc=dataclasses.replace(cfg.asmc, gain_clamp=None),
        sim=dataclasses.replace(cfg.sim, duration=EPISODE_SECONDS,
                                dt_plant=1e-3),
    )


@pytest.fixture(scope="session")
def scenario_traces(acceptance_cfg):
    """Both controllers on the default scenario, with wall-time bookkeeping."""
    cfg = acceptance_cfg
    out = {}
    for ctl in ("proposed", "baseline"):
        t0 = time.perf_counter()
        out[ctl] = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                               cfg.arena, cfg.sim, ctl,
                               scenario_label=cfg.scenario_hash())
        out[f"{ctl}_wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def extended_trace(acceptance_cfg):
    cfg = acceptance_cfg
    sim = dataclasses.replace(cfg.sim, duration=2 * EPISODE_SECONDS)
    return run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                       cfg.arena, sim, "proposed",
                       scenario_label="extended")


def test_criterion_1_tracking_rms_direction_and_q3_improvement(scenario_traces):
    tp = scenario_traces["proposed"]
    tb = scenario_traces["baseline"]
    details = []
    ok = True
    for r in range(tp.n_robots):
        px, bx = rms(tp["e_x"][:, r]), rms(tb["e_x"][:, r])
        py, by = rms(tp["e_y"][:, r]), rms(tb["e_y"][:, r])
        ok &= px <= bx and py <= by
        mq_p = quadrant_mask(tp, r, 3)
        mq_b = quadrant_mask(tb, r, 3)
        qp = rms(np.hypot(tp["e_x"][mq_p, r], tp["e_y"][mq_p, r]))
        qb = rms(np.hypot(tb["e_x"][mq_b, r], tb["e_y"][mq_b, r]))
        improvement = 100.0 * (qb - qp) / qb
        ok &= improvement >= 5.0
        details.append(
            f"r{r + 1} x {px:.4f}/{bx:.4f} y {py:.4f}/{by:.4f} "
            f"Q3 {qp:.4f}/{qb:.4f} ({improvement:+.1f}%)")
    wall = scenario_traces["proposed_wall"]
    ok &= wall < RUNTIME_LIMIT_SECONDS
    details.append(f"episode wall {wall:.1f}s < {RUNTIME_LIMIT_SECONDS:.0f}s")
    _criterion(1, ok, "; ".join(details))


def test_criterion_2_gap_rms_direction(scenario_traces):
    tp = scenario_traces["proposed"]
    tb = scenario_traces["baseline"]
    ok = True
    details = []
    for j in range(tp.gap_err.shape[1]):
        gp, gb = rms(tp.gap_err[:, j]), rms(tb.gap_err[:, j])
        ok &= gp < gb
        details.append(f"pair {j + 1}-{j + 2}: {gp:.4f} vs {gb:.4f}")
    _criterion(2, ok, "; ".join(details))


def test_criterion_3_signals_uniformly_ultimately_bounded(scenario_traces,
                                                          extended_trace):
    base = scenario_traces["proposed"]
    ext = extended_trace
    half_base = base.t >= EPISODE_SECONDS / 2
    half_ext = ext.t >= EPISODE_SECONDS
    ok = True
    worst = 0.0
    for name in ("s_v", "s_w") + GAIN_COLS:
        ok &= bool(np.isfinite(base[name]).all() and
                   np.isfinite(ext[name]).all())
        for r in range(base.n_robots):
            sup_base = float(np.max(np.abs(base[name][half_base, r])))
            sup_ext = float(np.max(np.abs(ext[name][half_ext, r])))
            ratio = sup_ext / sup_base if sup_base > 0 else math.inf
            worst = max(worst, ratio)
            ok &= ratio <= 1.05
    _criterion(3, ok, f"worst second-half suprema ratio {worst:.4f} <= 1.05")


def test_criterion_4_gain_positivity(scenario_traces, extended_trace):
    lows = []
    for tr in (scenario_traces["proposed"], scenario_traces["baseline"],
               extended_trace):
        lows.append(min(float(np.min(tr[g])) for g in GAIN_COLS))
    ok = all(low > 0.0 for low in lows)
    _criterion(4, ok, f"minimum logged adaptive gain {min(lows):.3e} > 0")


def _kinematic_errors(kin, v_d, path, start_arc, pose, duration,
                      period=1e-2, n_sub=10):
    """Posture errors (e1, e2, e3) per control period of one robot tracking
    the arc-parameterized reference with the dynamics bypassed: each period
    the commanded (v_c, omega_c) become the plant's (v, omega), and the pose
    integrates with the plant RK4 under zero wrench, without friction or
    arena."""
    step = plant_step_for(RobotParams(f_kr=0.0, f_kl=0.0, f_cr=0.0, f_cl=0.0),
                          NO_ARENA)
    n = int(round(duration / period))
    x, y, th = pose
    errs = np.empty((n + 1, 3))
    for k in range(n + 1):
        xr, yr, thr, kappa = pose_at_arc(path, start_arc + v_d * (k * period))
        err = posture_error(x, y, th, xr, yr, thr)
        errs[k] = err.e1, err.e2, err.e3
        if k < n:
            cmd = kinematic_control(err, VelocityReference(v_d, kappa * v_d),
                                    kin)
            x, y, th, _, _ = _integrate_robot(x, y, th, cmd.v_c, cmd.omega_c,
                                              0.0, 0.0, n_sub, period / n_sub,
                                              step)
    return np.arange(n + 1) * period, errs


def test_criterion_5_kinematic_loop_decay(acceptance_cfg):
    cfg = acceptance_cfg
    path, s0 = default_path_for(cfg.platoon,
                                dataclasses.replace(cfg.sim, duration=25.0))
    x0, y0, th0, _ = pose_at_arc(path, s0)
    offset = (x0 - 0.5 * math.sin(th0), y0 + 0.5 * math.cos(th0), th0 + 0.3)
    t, errs = _kinematic_errors(cfg.kinematic, cfg.platoon.v_d, path, s0,
                                offset, duration=10.0)
    worst_series = np.max(np.abs(errs), axis=1)
    below = worst_series < 1e-3
    first = float(t[np.argmax(below)]) if below.any() else math.inf
    end_worst = float(np.max(worst_series[t >= 9.0]))
    ok = first <= 10.0 and end_worst <= 1e-3
    _criterion(5, ok, f"errors below 1e-3 at t={first:.2f}s, "
                      f"sup over [9,10]s = {end_worst:.2e}")


def test_criterion_6_rk4_convergence_order():
    m, v0, w0, F, T = 1.0, 0.5, 20.0, 2.0, 10.0
    params = RobotParams(m=m, J=0.05, f_kr=0, f_kl=0, f_cr=0, f_cl=0)
    a = F / m
    th = w0 * T
    xa = (v0 / w0) * math.sin(th) + (a / w0 ** 2) * (math.cos(th) - 1.0) \
        + (a * T / w0) * math.sin(th)
    ya = -(v0 / w0) * (math.cos(th) - 1.0) + (a / w0 ** 2) * math.sin(th) \
        - (a * T / w0) * math.cos(th)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        x, y, *_ = _integrate_robot(0.0, 0.0, 0.0, v0, w0, F, 0.0,
                                    int(round(T / dt)), dt,
                                    plant_step_for(params, NO_ARENA))
        errs.append(math.hypot(x - xa, y - ya))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 3.7
    _criterion(6, ok, f"observed orders {orders[0]:.2f}, {orders[1]:.2f} >= 3.7")


def test_criterion_7_follower_target_matches_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        steps = rng.uniform(0.01, 3.0, size=n - 1)
        xs = np.concatenate(([0.0], np.cumsum(steps)))
        ys = rng.uniform(-2.0, 2.0, size=n)
        path = build_path(xs, ys)
        leader = int(rng.integers(0, n))
        gap = float(rng.uniform(0.0, path.total_length * 1.1))
        got = target_waypoint(path, leader, gap)
        want = 0
        for i in range(leader, -1, -1):
            if path.arc[leader] - path.arc[i] >= gap:
                want = i
                break
        mismatches += got != want
    ok = mismatches == 0
    _criterion(7, ok, f"{1000 - mismatches}/1000 randomized paths match the "
                      f"brute-force arc search exactly")


def test_criterion_8_cli_determinism(acceptance_cfg, tmp_path_factory):
    # structural determinism check on the shipped scenario; a short horizon
    # (one lap with a Q3 crossing and a breaker hit) keeps the suite fast
    base = tmp_path_factory.mktemp("determinism")
    cfg_path = base / "config.json"
    dump_config(dataclasses.replace(acceptance_cfg, controller="both"),
                cfg_path)
    outs = []
    for run in ("a", "b"):
        out = base / run
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--duration", "40.0", "--quiet"])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("trace_proposed.csv", "trace_baseline.csv"))
    _criterion(8, same, "repeated 'run --controller both' produced "
                        "byte-identical proposed and baseline trace CSVs")


def test_reports_full_run_and_warmup_variants(scenario_traces, tmp_path):
    # both full-run and warm-up-trimmed reports accompany the acceptance runs
    from platoon_asmc.metrics import build_report, render_report_text

    for cutoff in (0.0, 60.0):
        rp, rb, comp = build_report(scenario_traces["proposed"],
                                    scenario_traces["baseline"], cutoff)
        text = render_report_text([rb, rp], comp)
        assert f"warmup_cutoff={cutoff:g}" in text
        print(text)
