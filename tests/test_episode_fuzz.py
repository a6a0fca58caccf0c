"""Fuzz of whole episodes: short runs of edited default documents end in
exit 0, or exit 2 or 3 with one `error:` line, and never in a traceback or
a warning. Where the document validates, the pipelined engine gives the
serial result, the scenario reflected in the x-axis gives the mirrored
trace or the same abort (see `test_mirror.py`), the platoon less its tail
robot gives the prefix of the trace or the same abort of a robot ahead of
the tail (coupling runs one way), and a run that exits 0 has a finite trace.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from test_mirror import NEGATED, SWAPPED, mirrored

from platoon_asmc import engine
from platoon_asmc.cli import _load_path, main
from platoon_asmc.config import ConfigError, default_config, from_dict
from platoon_asmc.engine import (
    PER_ROBOT_FIELDS,
    EpisodeAborted,
    default_path_for,
    lead_start_on,
    run_episode,
)
from platoon_asmc.platoon import build_path, pose_at_arc
from platoon_asmc.vehicle import RobotParams

GAINS = [("kinematic", k) for k in ("k1", "k2", "k3")] + [
    ("asmc", k) for k in ("Lambda_v", "Lambda_w", "phi_v", "phi_w",
                          "epsilon_bl", "k_init", "alpha_v0", "alpha_w0")]
SCALES = st.sampled_from((0.0, -1.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e300,
                          math.inf, -math.inf)) | st.floats(-10.0, 100.0)
# a breaker amplitude that the seeded jitter, up to x1.1, can overflow
AMPLITUDES = st.sampled_from((2.0, 1e300, 1.7e308)) | st.floats(0.0, 1.7e308)
# a band's half-width: 1e300 squares to an overflow in `Arena.pack`
WIDTHS = st.sampled_from((0.0, 1e-3, 20.0, 1e6, 1e154, 1e300, math.inf)) | \
    st.floats(-1.0, 50.0)
# plant steps: 3e-3 is off the 10 ms control grid, 2e-2 past it, and a
# subnormal step makes the ratio of the two overflow
DT_PLANTS = (1e-2, 5e-3, 2e-3, 1e-3, 3e-3, 2e-2, 0.0, -1e-3, 5e-324)
# control periods: at 0.2 s the adaptive leakage is too fast, and a duration
# of odd hundredths is off a 2e-2 grid
CONTROL_PERIODS = (5e-3, 1e-2, 2e-2, 0.2)
# wheel radius and half-track: 1e308 and a subnormal 1e-310 overflow the
# split of a finite wrench into wheel torques
ROBOT_SIZES = st.sampled_from((1e-310, 1e-6, 1e-3, 1.0, 1e3, 1e308))
POSE = st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0),
                 st.floats(-4.0, 4.0)).map(list)


@st.composite
def courses(draw):
    """Text of a `path_file`: a straight line or an arc of 2-400 points,
    possibly too short for the run, 2-4 points up to +-1e308 apart (their
    length may overflow), two points a subnormal step apart, or a malformed
    file."""
    n = draw(st.integers(2, 400))
    step = draw(st.floats(0.01, 1.0))
    shape = draw(st.sampled_from(("line", "arc", "huge", "subnormal",
                                  "not_finite", "empty")))
    if shape == "line":
        xs, ys = [i * step for i in range(n)], [0.0] * n
    elif shape == "arc":
        r = draw(st.floats(0.5, 50.0))
        xs = [r * math.cos(i * step / r) for i in range(n)]
        ys = [r * math.sin(i * step / r) for i in range(n)]
    elif shape == "huge":
        coord = st.sampled_from((0.0, 1e308, -1e308, 1.7e308, -1.7e308)) | \
            st.floats(-1.7e308, 1.7e308)
        xs = draw(st.lists(coord, min_size=2, max_size=4))
        ys = [draw(coord) for _ in xs]
    elif shape == "subnormal":
        xs = [0.0, draw(st.sampled_from((5e-324, 1e-320, 2.2e-308)))]
        ys = [0.0, 0.0]
    elif shape == "not_finite":
        xs, ys = [0.0, math.nan, 2.0], [0.0, 0.0, 0.0]
    else:
        xs = ys = []
    return "".join(f"{x!r} {y!r}\n" for x, y in zip(xs, ys))


@st.composite
def episodes(draw):
    """The default document, 0.05-0.5 s long under one controller or both,
    with one or two edits: the robot count, start poses, cruise speed, a
    gain, the gain cap, the desired gap, a speed breaker, the seed with a
    breaker's amplitude and width, the wheel radius or half-track, the plant
    step, the control period, the output directory (relative, maybe with a
    NUL byte or a lone surrogate) or the course; and the text of the course
    file, or None."""
    doc = default_config().to_dict()
    course = None
    doc["sim"]["duration"] = draw(st.integers(5, 50)) / 100
    doc["controller"] = draw(st.sampled_from(("proposed", "baseline",
                                              "both")))
    platoon = doc["platoon"]
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(("n_robots", "start_poses", "v_d", "gain",
                                     "gain_clamp", "gap_des", "breaker",
                                     "seed", "robot", "dt_plant",
                                     "control_period", "output_dir",
                                     "path_file")))
        if edit == "n_robots":
            platoon["n_robots"] = draw(st.integers(1, 5))
        elif edit == "start_poses":
            # the course starts at (14, 0) heading north
            nominal = [[14.0 - 0.2 * r, -1.0 * r, 1.6]
                       for r in range(platoon["n_robots"])]
            platoon["start_poses"] = draw(
                st.lists(POSE, min_size=1, max_size=5) | st.just(nominal))
        elif edit == "v_d":
            platoon["v_d"] = draw(st.floats(-1.0, 5.0))
        elif edit == "gain":
            section, key = draw(st.sampled_from(GAINS))
            doc[section][key] = draw(SCALES)
        elif edit == "gain_clamp":
            doc["asmc"]["gain_clamp"] = draw(st.sampled_from((None, 1e-3)))
        elif edit == "gap_des":
            platoon["gap_des"] = draw(st.floats(-1.0, 60.0))
        elif edit == "breaker":
            band = draw(st.sampled_from(doc["arena"]["speed_breakers"]))
            key = draw(st.sampled_from(("half_width", "amp_force",
                                        "amp_torque")))
            band[key] = draw(WIDTHS if key == "half_width" else SCALES)
        elif edit == "seed":
            doc["sim"]["seed"] = draw(st.integers(0, 2**32))
            band = draw(st.sampled_from(doc["arena"]["speed_breakers"]))
            band["half_width"] = draw(WIDTHS)
            band[draw(st.sampled_from(("amp_force", "amp_torque")))] = \
                draw(AMPLITUDES)
        elif edit == "robot":
            doc["robot"][draw(st.sampled_from(("R", "L")))] = \
                draw(ROBOT_SIZES)
        elif edit == "dt_plant":
            doc["sim"]["dt_plant"] = draw(st.sampled_from(DT_PLANTS))
        elif edit == "control_period":
            doc["sim"]["control_period"] = draw(
                st.sampled_from(CONTROL_PERIODS))
        elif edit == "output_dir":
            # a lone surrogate has no bytes in any file-system encoding
            doc["output_dir"] = draw(st.text("o\0\ud800", min_size=1,
                                             max_size=3))
        else:
            course = draw(courses())
    return doc, course


# every robot-step is finite, but the squares of its errors overflow in the
# RMS report
OVERFLOW = default_config().to_dict()
OVERFLOW["asmc"].update(k_init=1e300, gain_clamp=None)
OVERFLOW["platoon"]["v_d"] = 4.745
OVERFLOW["sim"]["duration"] = 0.2
OVERFLOW["controller"] = "baseline"

# the seed's first jitter factor, x1.0689, takes a band's amplitude past the
# largest float; the band covers the start
JITTER = default_config().to_dict()
JITTER["arena"]["speed_breakers"][0].update(half_width=20.0, amp_force=1.7e308)
JITTER["sim"].update(seed=0, duration=0.2)
JITTER["controller"] = "proposed"

# a one-robot course 1e-320 m long: 20 m over its spacing overflows
SUBNORMAL = default_config().to_dict()
SUBNORMAL["platoon"]["n_robots"] = 1
SUBNORMAL["sim"]["duration"] = 0.0
SUBNORMAL["controller"] = "proposed"

# per-robot parameters: only the tail's half-track overflows the wheel split,
# so the tail alone aborts, at its first step
TAIL = default_config().to_dict()
TAIL["robot"] = [TAIL["robot"]] * 2 + [dict(TAIL["robot"], L=1e-310)]
TAIL["sim"]["duration"] = 0.2
TAIL["controller"] = "proposed"


def _run(cfg, controller, path, processes, lead_start_arc=None):
    """The trace, or the EpisodeAborted, of one episode of `cfg`."""
    try:
        return run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                           cfg.arena, cfg.sim, controller, path=path,
                           lead_start_arc=lead_start_arc, processes=processes)
    except EpisodeAborted as e:
        return e


def _outcome(cfg, controller, path, processes):
    """The trace bytes, or the abort's fields, of one episode of `cfg`."""
    tr = _run(cfg, controller, path, processes)
    if isinstance(tr, EpisodeAborted):
        return tr.step, tr.t, tr.robot, tr.diagnostic
    return tr.rec.tobytes(), tr.t.tobytes(), tr.gap_err.tobytes()


def _course(cfg, path):
    """The course of a run of `cfg` on `path` (the built-in one where it is
    None) and the leader's start arc on it."""
    if path is None:
        return default_path_for(cfg.platoon, cfg.sim)
    return path, lead_start_on(path, cfg.platoon, cfg.sim)


def _mirrored_outcome(cfg, controller, path):
    """The outcome of the scenario reflected in the x-axis, told in the
    frame of the unreflected one: the trace's arrays with NEGATED fields
    negated and SWAPPED ones swapped back, or the abort's (step, t, robot).

    A string, the reason, where the reflection is not exact: where a
    reflected tangent is not the negated one (`np.unwrap` rounds a wrapped
    tangent and its negation apart, and a segment heading exactly pi
    reflects to pi), or where a robot starts on the negative x-axis (the
    half-open quadrant rule gives y = 0.0 and its image -0.0 alike to Q2).
    """
    platoon = cfg.platoon
    path, start = _course(cfg, path)
    flipped = build_path(path.cx, -path.cy)
    if not np.array_equal(flipped.tangent, -path.tangent):
        return "not mirrored: a reflected tangent is not negated"
    poses = platoon.start_poses or [
        pose_at_arc(path, start - r * platoon.gap_des)
        for r in range(platoon.n_robots)]
    if any(p[1] == 0 and p[0] < 0 for p in poses):
        return "not mirrored: a robot starts on the negative x-axis"
    platoon = dataclasses.replace(platoon, start_poses=platoon.start_poses and
                                  tuple((x, -y, -th) for x, y, th in poses))
    cfg = dataclasses.replace(cfg, platoon=platoon, arena=mirrored(cfg.arena))
    tr = _run(cfg, controller, flipped, 1, start)
    if isinstance(tr, EpisodeAborted):
        return tr.step, tr.t, tr.robot
    rec = np.stack([-tr[name] if name in NEGATED else tr[SWAPPED.get(name, name)]
                    for name in PER_ROBOT_FIELDS], axis=-1)
    return rec, tr.t, tr.gap_err


def _without_tail(cfg):
    """`cfg` less its tail robot: its start pose and, in a per-robot list,
    its parameters."""
    platoon = cfg.platoon
    robot = cfg.robot if isinstance(cfg.robot, RobotParams) else cfg.robot[:-1]
    platoon = dataclasses.replace(
        platoon, n_robots=platoon.n_robots - 1,
        start_poses=platoon.start_poses and platoon.start_poses[:-1])
    return dataclasses.replace(cfg, robot=robot, platoon=platoon)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(episodes())
@example((OVERFLOW, None))
@example((JITTER, None))
@example((SUBNORMAL, "0.0 0.0\n1e-320 0.0\n"))
@example((TAIL, None))
def test_episode_exits_cleanly_and_pipelines_exactly(episode):
    doc, course = episode
    with tempfile.TemporaryDirectory() as tmp:
        if course is not None:
            doc["path_file"] = str(Path(tmp) / "course.txt")
            Path(doc["path_file"]).write_text(course)
        out = ["--out", str(Path(tmp) / "out")]
        if doc["output_dir"] is not None:  # the config's, not a flag's
            doc["output_dir"] = str(Path(tmp) / doc["output_dir"])
            out = []
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg_file), *out, "--quiet"])
        lines = err.getvalue().splitlines()
        event(f"exit {code}")
        assert code in (0, 2, 3)
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error: kind=")

        try:
            cfg = from_dict(doc)
            path = _load_path(cfg)
        except ConfigError:
            assert code == 2
            return
        try:
            os.fsencode(cfg.output_dir or "")
            unwritable = False
        except UnicodeEncodeError:
            # `run` rejects it before any episode runs, aborting or not
            assert code == 2
            unwritable = True
    controllers = engine.CONTROLLERS if cfg.controller == "both" \
        else (cfg.controller,)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MIN_GROUP_ROBOT_STEPS", 1)
        serial = [_outcome(cfg, c, path, 1) for c in controllers]
        assert [_outcome(cfg, c, path, 2) for c in controllers] == serial
    for c, outcome in zip(controllers, serial):
        mirror = _mirrored_outcome(cfg, c, path)
        if isinstance(mirror, str):
            event(mirror)
            continue
        aborted = isinstance(mirror[0], int)
        assert aborted == (len(outcome) == 4)
        if aborted:
            assert mirror == outcome[:3]
        else:
            # array_equal, not bytes: -0.0 and 0.0 differ in their bytes
            for got, bits in zip(mirror, outcome):
                assert np.array_equal(got.ravel(), np.frombuffer(bits)), c
    n = cfg.platoon.n_robots
    if n >= 2:
        # on the full run's course and leader start
        shorter, (course, start) = _without_tail(cfg), _course(cfg, path)
        for c, outcome in zip(controllers, serial):
            short = _run(shorter, c, course, 1, start)
            if len(outcome) == 3:
                event("tail dropped: the prefix")
                assert not isinstance(short, EpisodeAborted), c
                rec, t, gap_err = map(np.frombuffer, outcome)
                assert short.rec.tobytes() == \
                    rec.reshape(len(t), n, -1)[:, :-1].tobytes(), c
                assert short.t.tobytes() == outcome[1], c
                assert short.gap_err.tobytes() == \
                    gap_err.reshape(len(t), n - 1)[:, :-1].tobytes(), c
            elif outcome[2] < n - 1:
                event("tail dropped: the same abort")
                diagnostic = dict(outcome[3])
                if "gap_err" in diagnostic:
                    diagnostic["gap_err"] = diagnostic["gap_err"][:-1]
                assert isinstance(short, EpisodeAborted), c
                assert (short.step, short.t, short.robot, short.diagnostic) \
                    == (*outcome[:3], diagnostic), c
            else:
                event("tail dropped: past the tail's abort")
                assert not isinstance(short, EpisodeAborted) or \
                    short.step > outcome[0], c
    for outcome in serial:
        if len(outcome) == 4:
            # the diagnostic is the aborting robot's record before the abort,
            # which is finite
            step, _, _, diag = outcome
            assert diag["step"] == (step - 1 if step else None)
            assert all(math.isfinite(v)
                       for v in (*diag.values(), *diag.get("gap_err", ()))
                       if isinstance(v, float))
    if any(len(s) == 4 for s in serial):
        assert code == (2 if unwritable else 3)
    elif code == 0:
        assert all(np.isfinite(np.frombuffer(b)).all()
                   for s in serial for b in s)
    elif code == 3:
        # the episodes ran to their end; only an RMS report can abort the run
        assert "RMS report not finite" in lines[0]
