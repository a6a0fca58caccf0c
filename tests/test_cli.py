import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import pytest

from platoon_asmc.cli import _episode_job, main
from platoon_asmc.config import (
    default_config,
    dump_config,
    from_dict,
    load_config,
)
from platoon_asmc.metrics import load_trace, report_from_trace

REPO_ROOT = Path(__file__).resolve().parent.parent


def tiny_config(**overrides):
    doc = default_config().to_dict()
    doc["sim"]["duration"] = 1.0
    doc["controller"] = "proposed"
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks while the test runs; fails a test that
    hangs for 60 s or leaves a child behind."""
    import os
    import signal

    from test_engine import _children

    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(*_):
        raise TimeoutError("run still going after 60 s")

    monkeypatch.setattr(os, "fork", counted_fork)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _children() == []


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = default_config()
        assert from_dict(cfg.to_dict()) == cfg

    def test_shipped_defaults_file_matches_code(self):
        shipped = load_config(REPO_ROOT / "configs" / "defaults.json")
        assert shipped == default_config()

    def test_default_scenario_hash_is_pinned(self):
        shipped = load_config(REPO_ROOT / "configs" / "defaults.json")
        assert shipped.scenario_hash() == "1e1a1ba7f263"
        assert default_config().scenario_hash() == "1e1a1ba7f263"

    @pytest.mark.parametrize("section,key,value", [
        ("sim", "duration", 600), ("robot", "m", 1)])
    def test_integer_in_number_field_is_stored_as_float(
            self, tmp_path, section, key, value):
        as_int = default_config().to_dict()
        as_int[section][key] = value
        as_float = default_config().to_dict()
        as_float[section][key] = float(value)
        a, b = from_dict(as_int), from_dict(as_float)
        assert a == b
        assert a.scenario_hash() == b.scenario_hash()
        dump_config(a, tmp_path / "a.json")
        dump_config(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_unknown_top_level_key(self, tmp_path):
        p = write_config(tmp_path, {**tiny_config(), "typo_section": {}})
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe{}",
        b"[" * 200_000,
        # past the interpreter's limit on the digits of an int
        b'{"sim": {"seed": ' + b"9" * 5000 + b', "duration": 1}}',
    ], ids=["not_utf8", "nested_too_deep", "int_too_long"])
    def test_unreadable_json_is_rejected_by_validation(self, tmp_path, capfd,
                                                       raw):
        p = tmp_path / "cfg.json"
        p.write_bytes(raw)
        assert "is not valid JSON" in assert_rejected(tmp_path, capfd, p)

    def test_unknown_section_key(self, tmp_path, capsys):
        # `arena.mu_lateral` was a setting that nothing read
        for section, key in (("kinematic", "k9"), ("arena", "mu_lateral")):
            doc = tiny_config()
            doc[section][key] = 1.0
            p = write_config(tmp_path, doc)
            assert main(["run", "--config", str(p), "--out",
                         str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    def test_invariant_violation_names_field(self, tmp_path, capsys):
        p = write_config(tmp_path, tiny_config(**{"kinematic.k1": -1.0}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line machine-parseable error
        assert "k1" in err and "> 0" in err

    def test_robot_section_accepts_per_robot_list(self, tmp_path):
        doc = tiny_config()
        doc["robot"] = [doc["robot"], {**doc["robot"], "m": 2.0},
                        dict(doc["robot"])]
        p = write_config(tmp_path, doc)
        out = tmp_path / "per_robot"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert [r["m"] for r in echo["robot"]] == [1.2, 2.0, 1.2]

    def test_robot_list_length_mismatch_is_rejected(self, tmp_path, capsys):
        doc = tiny_config()
        doc["robot"] = [doc["robot"]]
        p = write_config(tmp_path, doc)
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameter sets" in capsys.readouterr().err

    def test_scenario_hash_ignores_output_and_controller(self):
        a = from_dict(tiny_config())
        b = from_dict({**tiny_config(), "controller": "baseline",
                       "output_dir": "elsewhere"})
        c = from_dict(tiny_config(**{"sim.duration": 2.0}))
        assert a.scenario_hash() == b.scenario_hash()
        assert a.scenario_hash() != c.scenario_hash()


class TestRunCommand:
    def test_happy_path_both_controllers(self, tmp_path):
        p = write_config(tmp_path, tiny_config(controller="both"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        for name in ("trace_proposed.csv", "trace_baseline.csv", "report.txt",
                     "report.json", "plotspec.txt", "config_echo.json"):
            assert (out / name).exists(), name
        rep = json.loads((out / "report.json").read_text())
        assert {r["controller"] for r in rep["reports"]} == \
            {"proposed", "baseline"}
        assert rep["comparison"]

    def test_episode_job_returns_the_report_of_its_trace(self, tmp_path):
        # a forked job sends back the report, not the trace; it must be the
        # report of the trace the job wrote
        cfg = from_dict(tiny_config(**{"metrics.warmup_cutoff": 0.5}))
        csv = tmp_path / "trace.csv"
        rep = _episode_job(cfg, "baseline", str(csv))
        trace = dataclasses.replace(load_trace(csv), controller="baseline",
                                    scenario=cfg.scenario_hash())
        assert rep == report_from_trace(trace, 0.5)

    def test_single_controller_has_no_comparison(self, tmp_path):
        p = write_config(tmp_path, tiny_config())
        out = tmp_path / "single"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        assert not (out / "trace_baseline.csv").exists()
        rep = json.loads((out / "report.json").read_text())
        assert "comparison" not in rep

    def test_duration_flag_sets_row_count(self, tmp_path):
        p = write_config(tmp_path, tiny_config(**{"sim.duration": 5.0}))
        out = tmp_path / "dur"
        assert main(["run", "--config", str(p), "--out", str(out), "--quiet",
                     "--duration", "2.0"]) == 0
        rows = (out / "trace_proposed.csv").read_text().splitlines()
        assert len(rows) == 1 + 201

    def test_dt_flag_overrides_plant_step(self, tmp_path):
        p = write_config(tmp_path, tiny_config())
        out = tmp_path / "dt"
        assert main(["run", "--config", str(p), "--out", str(out), "--quiet",
                     "--dt", "0.002"]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["sim"]["dt_plant"] == 0.002

    def test_controller_flag_overrides_config(self, tmp_path):
        p = write_config(tmp_path, tiny_config(controller="both"))
        out = tmp_path / "ctl"
        assert main(["run", "--config", str(p), "--out", str(out), "--quiet",
                     "--controller", "baseline"]) == 0
        assert (out / "trace_baseline.csv").exists()
        assert not (out / "trace_proposed.csv").exists()

    def test_out_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLATOON_ASMC_OUT", str(tmp_path / "env"))
        p = write_config(tmp_path,
                         tiny_config(output_dir=str(tmp_path / "cfgdir")))
        out = tmp_path / "flag"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "trace_proposed.csv").exists()
        assert not (tmp_path / "env").exists()
        assert not (tmp_path / "cfgdir").exists()

    def test_env_var_is_output_fallback(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("PLATOON_ASMC_OUT", str(env_dir))
        p = write_config(tmp_path, tiny_config())
        assert main(["run", "--config", str(p), "--quiet"]) == 0
        assert (env_dir / "trace_proposed.csv").exists()

    def test_defaults_config_is_optional(self, tmp_path):
        out = tmp_path / "defaults"
        assert main(["run", "--out", str(out), "--quiet", "--duration", "0.5",
                     "--controller", "baseline"]) == 0
        assert (out / "trace_baseline.csv").exists()

    def test_rerun_from_echo_reproduces_traces(self, tmp_path):
        p = write_config(tmp_path, tiny_config(controller="both"))
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["run", "--config", str(p), "--out", str(out1),
                     "--quiet"]) == 0
        assert main(["run", "--config", str(out1 / "config_echo.json"),
                     "--out", str(out2), "--quiet"]) == 0
        for name in ("trace_proposed.csv", "trace_baseline.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_custom_course_from_path_file(self, tmp_path):
        course = tmp_path / "course.txt"
        course.write_text(
            "".join(f"{0.05 * i} 0.0\n" for i in range(2000)))
        doc = tiny_config(path_file=str(course))
        doc["sim"]["duration"] = 2.0
        p = write_config(tmp_path, doc)
        out = tmp_path / "course_out"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "trace_proposed.csv").read_text().splitlines()
        # straight course: the heading column stays at zero
        header = rows[0].split(",")
        theta_col = header.index("r1_theta")
        assert all(abs(float(r.split(",")[theta_col])) < 0.2 for r in rows[1:])

    def test_abort_reports_machine_parseable_line(self, tmp_path, capsys):
        doc = tiny_config(**{"asmc.Lambda_v": 1e300})
        p = write_config(tmp_path, doc)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "x"),
                     "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: kind=abort")
        assert err.count("\n") == 1

    def test_abort_in_both_mode_reports_one_line(self, tmp_path, capfd):
        # the abort is raised in the forked child too and must cross back
        # intact; capfd also sees what the child writes to stderr
        doc = tiny_config(controller="both", **{"asmc.Lambda_v": 1e300})
        p = write_config(tmp_path, doc)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "x"),
                     "--quiet"])
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: kind=abort")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_killed_episode_child_is_an_abort(self, tmp_path, capfd,
                                              monkeypatch, forks):
        # the baseline episode runs in a forked child, which dies here
        # without sending back an outcome
        import os
        import signal

        from platoon_asmc import cli

        caller, job = os.getpid(), cli._episode_job

        def killed_for_baseline(cfg, controller, *args):
            if controller == "baseline":
                assert os.getpid() != caller, "baseline ran in the caller"
                os.kill(os.getpid(), signal.SIGKILL)
            return job(cfg, controller, *args)

        monkeypatch.setattr(cli, "_episode_job", killed_for_baseline)
        p = write_config(tmp_path, tiny_config(controller="both"))
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "x"),
                     "--quiet"])
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: kind=abort")
        assert "forked job 1 ended without an outcome: signal 9" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert len(forks) == 1

    @pytest.mark.parametrize("controller", ["proposed", "both"])
    def test_diverging_plant_is_an_abort(self, tmp_path, capfd, controller):
        # robot 1 starts far from its slot; its state runs off to inf inside
        # an RK4 substep, where math.cos raises instead of returning NaN
        doc = {"platoon": {"start_poses": [[100, 100, 0], [0, 0, 0], [0, 0, 0]]},
               "sim": {"duration": 2}}
        p = write_config(tmp_path, doc)
        code = main(["run", "--config", str(p), "--controller", controller,
                     "--out", str(tmp_path / "x"), "--quiet"])
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: kind=abort")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked", ["config_echo.json",
                                         "trace_proposed.csv"])
    @pytest.mark.parametrize("controller", ["proposed", "both"])
    def test_unwritable_output_is_a_validation_error(self, tmp_path, capfd,
                                                     controller, blocked):
        # a directory stands where an output file goes; the trace is written
        # in the episode's job, and its error must reach the command intact
        out = tmp_path / "x"
        (out / blocked).mkdir(parents=True)
        p = write_config(tmp_path, tiny_config(controller=controller,
                                               **{"sim.duration": 0.5}))
        code = main(["run", "--config", str(p), "--out", str(out), "--quiet"])
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("error: kind=validation")
        assert blocked in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_trace_of_the_forked_episode(self, tmp_path, capfd):
        # the baseline episode runs in a forked child, whose OSError must
        # cross back intact
        out = tmp_path / "x"
        (out / "trace_baseline.csv").mkdir(parents=True)
        p = write_config(tmp_path, tiny_config(controller="both",
                                               **{"sim.duration": 0.5}))
        code = main(["run", "--config", str(p), "--out", str(out), "--quiet"])
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("error: kind=validation")
        assert "trace_baseline.csv" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [("R", 1e308), ("L", 1e-310)])
    def test_non_finite_wheel_torque_is_an_abort(self, tmp_path, capsys, key,
                                                 value):
        # a finite wrench whose split into wheel torques overflows
        p = write_config(tmp_path, tiny_config(**{f"robot.{key}": value}))
        out = tmp_path / "x"
        code = main(["run", "--config", str(p), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: kind=abort")
        assert err.count("\n") == 1
        assert sorted(f.name for f in out.iterdir()) == ["config_echo.json"]

    def test_rms_overflow_is_an_abort(self, tmp_path, capsys):
        # every robot-step is finite, but the baseline's unclamped 1e300
        # gains make errors whose squares overflow in the RMS report
        doc = tiny_config(controller="baseline",
                          **{"asmc.k_init": 1e300, "asmc.gain_clamp": None,
                             "platoon.v_d": 4.745, "sim.duration": 0.2})
        p = write_config(tmp_path, doc)
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(p), "--out", str(out),
                         "--quiet"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: kind=abort")
        assert "RMS report not finite" in err
        assert err.count("\n") == 1
        assert sorted(f.name for f in out.iterdir()) == ["config_echo.json"]

    @pytest.mark.parametrize("keys,value", [
        (("metrics", "warmup_cutoff"), math.nan),
        (("robot", "f_kr"), math.nan),
        (("arena", "speed_breakers", 0, "x"), math.nan),
        (("sim", "duration"), math.nan),
        (("platoon", "start_poses"),
         [[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
    ], ids=["warmup_cutoff", "f_kr", "breaker_x", "duration", "start_poses"])
    def test_nan_is_rejected_by_validation(self, tmp_path, capfd, keys, value):
        assert_one_validation_error(tmp_path, capfd, keys, value)

    @pytest.mark.parametrize("keys,value", [
        (("robot", "m"), "1.2"),
        (("platoon", "n_robots"), 2.5),
        (("platoon", "n_robots"), True),
        (("arena", "speed_breakers", 0, "amp_force"), "2"),
        (("arena", "quadrant_mu", 2), "0.13"),
        (("path_file",), 5),
        # JSON `Infinity` parses to a float that passes a `>= 0` check
        (("sim", "duration"), float("inf")),
        # the run is 1 s long; a 5 s warm-up would discard the whole trace
        (("metrics", "warmup_cutoff"), 5.0),
        # its trace alone would need hundreds of TiB
        (("sim", "duration"), 1e12),
        # not a whole number of 10 ms control periods
        (("sim", "duration"), 1.005),
        # the gains would start above the cap that bounds them
        (("asmc", "k_init"), 2e4),
        # `Arena.pack` squares the half-width
        (("arena", "speed_breakers", 0, "half_width"), 1e300),
        # the course would reach 2e9 m back behind the leader
        (("platoon", "gap_des"), 1e9),
        (("platoon", "gap_des"), float("inf")),
        (("kinematic", "k1"), float("inf")),
        # the friction scale mu_q / mu_1 of a quadrant overflows
        (("arena", "quadrant_mu", 1), 1e308),
        (("arena", "quadrant_mu", 0), 1e-320),
        # no file system takes a NUL in a path
        (("output_dir",), "\0x"),
    ], ids=["m_str", "n_robots_float", "n_robots_bool", "amp_force_str",
            "quadrant_mu_str", "path_file_int", "duration_inf",
            "warmup_past_end", "duration_huge", "duration_off_grid",
            "k_init_over_clamp", "breaker_width_squared_overflows",
            "gap_des_huge", "gap_des_inf", "k1_inf", "quadrant_ratio_huge",
            "quadrant_ratio_tiny_base", "output_dir_nul"])
    def test_bad_value_is_rejected_by_validation(self, tmp_path, capfd, keys,
                                                 value):
        assert_one_validation_error(tmp_path, capfd, keys, value)

    @pytest.mark.parametrize("course", [
        None,
        "0.0 0.0\n1.0 x\n",
        "0.0 0.0\nnan 0.0\n2.0 0.0\n",
        # 3 m long; the 1 s run's leader starts 2 m in and drives 2 m
        "".join(f"{0.05 * i} 0.0\n" for i in range(61)),
        # finite points whose segment, or whose arc length, overflows
        "1e308 0\n-1e308 0\n",
        "1e308 0\n0 0\n-1e308 0\n",
    ], ids=["missing", "not_a_number", "not_finite", "too_short",
            "segment_overflows", "length_overflows"])
    def test_bad_path_file_is_rejected_by_validation(self, tmp_path, capfd,
                                                     course):
        path_file = tmp_path / "course.txt"
        if course is not None:
            path_file.write_text(course)
        assert_one_validation_error(tmp_path, capfd, ("path_file",),
                                    str(path_file))


def assert_one_validation_error(tmp_path, capfd, keys, value):
    """Set doc[keys...] = value in a tiny run and check that it is
    rejected (see `assert_rejected`)."""
    doc = tiny_config()
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    assert_rejected(tmp_path, capfd, write_config(tmp_path, doc))


def assert_rejected(tmp_path, capfd, config):
    """Check that a run of the config file ends with exit 2 and exactly one
    `error: kind=validation` line, no traceback, and before any output is
    written; return the line."""
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x"),
                 "--quiet"])
    err = capfd.readouterr().err
    assert code == 2
    assert err.startswith("error: kind=validation")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()
    return err


# sha256 of the trace CSVs from `run --duration 20` on the built-in default
# scenario. They lock the simulator's behaviour byte for byte across
# refactors. The digests hold for the libm they were taken with (glibc 2.36,
# x86-64, CPython 3.11, numpy 2.4); another libm may round sin/cos/tanh
# differently.
PINNED_TRACE_SHA256 = {
    "trace_proposed.csv":
        "f499df45de569ab99f47f3cc3c5bb230f178b61cbe2ece1f212aa85e77a693a3",
    "trace_baseline.csv":
        "b16e3901c21746a3f22e47e88433f5e2572f280f876afee2144ffbf044198c6e",
}


@pytest.mark.parametrize("controller,children", [("both", 1), ("proposed", 0)])
def test_run_forks_one_child_per_episode_after_the_first(tmp_path, forks,
                                                         controller, children):
    # a 1 s episode is too short to split into pipeline groups, so the only
    # fork is the second controller's episode
    assert main(["run", "--controller", controller, "--duration", "1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert len(forks) == children


def test_default_scenario_trace_bytes_are_pinned(tmp_path):
    out = tmp_path / "lock"
    assert main(["run", "--duration", "20", "--out", str(out), "--quiet"]) == 0
    for name, digest in PINNED_TRACE_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, \
            name
