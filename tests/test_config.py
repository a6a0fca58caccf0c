"""The config schema: edited copies of the default document either validate
or raise ConfigError naming the field, whatever validates survives its own
echo, and no number of any section may be infinite or NaN.

No episode runs here; the CLI tests cover the exit codes."""

import copy
import dataclasses
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from platoon_asmc.arena import Arena
from platoon_asmc.config import (
    ConfigError,
    MetricsConfig,
    RunConfig,
    default_config,
    from_dict,
)
from platoon_asmc.control import AsmcConfig, KinematicGains
from platoon_asmc.engine import SimConfig
from platoon_asmc.platoon import PlatoonConfig
from platoon_asmc.vehicle import RobotParams

# the edge values by name, as plain draws reach them too rarely
EDGES = st.sampled_from((0, -1, 2**64, 10**400, 0.0, -0.0, 5e-324, 1e-300,
                         1e300, math.inf, -math.inf, math.nan))
NUMBERS = EDGES | st.floats(allow_nan=True, allow_infinity=True) \
    | st.integers()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | NUMBERS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)


def paths(node, prefix=()):
    """(path, value) of `node` and of everything below it."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edited(path, value):
    """The default document with the value at `path` replaced."""
    doc = default_config().to_dict()
    lookup(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def edited_documents(draw):
    """The default document with one or two edits: a number replaced by
    another number; any value replaced by any JSON value; a key or list
    entry deleted; an unknown key added."""
    doc = default_config().to_dict()
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(("number", "replace", "delete", "add")))
        if action == "number":
            where = [p for p, v in paths(doc) if p and
                     isinstance(v, (int, float)) and not isinstance(v, bool)]
        elif action == "add":
            where = [p for p, v in paths(doc) if isinstance(v, dict)]
        else:
            where = [p for p, _ in paths(doc) if p]
        if not where:
            break
        path = draw(st.sampled_from(where))
        if action == "add":
            lookup(doc, path)[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        elif action == "delete":
            del lookup(doc, path[:-1])[path[-1]]
        else:
            lookup(doc, path[:-1])[path[-1]] = draw(
                NUMBERS if action == "number" else JSON_VALUES)
    return doc


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited_documents())
# overflowed while rounding control_period / dt_plant to a step count
@example(edited(("sim", "dt_plant"), 5e-324))
@example(edited(("sim", "control_period"), math.inf))
# too large for a float
@example(edited(("robot", "m"), 10**400))
@example(edited(("platoon", "n_robots"), 10**400))
def test_edited_document_validates_or_raises_config_error(doc):
    original = copy.deepcopy(doc)
    try:
        cfg = from_dict(doc)
        cfg.validate()
    except ConfigError:
        return
    assert doc == original  # building never edits the document
    again = from_dict(cfg.to_dict())
    assert again == cfg
    assert again.scenario_hash() == cfg.scenario_hash()


@pytest.mark.parametrize("doc,message", [
    ({"robot": [{}, {"m": -1.0}, {}]},
     "[robot[1]] m must be finite and > 0, got -1.0"),
    ({"arena": {"speed_breakers": [{"x": 0, "y": 0, "half_width": 0}]}},
     "[arena.speed_breakers[0]] half_width must be > 0, got 0.0"),
    ({"robot": [{}, {}]}, "[robot] 2 parameter sets for 3 robots"),
    ({"controller": "x"}, "[controller] must be one of "
                          "('proposed', 'baseline', 'both'), got 'x'"),
    # one row per section rule written with `arena.require`
    ({"kinematic": {"k1": -1}},
     "[kinematic] k1 must be finite and > 0, got -1.0"),
    ({"asmc": {"alpha_v2": 0}},
     "[asmc] alpha_v2 must be finite and > 0, got 0.0"),
    ({"robot": {"f_kr": -0.5}},
     "[robot] f_kr must be finite and >= 0, got -0.5"),
    ({"sim": {"control_period": math.inf}},
     "[sim] control_period must be finite and > 0, got inf"),
    ({"sim": {"duration": -1}},
     "[sim] duration must be finite and >= 0, got -1.0"),
    ({"platoon": {"gap_des": 0}},
     "[platoon] gap_des must be finite and > 0, got 0.0"),
    ({"platoon": {"v_d": math.nan}},
     "[platoon] v_d must be finite and > 0, got nan"),
    ({"metrics": {"warmup_cutoff": -2.5}},
     "[metrics] warmup_cutoff must be finite and >= 0, got -2.5"),
    ({"arena": {"speed_breakers": [{"x": 0, "y": 0, "half_width": 1,
                                    "amp_torque": math.inf}]}},
     "[arena.speed_breakers[0]] amp_torque must be finite, got inf"),
], ids=["robot_list", "breaker", "robot_count", "controller", "kinematic",
        "asmc", "robot_friction", "sim_step", "sim_duration", "platoon_gap",
        "platoon_speed", "metrics", "breaker_amplitude"])
def test_error_names_the_field_once(doc, message):
    with pytest.raises(ConfigError) as exc:
        from_dict(doc).validate()
    assert str(exc.value) == message


# An int past float range is not finite, and no OverflowError either. Built
# in the library, not from a document, which would turn it into a float.
@pytest.mark.parametrize("build,name", [
    (lambda: RobotParams(L=10**400), "L"),
    (lambda: RobotParams(R=10**400), "R"),
    (lambda: KinematicGains(k1=10**400), "k1"),
    (lambda: AsmcConfig(gain_clamp=10**400), "gain_clamp"),
    (lambda: Arena(quadrant_mu=(10**400, 0.1, 0.1, 0.1)), "quadrant_mu[1]"),
    (lambda: PlatoonConfig(n_robots=1, start_poses=((10**400, 0.0, 0.0),)),
     "start_poses[0]"),
    (lambda: SimConfig(duration=10**400), "duration"),
], ids=["robot_L", "robot_R", "kinematic", "gain_clamp", "quadrant_mu",
        "start_poses", "duration"])
def test_int_past_float_range_is_rejected_by_name(build, name):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value).startswith(f"{name} must be finite")


def test_run_config_checks_itself_when_built():
    with pytest.raises(ConfigError, match=r"^\[controller\]"):
        RunConfig(controller="x")
    # the default run is 600 s long
    with pytest.raises(ConfigError, match=r"^\[metrics\] warmup_cutoff 700"):
        dataclasses.replace(default_config(),
                            metrics=MetricsConfig(warmup_cutoff=700.0))


@pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
def test_run_config_where_the_memory_size_cannot_be_read(monkeypatch, error):
    # no os.sysconf (as on Windows), or no answer from it: the runs still
    # build, and the address space bounds what a run may need
    if error is AttributeError:
        monkeypatch.delattr(os, "sysconf")
    else:
        def sysconf(name):
            raise error(name)
        monkeypatch.setattr(os, "sysconf", sysconf)
    doc = default_config().to_dict()
    doc["sim"]["duration"] = 1e300
    with pytest.raises(ConfigError, match=r"^\[sim\] a 1e\+300 s run needs"):
        from_dict(doc)


FLOAT_FIELDS = [p for p, v in paths(default_config().to_dict())
                if isinstance(v, float)]


@pytest.mark.parametrize("path", FLOAT_FIELDS,
                         ids=[".".join(map(str, p)) for p in FLOAT_FIELDS])
def test_non_finite_number_is_rejected(path):
    # with the gain cap lifted, nothing bounds k_init from above
    for clamp in (1e4, None):
        for value in (math.inf, -math.inf, math.nan):
            doc = edited(("asmc", "gain_clamp"), clamp)
            lookup(doc, path[:-1])[path[-1]] = value
            with pytest.raises(ConfigError, match="finite"):
                from_dict(doc).validate()
