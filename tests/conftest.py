import dataclasses

import numpy as np
import pytest

from platoon_asmc.config import default_config
from platoon_asmc.engine import run_episode
from platoon_asmc.platoon import build_path


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def straight_path():
    n = 4000
    xs = np.arange(n) * 0.05
    return build_path(xs, np.zeros(n))


@pytest.fixture(scope="session")
def short_traces(cfg):
    """One short default-scenario episode per controller, shared across tests."""
    sim = dataclasses.replace(cfg.sim, duration=5.0)
    return {
        ctl: run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                         cfg.arena, sim, ctl, scenario_label="short")
        for ctl in ("proposed", "baseline")
    }
