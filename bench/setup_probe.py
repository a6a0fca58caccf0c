"""The one-off cost a user pays before the first step runs.

Usage: python3 setup_probe.py CONFIG_JSON

Imports the package, loads and validates the config and builds the default
course, as a run does before its first step. The benchmark times this
script from spawn to exit, so interpreter start and import are included.
"""

import sys


def setup(config_path):
    from platoon_asmc.config import load_config
    from platoon_asmc.engine import default_path_for

    cfg = load_config(config_path)
    cfg.validate()
    return default_path_for(cfg.platoon, cfg.sim)


if __name__ == "__main__":
    setup(sys.argv[1])
