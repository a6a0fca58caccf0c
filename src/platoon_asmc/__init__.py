"""Deterministic leader-follower platoon simulator for differential-drive
robots under state-dependent friction, with an adaptive sliding mode
controller and a bounded-gain baseline for comparison."""

from .arena import Arena, SpeedBreaker
from .config import (
    ConfigError,
    MetricsConfig,
    RunConfig,
    default_config,
    from_dict,
    load_config,
)
from .control import (
    AsmcConfig,
    KinematicGains,
    adapt_gains,
    adapt_gains_baseline,
    asmc_force,
    asmc_torque,
    baseline_asmc,
    kinematic_control,
    posture_error,
    update_sliding,
)
from .engine import (
    EpisodeAborted,
    SimConfig,
    Trace,
    run_episode,
)
from .metrics import (
    RmsReport,
    build_report,
    export_trace,
    load_trace,
    report_from_trace,
    rms,
)
from .platoon import (
    Path,
    PlatoonConfig,
    build_path,
    follower_target,
    load_path_xy,
    nearest_index,
    pose_at_arc,
    target_waypoint,
)
from .vehicle import (
    RobotParams,
    wheel_torque_split,
)

__version__ = "0.1.0"
