"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the module attributes through which the layers of
`platoon_asmc` call each other with timing wrappers, and `uninstall()` puts
the originals back. Nothing under `src/` changes. Each wrapper records one
span per call: its duration, and how much of it child spans covered, so a
layer's self time is its span time minus its children's. Calls of a span
name nested inside the same name (`build_report` calling
`report_from_trace`) count once, as the outermost call.

`arena` and `vehicle.plant_rhs` run inside `engine._integrate_robot` about
120 times per robot-step; wrapping them would swamp the timing, so their
time is part of the `engine.integrate` span.

Forked pool workers inherit the installed wrappers. The wrapper around
`cli._episode_job` notices it runs in a worker, starts that worker's record
afresh, and writes it to the spool directory when the job ends; the parent
merges the spooled records after the command returns.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from pathlib import Path

import platoon_asmc.cli as cli_mod
import platoon_asmc.config as config_mod
import platoon_asmc.control as control_mod
import platoon_asmc.engine as engine_mod
import platoon_asmc.metrics as metrics_mod
import platoon_asmc.platoon as platoon_mod

CONTROL_FUNCTIONS = ("posture_error", "kinematic_control", "update_sliding",
                     "asmc_force", "asmc_torque", "adapt_gains",
                     "baseline_asmc", "adapt_gains_baseline")
REPORT_FUNCTIONS = ("build_report", "report_from_trace", "render_report_text",
                    "report_to_json", "write_plotspec")
CONFIG_FUNCTIONS = ("load_config", "from_dict", "default_config")


class Tracer:
    """Span and counter record of the calls made while installed.

    `stats[name]` is `[calls, seconds, child_seconds]`; `counts[name]` holds
    exact counts worked out from call arguments and return values;
    `intervals` holds `(start, end)` of every top-level span, for coverage;
    `worker_spans` holds the duration of each pool job, per process.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.intervals: list[tuple[float, float]] = []
        self.worker_spans: list[float] = []
        self.spool_dir: Path | None = None
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the record in place (the wrappers hold references to it)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.intervals.clear()
        self.worker_spans.clear()
        self._stack.clear()
        self._active.clear()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _span(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active
        intervals = self.intervals
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nested = active.get(name, 0)
            active[name] = nested + 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = nested
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                else:
                    intervals.append((t0, t1))
                if not nested:
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._span(name, original, after))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        e, p, m, c = engine_mod, platoon_mod, metrics_mod, config_mod

        def robot_steps(args, kwargs, trace):
            self.count("engine.robot_steps", trace.n_records * trace.n_robots)

        def segments(args, kwargs, result):
            leader = args[1] if len(args) > 1 else kwargs["leader_index"]
            self.count("platoon.target_waypoint_segments", leader - result)

        def window(args, kwargs, result):
            path = args[0]
            hint = args[3] if len(args) > 3 else kwargs.get("hint")
            width = args[4] if len(args) > 4 else kwargs.get("window", 200)
            if hint is None:
                pts = len(path)
            else:
                pts = min(len(path), hint + width + 1) - max(0, hint - width)
            self.count("platoon.nearest_index_window_pts", pts)

        def csv_bytes(args, kwargs, result):
            target = args[1] if len(args) > 1 else kwargs["path"]
            self.count("metrics.csv_bytes", os.path.getsize(target))

        # engine: the episode loop and the plant RK4 (arena + vehicle inside)
        self._patch(e, "run_episode", "engine.run_episode", robot_steps)
        self._patch(cli_mod, "run_episode", "engine.run_episode", robot_steps)
        self._patch(e, "_integrate_robot", "engine.integrate")
        self._patch(e, "default_path_for", "engine.path_build")
        # platoon: projection, targeting and the leader reference
        self._patch(e, "nearest_index", "platoon.nearest_index", window)
        self._patch(e, "follower_target", "platoon.follower_target")
        self._patch(p, "target_waypoint", "platoon.target_waypoint", segments)
        self._patch(e, "pose_at_arc", "platoon.pose_at_arc")
        # control and vehicle
        for fn in CONTROL_FUNCTIONS:
            self._patch(control_mod, fn, "control")
        self._patch(e, "wheel_torque_split", "vehicle.wheel_torque_split")
        # metrics
        self._patch(m, "export_trace", "metrics.export_trace", csv_bytes)
        self._patch(m, "load_trace", "metrics.load_trace")
        for fn in REPORT_FUNCTIONS:
            self._patch(m, fn, "metrics.report")
        # config
        for fn in CONFIG_FUNCTIONS:
            self._patch(c, fn, "config")
            self._patch(cli_mod, fn, "config")
        self._patch(c.RunConfig, "validate", "config")
        self._patch(c.RunConfig, "scenario_hash", "config")
        # cli: the pool job, which must also write the worker's record out
        self._patch_job()

    def _patch_job(self) -> None:
        original = cli_mod._episode_job
        timed = self._span("cli.worker", original)
        clock = time.perf_counter

        @functools.wraps(original)
        def job(*args, **kwargs):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self.reset()
            t0 = clock()
            trace = timed(*args, **kwargs)
            self.worker_spans.append(clock() - t0)
            if in_worker:
                # the size of what the pool pickles back to the parent
                self.count("cli.transfer_bytes", len(pickle.dumps(trace)))
                self._spool()
            return trace

        # pickled by reference: the pool finds this wrapper under the
        # original's module and name, so workers run it too
        self._patches.append((cli_mod, "_episode_job", original))
        cli_mod._episode_job = job

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- worker records ----------------------------------------------------

    def _spool(self) -> None:
        record = {"stats": self.stats, "counts": self.counts,
                  "intervals": self.intervals, "worker_spans": self.worker_spans}
        out = self.spool_dir / f"worker-{os.getpid()}-{time.perf_counter_ns()}.json"
        with open(out, "w") as fh:
            json.dump(record, fh)

    def merge_spool(self) -> None:
        """Fold the records the pool workers wrote into this one."""
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            with open(path) as fh:
                record = json.load(fh)
            path.unlink()
            for name, (calls, secs, child) in record["stats"].items():
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += secs
                entry[2] += child
            for name, amount in record["counts"].items():
                self.count(name, amount)
            self.intervals.extend(tuple(iv) for iv in record["intervals"])
            self.worker_spans.extend(record["worker_spans"])

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "intervals": list(self.intervals),
            "worker_spans": list(self.worker_spans),
        }


def covered_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
