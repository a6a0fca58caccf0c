"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (which becomes
`sim.seed`, the breaker-amplitude jitter) and then repeats one operation in
a closed loop with a single caller. `op()` runs the operation and returns
what it produced; `outputs()` reduces that to RMS reports and trace hashes
for the correctness gate; `check()` adds the workload's own checks. See
README.md for why each workload exists.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import platoon_asmc.cli as cli_mod
import platoon_asmc.config as config_mod
import platoon_asmc.engine as engine_mod
import platoon_asmc.metrics as metrics_mod

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTROLLERS = ("proposed", "baseline")


@dataclass
class OpResult:
    """What one operation produced, plus timings taken inside it."""

    traces: dict = field(default_factory=dict)   # key -> engine.Trace
    reports: dict = field(default_factory=dict)  # key -> {rms_x, rms_y, rms_gap}
    hashes: dict = field(default_factory=dict)   # key -> sha256 hex
    inner: dict = field(default_factory=dict)    # name -> seconds
    rss_kb: int | None = None
    failures: list = field(default_factory=list)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def trace_sha256(trace) -> str:
    """Digest of a trace's arrays in CSV column-group order."""
    h = hashlib.sha256()
    for arr in (trace.t, *(trace.data[n] for n in engine_mod.PER_ROBOT_FIELDS),
                trace.gap_err):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def report_dict(rep) -> dict:
    return {"rms_x": list(rep.rms_x), "rms_y": list(rep.rms_y),
            "rms_gap": list(rep.rms_gap)}


def shipped_doc() -> dict:
    with open(ROOT / "configs" / "defaults.json") as fh:
        return json.load(fh)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def program_env() -> dict:
    """Environment for child interpreters: the checkout's package first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_group(argv: list[str]) -> tuple[int, str]:
    """Run a command in a process group of its own; return its exit code
    and stderr. If the wait is cut short (an error, or the benchmark being
    terminated), the whole group, the command's pool workers included, is
    killed, and the call returns only once every member has ended."""
    proc = subprocess.Popen(argv, env=program_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate()
    except BaseException:
        _kill_group(proc)
        raise
    return proc.returncode, stderr


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:  # orphaned workers are reaped by init
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _run_config(doc: dict):
    cfg = config_mod.from_dict(doc)
    cfg.validate()
    return cfg


def _episode(cfg, controller: str, lead_start_arc: float | None = None):
    return engine_mod.run_episode(
        cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon, cfg.arena, cfg.sim,
        controller, lead_start_arc=lead_start_arc,
        scenario_label=cfg.scenario_hash())


class Workload:
    """`duration` is the simulated seconds per episode; the benchmark's own
    tests pass a tiny one, and reference.json holds the default's outputs."""

    name = ""
    duration = 0.0
    cores = 1  # cores the operation keeps busy

    def __init__(self, seed: int, duration: float | None = None,
                 traced_run: bool = False) -> None:
        self.seed = seed
        if duration is not None:
            self.duration = duration
        self.traced_run = traced_run
        self.work: Path | None = None
        self.setup_config: Path | None = None
        self.docs: list[dict] = []

    def prepare(self, work: Path) -> None:
        """Write the generated config(s) and build any untimed inputs."""
        self.work = work
        self.setup_config = work / "config.json"
        _write_json(self.setup_config, self.docs[0])

    def scenario_hashes(self) -> list[str]:
        return [config_mod.from_dict(d).scenario_hash() for d in self.docs]

    def op(self) -> OpResult:
        raise NotImplementedError

    def outputs(self, res: OpResult) -> None:
        """Fill `res.reports` and `res.hashes` (outside the timed region)."""

    def check(self, res: OpResult) -> list[str]:
        return []


# -- cli_both ---------------------------------------------------------------

class CliBoth(Workload):
    """`platoon-asmc run --controller both` on the shipped scenario.

    28 s simulated: every robot crosses Q3 and then the Q2 speed breaker
    (leader in its band at 25.5-25.9 s), so the seeded breaker jitter reaches
    the traces. Untraced, the command runs as its own process (through cli_launch.py,
    which also records the peak RSS of the command and its pool workers).
    In a traced run it runs in-process, untraced and traced in turn.
    """

    name = "cli_both"
    duration = 28.0
    cores = 2  # the command's pool runs both episodes at once

    def __init__(self, seed, duration=None, traced_run=False):
        super().__init__(seed, duration, traced_run)
        doc = shipped_doc()
        doc["sim"]["seed"] = seed
        doc["sim"]["duration"] = self.duration
        self.docs = [doc]
        self._verified: dict | None = None

    def prepare(self, work):
        super().prepare(work)
        self.out_dir = work / "out"
        self.rss_file = work / "rss.txt"

    def _argv(self) -> list[str]:
        return ["run", "--config", str(self.setup_config), "--controller",
                "both", "--out", str(self.out_dir), "--quiet"]

    def op(self):
        res = OpResult()
        if self.traced_run:
            code = cli_mod.main(self._argv())
        else:
            self.rss_file.unlink(missing_ok=True)
            code, stderr = run_group(
                [sys.executable, str(BENCH_DIR / "cli_launch.py"),
                 str(self.rss_file), *self._argv()])
            if code != 0:
                res.failures.append(f"exit {code}: {stderr.strip()[-300:]}")
            res.rss_kb = sum(int(line.split()[1]) for line in
                             self.rss_file.read_text().splitlines())
        if code != 0 and not res.failures:
            res.failures.append(f"exit {code}")
        return res

    def outputs(self, res):
        if res.failures:
            return
        with open(self.out_dir / "report.json") as fh:
            doc = json.load(fh)
        for rep in doc["reports"]:
            res.reports[rep["controller"]] = {k: rep[k] for k in
                                              ("rms_x", "rms_y", "rms_gap")}
        for c in CONTROLLERS:
            res.hashes[f"trace_{c}.csv"] = file_sha256(
                self.out_dir / f"trace_{c}.csv")

    def check(self, res):
        """report.json must equal the report recomputed from the CSVs.

        Checked once per distinct set of CSV bytes: later operations whose
        CSVs hash the same cannot disagree."""
        if res.failures or res.hashes == self._verified:
            return []
        failures = []
        for c in CONTROLLERS:
            trace = metrics_mod.load_trace(self.out_dir / f"trace_{c}.csv")
            again = report_dict(metrics_mod.report_from_trace(trace))
            if again != res.reports.get(c):
                failures.append(f"report.json for {c} differs from its CSV")
        if not failures:
            self._verified = dict(res.hashes)
        return failures


# -- dense_platoon ----------------------------------------------------------

DENSE_ROBOTS = 8
DENSE_GAP = 4.0


class DensePlatoon(Workload):
    """One 8-robot episode in-process, one RK4 substep per control period.

    The followers start up to 28 m behind the leader, in Q4 and Q2, and
    four of them cross a speed breaker within the episode."""

    name = "dense_platoon"
    duration = 5.0

    def __init__(self, seed, duration=None, traced_run=False):
        super().__init__(seed, duration, traced_run)
        doc = shipped_doc()
        doc["controller"] = "proposed"
        doc["platoon"]["n_robots"] = DENSE_ROBOTS
        doc["platoon"]["gap_des"] = DENSE_GAP
        doc["sim"].update(seed=seed, duration=self.duration,
                          dt_plant=doc["sim"]["control_period"])
        self.docs = [doc]

    def op(self):
        res = OpResult()
        cfg = _run_config(self.docs[0])
        t0 = time.perf_counter()
        res.traces["proposed"] = _episode(cfg, "proposed")
        res.inner["episode_s"] = time.perf_counter() - t0
        res.inner["sim_s"] = cfg.sim.duration
        return res

    def outputs(self, res):
        for key, trace in res.traces.items():
            res.reports[key] = report_dict(metrics_mod.report_from_trace(trace))
            res.hashes[key] = trace_sha256(trace)


# -- ensemble_sweep ---------------------------------------------------------

Q3_RATIOS = (1.0, 1.3, 2.0)
# Leader start, in metres past the course start (14, 0). Q3 spans 18.4-36.7 m
# of each lap and the Q2 speed breaker 51.0-51.7 m, so every robot starts in
# Q3 (the leader for its last 0.35 s) and the leader crosses the breaker at
# 7.5-7.9 s: each ratio and each seed gives different traces.
ENSEMBLE_START = 36.0


class EnsembleSweep(Workload):
    """Grid of Q3 friction ratio x both controllers, in one process.

    The grid's seed axis is the workload seed, one per run. Each grid point
    builds and validates its config, runs both episodes from ENSEMBLE_START
    and reports each from its trace."""

    name = "ensemble_sweep"
    duration = 8.0

    def __init__(self, seed, duration=None, traced_run=False):
        super().__init__(seed, duration, traced_run)
        base = shipped_doc()
        mu = base["arena"]["quadrant_mu"][0]
        self.keys = []
        for ratio in Q3_RATIOS:
            doc = copy.deepcopy(base)
            doc["sim"].update(seed=seed, duration=self.duration)
            doc["arena"]["quadrant_mu"] = [mu, mu, mu * ratio, mu]
            self.docs.append(doc)
            self.keys.append(f"q3x{ratio:g}")
        cfg = _run_config(self.docs[0])
        self.start_arc = ENSEMBLE_START + engine_mod.default_path_for(
            cfg.platoon, cfg.sim)[1]

    def op(self):
        res = OpResult()
        episode_s = 0.0
        sim_s = 0.0
        for key, doc in zip(self.keys, self.docs):
            cfg = _run_config(doc)
            for c in CONTROLLERS:
                t0 = time.perf_counter()
                trace = _episode(cfg, c, self.start_arc)
                episode_s += time.perf_counter() - t0
                sim_s += cfg.sim.duration
                rep = metrics_mod.report_from_trace(trace,
                                                    cfg.metrics.warmup_cutoff)
                res.traces[f"{key}-{c}"] = trace
                res.reports[f"{key}-{c}"] = report_dict(rep)
        res.inner["episode_s"] = episode_s
        res.inner["sim_s"] = sim_s
        return res

    def outputs(self, res):
        for key, trace in res.traces.items():
            res.hashes[key] = trace_sha256(trace)


# -- trace_roundtrip --------------------------------------------------------

class TraceRoundtrip(Workload):
    """`export_trace` then `load_trace` of both shipped-scenario traces.

    28 s simulated, as in cli_both, so the traces cross the Q2 breaker. The
    traces are generated in prepare(), which is not timed."""

    name = "trace_roundtrip"
    duration = 28.0

    def __init__(self, seed, duration=None, traced_run=False):
        super().__init__(seed, duration, traced_run)
        doc = shipped_doc()
        doc["sim"].update(seed=seed, duration=self.duration)
        self.docs = [doc]

    def prepare(self, work):
        super().prepare(work)
        cfg = _run_config(self.docs[0])
        self.inputs = {c: _episode(cfg, c) for c in CONTROLLERS}

    def op(self):
        res = OpResult()
        clock = time.perf_counter
        t0 = clock()
        for c, trace in self.inputs.items():
            metrics_mod.export_trace(trace, self.work / f"trace_{c}.csv")
        t1 = clock()
        for c in self.inputs:
            res.traces[c] = metrics_mod.load_trace(self.work / f"trace_{c}.csv")
        res.inner["write_s"] = t1 - t0
        res.inner["read_s"] = clock() - t1
        return res

    def outputs(self, res):
        for c, trace in res.traces.items():
            res.reports[c] = report_dict(metrics_mod.report_from_trace(trace))
            res.hashes[f"trace_{c}.csv"] = file_sha256(self.work / f"trace_{c}.csv")

    def check(self, res):
        failures = []
        for c, back in res.traces.items():
            orig = self.inputs[c]
            same = (back.n_robots == orig.n_robots
                    and _bits_equal(back.t, orig.t)
                    and _bits_equal(back.gap_err, orig.gap_err)
                    and all(_bits_equal(back.data[n], orig.data[n])
                            for n in engine_mod.PER_ROBOT_FIELDS))
            if not same:
                failures.append(f"round trip of the {c} trace is not bit-exact")
        return failures


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


WORKLOADS = {w.name: w for w in (CliBoth, DensePlatoon, EnsembleSweep,
                                 TraceRoundtrip)}


def finite_reports(reports: dict) -> bool:
    return all(math.isfinite(v) for rep in reports.values()
               for vals in rep.values() for v in vals)

