"""Benchmark of the platoon-asmc simulator, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload seed becomes `sim.seed`; the
program receives only the configs generated from it. After one untimed,
checked warm-up operation the workload repeats its operation in a closed
loop for S seconds and checks every output. With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics; with --trace 1 the
operations alternate untraced and traced (wrappers installed by tracer.py)
and the result holds the per-layer metrics. The lines before it repeat every
metric with its unit and sample count, and the full record, with the
machine and provenance, goes to bench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refloop import reference_loop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 15     # set-up probes per run; setup_s is the fastest
WARMUP_SECONDS = 2.0   # checked but untimed operations before measuring
TRACED_SETUPS = 3      # in-process traced set-ups per traced run
RTOL = 1e-9            # allowed relative distance of a report RMS from reference

END_TO_END = {"wall_rel": "loops", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "engine.integrate_us_per_robot_step": "us",
    "engine.self_us_per_robot_step": "us",
    "engine.robot_steps": "count",
    "engine.path_build_s": "s",
    "config.load_validate_s": "s",
    "control.us_per_robot_step": "us",
    "control.calls": "count",
    "vehicle.wheel_torque_split_us_per_robot_step": "us",
    "platoon.target_waypoint_us_per_call": "us",
    "platoon.target_waypoint_segments": "segments",
    "platoon.nearest_index_us_per_call": "us",
    "platoon.nearest_index_window_pts": "points",
    "platoon.follower_target_us_per_call": "us",
    "platoon.pose_at_arc_us_per_call": "us",
    "metrics.export_trace_s": "s",
    "metrics.csv_bytes": "bytes",
    "metrics.load_trace_s": "s",
    "metrics.report_s": "s",
    "cli.worker_s": "s",
    "cli.overhead_s": "s",
    "cli.transfer_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}
# Per-layer metrics that are exact counts: they must repeat exactly.
EXACT = ("engine.robot_steps", "control.calls",
         "platoon.target_waypoint_segments", "platoon.nearest_index_window_pts",
         "metrics.csv_bytes", "cli.transfer_bytes")


def load_program() -> None:
    """Import the package from this checkout's src/, or refuse to run."""
    pkg = ROOT / "src" / "platoon_asmc"
    for need in (pkg / "__init__.py", ROOT / "configs" / "defaults.json"):
        if not need.is_file():
            raise SystemExit(f"error: {need} not found; run the benchmark "
                             "from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import platoon_asmc
    if Path(platoon_asmc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: platoon_asmc imported from "
                         f"{platoon_asmc.__file__}, not from {pkg}")


# -- statistics ---------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (when there are 20 or more)."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    if len(vals) >= 20:
        pct = int(100 * (1 - 10 / len(vals)))
        out[f"p{pct}"] = vals[math.ceil(pct / 100 * len(vals)) - 1]
    return out


def _rms_close(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    for key, rep in want.items():
        for name, vals in rep.items():
            mine = got[key].get(name, [])
            if len(mine) != len(vals) or any(
                    abs(a - b) > RTOL * abs(b) for a, b in zip(mine, vals)):
                return False
    return True


class TwoCoreReference:
    """The reference loop on both cores at once, for a workload that fills
    both: a helper process (refloop.py) runs a copy beside this one, and the
    slower copy sets the time, as the slower pool worker sets the command's."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "refloop.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("go\n")
        self._proc.stdin.flush()
        mine = reference_loop()
        return max(mine, float(self._proc.stdout.readline()))

    def close(self) -> None:
        """End the helper (end of input) and wait until it has exited."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# -- the correctness gate -----------------------------------------------------

class Record:
    """One operation: timing, what it produced, and its span record.

    `ref` is the mean reference-loop time around an untraced operation."""

    def __init__(self, start, end, res, snap=None, ref=None):
        self.start = start
        self.end = end
        self.wall = end - start
        self.res = res
        self.snap = snap
        self.ref = ref


class Gate:
    """Runs operations and counts the ones whose outputs fail a check."""

    def __init__(self, wl, reference: dict | None, ref_loop=reference_loop):
        self.wl = wl
        self.reference = reference
        self.ref_loop = ref_loop
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_hashes: dict | None = None
        self.hash_matches: list[bool] = []
        self._last_ref: float | None = None

    def attempt(self, tracer=None) -> Record:
        import workloads as W

        if tracer is None:
            before = self._last_ref or self.ref_loop()
        else:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            res = self.wl.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            res = W.OpResult(failures=[f"{type(exc).__name__}: {exc}"])
        end = time.perf_counter()
        snap = ref = None
        if tracer is None:
            self._last_ref = self.ref_loop()
            ref = (before + self._last_ref) / 2
        else:
            self._last_ref = None
            tracer.uninstall()
            tracer.merge_spool()
            snap = tracer.snapshot()
        self._judge(res)
        return Record(start, end, res, snap, ref)

    def _judge(self, res) -> None:
        import workloads as W

        failures = list(res.failures)
        if not failures:
            try:
                self.wl.outputs(res)
                failures += self.wl.check(res)
            except Exception as exc:  # unreadable outputs fail the operation
                failures.append(f"{type(exc).__name__}: {exc}")
        if not failures:
            if not W.finite_reports(res.reports):
                failures.append("non-finite RMS in a report")
            if self.first_hashes is None:
                self.first_hashes = dict(res.hashes)
            elif res.hashes != self.first_hashes:
                failures.append("trace hashes differ from the first operation's")
            if self.reference is not None:
                if not _rms_close(res.reports, self.reference["rms"]):
                    failures.append("report RMS differs from the reference "
                                    f"by more than {RTOL:g} relative")
                self.hash_matches.append(res.hashes == self.reference["sha256"])
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)
        res.traces = {}  # keep memory flat across operations


def stored_reference(wl) -> dict | None:
    """Reference outputs for this workload and seed, if any are stored."""
    if not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(wl.name, {}).get(str(wl.seed))


# -- measurement --------------------------------------------------------------

def _time_setup(config_path: Path) -> float:
    import workloads as W

    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                    str(config_path)], env=W.program_env(), check=True)
    return time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool,
        duration: float | None = None, reference: dict | None = None) -> dict:
    """Run one workload and return its full result record.

    `duration` overrides the workload's simulated seconds per episode; the
    stored reference outputs hold only for the default. `reference`
    overrides the stored reference outputs for this seed."""
    import workloads as W

    wl = W.WORKLOADS[name](seed, duration, traced_run=trace)
    if reference is None and duration is None:
        reference = stored_reference(wl)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    ref_loop = TwoCoreReference() if wl.cores > 1 else None
    try:
        return _measure(wl, seconds, trace, reference, work,
                        ref_loop or reference_loop)
    finally:
        if ref_loop is not None:
            ref_loop.close()
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, seconds, trace, reference, work, ref_loop) -> dict:
    from setup_probe import setup
    from tracer import Tracer

    wl.prepare(work)
    gate = Gate(wl, reference, ref_loop)
    warm_until = time.perf_counter() + WARMUP_SECONDS
    warmup = gate.attempt()
    while time.perf_counter() < warm_until:
        gate.attempt()
    outputs = {"rms": warmup.res.reports, "sha256": warmup.res.hashes}

    tracer = None
    setup_snaps = []
    if trace:
        tracer = Tracer()
        tracer.spool_dir = work
        for _ in range(TRACED_SETUPS):
            tracer.reset()
            tracer.install()
            try:
                setup(wl.setup_config)
            finally:
                tracer.uninstall()
            setup_snaps.append(tracer.snapshot())

    # Set-up probes are spread over the window, so they see the same
    # machine as the operations do.
    plain, traced, setup_times = [], [], []
    probes = 0 if trace else SETUP_REPEATS
    start = time.perf_counter()
    while True:
        plain.append(gate.attempt())
        if tracer is not None:
            traced.append(gate.attempt(tracer))
        now = time.perf_counter()
        if len(setup_times) < probes and \
                now >= start + len(setup_times) * seconds / probes:
            setup_times.append(_time_setup(wl.setup_config))
        if now >= start + seconds:
            break
    while len(setup_times) < probes:
        setup_times.append(_time_setup(wl.setup_config))

    details = {}
    if trace:
        details.update(_layer_metrics(plain, traced, setup_snaps, gate))
        wanted = PER_LAYER
    else:
        details.update(_end_to_end(wl, plain, setup_times))
        wanted = END_TO_END
    details["failed_ratio"] = {"value": gate.failed / gate.attempted,
                               "unit": "ratio", "n": gate.attempted}
    final = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": details[k]["value"], "unit": wanted[k]}
                    for k in wanted},
    }
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": int(trace),
        "seconds": seconds,
        "duration": wl.duration,
        "provenance": provenance(wl),
        "details": details,
        "reference_used": reference is not None,
        "trace_hash_matches_reference": (all(gate.hash_matches)
                                         if gate.hash_matches else None),
        "failures": gate.messages[:20],
        "outputs": outputs,
        "final": final,
    }


def _end_to_end(wl, plain, setup_times) -> dict:
    walls = [r.wall for r in plain]
    rel = [r.wall / r.ref for r in plain]
    refs = [r.ref for r in plain]
    out = {"wall_rel": {"value": statistics.median(rel), "unit": "loops",
                        **summary(rel)},
           "wall_s": {"value": statistics.median(walls), "unit": "s",
                      **summary(walls)},
           "ref_loop_s": {"value": statistics.median(refs), "unit": "s",
                          **summary(refs)},
           # contention only ever adds time, so the fastest probe is the
           # steadiest estimate of the set-up cost itself
           "setup_s": {"value": min(setup_times), "unit": "s",
                       **summary(setup_times)}}
    rss = [r.res.rss_kb for r in plain if r.res.rss_kb is not None]
    if rss:
        # the command and its pool workers, summed per-process peaks
        mib = [kb / 1024 for kb in rss]
        out["peak_rss_mb"] = {"value": statistics.median(mib), "unit": "MiB",
                              **summary(mib)}
    else:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = {"value": kib / 1024, "unit": "MiB", "n": 1}
    inner = [r.res.inner for r in plain if r.res.inner]
    if inner and "episode_s" in inner[0]:
        rates = [i["sim_s"] / i["episode_s"] for i in inner]
        out["episode_sim_s_per_wall_s"] = {"value": statistics.median(rates),
                                           "unit": "sim-s/s", **summary(rates)}
    for key, metric in (("write_s", "trace_write_s"), ("read_s", "trace_read_s")):
        if inner and key in inner[0]:
            vals = [i[key] for i in inner]
            out[metric] = {"value": statistics.median(vals), "unit": "s",
                           **summary(vals)}
    return out


def _stat(snap: dict, name: str, i: int):
    return snap["stats"].get(name, [0, 0.0, 0.0])[i]


def exact_counts(snap: dict) -> dict:
    """The per-operation counts of one traced operation."""
    counts = snap["counts"]

    def per_call(counter, span):
        calls = _stat(snap, span, 0)
        return counts.get(counter, 0) / calls if calls else 0.0

    return {
        "engine.robot_steps": counts.get("engine.robot_steps", 0),
        "control.calls": _stat(snap, "control", 0),
        "platoon.target_waypoint_segments": per_call(
            "platoon.target_waypoint_segments", "platoon.target_waypoint"),
        "platoon.nearest_index_window_pts": per_call(
            "platoon.nearest_index_window_pts", "platoon.nearest_index"),
        "metrics.csv_bytes": counts.get("metrics.csv_bytes", 0),
        "cli.transfer_bytes": counts.get("cli.transfer_bytes", 0),
    }


def _layer_metrics(plain, traced, setup_snaps, gate) -> dict:
    from tracer import covered_seconds

    def total(name, i, snaps=None):
        return sum(_stat(r.snap, name, i) for r in traced) + \
            sum(_stat(s, name, i) for s in (snaps or []))

    def per_op(fn):
        return statistics.median(fn(r) for r in traced)

    steps = sum(r.snap["counts"].get("engine.robot_steps", 0) for r in traced)

    def us_per_step(seconds):
        return 1e6 * seconds / steps if steps else 0.0

    def us_per_call(name):
        calls = total(name, 0)
        return 1e6 * total(name, 1) / calls if calls else 0.0

    def worker_s(r):
        return max(r.snap["worker_spans"], default=0.0)

    path_calls = total("engine.path_build", 0, setup_snaps)
    m = {
        "engine.integrate_us_per_robot_step":
            us_per_step(total("engine.integrate", 1)),
        "engine.self_us_per_robot_step":
            us_per_step(total("engine.run_episode", 1)
                        - total("engine.run_episode", 2)),
        "engine.path_build_s":
            total("engine.path_build", 1, setup_snaps) / path_calls
            if path_calls else 0.0,
        "config.load_validate_s":
            statistics.median(_stat(s, "config", 1) for s in setup_snaps),
        "control.us_per_robot_step": us_per_step(total("control", 1)),
        "vehicle.wheel_torque_split_us_per_robot_step":
            us_per_step(total("vehicle.wheel_torque_split", 1)),
        "platoon.target_waypoint_us_per_call":
            us_per_call("platoon.target_waypoint"),
        "platoon.nearest_index_us_per_call":
            us_per_call("platoon.nearest_index"),
        "platoon.follower_target_us_per_call":
            us_per_call("platoon.follower_target"),
        "platoon.pose_at_arc_us_per_call": us_per_call("platoon.pose_at_arc"),
        "metrics.export_trace_s":
            per_op(lambda r: _stat(r.snap, "metrics.export_trace", 1)),
        "metrics.load_trace_s":
            per_op(lambda r: _stat(r.snap, "metrics.load_trace", 1)),
        "metrics.report_s": per_op(lambda r: _stat(r.snap, "metrics.report", 1)),
        "cli.worker_s": per_op(worker_s),
        "cli.overhead_s":
            per_op(lambda r: r.wall - worker_s(r) if r.snap["worker_spans"]
                   else 0.0),
        "trace.overhead_pct":
            100.0 * (statistics.median(r.wall for r in traced)
                     / statistics.median(r.wall for r in plain) - 1.0),
        "trace.uncovered_pct":
            per_op(lambda r: 100.0 * (1.0 - covered_seconds(
                r.snap["intervals"], r.start, r.end) / r.wall)),
    }
    # exact counts must not vary between operations of one run
    counts = [exact_counts(r.snap) for r in traced]
    m.update(counts[0])
    for name in EXACT:
        seen = {c[name] for c in counts}
        if len(seen) > 1:
            gate.failed += 1
            gate.messages.append(f"{name} varies between operations: {seen}")
    out = {k: {"value": v, "unit": PER_LAYER[k], "n": len(traced)}
           for k, v in m.items()}
    out["untraced_wall_s"] = {"value": statistics.median(r.wall for r in plain),
                              "unit": "s", **summary([r.wall for r in plain])}
    out["traced_wall_s"] = {"value": statistics.median(r.wall for r in traced),
                            "unit": "s", **summary([r.wall for r in traced])}
    return out


# -- provenance and output ----------------------------------------------------

def provenance(wl) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "platoon_asmc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "scenario_hashes": wl.scenario_hashes(),
        "workload_seed": wl.seed,
    }


def _fmt(name: str, d: dict) -> str:
    extra = "  ".join(f"{k}={v:.6g}" for k, v in d.items()
                      if k not in ("value", "unit", "n")
                      and not (k == "median" and v == d["value"]))
    return f"{name:<46} {d['value']:>16.6f} {d['unit']:<9} n={d['n']}  {extra}"


def emit(result: dict) -> None:
    """Print every metric with its unit and sample count, then the JSON line."""
    p = result["provenance"]
    print(f"workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']} "
          f"simulated_s={result['duration']}")
    print(f"machine: nproc={p['nproc']} cpu={p['cpu_model']!r} "
          f"python={p['python']} numpy={p['numpy']}")
    print(f"source: commit={p['git_commit']} src_sha256={p['source_sha256'][:16]} "
          f"scenarios={','.join(p['scenario_hashes'])}")
    for name, d in result["details"].items():
        print(_fmt(name, d))
    print(f"reference used: {result['reference_used']}; trace hashes match "
          f"reference: {result['trace_hash_matches_reference']}")
    for msg in result["failures"]:
        print(f"FAILED: {msg}")
    print(json.dumps(result["final"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for its child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    load_program()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(W.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
