"""Tests of the benchmark itself, at tiny durations.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

TINY = {  # simulated seconds per episode
    "cli_both": 0.3,
    "dense_platoon": 0.3,
    "ensemble_sweep": 0.2,
    "trace_roundtrip": 0.3,
}
SEED = 7


@pytest.fixture(scope="module", autouse=True)
def short_runs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "WARMUP_SECONDS", 0.0)
        mp.setattr(run, "SETUP_REPEATS", 2)
        yield


@pytest.fixture(scope="module")
def results():
    """Per workload: one untraced run and two traced runs on one seed."""
    return {
        name: {
            "plain": run.run(name, SEED, 0, False, duration=duration),
            "traced": [run.run(name, SEED, 0, True, duration=duration)
                       for _ in range(2)],
        }
        for name, duration in TINY.items()
    }


def _declared():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]},
            [w["name"] for w in doc["workloads"]])


def test_declared_metrics_and_workloads_match_the_code():
    e2e, layers, workloads = _declared()
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert sorted(workloads) == sorted(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, results, capsys):
    e2e, layers, _ = _declared()
    for result, declared in ((results[name]["plain"], e2e),
                             (results[name]["traced"][0], layers)):
        run.emit(result)
        lines = capsys.readouterr().out.strip().splitlines()
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0
        assert final["attempted"] >= 1
        assert {k: v["unit"] for k, v in final["metrics"].items()} == declared
        for metric, unit in declared.items():
            assert any(line.split()[:1] == [metric] and f" {unit} " in line
                       for line in lines[:-1]), metric


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_across_runs(name, results):
    first, second = (r["final"]["metrics"] for r in results[name]["traced"])
    for metric in run.EXACT:
        assert first[metric]["value"] == second[metric]["value"], metric
    if name != "trace_roundtrip":
        assert first["engine.robot_steps"]["value"] > 0
        assert first["control.calls"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_reference_gate(name, results):
    good = results[name]["plain"]["outputs"]
    ok = run.run(name, SEED, 0, False, duration=TINY[name], reference=good)
    assert ok["final"]["failed"] == 0
    assert ok["trace_hash_matches_reference"] is True

    wrong = copy.deepcopy(good)
    rep = next(iter(wrong["rms"].values()))
    rep["rms_x"][0] *= 1 + 1e-6
    bad = run.run(name, SEED, 0, False, duration=TINY[name], reference=wrong)
    assert bad["final"]["failed"] >= 1
    assert bad["final"]["correct"] is False
    assert bad["final"]["failed"] == bad["final"]["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_platoon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _processes_of(sid: int, marker: str) -> list[int]:
    """Pids of processes, exited but unreaped ones included, that are in
    session `sid` or whose environment holds `marker`."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            session = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[3])
            environ = (entry / "environ").read_bytes()
        except (OSError, IndexError, ValueError):
            continue
        if session == sid or marker.encode() in environ:
            found.append(int(entry.name))
    return found


def _children() -> list[int]:
    return [int(pid) for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()]


@pytest.mark.skipif(not Path(f"/proc/self/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_runs_leave_no_child_process(results):
    """Every process the runs above started (set-up probes, the command,
    the reference helper) has ended and been waited for."""
    assert _children() == []


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs /proc")
def test_terminated_run_leaves_no_process_running():
    """cli_both starts the command, its pool workers and the reference
    helper; none of them may outlive a run terminated part way. The command
    runs in a session of its own, so it is found by an environment variable
    that all of them inherit."""
    marker = f"BENCH_TEST_RUN={uuid.uuid4().hex}"
    key, value = marker.split("=")
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "cli_both",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, env={**os.environ, key: value},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    time.sleep(4.0)
    assert len(_processes_of(proc.pid, marker)) > 1  # caught mid-operation
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=120) == 128 + signal.SIGTERM
    assert _processes_of(proc.pid, marker) == []
