"""Regenerate reference.json from the current program.

    python3 bench/make_reference.py

Runs one checked operation of every workload for seeds 0-15 at the default
episode durations and stores its report RMS values and trace hashes. The
benchmark then holds every later run on those seeds to them.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(16)


def main() -> int:
    run.load_program()
    import workloads as W

    reference = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, cls in W.WORKLOADS.items():
        seeds = {}
        for seed in SEEDS:
            wl = cls(seed)
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
                wl.prepare(Path(work))
                gate = run.Gate(wl, None)
                res = gate.attempt().res
            if gate.failed:
                raise SystemExit(f"{name} seed {seed}: {gate.messages}")
            seeds[str(seed)] = {"rms": res.reports, "sha256": res.hashes}
        reference[name] = seeds
        print(f"{name}: {len(seeds)} seeds", file=sys.stderr)
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
