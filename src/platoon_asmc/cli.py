"""Command-line entry point.

`platoon-asmc run` loads a JSON config (built-in defaults when omitted),
writes the flags over it, runs the selected controller episode(s), and
writes traces, reports, the plotspec and the effective-config echo into the
output directory. The episodes run at once (`engine.run_forked`); each
writes its trace and returns its RMS report. An error is one
machine-parseable line on stderr: exit 2 for a bad command line or config,
or an output that cannot be written; exit 3 for an episode that aborts, runs
out of memory, or whose forked process could not start or was lost. What it
prints on stdout and stderr is best-effort: a missing, closed, broken or full
stream drops the line and never changes how the run ends. A SIGTERM to the
command ends every process it forked; so does a SIGINT (Ctrl-C), which then
ends the command as killed by SIGINT, with no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import signal
import sys
from pathlib import Path as FsPath

from . import metrics as mx
# bench/tracer.py times the config loaders through this module's names
from .config import (
    ConfigError,
    RunConfig,
    default_config,
    dump_config,
    from_dict,
    load_config,
)
from .engine import (CONTROLLERS, EpisodeAborted, ForkedJobLost, lead_start_on,
                     run_episode, run_forked, usable_cores)
from .platoon import Path, load_path_xy

OUT_ENV_VAR = "PLATOON_ASMC_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ReportNotFinite(ArithmeticError):
    """An episode ran to the end, but an RMS of its report is not finite:
    the errors were too large to square."""


def _say(line: str, stream: str = "stdout") -> None:
    """Write `line` to sys.stdout (or sys.stderr), best-effort. It is escaped
    where the stream's encoding cannot hold it: an output name's undecodable
    bytes are surrogates, which a strict UTF-8 stream rejects. It is dropped
    where the stream is missing, closed, broken or full, and the stream's fd
    then points at os.devnull, so that the flush at exit cannot fail."""
    out = getattr(sys, stream)
    if out is None:  # the fd was closed when the interpreter started
        return
    encoding = out.encoding or "utf-8"  # None for an io.StringIO
    try:
        out.write(line.encode(encoding, "backslashreplace").decode(encoding)
                  + "\n")
        out.flush()
    except (OSError, ValueError):
        with contextlib.suppress(OSError, ValueError), \
                open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), out.fileno())


def _fail(kind: str, message: str) -> int:
    message = " ".join(message.splitlines())  # one line, whatever it quotes
    _say(f"error: kind={kind}; message={message}", "stderr")
    return EXIT_CONFIG if kind == "validation" else EXIT_ABORT


def _load_path(cfg: RunConfig) -> Path | None:
    """The course in cfg.path_file, checked to hold the whole run; None for
    the built-in course."""
    if cfg.path_file is None:
        return None
    try:
        path = load_path_xy(cfg.path_file)
        lead_start_on(path, cfg.platoon, cfg.sim)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[path_file] {exc}") from exc
    return path


def _episode_job(cfg: RunConfig, controller: str, csv_path: str, label: str,
                 path: Path | None = None,
                 processes: int | None = None) -> mx.RmsReport:
    """Run one episode, export its trace and return its RMS report, all that
    a forked job of `run_command` sends back. `label` is the trace's scenario
    hash, and `processes` caps the episode's pipeline groups (see
    `run_episode`). Raises ReportNotFinite, before anything is written, when
    the report is not finite."""
    trace = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, cfg.sim, controller, path=path,
                        scenario_label=label, processes=processes)
    report = mx.report_from_trace(trace, cfg.metrics.warmup_cutoff)
    columns = {"rms_x": report.rms_x, "rms_y": report.rms_y,
               "rms_gap": report.rms_gap}
    bad = {name: list(values) for name, values in columns.items()
           if not all(map(math.isfinite, values))}
    if bad:
        raise ReportNotFinite(
            f"controller={controller}; RMS report not finite: {bad}")
    mx.export_trace(trace, csv_path)
    return report


def run_command(args: argparse.Namespace) -> int:
    try:
        doc = (load_config(args.config) if args.config
               else default_config()).to_dict()
        for node, key, value in ((doc["sim"], "duration", args.duration),
                                 (doc["sim"], "dt_plant", args.dt),
                                 (doc, "controller", args.controller),
                                 (doc, "output_dir", args.out)):
            if value is not None:
                node[key] = value
        cfg = from_dict(doc)
        path = _load_path(cfg)
        label = cfg.scenario_hash()
    except ConfigError as exc:
        return _fail("validation", str(exc))

    out_dir = FsPath(cfg.output_dir or os.environ.get(OUT_ENV_VAR) or "out")
    try:  # the locale decides which names the file system can hold
        os.fsencode(out_dir)
    except UnicodeEncodeError as exc:
        return _fail("validation", f"cannot write output to {out_dir}: {exc}")
    controllers = CONTROLLERS if cfg.controller == "both" else (cfg.controller,)
    say = (lambda *a: None) if args.quiet else _say
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, out_dir / "config_echo.json")
        say(f"running {', '.join(controllers)} "
            f"({cfg.sim.duration:g} s simulated)...")
        # concurrent episodes share the cores between their pipelines
        processes = max(1, usable_cores() // len(controllers))
        jobs = [functools.partial(_episode_job, cfg, c,
                                  str(out_dir / f"trace_{c}.csv"), label,
                                  path, processes) for c in controllers]
        reports = dict(zip(controllers, run_forked(jobs)))

        mx.write_plotspec(out_dir / "plotspec.txt", cfg.platoon.n_robots)
        # baseline first, as `compare_reports` takes them
        ordered = [reports[c] for c in reversed(controllers)]
        comparison = mx.compare_reports(*ordered) if len(ordered) == 2 else None
        report = mx.report_to_json(ordered, comparison)
        text = mx.render_report_text(report)
        (out_dir / "report.txt").write_text(text)
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        return _fail("validation", f"cannot write output to {out_dir}: {exc}")
    except EpisodeAborted as exc:
        return _fail("abort", f"step={exc.step}; t={exc.t:.3f}; "
                              f"robot={exc.robot + 1}; last_record={exc.diagnostic}")
    except (ReportNotFinite, ForkedJobLost, MemoryError) as exc:
        return _fail("abort", str(exc) or "out of memory")

    say(text)
    say(f"artifacts written to {out_dir}/")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A command line it cannot parse is a ConfigError, not a usage block.
    Help goes through `_say` to stdout, or nowhere: argparse would write it
    to stderr where stdout is missing."""

    def error(self, message: str):
        raise ConfigError(message)

    def print_help(self, file=None):
        _say(self.format_help().rstrip("\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="platoon-asmc",
        description="Deterministic differential-drive platoon simulator with "
                    "adaptive sliding mode control.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one or both controller episodes")
    run_p.add_argument("--config", metavar="PATH",
                       help="JSON config file (built-in defaults when omitted)")
    run_p.add_argument("--controller", metavar="|".join((*CONTROLLERS, "both")),
                       help="override the config's controller selection")
    run_p.add_argument("--duration", type=float, metavar="S",
                       help="override simulated duration in seconds")
    run_p.add_argument("--dt", type=float, metavar="S",
                       help="override the plant integration step in seconds")
    run_p.add_argument("--out", metavar="DIR",
                       help=f"output directory (fallback: ${OUT_ENV_VAR}, then ./out)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    run_p.set_defaults(func=run_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        return _fail("validation", str(exc))
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # `run_forked` has killed and reaped its children; die of SIGINT as
        # the default action would, without Python's traceback
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise
