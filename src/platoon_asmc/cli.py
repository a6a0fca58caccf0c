"""Command-line entry point.

`platoon-asmc run` loads a JSON config (built-in defaults when omitted),
applies flag overrides, runs the selected controller episode(s), and writes
traces, reports, the plotspec and the effective-config echo into the output
directory. The episodes run at once (`engine.run_forked`); each writes its
trace and returns its RMS report. Errors come back as a single
machine-parseable line on stderr with a nonzero exit code: a bad config or
an output that cannot be written is exit 2, an aborted episode exit 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
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
from .engine import (CONTROLLERS, EpisodeAborted, ForkedJobLost, _can_fork,
                     lead_start_on, run_episode, run_forked, usable_cores)
from .platoon import Path, load_path_xy

OUT_ENV_VAR = "PLATOON_ASMC_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ReportNotFinite(ArithmeticError):
    """An episode ran to the end, but an RMS of its report is not finite:
    the errors were too large to square."""


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(f"error: kind={kind}; message={message}\n")
    return EXIT_CONFIG if kind == "validation" else EXIT_ABORT


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Command-line flags take precedence over config-file values."""
    if args.controller is not None:
        cfg = dataclasses.replace(cfg, controller=args.controller)
    sim = {k: v for k, v in (("duration", args.duration),
                             ("dt_plant", args.dt)) if v is not None}
    if sim:
        try:
            sim = dataclasses.replace(cfg.sim, **sim)
        except ValueError as exc:
            raise ConfigError(f"[sim] {exc}") from exc
        cfg = dataclasses.replace(cfg, sim=sim)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


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


def _episode_job(cfg: RunConfig, controller: str, csv_path: str,
                 path: Path | None = None,
                 processes: int | None = None) -> mx.RmsReport:
    """Run one episode, export its trace and return its RMS report, all that
    a forked job of `run_command` sends back. `processes` caps the episode's
    pipeline groups (see `run_episode`). Raises ReportNotFinite, before
    anything is written, when the report is not finite."""
    trace = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                        cfg.arena, cfg.sim, controller, path=path,
                        scenario_label=cfg.scenario_hash(), processes=processes)
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
        cfg = load_config(args.config) if args.config else default_config()
        cfg = _apply_overrides(cfg, args)
        path = _load_path(cfg)
    except ConfigError as exc:
        return _fail("validation", str(exc))

    out_dir = FsPath(cfg.output_dir or os.environ.get(OUT_ENV_VAR) or "out")
    controllers = CONTROLLERS if cfg.controller == "both" else (cfg.controller,)
    say = (lambda *a: None) if args.quiet else print
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, out_dir / "config_echo.json")
        say(f"running {', '.join(controllers)} "
            f"({cfg.sim.duration:g} s simulated)...")
        # concurrent episodes share the cores between their pipelines
        processes = max(1, usable_cores() // len(controllers))
        jobs = [functools.partial(_episode_job, cfg, c,
                                  str(out_dir / f"trace_{c}.csv"), path,
                                  processes) for c in controllers]
        reports = dict(zip(controllers, run_forked(jobs) if _can_fork()
                           else [job() for job in jobs]))

        mx.write_plotspec(out_dir / "plotspec.txt", cfg.platoon.n_robots)
        # baseline first, as `compare_reports` takes them
        ordered = [reports[c] for c in reversed(controllers)]
        comparison = mx.compare_reports(*ordered) if len(ordered) == 2 else None
        text = mx.render_report_text(ordered, comparison)
        (out_dir / "report.txt").write_text(text)
        with open(out_dir / "report.json", "w") as fh:
            json.dump(mx.report_to_json(ordered, comparison), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        return _fail("validation", f"cannot write output to {out_dir}: {exc}")
    except EpisodeAborted as exc:
        return _fail("abort", f"step={exc.step}; t={exc.t:.3f}; "
                              f"robot={exc.robot + 1}; last_record={exc.diagnostic}")
    except (ReportNotFinite, ForkedJobLost) as exc:
        return _fail("abort", str(exc))

    say(text)
    say(f"artifacts written to {out_dir}/")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoon-asmc",
        description="Deterministic differential-drive platoon simulator with "
                    "adaptive sliding mode control.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one or both controller episodes")
    run_p.add_argument("--config", metavar="PATH",
                       help="JSON config file (built-in defaults when omitted)")
    run_p.add_argument("--controller", choices=(*CONTROLLERS, "both"),
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
    args = build_parser().parse_args(argv)
    return args.func(args)
