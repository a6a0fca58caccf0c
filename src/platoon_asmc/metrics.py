"""Post-episode analysis: RMS tracking/gap metrics, CSV trace I/O, plotspec.

The CSV column contract is fixed: `time`, then for each robot r (1-based)
the 23 per-robot columns in `engine.PER_ROBOT_FIELDS` order prefixed with
`r{n}_`, then one `gap_err_{n}{n+1}` column per consecutive pair. A row is
therefore `t[k]`, the flattened `Trace.rec[k]` and `gap_err[k]`, so export
and load are a reshape of `rec`. Floats are written with repr(), which
round-trips exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .arena import quadrant_of
from .engine import PER_ROBOT_FIELDS, Trace


def rms(series) -> float:
    """Root mean square of a series; empty input is an error. Squares that
    overflow make it inf, without a warning."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValueError("rms of an empty series is undefined")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(arr * arr)))


def quadrant_mask(trace: Trace, robot: int, quadrant: int) -> np.ndarray:
    """Samples where robot `robot` (0-based) is inside the given quadrant
    (1..4, half-open axes convention of `arena.quadrant_of`)."""
    if quadrant not in (1, 2, 3, 4):
        raise ValueError(f"quadrant must be 1..4, got {quadrant}")
    return quadrant_of(trace["x"][:, robot], trace["y"][:, robot]) == quadrant


@dataclass(frozen=True)
class RmsReport:
    """Per-robot x/y tracking RMS and per-pair gap RMS for one episode, its
    fields in the order `report.json` writes them."""

    controller: str
    scenario: str
    warmup_cutoff: float
    rms_x: tuple[float, ...]
    rms_y: tuple[float, ...]
    rms_gap: tuple[float, ...]


def report_from_trace(trace: Trace, warmup_cutoff: float = 0.0) -> RmsReport:
    """Compute the RMS report, optionally discarding an initial warm-up window."""
    keep = trace.t >= warmup_cutoff
    if not np.any(keep):
        raise ValueError(
            f"warmup_cutoff {warmup_cutoff} discards the whole trace")
    ex = trace["e_x"][keep]
    ey = trace["e_y"][keep]
    gaps = trace.gap_err[keep]
    return RmsReport(
        controller=trace.controller,
        scenario=trace.scenario,
        warmup_cutoff=warmup_cutoff,
        rms_x=tuple(rms(ex[:, r]) for r in range(trace.n_robots)),
        rms_y=tuple(rms(ey[:, r]) for r in range(trace.n_robots)),
        rms_gap=tuple(rms(gaps[:, j]) for j in range(gaps.shape[1])),
    )


def _row(metric: str, baseline: float, proposed: float) -> dict:
    return {"metric": metric, "baseline": baseline, "proposed": proposed,
            "improvement_pct": (0.0 if baseline == 0.0 else
                                100.0 * (baseline - proposed) / baseline),
            "proposed_lower": proposed < baseline}


def compare_reports(baseline: RmsReport, proposed: RmsReport) -> list[dict]:
    """The comparison rows of `report.json`, one per RMS metric, each with
    the proposed controller's improvement in percent of the baseline (0.0
    where the baseline is 0); reports must come from the same scenario."""
    if baseline.scenario != proposed.scenario:
        raise ValueError(
            f"scenario mismatch: {baseline.scenario!r} vs {proposed.scenario!r}")
    if len(baseline.rms_x) != len(proposed.rms_x):
        raise ValueError("reports cover different robot counts")
    rows = []
    for r in range(len(baseline.rms_x)):
        rows.append(_row(f"rms_x_robot{r + 1}", baseline.rms_x[r],
                         proposed.rms_x[r]))
        rows.append(_row(f"rms_y_robot{r + 1}", baseline.rms_y[r],
                         proposed.rms_y[r]))
    for j in range(len(baseline.rms_gap)):
        rows.append(_row(f"rms_gap_robot{j + 1}{j + 2}", baseline.rms_gap[j],
                         proposed.rms_gap[j]))
    return rows


def build_report(trace_proposed: Trace, trace_baseline: Trace,
                 warmup_cutoff: float = 0.0
                 ) -> tuple[RmsReport, RmsReport, list[dict]]:
    """Reports for both controllers plus the comparison rows, which
    `compare_reports` refuses for traces of different scenarios."""
    rp = report_from_trace(trace_proposed, warmup_cutoff)
    rb = report_from_trace(trace_baseline, warmup_cutoff)
    return rp, rb, compare_reports(rb, rp)


def report_to_json(reports: list[RmsReport],
                   comparison: list[dict] | None = None) -> dict:
    """The report document: what `report.json` holds and what
    `render_report_text` renders."""
    doc = {"reports": [asdict(rep) for rep in reports]}
    if comparison is not None:
        doc["comparison"] = comparison
    return doc


def render_report_text(doc: dict) -> str:
    """Aligned plain-text rendering of a `report_to_json` document."""
    lines: list[str] = []
    for rep in doc["reports"]:
        lines.append(f"controller={rep['controller']}  "
                     f"scenario={rep['scenario']}  "
                     f"warmup_cutoff={rep['warmup_cutoff']:g}s")
        for r, (x, y) in enumerate(zip(rep["rms_x"], rep["rms_y"]), 1):
            lines.append(f"  robot{r}  rms_x={x:.6f} m  rms_y={y:.6f} m")
        for j, gap in enumerate(rep["rms_gap"], 1):
            lines.append(f"  gap robot{j}-robot{j + 1}  rms={gap:.6f} m")
        lines.append("")
    if "comparison" in doc:
        rows = doc["comparison"]
        w = max(len(row["metric"]) for row in rows)
        lines.append(f"{'metric':<{w}}  {'baseline':>10}  {'proposed':>10}  "
                     f"{'improve%':>8}")
        for row in rows:
            lines.append(f"{row['metric']:<{w}}  {row['baseline']:>10.6f}  "
                         f"{row['proposed']:>10.6f}  "
                         f"{row['improvement_pct']:>8.2f}")
        lines.append("")
    return "\n".join(lines)


def csv_header(n_robots: int) -> list[str]:
    cols = ["time"]
    for r in range(1, n_robots + 1):
        cols.extend(f"r{r}_{name}" for name in PER_ROBOT_FIELDS)
    cols.extend(f"gap_err_{j}{j + 1}" for j in range(1, n_robots))
    return cols


# Rows stacked and converted to Python floats at a time by export_trace; a
# bounded block keeps a long trace from being copied whole.
EXPORT_BLOCK_ROWS = 128


def export_trace(trace: Trace, path) -> None:
    """Write the trace as CSV: fixed header, one row per control step."""
    t, gap = trace.t, trace.gap_err
    per_robot = trace.rec.reshape(trace.n_records, -1)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(csv_header(trace.n_robots)) + "\n")
            for a in range(0, trace.n_records, EXPORT_BLOCK_ROWS):
                b = a + EXPORT_BLOCK_ROWS
                block = np.column_stack((t[a:b], per_robot[a:b], gap[a:b]))
                fh.write("".join(",".join(map(repr, row)) + "\n"
                                 for row in block.tolist()))
    except OSError as exc:
        raise OSError(f"failed writing trace to {path}: {exc}") from exc


def load_trace(path) -> Trace:
    """Read a trace CSV written by `export_trace` back into a Trace whose
    arrays are views into the one array numpy's reader parses. The CSV holds
    no labels, so its controller and scenario are empty."""
    n_fields = len(PER_ROBOT_FIELDS)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n_robots = len(header) // (n_fields + 1)
        if not n_robots or header != csv_header(n_robots):
            raise ValueError(
                f"{path}: header does not match the trace column contract")
        start = fh.tell()
        try:
            if not fh.readline().strip():  # numpy warns on a file with no rows
                raise ValueError("no first row")
            fh.seek(start)
            raw = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if raw.shape[1] != len(header):
                raise ValueError(f"rows of {raw.shape[1]} columns")
        except ValueError as exc:
            raise ValueError(f"{path}: malformed trace rows") from exc
    gap_start = 1 + n_robots * n_fields
    rec = raw[:, 1:gap_start].reshape(len(raw), n_robots, n_fields)
    return Trace(controller="", scenario="", t=raw[:, 0], rec=rec,
                 gap_err=raw[:, gap_start:])


def write_plotspec(path, n_robots: int) -> None:
    """Companion file mapping figure names to trace columns, one per line,
    so an external plotter can reproduce the standard figure set."""
    lines = ["# figure_name: x_column y_columns..."]
    for r in range(1, n_robots + 1):
        lines.append(f"tracking_error_r{r}: time r{r}_e_x r{r}_e_y")
    for r in range(1, n_robots + 1):
        lines.append(f"path_r{r}: r{r}_x r{r}_y r{r}_xref r{r}_yref")
    if n_robots > 1:
        gap_cols = " ".join(f"gap_err_{j}{j + 1}" for j in range(1, n_robots))
        lines.append(f"gap_error: time {gap_cols}")
    for r in range(1, n_robots + 1):
        lines.append(f"sliding_r{r}: time r{r}_s_v r{r}_s_w")
    gain_names = [g for g in PER_ROBOT_FIELDS if g.startswith("K_")]
    for r in range(1, n_robots + 1):
        gains = " ".join(f"r{r}_{g}" for g in gain_names)
        lines.append(f"gains_r{r}: time {gains}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
