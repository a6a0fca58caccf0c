import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from platoon_asmc.metrics import (
    RmsReport,
    build_report,
    compare_reports,
    csv_header,
    export_trace,
    load_trace,
    render_report_text,
    report_from_trace,
    report_to_json,
    rms,
    write_plotspec,
)


class TestRms:
    def test_constant_series(self):
        assert math.isclose(rms([0.1] * 25), 0.1, rel_tol=1e-12)

    def test_two_values(self):
        assert math.isclose(rms([3.0, 4.0]), math.sqrt(12.5), rel_tol=1e-12)

    def test_all_zeros(self):
        assert rms(np.zeros(10)) == 0.0

    def test_empty_series_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            rms([])

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                    max_size=50),
           st.floats(-100, 100, allow_nan=False))
    def test_scale_equivariance(self, xs, c):
        assert math.isclose(rms([c * x for x in xs]), abs(c) * rms(xs),
                            rel_tol=1e-9, abs_tol=1e-9)


class TestReports:
    def test_identical_traces_identical_reports(self, short_traces):
        tr = short_traces["proposed"]
        assert report_from_trace(tr) == report_from_trace(tr)

    def test_report_purity_same_bytes(self, short_traces):
        rp, rb, comp = build_report(short_traces["proposed"],
                                    short_traces["baseline"])
        a = render_report_text(report_to_json([rb, rp], comp))
        b = render_report_text(report_to_json([rb, rp], comp))
        assert a == b
        assert json.dumps(report_to_json([rb, rp], comp)) == \
            json.dumps(report_to_json([rb, rp], comp))

    def test_scenario_mismatch_is_an_error(self, short_traces):
        import dataclasses

        other = dataclasses.replace(short_traces["baseline"], scenario="else")
        with pytest.raises(ValueError, match="scenario"):
            build_report(short_traces["proposed"], other)

    def test_comparison_marks_lower_tracking_rms(self):
        # benchmark-table shape: per-robot x RMS 0.081 (baseline) vs 0.076
        base = RmsReport("baseline", "s", 0.0, (0.081,), (0.063,), ())
        prop = RmsReport("proposed", "s", 0.0, (0.076,), (0.056,), ())
        rows = compare_reports(base, prop)
        assert all(r["proposed_lower"] for r in rows)
        x = next(r for r in rows if r["metric"] == "rms_x_robot1")
        assert math.isclose(x["improvement_pct"], 100 * (0.081 - 0.076) / 0.081)

    def test_comparison_marks_lower_gap_rms(self):
        base = RmsReport("baseline", "s", 0.0, (0.1,), (0.1,), (0.026, 0.050))
        prop = RmsReport("proposed", "s", 0.0, (0.1,), (0.1,), (0.014, 0.036))
        rows = compare_reports(base, prop)
        gaps = [r for r in rows if r["metric"].startswith("rms_gap")]
        assert len(gaps) == 2 and all(r["proposed_lower"] for r in gaps)

    def test_warmup_cutoff_drops_leading_window(self, short_traces):
        tr = short_traces["proposed"]
        full = report_from_trace(tr, 0.0)
        trimmed = report_from_trace(tr, 2.0)
        assert trimmed.warmup_cutoff == 2.0
        assert trimmed != full

    def test_comparison_row_handles_zero_baseline(self):
        base = RmsReport("baseline", "s", 0.0, (0.0,), (0.0,), ())
        prop = RmsReport("proposed", "s", 0.0, (0.01,), (0.02,), ())
        for row in compare_reports(base, prop):
            assert row["improvement_pct"] == 0.0
            assert row["proposed_lower"] is False


class TestTraceCsv:
    def test_header_contract_is_stable(self):
        # golden header: changing the column contract must be deliberate
        assert csv_header(2) == [
            "time",
            "r1_x", "r1_y", "r1_theta", "r1_v", "r1_omega", "r1_xref",
            "r1_yref", "r1_vc", "r1_wc", "r1_F", "r1_tau", "r1_tau_r",
            "r1_tau_l", "r1_s_v", "r1_s_w", "r1_K_v0", "r1_K_v1", "r1_K_w2",
            "r1_K_w0", "r1_K_w1", "r1_K_v2", "r1_e_x", "r1_e_y",
            "r2_x", "r2_y", "r2_theta", "r2_v", "r2_omega", "r2_xref",
            "r2_yref", "r2_vc", "r2_wc", "r2_F", "r2_tau", "r2_tau_r",
            "r2_tau_l", "r2_s_v", "r2_s_w", "r2_K_v0", "r2_K_v1", "r2_K_w2",
            "r2_K_w0", "r2_K_w1", "r2_K_v2", "r2_e_x", "r2_e_y",
            "gap_err_12",
        ]

    def test_row_count_contract(self, short_traces, tmp_path):
        tr = short_traces["proposed"]
        f = tmp_path / "t.csv"
        export_trace(tr, f)
        lines = f.read_text().splitlines()
        assert len(lines) == 1 + tr.n_records

    def test_zero_duration_trace_is_header_plus_one_row(self, cfg, tmp_path):
        import dataclasses

        from platoon_asmc.engine import run_episode

        sim = dataclasses.replace(cfg.sim, duration=0.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, cfg.platoon,
                         cfg.arena, sim, "proposed")
        f = tmp_path / "zero.csv"
        export_trace(tr, f)
        assert len(f.read_text().splitlines()) == 2

    def test_round_trip_preserves_metrics_exactly(self, short_traces, tmp_path):
        tr = short_traces["proposed"]
        f = tmp_path / "t.csv"
        export_trace(tr, f)
        back = load_trace(f)
        a = report_from_trace(tr)
        b = report_from_trace(back)
        for x, y in zip(a.rms_x + a.rms_y + a.rms_gap,
                        b.rms_x + b.rms_y + b.rms_gap):
            assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)

    def test_round_trip_is_bitwise(self, short_traces, tmp_path):
        tr = short_traces["baseline"]
        f = tmp_path / "t.csv"
        export_trace(tr, f)
        back = load_trace(f)
        # bytes, not array_equal: -0.0 and NaN must come back as written
        assert back.rec.shape == tr.rec.shape
        assert back.rec.tobytes() == tr.rec.tobytes()
        assert back.t.tobytes() == tr.t.tobytes()
        assert back.gap_err.tobytes() == tr.gap_err.tobytes()

    def test_export_of_loaded_trace_reproduces_file(self, short_traces,
                                                    tmp_path):
        # a loaded trace's arrays are views into the parsed buffer
        f, g = tmp_path / "f.csv", tmp_path / "g.csv"
        export_trace(short_traces["proposed"], f)
        export_trace(load_trace(f), g)
        assert g.read_bytes() == f.read_bytes()

    def test_export_is_deterministic(self, short_traces, tmp_path):
        tr = short_traces["proposed"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(tr, a)
        export_trace(tr, b)
        assert a.read_bytes() == b.read_bytes()

    def test_export_surfaces_path_in_io_errors(self, short_traces, tmp_path):
        target = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError, match="missing_dir"):
            export_trace(short_traces["proposed"], target)

    @pytest.mark.parametrize("body", [
        lambda rows: [rows[0].rsplit(",", 1)[0]],
        lambda rows: [],
        lambda rows: ["", " "],
        lambda rows: [rows[0], " ", rows[1]],
        lambda rows: [rows[0], rows[1] + ","],
    ], ids=["short_row", "no_rows", "blank_lines_only", "whitespace_line",
            "long_row"])
    def test_load_rejects_malformed_rows(self, short_traces, tmp_path, body):
        f = tmp_path / "t.csv"
        export_trace(short_traces["proposed"], f)
        header, *rows = f.read_text().splitlines()
        f.write_text("\n".join([header, *body(rows)]) + "\n")
        # numpy's reader warns on a file with no rows; none may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="malformed"):
                load_trace(f)

    def test_load_rejects_foreign_header(self, tmp_path):
        f = tmp_path / "t.csv"
        # a foreign column, and a header with no robot's columns at all
        for text in ("time,bogus\n0.0,1.0\n", "time\n0.0\n"):
            f.write_text(text)
            with pytest.raises(ValueError, match="column contract"):
                load_trace(f)


def test_plotspec_lists_known_columns(tmp_path, short_traces):
    f = tmp_path / "plotspec.txt"
    write_plotspec(f, 3)
    known = set(csv_header(3))
    for line in f.read_text().splitlines():
        if line.startswith("#"):
            continue
        _, cols = line.split(":")
        for col in cols.split():
            assert col in known
