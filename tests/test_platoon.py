import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st
from path_oracle import oracle_curvature

from platoon_asmc import platoon as platoon_mod
from platoon_asmc.engine import SimConfig, default_path_for, run_episode
from platoon_asmc.platoon import (
    PROJECTION_WINDOW,
    PlatoonConfig,
    build_path,
    figure_eight_lap,
    follower_target,
    load_path_xy,
    nearest_index,
    nearest_index_from,
    nearest_index_unguarded,
    pose_at_arc,
    target_waypoint,
)


def figure_eight(laps):
    """The built-in lap, tiled `laps` times."""
    lap_x, lap_y = figure_eight_lap()
    return build_path(np.tile(lap_x, laps), np.tile(lap_y, laps))


def unit_path(n=11):
    return build_path(np.arange(n, dtype=float), np.zeros(n))


def waypoint_pose(path, index):
    """(x, y, theta) of the follower reference at waypoint `index`, which a
    zero gap targets."""
    return follower_target(path, index, 0.0)[:3]


def waypoint_twist(path, index, v_d):
    """The yaw rate omega_d the engine derives from the reference at waypoint
    `index`, curvature * v_d."""
    return follower_target(path, index, 0.0)[3] * v_d


def brute_force_target(path, leader_index, gap_des):
    """Independent oracle: largest index whose arc distance to the leader is
    at least gap_des, by scanning every index."""
    for i in range(leader_index, -1, -1):
        if path.arc[leader_index] - path.arc[i] >= gap_des:
            return i
    return 0


def random_path(rng, n):
    # strictly advancing x plus jitter in y keeps consecutive points distinct
    steps = rng.uniform(0.05, 2.0, size=n - 1)
    xs = np.concatenate(([0.0], np.cumsum(steps)))
    ys = rng.uniform(-1.0, 1.0, size=n)
    return build_path(xs, ys)


class TestTargetWaypoint:
    def test_one_segment_back(self):
        assert target_waypoint(unit_path(), 5, 1.0) == 4

    def test_zero_gap_returns_leader_index(self):
        assert target_waypoint(unit_path(), 5, 0.0) == 5

    def test_fractional_gap_overshoots_backward(self):
        # distance accumulates 1, 2, 3; 2.5 is first reached at index 2
        assert target_waypoint(unit_path(), 5, 2.5) == 2

    def test_clamps_at_path_start(self):
        assert target_waypoint(unit_path(), 2, 50.0) == 0

    def test_invalid_leader_index(self):
        with pytest.raises(ValueError):
            target_waypoint(unit_path(), 11, 1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_path(rng, int(rng.integers(2, 60)))
            leader = int(rng.integers(0, len(p)))
            gap = float(rng.uniform(0, p.total_length * 1.2))
            assert target_waypoint(p, leader, gap) == \
                brute_force_target(p, leader, gap)

    def test_monotone_in_gap(self):
        rng = np.random.default_rng(3)
        p = random_path(rng, 40)
        leader = 35
        gaps = np.linspace(0, p.total_length, 200)
        idx = [target_waypoint(p, leader, g) for g in gaps]
        assert all(a >= b for a, b in zip(idx, idx[1:]))

    def test_overshoot_bound(self):
        rng = np.random.default_rng(11)
        max_seg = None
        for _ in range(50):
            p = random_path(rng, 30)
            seg = np.diff(p.arc)
            max_seg = float(np.max(seg))
            leader = 29
            gap = float(rng.uniform(0, p.total_length))
            i = target_waypoint(p, leader, gap)
            actual = float(p.arc[leader] - p.arc[i])
            if i > 0:
                assert gap <= actual < gap + max_seg
            else:
                assert actual >= min(gap, p.arc[leader] - p.arc[0]) - 1e-12


@pytest.mark.parametrize("gap", [1.0, 4.0])
def test_target_matches_oracle_at_every_index_of_default_path(gap):
    # the 20 s default course: 5 872 uniformly spaced points over two laps,
    # where a 4 m gap spans about 80 segments
    path, _ = default_path_for(PlatoonConfig(), SimConfig(duration=20.0))
    assert len(path) == 5872
    for leader in range(len(path)):
        assert target_waypoint(path, leader, gap) == \
            brute_force_target(path, leader, gap), leader


class TestHintedSearch:
    """`target_waypoint` from any hint is the hintless search and the
    brute-force arc search: hints below 0 and past the leader (clipped),
    far from the answer, next to it and on it."""

    @pytest.fixture(scope="class")
    def paths(self):
        course, _ = default_path_for(PlatoonConfig(), SimConfig(duration=600.0))
        line = build_path([0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        subnormal = build_path(np.arange(40) * 5e-324, np.zeros(40))
        return course, line, subnormal

    @pytest.mark.parametrize("gap", [0.0, 5e-324, 1e-322, 1.0, 4.0, 1e9])
    def test_any_hint_gives_the_same_index(self, paths, gap):
        rng = np.random.default_rng(30)
        for p in paths:
            n = len(p)
            leaders = {0, 1, n // 2, n - 2, n - 1,
                       *rng.integers(0, n, 150).tolist()}
            for leader in sorted(i for i in leaders if 0 <= i < n):
                want = target_waypoint(p, leader, gap)
                assert want == brute_force_target(p, leader, gap), leader
                hints = {-1, -10 ** 12, leader, leader + 1, leader + 10 ** 12,
                         0, n - 1, want - 1, want, want + 1, want - 100,
                         want + 100, *rng.integers(0, n, 120).tolist()}
                for hint in hints:
                    assert target_waypoint(p, leader, gap, hint) == want, \
                        (leader, hint)

    @pytest.mark.parametrize("gap", [1.0, 4.0])
    def test_the_engine_s_hints_along_the_default_course(self, gap):
        # the leader's marker walks the 20 s course one vertex a step, and
        # each search starts from the last target, as the engine's do
        path, _ = default_path_for(PlatoonConfig(), SimConfig(duration=20.0))
        last = None
        for leader in range(len(path)):
            last = target_waypoint(path, leader, gap, last)
            assert last == brute_force_target(path, leader, gap), leader


class TestReferencePose:
    def test_horizontal_tangent(self):
        assert waypoint_pose(unit_path(), 4)[2] == 0.0

    def test_diagonal_tangent(self):
        n = 20
        p = build_path(np.arange(n, dtype=float), np.arange(n, dtype=float))
        assert math.isclose(waypoint_pose(p, 7)[2], math.pi / 4, rel_tol=1e-12)

    def test_last_index_uses_backward_difference(self):
        p = unit_path()
        assert waypoint_pose(p, len(p) - 1)[2] == 0.0

    def test_circle_tangent(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        x, y, th = waypoint_pose(p, 90)
        assert abs(abs(th) - math.pi) < 0.02


class TestReferenceVelocity:
    def test_straight_line_zero_yaw(self):
        assert waypoint_twist(unit_path(), 5, 2.0) == 0.0

    def test_circle_curvature(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        omega_d = waypoint_twist(p, 90, 2.0)
        assert math.isclose(omega_d, 0.4, rel_tol=0.02)
        assert omega_d > 0  # counter-clockwise circle turns left

    def test_zero_speed_scales_to_zero(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        assert waypoint_twist(p, 90, 0.0) == 0.0

    def test_endpoint_curvature_is_zero(self):
        p = unit_path()
        assert waypoint_twist(p, 0, 2.0) == 0.0
        assert waypoint_twist(p, len(p) - 1, 2.0) == 0.0


class TestGapError:
    """The engine's gap_err column: arc length between consecutive robots'
    nearest path indices minus the desired gap, at the first record."""

    @staticmethod
    def first_gap(cfg, front_x, rear_x):
        course = build_path(np.arange(200, dtype=float), np.zeros(200))
        platoon = PlatoonConfig(n_robots=2, gap_des=1.0, v_d=1.0,
                                start_poses=((front_x, 0.0, 0.0),
                                             (rear_x, 0.0, 0.0)))
        sim = dataclasses.replace(cfg.sim, duration=0.0)
        tr = run_episode(cfg.robot, cfg.kinematic, cfg.asmc, platoon,
                         cfg.arena, sim, "proposed", path=course)
        return tr.gap_err[0, 0]

    def test_coincident_robots(self, cfg):
        assert self.first_gap(cfg, 4.0, 4.0) == -1.0

    def test_surplus_gap(self, cfg):
        assert self.first_gap(cfg, 7.0, 4.0) == 2.0

    def test_exact_gap(self, cfg):
        assert self.first_gap(cfg, 5.0, 4.0) == 0.0


def test_follower_target_depends_only_on_predecessor_index():
    rng = np.random.default_rng(5)
    p = random_path(rng, 80)
    for leader in (10, 40, 79):
        a = follower_target(p, leader, 3.0)
        b = follower_target(p, leader, 3.0)
        assert a == b
        index = target_waypoint(p, leader, 3.0)
        assert a == follower_target(p, index, 0.0)
        assert a[:2] == (p.cx[index], p.cy[index])


class TestFigureEight:
    def test_starts_at_scaled_point(self):
        p = figure_eight(1)
        assert p.cx[0] == 14.0 and p.cy[0] == 0.0

    def test_uniform_spacing_and_monotone_arc(self):
        p = figure_eight(2)
        seg = np.diff(p.arc)
        assert np.all(seg > 0)
        assert np.max(np.abs(seg - np.mean(seg))) < 0.005

    def test_covers_all_quadrants(self):
        p = figure_eight(1)
        assert np.any((p.cx > 0) & (p.cy > 0))
        assert np.any((p.cx < 0) & (p.cy > 0))
        assert np.any((p.cx < 0) & (p.cy < 0))
        assert np.any((p.cx > 0) & (p.cy < 0))

    def test_lap_tiling_repeats_geometry(self):
        one = figure_eight(1)
        two = figure_eight(2)
        n = len(one)
        assert np.array_equal(two.cx[:n], one.cx)
        assert np.array_equal(two.cx[n:2 * n], one.cx)


class TestCurvatureMatchesScalarOracle:
    """`build_path`'s curvature, computed for all vertices at once, against
    the vertex-by-vertex `path_oracle`, bytes compared: a NaN and the sign of
    a zero count."""

    @staticmethod
    def check(p):
        oracle = np.array(oracle_curvature(p.cx, p.cy))
        assert p.curvature.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("laps", [1, 2, 3, 4])
    def test_tiled_default_lap(self, laps):
        self.check(figure_eight(laps))

    def test_course_of_the_shipped_600_s_run(self, cfg):
        sim = dataclasses.replace(cfg.sim, duration=600.0)
        path, _ = default_path_for(cfg.platoon, sim)
        assert len(path) == 20 * len(figure_eight_lap()[0])
        self.check(path)

    def test_random_courses_from_1e_minus_300_to_1e200(self):
        # at the small scales the products underflow to a zero denominator,
        # at the large ones the cross product overflows to a NaN; a lattice
        # gives exact zeros of both signs and back-tracks (a zero chord)
        rng = np.random.default_rng(7)
        nan_courses = 0
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            scale = 10.0 ** rng.uniform(-300.0, 200.0)
            xs, ys = rng.uniform(-1.0, 1.0, (2, n))
            if rng.random() < 0.25:
                xs, ys = np.round(3.0 * xs), np.round(3.0 * ys)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    p = build_path(xs * scale, ys * scale)
                except ValueError:  # coincident lattice points
                    continue
            nan_courses += bool(np.isnan(p.curvature).any())
            self.check(p)
        assert nan_courses > 10


class TestPathConstruction:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_path([1.0], [2.0])

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="coincident"):
            build_path([0.0, 1.0, 1.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("xs", [[1e308, -1e308], [1e308, 0.0, -1e308]],
                             ids=["segment", "arc"])
    def test_rejects_length_that_overflows_without_warning(self, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                build_path(xs, [0.0] * len(xs))

    def test_arrays_are_read_only_copies(self):
        xs, ys = np.arange(5.0), np.zeros(5)
        p = build_path(xs, ys)
        for name in ("cx", "cy", "arc", "tangent", "curvature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 1.0
        xs[0] = ys[0] = 1.0  # the caller's arrays stay its own
        assert p.cx[0] == p.cy[0] == 0.0

    def test_pickled_path_gives_the_same_arrays_and_projections(self):
        p = figure_eight(2)
        p.clear2
        q = pickle.loads(pickle.dumps(p))
        for name in ("cx", "cy", "arc", "tangent", "curvature"):
            assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
            assert not getattr(q, name).flags.writeable
        # the clearance table is not pickled, but built again on first use
        assert "clear2" not in vars(q)
        assert q.clear2.tobytes() == p.clear2.tobytes()
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-15.0, 15.0, (200, 2)).tolist():
            hint = int(rng.integers(0, len(p)))
            assert nearest_index(q, x, y) == nearest_index(p, x, y)
            assert nearest_index(q, x, y, hint) == nearest_index(p, x, y, hint)
            # the walk, from the hint and from the vertex nearest (x, y)
            near = nearest_index(p, x, y)
            for start in (hint, near):
                assert nearest_index_from(q, x, y, start) == \
                    nearest_index_from(p, x, y, start) == \
                    nearest_index(p, x, y, start)
            assert follower_target(q, hint, 1.0) == follower_target(p, hint, 1.0)
            s = float(rng.uniform(0.0, p.total_length))
            assert pose_at_arc(q, s) == pose_at_arc(p, s)

    def test_load_path_file(self, tmp_path):
        f = tmp_path / "course.txt"
        f.write_text("# comment\n0.0 0.0\n1.0 0.0\n2.0 1.0\n")
        p = load_path_xy(str(f))
        assert len(p) == 3
        assert p.cy[2] == 1.0

    def test_load_path_rejects_bad_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.0 0.0\n1.0\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_path_xy(str(f))

    def test_load_path_names_line_of_non_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.0 0.0\n1.0 0.0\n2.0 one\n")
        with pytest.raises(ValueError, match="bad.txt:3"):
            load_path_xy(str(f))


class TestNearestIndex:
    def test_simple_projection(self):
        p = unit_path()
        assert nearest_index(p, 4.3, 0.2) == 4
        assert nearest_index(p, 4.7, -0.1) == 5

    def test_tie_breaks_toward_larger_index(self):
        assert nearest_index(unit_path(), 4.5, 0.0) == 5

    def test_rejects_a_hint_outside_the_path_or_a_negative_window(self):
        line = build_path(np.arange(1000.0), np.zeros(1000))
        for hint, window, match in ((-500, 200, "hint -500 outside"),
                                    (1500, 200, "hint 1500 outside"),
                                    (500, -5, "window must be >= 0, got -5")):
            with pytest.raises(ValueError, match=match):
                nearest_index(line, 300.0, 0.0, hint=hint, window=window)

    def test_windowed_search_stays_local(self):
        # figure-eight crosses itself at the origin: with a hint on the first
        # branch the projection must not jump to the other branch
        p = figure_eight(1)
        node = int(np.argmin(p.cx[:len(p) // 2] ** 2 + p.cy[:len(p) // 2] ** 2))
        got = nearest_index(p, 0.01, 0.0, hint=node, window=40)
        assert abs(got - node) <= 40


def brute_force_nearest(path, x, y, hint=None, window=200):
    """Independent oracle for nearest_index: scan the window in Python
    floats; a NaN distance wins (as numpy's argmin has it), and among equal
    distances the larger index wins."""
    if hint is None:
        lo, hi = 0, len(path)
    else:
        lo, hi = max(0, hint - window), min(len(path), hint + window + 1)
    best, best_d = None, None
    for i in range(lo, hi):
        dx = float(path.cx[i]) - x
        dy = float(path.cy[i]) - y
        d = dx * dx + dy * dy
        if math.isnan(d) or best_d is None or \
                (not math.isnan(best_d) and d <= best_d):
            best, best_d = i, d
    return best


class TestNearestIndexOracle:
    def check(self, path, x, y, hint=None, window=200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_index(path, x, y, hint, window)
        assert got == brute_force_nearest(path, x, y, hint, window), \
            (x, y, hint, window)

    def test_random_points_and_windows(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = random_path(rng, int(rng.integers(2, 80)))
            x = float(rng.uniform(-5, p.cx[-1] + 5))
            y = float(rng.uniform(-3, 3))
            hint = None if rng.random() < 0.2 else int(rng.integers(0, len(p)))
            self.check(p, x, y, hint, int(rng.integers(0, 30)))

    def test_ties_pick_the_larger_index(self):
        p = unit_path()
        for x in (0.5, 4.5, 9.5):
            self.check(p, x, 0.0)
            self.check(p, x, 0.0, hint=5, window=3)
        # equidistant from every vertex of a circle: the last one wins
        ang = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        self.check(build_path(np.cos(ang), np.sin(ang)), 0.0, 0.0)

    def test_path_ends(self):
        p = unit_path()
        for hint in (0, 1, len(p) - 2, len(p) - 1):
            for window in (0, 1, 5, 100):
                self.check(p, -3.0, 0.5, hint, window)
                self.check(p, 14.0, -0.5, hint, window)

    def test_huge_and_nan_coordinates(self):
        p = figure_eight(1)
        for x, y in ((1e200, 0.0), (-1e200, 1e200), (0.0, -1e200),
                     (math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0)):
            self.check(p, x, y)
            self.check(p, x, y, hint=10, window=40)
            self.check(p, x, y, hint=len(p) - 1, window=40)

    def test_unguarded_at_the_engine_window_on_long_paths(self):
        """The engine's call: `nearest_index_unguarded` in one errstate,
        window 200, on paths of more than 401 vertices, with hints that
        clip the window at either end. On the zigzag every other vertex
        ties at (0, 0), and every vertex at (0.5, 0)."""
        n = 600
        zigzag = build_path(np.tile([0.0, 1.0], n // 2), np.zeros(n))
        points = ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (250.5, 0.0),
                  (0.01, 0.0), (math.nan, 0.0), (0.0, math.nan),
                  (math.inf, 0.0), (-math.inf, 1.0), (0.0, math.inf),
                  (1.0, -math.inf), (1e200, 0.0), (-1e200, 1e200),
                  (0.0, -1e200))
        for p in (zigzag, unit_path(n), figure_eight(1)):
            m = len(p)
            for hint in (0, 1, 2, 100, 199, 200, 201, 202, m // 2, m - 203,
                         m - 202, m - 201, m - 200, m - 101, m - 2, m - 1):
                for x, y in points:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with np.errstate(over="ignore"):
                            got = nearest_index_unguarded(p, x, y, hint, 200)
                    assert got == brute_force_nearest(p, x, y, hint, 200), \
                        (m, x, y, hint)


@st.composite
def projections(draw):
    """(path, x, y, hint) for the walk. The course, in units of a step
    that may be subnormal or make squared distances overflow: a random
    course, a line, a hairpin (out and back at a small offset), a zigzag
    whose every other vertex coincides, or laps of a polygon whose copies
    coincide; 2 to 600 vertices. The position: near the course a few
    vertices from the hint, far off it, or NaN, +-inf, +-1e200 or 0 per
    coordinate."""
    n = draw(st.sampled_from((2, 3)) | st.integers(2, 600))
    step = draw(st.sampled_from((5e-324, 1e-320, 2.2e-308, 1e-300, 1.0,
                                 1e150)) | st.floats(1e-3, 2.0))
    shape = draw(st.sampled_from(("random", "line", "hairpin", "zigzag",
                                  "laps")))
    i = np.arange(n, dtype=float)
    if shape == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        xs = np.cumsum(rng.uniform(1.0, 3.0, n))
        ys = rng.uniform(-2.0, 2.0, n)
    elif shape == "line":
        xs, ys = i, np.zeros(n)
    elif shape == "hairpin":
        m = (n + 1) // 2
        xs = np.concatenate((i[:m], i[:n - m][::-1]))
        ys = np.where(i < m, 0.0, draw(st.sampled_from((1e-3, 0.1, 1.0, 3.0))))
    elif shape == "zigzag":
        xs, ys = i % 2, np.zeros(n)
    else:
        k = draw(st.integers(3, 40))
        ang = 2.0 * math.pi * (i % k) / k
        xs, ys = np.cos(ang) * k / 6.0, np.sin(ang) * k / 6.0
    try:
        path = build_path(xs * step, ys * step)
    except ValueError:  # a step that rounds two vertices together
        reject()
    hint = min(draw(st.sampled_from((0, 1, n - 2, n - 1)) |
                    st.integers(0, n - 1)), n - 1)
    where = draw(st.sampled_from(("near", "near", "near", "far", "special")))
    if where == "near":
        # on the chord from a vertex j a few from the hint to a vertex k:
        # one or two along (half way to the next is a tie), the vertex
        # across a hairpin, or any; then off it by up to 1.5 steps
        cx, cy = path._cx, path._cy
        j = min(max(hint + draw(st.integers(-4, 4)), 0), n - 1)
        k = min(max(draw(st.sampled_from((j - 2, j - 1, j + 1, j + 2,
                                          n - 1 - j)) |
                         st.integers(0, n - 1)), 0), n - 1)
        t = draw(st.sampled_from((0.0, 0.5, 0.45, 0.55)) | st.floats(0.0, 1.0))
        off = st.just(0.0) | st.floats(-0.3, 0.3) | st.floats(-1.5, 1.5)
        x = cx[j] + t * (cx[k] - cx[j]) + draw(off) * step
        y = cy[j] + t * (cy[k] - cy[j]) + draw(off) * step
    elif where == "far":
        x, y = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    else:
        special = st.sampled_from((math.nan, math.inf, -math.inf, 1e200,
                                   -1e200, 0.0))
        x, y = draw(special), draw(special)
    return path, x, y, hint


class TestWalk:
    """`nearest_index_from`, the engine's projection: the walk from the last
    marker where its certificate holds, the scan where it does not."""

    @settings(max_examples=300, deadline=None)
    @given(projections())
    def test_walk_is_the_scan_at_the_engine_window(self, case):
        path, x, y, hint = case
        scans = []
        scan = platoon_mod.nearest_index_unguarded

        def counted(*args):
            scans.append(args)
            return scan(*args)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                want = scan(path, x, y, hint)
                platoon_mod.nearest_index_unguarded = counted
                try:
                    got = nearest_index_from(path, x, y, hint)
                finally:
                    platoon_mod.nearest_index_unguarded = scan
        event("fell back to the scan" if scans else "certified")
        assert got == want == \
            brute_force_nearest(path, x, y, hint, PROJECTION_WINDOW)

    @pytest.mark.parametrize("period", range(PROJECTION_WINDOW + 1,
                                             PROJECTION_WINDOW + 7))
    def test_a_lap_at_the_window_edge_is_seen(self, period):
        """A spiral whose laps lie 0.8 spacings apart: the vertex a lap
        back, 201-206 vertices away, is nearest to a point three fifths of
        the way to it, and lies in the scan's window of a hint up to six
        vertices behind the vertex the walk would stop at."""
        i = np.arange(3 * period)
        r = period / (2.0 * math.pi) + 0.8 * i / period
        ang = 2.0 * math.pi * i / period
        p = build_path(r * np.cos(ang), r * np.sin(ang))
        with np.errstate(over="ignore"):
            for j in range(period + 5, period + 15):
                for t in (0.4, 0.5, 0.6):
                    x = p.cx[j] + t * (p.cx[j - period] - p.cx[j])
                    y = p.cy[j] + t * (p.cy[j - period] - p.cy[j])
                    for hint in range(j - 6, j + 7):
                        assert nearest_index_from(p, x, y, hint) == \
                            nearest_index_unguarded(p, x, y, hint), (j, t, hint)

    def test_ties_go_to_the_larger_index(self):
        # half way between vertices 4 and 5, from either side
        p = unit_path()
        for hint in range(2, 8):
            assert nearest_index_from(p, 4.5, 0.0, hint) == 5, hint

    def test_a_vertex_two_along_is_seen(self):
        # from 0 or 2 the walk stops, since vertex 1 is farther; the other
        # of the two is nearer
        p = build_path([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 0.0, 0.0])
        assert nearest_index_from(p, 1.1, 0.0, 0) == 2
        assert nearest_index_from(p, 0.9, 0.0, 2) == 0

    def test_mirrored_course_has_the_same_clearance(self):
        rng = np.random.default_rng(5)
        for p in (figure_eight(2), random_path(rng, 300), unit_path(3)):
            for xs, ys in ((-p.cx, p.cy), (p.cx, -p.cy), (-p.cx, -p.cy)):
                assert build_path(xs, ys).clear2.tobytes() == \
                    p.clear2.tobytes()

    def test_clearance_is_zero_where_it_cannot_certify(self):
        # no vertex two away, a subnormal chord, an overflowing chord
        for xs in ([0.0, 1.0], [0.0, 5e-324, 1e-323], [-1e308, 0.0, 7e307]):
            assert not any(build_path(xs, [0.0] * len(xs)).clear2)
        # laps of a triangle: each vertex coincides with one three away
        tri = build_path(np.tile([0.0, 1.0, 0.0], 4), np.tile([0.0, 0.0, 1.0], 4))
        assert not any(tri.clear2)


def numpy_pose_at_arc(path, s):
    """pose_at_arc written on numpy scalars, as the reference for the
    float-only implementation."""
    arc = path.arc
    if s <= 0.0:
        return tuple(float(a[0]) for a in (path.cx, path.cy, path.tangent,
                                           path.curvature))
    if s >= arc[-1]:
        return tuple(float(a[-1]) for a in (path.cx, path.cy, path.tangent,
                                            path.curvature))
    j = int(np.searchsorted(arc, s, side="right")) - 1
    w = (s - arc[j]) / (arc[j + 1] - arc[j])
    return tuple(float(a[j] + w * (a[j + 1] - a[j]))
                 for a in (path.cx, path.cy, path.tangent, path.curvature))


def numpy_reference_pose(path, index):
    j = index if index < len(path) - 1 else index - 1
    theta = math.atan2(path.cy[j + 1] - path.cy[j], path.cx[j + 1] - path.cx[j])
    return float(path.cx[index]), float(path.cy[index]), theta


def same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


class TestReferenceSamplingIsExact:
    @pytest.fixture(scope="class")
    def paths(self):
        # steps of a few subnormals, then steps near 1
        rng = np.random.default_rng(5)
        subnormal = build_path(
            np.concatenate((np.arange(20) * 5e-324, 1.0 + np.arange(20))),
            np.concatenate((rng.integers(-2, 3, 20) * 5e-324,
                            rng.uniform(-1.0, 1.0, 20))))
        cached, _ = default_path_for(PlatoonConfig(), SimConfig(duration=20.0))
        return (figure_eight(2), random_path(np.random.default_rng(2), 300),
                subnormal, cached)

    def test_pose_at_arc_at_every_vertex_and_random_arc(self, paths):
        rng = np.random.default_rng(21)
        for p in paths:
            midpoints = p.arc[:-1] + np.diff(p.arc) / 2
            ss = p.arc.tolist() + midpoints.tolist() + rng.uniform(
                -1.0, p.total_length + 1.0, size=2000).tolist()
            for s in ss:
                assert same_bits(pose_at_arc(p, s), numpy_pose_at_arc(p, s)), s

    def test_reference_pose_and_velocity_at_every_vertex(self, paths):
        for p in paths:
            for i in range(len(p)):
                x, y, theta, kappa, index = follower_target(p, i, 0.0)
                assert index == i
                assert same_bits((x, y, theta), numpy_reference_pose(p, i)), i
                assert same_bits(kappa, float(p.curvature[i])), i


class TestPoseAtArc:
    def test_interpolates_linearly(self):
        p = unit_path()
        x, y, th, k = pose_at_arc(p, 2.5)
        assert math.isclose(x, 2.5, rel_tol=1e-12)
        assert y == 0.0 and th == 0.0 and k == 0.0

    def test_clamps_to_extent(self):
        p = unit_path()
        assert pose_at_arc(p, -5.0)[0] == 0.0
        assert pose_at_arc(p, 500.0)[0] == 10.0

    def test_heading_is_continuous_on_circle(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        ss = np.linspace(0, p.total_length * 0.999, 2000)
        ths = np.array([pose_at_arc(p, s)[2] for s in ss])
        assert np.max(np.abs(np.diff(ths))) < 0.02


class TestPlatoonConfig:
    def test_validates_counts_and_gaps(self):
        with pytest.raises(ValueError, match="n_robots"):
            PlatoonConfig(n_robots=0)
        with pytest.raises(ValueError, match="gap_des"):
            PlatoonConfig(gap_des=0.0)
        with pytest.raises(ValueError, match="v_d"):
            PlatoonConfig(v_d=-1.0)
        # an infinite gap puts the leader's own slot at arc 0 * inf = nan
        with pytest.raises(ValueError, match="gap_des must be finite"):
            PlatoonConfig(n_robots=1, gap_des=math.inf)
        with pytest.raises(ValueError, match="v_d must be finite"):
            PlatoonConfig(v_d=math.inf)
        with pytest.raises(ValueError, match="start_poses"):
            PlatoonConfig(n_robots=2, start_poses=((0, 0, 0),))

    # what `run_episode` cannot use: a count that no list of robots has (an
    # OverflowError or a TypeError there), a pose it cannot index, and one
    # whose fourth entry it would drop
    @pytest.mark.parametrize("fields,name", [
        ({"n_robots": 10**30}, "n_robots"),
        ({"n_robots": 2.5}, "n_robots"),
        ({"n_robots": True}, "n_robots"),
        ({"n_robots": 1, "start_poses": ((0.0, 0.0),)}, r"start_poses\[0\]"),
        ({"n_robots": 2, "start_poses": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0))},
         r"start_poses\[1\]"),
    ], ids=["n_robots_huge", "n_robots_float", "n_robots_bool", "pose_of_two",
            "pose_of_four"])
    def test_rejects_what_an_episode_cannot_use(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            PlatoonConfig(**fields)
