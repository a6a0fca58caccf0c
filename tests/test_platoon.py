import math

import numpy as np
import pytest

from platoon_asmc import (
    PlatoonConfig,
    build_path,
    figure_eight,
    follower_target,
    gap_error,
    load_path_xy,
    nearest_index,
    pose_at_arc,
    reference_pose,
    reference_velocity,
    target_waypoint,
)
from platoon_asmc.engine import SimConfig, default_path_for


def unit_path(n=11):
    return build_path(np.arange(n, dtype=float), np.zeros(n))


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


class TestReferencePose:
    def test_horizontal_tangent(self):
        assert reference_pose(unit_path(), 4)[2] == 0.0

    def test_diagonal_tangent(self):
        n = 20
        p = build_path(np.arange(n, dtype=float), np.arange(n, dtype=float))
        assert math.isclose(reference_pose(p, 7)[2], math.pi / 4, rel_tol=1e-12)

    def test_last_index_uses_backward_difference(self):
        p = unit_path()
        assert reference_pose(p, len(p) - 1)[2] == 0.0

    def test_circle_tangent(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        x, y, th = reference_pose(p, 90)
        assert abs(abs(th) - math.pi) < 0.02


class TestReferenceVelocity:
    def test_straight_line_zero_yaw(self):
        assert reference_velocity(unit_path(), 5, 2.0).omega_d == 0.0

    def test_circle_curvature(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        ref = reference_velocity(p, 90, 2.0)
        assert math.isclose(ref.omega_d, 0.4, rel_tol=0.02)
        assert ref.omega_d > 0  # counter-clockwise circle turns left

    def test_zero_speed_scales_to_zero(self):
        ang = np.deg2rad(np.arange(0, 360))
        p = build_path(5 * np.cos(ang), 5 * np.sin(ang))
        assert reference_velocity(p, 90, 0.0).omega_d == 0.0

    def test_endpoint_curvature_is_zero(self):
        p = unit_path()
        assert reference_velocity(p, 0, 2.0).omega_d == 0.0
        assert reference_velocity(p, len(p) - 1, 2.0).omega_d == 0.0


class TestGapError:
    def test_coincident_robots(self):
        assert gap_error(unit_path(), 4, 4, 1.0) == -1.0

    def test_surplus_gap(self):
        assert gap_error(unit_path(), 7, 4, 1.0) == 2.0

    def test_exact_gap(self):
        assert gap_error(unit_path(), 5, 4, 1.0) == 0.0

    def test_rejects_reversed_order(self):
        with pytest.raises(ValueError):
            gap_error(unit_path(), 3, 5, 1.0)


def test_follower_target_depends_only_on_predecessor_index():
    rng = np.random.default_rng(5)
    p = random_path(rng, 80)
    for leader in (10, 40, 79):
        a = follower_target(p, leader, 3.0, 2.0)
        b = follower_target(p, leader, 3.0, 2.0)
        assert a == b
        assert a.index == target_waypoint(p, leader, 3.0)
        assert a.pose == reference_pose(p, a.index)


class TestFigureEight:
    def test_starts_at_scaled_point(self):
        p = figure_eight(scale=14.0, laps=1)
        assert p.cx[0] == 14.0 and p.cy[0] == 0.0

    def test_uniform_spacing_and_monotone_arc(self):
        p = figure_eight(laps=2)
        seg = np.diff(p.arc)
        assert np.all(seg > 0)
        assert np.max(np.abs(seg - np.mean(seg))) < 0.005

    def test_covers_all_quadrants(self):
        p = figure_eight(laps=1)
        assert np.any((p.cx > 0) & (p.cy > 0))
        assert np.any((p.cx < 0) & (p.cy > 0))
        assert np.any((p.cx < 0) & (p.cy < 0))
        assert np.any((p.cx > 0) & (p.cy < 0))

    def test_lap_tiling_repeats_geometry(self):
        one = figure_eight(laps=1)
        two = figure_eight(laps=2)
        n = len(one)
        assert np.array_equal(two.cx[:n], one.cx)
        assert np.array_equal(two.cx[n:2 * n], one.cx)


class TestPathConstruction:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_path([1.0], [2.0])

    def test_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="coincident"):
            build_path([0.0, 1.0, 1.0], [0.0, 0.0, 0.0])

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

    def test_windowed_search_stays_local(self):
        # figure-eight crosses itself at the origin: with a hint on the first
        # branch the projection must not jump to the other branch
        p = figure_eight(laps=1)
        node = int(np.argmin(p.cx[:len(p) // 2] ** 2 + p.cy[:len(p) // 2] ** 2))
        got = nearest_index(p, 0.01, 0.0, hint=node, window=40)
        assert abs(got - node) <= 40


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
            PlatoonConfig(n_robots=0).validate()
        with pytest.raises(ValueError, match="gap_des"):
            PlatoonConfig(gap_des=0.0).validate()
        with pytest.raises(ValueError, match="v_d"):
            PlatoonConfig(v_d=-1.0).validate()
        with pytest.raises(ValueError, match="start_poses"):
            PlatoonConfig(n_robots=2, start_poses=((0, 0, 0),)).validate()
