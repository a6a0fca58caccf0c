"""Reference generation for the platoon.

A `Path` is an ordered list of waypoints with cumulative arc length. The
built-in course is a figure-eight (lemniscate) resampled at uniform arc
spacing and tiled over as many laps as an episode needs, so follower targeting
can stay a plain search over one array with no wrap-around logic.

Each robot's progress along the course is its path marker, the nearest
waypoint within PROJECTION_WINDOW vertices of its last one, ties to the
larger index. Per step the engine finds it by a walk of a few vertices from
the last marker, which a per-vertex clearance certifies to be the windowed
scan's answer; where the certificate fails, it runs the scan.

Followers target the waypoint a desired arc gap behind their predecessor
(a search on the cumulative arc length that gallops from the follower's
previous target, then bisects). The leader tracks a smooth time-parameterized
reference sampled by arc length, with the tangent and curvature interpolated
between waypoints.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arena import finite, require

DEFAULT_SPACING = 0.05
# The projection searches this many vertices either side of its hint.
PROJECTION_WINDOW = 200
# The walk moves at most this many vertices from its hint.
WALK_MOVES = 3


@dataclass(frozen=True)
class Path:
    """Waypoint polyline with per-vertex arc length, tangent and curvature.

    cx, cy are the waypoint coordinates; arc[i] is the cumulative arc length
    at vertex i (arc[0] == 0). tangent is the unwrapped tangent angle and
    curvature the signed discrete (Menger) curvature per vertex, both used by
    the interpolating reference sampler.

    The arrays are read-only, since a course may be shared between episodes
    and threads. For the per-step reads a Path also keeps float views of
    them (`_cx` ... `_curvature`), which index to a Python float at less
    cost than `ndarray.item`.

    `clear2` is the walk's certificate table, built on first use (see
    `nearest_index_from`).
    """

    cx: np.ndarray
    cy: np.ndarray
    arc: np.ndarray
    tangent: np.ndarray
    curvature: np.ndarray

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "arc", "tangent", "curvature"):
            values = getattr(self, name)
            values.flags.writeable = False
            object.__setattr__(self, "_" + name, memoryview(values))

    def __reduce__(self):
        # the views do not pickle; the constructor makes them again
        return Path, (self.cx, self.cy, self.arc, self.tangent, self.curvature)

    def __len__(self) -> int:
        return len(self.cx)

    @cached_property
    def clear2(self) -> memoryview:
        """Float view of each vertex w's clearance: the least squared chord
        |c_j - c_w|^2 over 2 <= |j - w| <= PROJECTION_WINDOW + WALK_MOVES,
        rounded down by a relative 1e-9, far more than the rounding of any
        squared distance, and 0 where that is not a normal float (no such
        j, a chord that overflows or one so short that distances near it
        round by more). Built in numpy at 8 bytes per vertex, one pass per
        offset; two threads may both build it, and get equal tables."""
        cx, cy = self.cx, self.cy
        n = len(cx)
        clear = np.full(n, np.inf)
        dx, dy = np.empty(n), np.empty(n)
        with np.errstate(all="ignore"):
            for k in range(2, min(PROJECTION_WINDOW + WALK_MOVES, n - 1) + 1):
                chord, tmp = dx[k:], dy[k:]
                np.subtract(cx[k:], cx[:-k], out=chord)
                np.subtract(cy[k:], cy[:-k], out=tmp)
                chord *= chord
                tmp *= tmp
                chord += tmp
                np.minimum(clear[k:], chord, out=clear[k:])
                np.minimum(clear[:-k], chord, out=clear[:-k])
            clear *= 1.0 - 1e-9
        clear[~((clear >= np.finfo(float).tiny) & (clear < np.inf))] = 0.0
        clear.flags.writeable = False
        return memoryview(clear)

    @property
    def total_length(self) -> float:
        return float(self.arc[-1])


def build_path(cx, cy) -> Path:
    """Construct a Path from raw coordinates, validating its invariants.

    The curvature of an interior vertex is the signed curvature of the circle
    through it and its two neighbours (positive = left turn; 0 for collinear
    points): 2 (u x w) / (|u| |w| |u + w|) for its two segments u and w. It
    is 0 at both ends. The lengths are `math.hypot`'s, which `np.hypot` does
    not round alike. The Path gets copies of the coordinates, since it makes
    its arrays read-only.
    """
    cx = np.array(cx, dtype=float)
    cy = np.array(cy, dtype=float)
    if cx.ndim != 1 or cx.shape != cy.shape:
        raise ValueError("path coordinates must be two equal-length 1-D arrays")
    if len(cx) < 2:
        raise ValueError(f"path needs at least 2 waypoints, got {len(cx)}")
    if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
        raise ValueError("path coordinates must be finite")
    # A path too long for floats overflows here, and is rejected; a
    # curvature that overflows is inf or nan. Neither warns.
    with np.errstate(all="ignore"):
        ux, uy = np.diff(cx), np.diff(cy)
        seg = np.hypot(ux, uy)
        arc = np.concatenate(([0.0], np.cumsum(seg)))
        if np.any(seg <= 0.0):
            raise ValueError("path has coincident consecutive waypoints")
        if not math.isfinite(arc[-1]):
            raise ValueError(f"path length {arc[-1]} is not finite")
        # each interior vertex's chord, from its predecessor to its successor
        chord_x, chord_y = cx[2:] - cx[:-2], cy[2:] - cy[:-2]
        lengths = np.fromiter(map(math.hypot, ux, uy), float, len(ux))
        denom = lengths[:-1] * lengths[1:] * np.fromiter(
            map(math.hypot, chord_x, chord_y), float, len(chord_x))
        cross = ux[:-1] * uy[1:] - uy[:-1] * ux[1:]
        curvature = np.concatenate(
            ([0.0], np.where(denom == 0.0, 0.0, 2.0 * cross / denom), [0.0]))
    # Tangents: the chord inside, one-sided at the ends, unwrapped so that
    # interpolation between vertices never jumps across +-pi.
    tangent = np.unwrap(np.arctan2(np.concatenate((uy[:1], chord_y, uy[-1:])),
                                   np.concatenate((ux[:1], chord_x, ux[-1:]))))
    return Path(cx=cx, cy=cy, arc=arc, tangent=tangent, curvature=curvature)


def figure_eight_lap() -> tuple[np.ndarray, np.ndarray]:
    """Waypoints of one closed figure-eight lap through all four quadrants,
    from (14, 0); the seam back to the first point is one more segment.

    Lemniscate x = a cos(t)/(1+sin^2 t), y = a sin(t) cos(t)/(1+sin^2 t)
    with a = 14 m, resampled at uniform arc spacing (~DEFAULT_SPACING).
    Traversal from (a, 0) runs Q1 -> Q3 -> Q2 -> Q4 and back to the start.
    """
    t = np.linspace(0.0, 2.0 * math.pi, 20001)
    denom = 1.0 + np.sin(t) ** 2
    x = 14.0 * np.cos(t) / denom
    y = 14.0 * np.sin(t) * np.cos(t) / denom
    chord = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))))
    lap_len = chord[-1]
    # Round the per-lap sample count so lap copies tile seamlessly: the seam
    # segment has the same length as every other segment.
    n = int(round(lap_len / DEFAULT_SPACING))
    s = np.arange(n) * (lap_len / n)
    return np.interp(s, chord, x), np.interp(s, chord, y)


def load_path_xy(path_file: str) -> Path:
    """Load waypoints from a text file with one 'x y' pair per line.

    Lines starting with '#' and blank lines are skipped.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path_file, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x, y = map(float, line.split())
            except ValueError:
                raise ValueError(
                    f"{path_file}:{ln}: expected 'x y', got {line!r}") from None
            xs.append(x)
            ys.append(y)
    return build_path(xs, ys)


@dataclass(frozen=True)
class PlatoonConfig:
    """Platoon composition: robot count, desired arc gap and cruise speed.

    start_poses optionally overrides the default on-path placement; when None
    the robots are seeded on the path at the desired gaps behind the leader.
    """

    n_robots: int = 3
    gap_des: float = 1.0
    v_d: float = 2.0
    start_poses: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if type(self.n_robots) is not int or \
                not 1 <= self.n_robots <= sys.maxsize:
            raise ValueError(f"n_robots must be an int in [1, {sys.maxsize}], "
                             f"got {self.n_robots!r}")
        require(self, ("gap_des", "v_d"), "> 0")
        if self.start_poses is not None and len(self.start_poses) != self.n_robots:
            raise ValueError(
                f"start_poses has {len(self.start_poses)} entries for "
                f"{self.n_robots} robots")
        for i, pose in enumerate(self.start_poses or ()):
            if len(pose) != 3:
                raise ValueError(
                    f"start_poses[{i}] must be (x, y, theta), got {pose}")
            if not all(map(finite, pose)):
                raise ValueError(f"start_poses[{i}] must be finite, got {pose}")


def target_waypoint(path: Path, leader_index: int, gap_des: float,
                    hint: int | None = None) -> int:
    """Index of the waypoint a desired arc gap behind the leader's index.

    The largest i <= leader_index whose arc distance to the leader,
    arc[leader_index] - arc[i], is >= gap_des; 0 when the path behind is
    shorter than the gap. That predicate is monotone in i (arc is
    non-decreasing and float subtraction is monotone), so the search
    gallops from `hint` (clipped to [0, leader_index]; leader_index when
    None) toward the answer, doubling its stride, then bisects the last
    stride: O(log d) probes for an answer d indices from the hint,
    evaluating exactly the float expression above at every probe. A
    follower's previous target makes a good hint, and any hint gives the
    same index.
    """
    if not 0 <= leader_index < len(path):
        raise ValueError(f"leader_index {leader_index} outside path of {len(path)} points")
    if not gap_des >= 0:
        raise ValueError(f"gap_des must be >= 0, got {gap_des}")
    arc = path._arc
    a = arc[leader_index]
    i = leader_index if hint is None else min(max(hint, 0), leader_index)
    # gallop to a bracket: the answer lies in [lo, hi]
    stride = 1
    if a - arc[i] >= gap_des:
        lo, hi = i, leader_index
        while lo + stride <= hi:
            if a - arc[lo + stride] >= gap_des:
                lo += stride
                stride *= 2
            else:
                hi = lo + stride - 1
                break
    else:
        lo, hi = 0, i - 1
        while stride <= hi:
            probe = hi + 1 - stride
            if a - arc[probe] >= gap_des:
                lo = probe
                break
            hi = probe - 1
            stride *= 2
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a - arc[mid] >= gap_des:
            lo = mid
        else:
            hi = mid - 1
    return lo


def follower_target(path: Path, leader_index: int, gap_des: float,
                    hint: int | None = None
                    ) -> tuple[float, float, float, float, int]:
    """A follower's reference (x, y, theta, curvature) at the
    `target_waypoint`, searched from `hint`, the shape of `pose_at_arc`'s
    followed by the waypoint's index: heading the forward-difference
    tangent (backward at the last index), curvature the vertex's."""
    idx = target_waypoint(path, leader_index, gap_des, hint)
    cx, cy = path._cx, path._cy
    j = idx if idx < len(path) - 1 else idx - 1
    theta = math.atan2(cy[j + 1] - cy[j], cx[j + 1] - cx[j])
    return cx[idx], cy[idx], theta, path._curvature[idx], idx


def nearest_index(path: Path, x: float, y: float, hint: int | None = None,
                  window: int = PROJECTION_WINDOW) -> int:
    """Waypoint index closest to (x, y); ties break toward the larger index.

    With a hint, only indices within +-window of it are searched. That keeps
    the projection from jumping to the other branch at the figure-eight
    crossing and makes per-step progress tracking monotone in practice.
    A squared distance that overflows counts as inf, without a warning.
    Raises ValueError for a hint outside the path or a negative window.
    """
    if hint is not None and not 0 <= hint < len(path):
        raise ValueError(f"hint {hint} outside path of {len(path)} points")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    n = len(path)
    if hint is None:
        lo, hi = 0, n
    else:
        lo = max(0, hint - window)
        hi = min(n, hint + window + 1)
    with np.errstate(over="ignore"):
        dx = path.cx[lo:hi] - x
        dy = path.cy[lo:hi] - y
        # squared distance, in place in the two temporaries
        dx *= dx
        dy *= dy
        dx += dy
    # argmin of the window read last vertex first: its first minimum is the
    # largest-index one
    return hi - 1 - int(dx[::-1].argmin())


def nearest_index_from(path: Path, x: float, y: float, hint: int) -> int:
    """`nearest_index(path, x, y, hint)` by a walk from `hint`, the
    engine's per-step projection; the walk does not check its hint.

    The walk steps forward while the next vertex is not farther, or else
    back while the previous one is nearer, at most WALK_MOVES vertices; so
    where it stops at w, d(w + 1) > d(w) <= d(w - 1), the scan's tie rule.
    Every d is the scan's own float expression. If 4 d(w) < `clear2[w]`,
    the triangle inequality puts every other vertex of the scan's window
    farther than w, and w is the scan's answer. Otherwise (a longer walk,
    NaN or inf, an overflow, a hairpin, a subnormal course) this runs the
    scan.
    """
    cx, cy = path._cx, path._cy
    w = hint
    dx = cx[w] - x
    dy = cy[w] - y
    d = dx * dx + dy * dy
    last = len(cx) - 1
    moves = 0
    while w < last:
        dx = cx[w + 1] - x
        dy = cy[w + 1] - y
        e = dx * dx + dy * dy
        if not e <= d:
            break
        if moves == WALK_MOVES:
            return nearest_index(path, x, y, hint)
        w, d, moves = w + 1, e, moves + 1
    if not moves:
        while w:
            dx = cx[w - 1] - x
            dy = cy[w - 1] - y
            e = dx * dx + dy * dy
            if not e < d:
                break
            if moves == WALK_MOVES:
                return nearest_index(path, x, y, hint)
            w, d, moves = w - 1, e, moves + 1
    if 4.0 * d < path.clear2[w]:
        return w
    return nearest_index(path, x, y, hint)


def pose_at_arc(path: Path, s: float) -> tuple[float, float, float, float]:
    """Interpolated (x, y, theta, curvature) at arc-length position s.

    Position is linear between waypoints; heading interpolates the unwrapped
    vertex tangents, so it is continuous across segments. s is clamped to the
    path extent; a NaN s is a ValueError.
    """
    cx, cy = path._cx, path._cy
    tangent, curvature = path._tangent, path._curvature
    if not s > 0.0:
        if s <= 0.0:
            return cx[0], cy[0], tangent[0], curvature[0]
        raise ValueError(f"s must be a number, got {s}")
    arc = path._arc
    if s >= arc[-1]:
        return cx[-1], cy[-1], tangent[-1], curvature[-1]
    j = bisect_right(arc, s) - 1
    a = arc[j]
    w = (s - a) / (arc[j + 1] - a)
    return (
        cx[j] + w * (cx[j + 1] - cx[j]),
        cy[j] + w * (cy[j + 1] - cy[j]),
        tangent[j] + w * (tangent[j + 1] - tangent[j]),
        curvature[j] + w * (curvature[j + 1] - curvature[j]),
    )
