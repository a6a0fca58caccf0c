"""The scalar formulation of a path's curvature, kept as the oracle for
`platoon.build_path`, which computes every vertex at once with numpy:
the Menger curvature of each interior vertex in plain Python floats, one
vertex at a time. `tests/test_platoon.py` checks `build_path` against
`oracle_curvature` bit for bit."""

import math


def menger_curvature(ax, ay, bx, by, cx, cy) -> float:
    """Signed curvature of the circle through three points (positive = left turn).

    Exactly 1/R for points on a circle of radius R; 0 for collinear points.
    """
    ux, uy = bx - ax, by - ay
    wx, wy = cx - bx, cy - by
    cross = ux * wy - uy * wx
    la = math.hypot(ux, uy)
    lb = math.hypot(wx, wy)
    lc = math.hypot(cx - ax, cy - ay)
    denom = la * lb * lc
    if denom == 0.0:
        return 0.0
    return 2.0 * cross / denom


def oracle_curvature(xs, ys) -> list[float]:
    """Curvature at each vertex of the polyline (xs, ys), 0 at both ends."""
    xs, ys = list(map(float, xs)), list(map(float, ys))
    return [0.0, *(menger_curvature(xs[i - 1], ys[i - 1], xs[i], ys[i],
                                    xs[i + 1], ys[i + 1])
                   for i in range(1, len(xs) - 1)), 0.0]
