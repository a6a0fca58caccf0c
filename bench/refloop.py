"""The fixed reference loop that the benchmark divides operation times by.

Run as a script, it serves a second copy of the loop on the other core:
each line read from stdin runs the loop once and writes its wall time as
one line to stdout; end of input (the benchmark closed the pipe, or ended)
ends the script.
"""

import math
import sys
import time

REF_LOOP_STEPS = 36_000  # RK4 steps; about 80 ms on an idle 2.1 GHz Xeon core


def _unicycle(th, v, w, force):
    return v * math.cos(th), v * math.sin(th), w, (force - 0.4 * v) / 1.2, -0.3 * w


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work.

    Like the plant integrator, it is RK4 of a unicycle in Python floats with
    a small working set. On a shared host whose speed drifts by tens of
    percent over minutes, an operation's wall time divided by this loop's,
    timed just before and after it, stays steady where the wall time alone
    does not. This loop tracks the simulator's slow-downs more closely than
    one of string building, which large allocations make oversensitive."""
    t0 = time.perf_counter()
    x = y = th = 0.0
    v, w, h = 1.0, 0.1, 0.001
    for _ in range(REF_LOOP_STEPS):
        k1 = _unicycle(th, v, w, 0.5)
        k2 = _unicycle(th + h / 2 * k1[2], v + h / 2 * k1[3],
                       w + h / 2 * k1[4], 0.5)
        k3 = _unicycle(th + h / 2 * k2[2], v + h / 2 * k2[3],
                       w + h / 2 * k2[4], 0.5)
        k4 = _unicycle(th + h * k3[2], v + h * k3[3], w + h * k3[4], 0.5)
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        th += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        v += h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        w += h / 6 * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(reference_loop()), flush=True)
