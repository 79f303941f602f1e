"""A fixed pure-Python calibration loop, for timings on a shared CPU.

On a shared 2-core host the same halgen round was measured to take
anywhere from 0.4 s to 0.9 s, in phases lasting tens of seconds, with CPU
time equal to wall time: the core itself runs slower while neighbours are
busy. A timing taken across such phases says more about the neighbours
than about halgen. This loop does the same kind of work as halgen's hot
paths (a recursive tree walk dispatching on node kinds, dict look-ups,
32-bit masking) but never calls halgen, so no change to halgen moves it.
Timed right before and after a measured interval, it gives the core's
speed during that interval, and `reference_seconds` rescales the interval
to a core that runs the loop in REFERENCE_LOOP_S.
"""

from __future__ import annotations

import time

# Roughly the loop's time on an undisturbed core of the 2-core Xeon
# (Python 3.11) the benchmark was tuned on. It only sets the scale.
REFERENCE_LOOP_S = 0.025

_TREE = ("+", ("*", ("v", "a"), ("c", 3)), ("^", ("v", "b"), (">>", ("v", "a"), ("c", 2))))


def _eval(node, env):
    kind = node[0]
    if kind == "c":
        return node[1]
    if kind == "v":
        return env[node[1]]
    lhs, rhs = _eval(node[1], env), _eval(node[2], env)
    if kind == "+":
        return (lhs + rhs) & 0xFFFFFFFF
    if kind == "*":
        return (lhs * rhs) & 0xFFFFFFFF
    if kind == "^":
        return lhs ^ rhs
    return lhs >> rhs


def loop_seconds() -> float:
    """Time one run of the calibration loop."""
    env = {"a": 1, "b": 2}
    start = time.perf_counter()
    for i in range(25_000):
        env["a"] = _eval(_TREE, env)
        env["b"] = i
    return time.perf_counter() - start


def reference_seconds(elapsed: float, loop_before: float, loop_after: float) -> float:
    """`elapsed` wall seconds rescaled to the reference core's speed."""
    return elapsed * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)
