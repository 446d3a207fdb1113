"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's reference box is a shared host whose single-thread speed
swings by up to 2x over seconds to minutes, and the swing shows in wall time
and CPU time alike (the slowdown comes from outside the guest, which has no
hardware counters to count work by instead).  The workload process
times this loop between its passes and reports pass times in *reference
seconds*: pass time / loop time x REFERENCE_S, the time a pass takes on a host
that runs the loop in exactly REFERENCE_S.  That cancels the host's speed
swings that are slower than a pass, while any change in treebsde's own speed
shows in full, since the loop does not touch treebsde.

The loop mixes what the workloads spend their time on: interpreter work on
small dicts and lists, numpy calls on arrays of 96 and 1000 elements, and a
Philox draw with a cumulative sum over a few MB.
"""

from __future__ import annotations

import time

import numpy as np

# about the loop's time on the reference box (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4), where it ran in 30-55 ms; a fixed scale, so that a reported
# figure does not move with the host
REFERENCE_S = 0.04


def _loop() -> float:
    rng = np.random.Generator(np.random.Philox(20240917))
    small = rng.standard_normal(96)
    wide = rng.standard_normal(1000)
    level = np.zeros(1000)
    acc = 0.0
    for i in range(1500):
        row = {"k": i, "v": [i, acc]}
        acc = float((small * 0.5 + row["v"][1]).sum()) * 1e-6
        hit = np.abs(wide - level) >= 1.0
        level[hit] = wide[hit]
        np.maximum(level, small[i % 96], out=level)
    block = rng.standard_normal((500, 1000))
    np.cumsum(block, axis=1, out=block)
    return acc + float(block[0, -1]) + float(level.sum())


def probe_s() -> float:
    """Wall time of one reference loop, in seconds."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def reference_seconds(times: list, probes: list) -> list:
    """Each time in `times` in reference seconds.

    `probes` holds one probe before the first time and one after each, so
    time i sits between probes i and i+1, and is scaled by their mean.
    """
    return [t / (0.5 * (probes[i] + probes[i + 1])) * REFERENCE_S
            for i, t in enumerate(times)]
