"""The machine's pace, measured with a fixed kernel next to each study.

Shared machines change speed by tens of percent over seconds to
minutes, and a study measured in a slow phase reads slow for reasons
the program does not control.  ``pace`` times a fixed kernel shaped
like the engine's step (per-lane Python method calls and dict writes
around small numpy array operations) for a short window; ``run.py``
measures it right before and right after each study and scales the
study's host times to :data:`REFERENCE_PACE_S`.  The kernel is part of
the benchmark, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Mean kernel time on the machine the bounds were set on (2-vCPU
#: Xeon, Python 3.11, numpy 2.4).  Host times are reported as if every
#: study ran at this pace.
REFERENCE_PACE_S = 0.0175


class _Lane:
    def __init__(self, k: int) -> None:
        self.k = k
        self.level = float(k % 7)
        self.cache: dict[int, float] = {}

    def load_at(self, t: float) -> float:
        return self.level * (1.0 + 0.1 * math.sin(t / 3600.0 + self.k))

    def due(self, t: float) -> bool:
        return (int(t) // 3600 + self.k) % 12 == 0


def _kernel() -> float:
    lanes = [_Lane(k) for k in range(200)]
    block = np.empty((4, 200))
    total = 0.0
    for step in range(150):
        t = step * 300.0
        block[0] = [lane.load_at(t) for lane in lanes]
        block[1:] = np.sqrt(block[0] + step)
        total += float(block.sum())
        for lane in lanes:
            if lane.due(t):
                lane.cache[step % 5] = total
    return total


def pace(window_s: float = 0.4) -> float:
    """Mean seconds per kernel run over a window of ``window_s``."""
    start = time.perf_counter()
    runs = 0
    while time.perf_counter() - start < window_s:
        _kernel()
        runs += 1
    return (time.perf_counter() - start) / runs
