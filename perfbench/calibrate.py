"""Machine-speed calibration: a fixed reference loop, timed between ops.

The machine the benchmark was tuned on (2 shared vCPUs) switches between
a fast and a slow mode, about 2x apart, and the mix of the two shifts
from run to run; CPU time slows as much as wall time, so the process is
not waiting, it runs on a slower CPU.  A run is too short to average the
mix out.  So the run also times a reference loop that does not touch
`persuade` (interpreted Python and small numpy calls) between ops, at
least every 0.1 s, and scales its times by `NOMINAL_S / mean(reference
times)`: the result is seconds at the speed at which the reference loop
takes `NOMINAL_S`.  In eight 12-s processes running one eps-ball op, the
spread of the op's mean time across processes was 0.16 raw and 0.05
scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.010      # about the reference loop's mean time on the tuning machine
EVERY_S = 0.1          # between ops, time the loop again once this much time has passed

_A = np.random.default_rng(1).standard_normal((64, 64))


def reference() -> float:
    """A fixed mix of small numpy calls and interpreted Python."""
    acc = 0.0
    x = _A
    for _ in range(200):
        x = np.tanh(x @ _A * 0.01)
        acc += float(x[0, 0])
    counts: dict = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


class Calibrator:
    def __init__(self):
        self.samples: list = []
        self._last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            reference()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
