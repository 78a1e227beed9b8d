"""Operation times as multiples of a reference kernel timed beside them.

The benchmark runs on a shared host whose speed drifts: other machines'
load on the same cores slows every instruction of ours by up to half,
for seconds or minutes at a time.  A time in seconds carries that drift.
A timer fires every TICK_S seconds of the run and times one call of a
kernel, a fixed piece of code that calls nothing of the package: pure
Python for workloads that run in the interpreter, and the same with a
few numpy elimination steps for those that run in numpy (each
workload's kernel is in ``workloads.KERNELS``).  An operation's time in
refs is its own time divided by the kernel's time around it: the mean
of the ticks that fell inside the operation, or, for an operation too
short to hold MIN_INSIDE of them, the median of the last RECENT ticks.
A slower host slows both, so the ratio keeps what the program does and
drops most of the drift.  The time the ticks themselves take is taken
out of the operation's time.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

import numpy as np

TICK_S = 0.01
RECENT = 5
MIN_INSIDE = 3


def python_kernel() -> int:
    """About a tenth of a millisecond of dict, bit and sort work."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(150):
        m = (i * 2654435761) & 0x3FF
        acc ^= m | (acc >> 3)
        seen[m] = seen.get(m, 0) + 1
    return len(sorted(seen.items())) + acc


_BLOCK = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 7


def numpy_kernel() -> int:
    """The Python kernel and a few int64 elimination steps on a 48x48 block."""
    block = _BLOCK.copy()
    for c in range(12):
        block[c + 1 :] = block[c + 1 :] * block[c, c] - np.outer(block[c + 1 :, c], block[c])
        block %= 32003
    return python_kernel() + int(block[-1, -1])


class RefClock:
    """Kernel timings taken on SIGALRM while started."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.recent: deque[float] = deque(maxlen=RECENT)
        # (start, end, kernel seconds) of the ticks since the last measure()
        self.log: list[tuple[float, float, float]] = []

    def tick(self, *_) -> None:
        start = perf_counter()
        self.kernel()
        took = perf_counter() - start
        self.recent.append(took)
        self.log.append((start, perf_counter(), took))

    def start(self) -> None:
        for _ in range(RECENT):
            self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> float:
        """The refs of an operation that ran from t0 to t1."""
        inside = [(end - start, took) for start, end, took in self.log if t0 <= start and end <= t1]
        self.log.clear()
        seconds = t1 - t0 - sum(spent for spent, _ in inside)
        if len(inside) >= MIN_INSIDE:
            return seconds * len(inside) / sum(took for _, took in inside)
        return seconds / statistics.median(self.recent)
