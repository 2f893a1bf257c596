"""A fixed pure-Python loop that measures how fast the host runs right now.

The small shared VMs this benchmark runs on change speed by up to 2x within
seconds and drift over minutes, with CPU time tracking wall time: the code
runs slower, it is not descheduled. The loop below does the kinds of work
the library does (exact rational arithmetic, dict updates, enumeration of
colorings with short-circuit checks) and never calls the library, so its
time follows the host's speed and no change to the library can move it.

``RefClock`` collects loop times during one job list. While a job runs in a
process of the benchmark (a library session, or a CLI call started through
clichild.py) the loop runs from a timer signal every EVERY_S, and its time is
taken out of the job's. Between two CLI calls it runs in the benchmark's own
process. ``wall_refs`` is the list's job time divided by the mean loop time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from itertools import product

# Seconds between two runs of the loop.
EVERY_S = 0.25

# Marks the line of loop times that a sampled CLI child writes to stderr.
REFS_PREFIX = "PERFBENCH_REFS "


def reference_loop() -> float:
    """Seconds for one pass of the fixed loop (about 30 ms on a 2.1 GHz vCPU)."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for a, b, c in product(range(8), repeat=3):
        q = Fraction(a + 1, b + 7) - Fraction(c, 11)
        acc += q * q
        table[a, b] = table.get((a, b), 0) + c
    count = 0
    for t in product(range(7), repeat=5):
        if all((t[i] - t[i + 1]) % 7 != 3 for i in range(4)):
            count += 1
    # 7 choices for t[0], then 6 for each later entry
    if count != 7 * 6**4 or acc <= 0:
        raise AssertionError("reference loop miscounted")
    return time.perf_counter() - start


class RefClock:
    """Reference-loop times taken during one job list."""

    def __init__(self):
        self.times: list[float] = []
        self.handled = 0.0  # seconds spent in the alarm handler, loop included
        self._last = None

    def tick(self, force: bool = False) -> None:
        """Between jobs: run the loop if EVERY_S has passed since the last
        one, or if forced."""
        if force or self._last is None or time.perf_counter() - self._last >= EVERY_S:
            self.times.append(reference_loop())
            self._last = time.perf_counter()

    def start_sampling(self) -> None:
        """Within jobs in this process: run the loop from SIGALRM every EVERY_S
        of wall time. The handler runs between bytecodes of the job."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(reference_loop())
        self.handled += time.perf_counter() - start
