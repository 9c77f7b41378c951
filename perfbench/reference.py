"""A reference kernel, timed in the background, that tracks machine speed.

On a shared host the speed of the same single-threaded code drifts with
the load of other tenants, and flips between fast and slow phases within
a second: on the 2-vCPU Xeon host the bounds were set on, one fixed
``nets`` iteration took anywhere from 3.7 s to 7.7 s within a few minutes.
So a daemon thread times a short pure-Python loop every ``PERIOD``
seconds, and each timed call is divided by the speed factor of the
samples taken while it ran: their mean time over the loop's nominal
time (1.0 = nominal speed).  The end-to-end times then read as seconds
on a machine at nominal speed.  The loop is the benchmark's own, so a
change to alignstat cannot move it, and it holds the interpreter lock
for about 0.1 ms per sample, about 1% of the run.
"""

from __future__ import annotations

import bisect
import threading
import time

PERIOD = 0.01
LOOP = 2_000
# Seconds per loop, roughly its time in a fast phase of the host above.
NOMINAL = 1.2e-4


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


class SpeedSampler:
    """Background samples of the reference loop; use as a context manager."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (end time, seconds), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            t0 = time.perf_counter()
            _loop()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Speed factor over [start, end]: the samples inside it and the
        nearest one on either side, so that a short call gets two."""
        samples = self.samples[:]  # the thread only appends
        if not samples:
            return 1.0
        ends = [t for t, _ in samples]
        lo = max(0, bisect.bisect_left(ends, start) - 1)
        hi = bisect.bisect_right(ends, end) + 1
        window = samples[lo:hi] or samples[-1:]
        return sum(d for _, d in window) / len(window) / NOMINAL
