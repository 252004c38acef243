"""Machine-speed samples, for timings on a shared host whose speed drifts.

On a shared 2-core host the same pure-Python work runs up to ±40 % faster
or slower from one few-second stretch to the next, because of the load
other tenants put on the machine.  A run of tens of seconds averages over
only a few such stretches, so raw times spread by 10-30 % from run to run.

Each timed process therefore times a fixed pure-Python kernel at most
every ``INTERVAL_S`` seconds between ops (the CLI session does so in the
harness, before every command).  A stretch of time is rescaled by
``REFERENCE_S`` over the kernel time of the samples on either side of
its midpoint, which gives seconds at the machine speed where the kernel
takes ``REFERENCE_S``.  Kernel time itself is taken out.  Raw wall and
set-up times are kept in each run's result file.

The kernel uses ints and one dict only, so it allocates nothing the
cyclic garbage collector tracks and does not move the program's
collections.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.002
INTERVAL_S = 0.2
NEAREST = 2
_ROUNDS = 12000


def kernel_seconds() -> float:
    """Time one run of the fixed kernel."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_ROUNDS):
        acc = (acc * 31 + i) % 1000003
        table[acc & 255] = table.get(acc & 255, 0) + i
    return time.perf_counter() - start


class SpeedLog:
    """Samples of (monotonic start, seconds taken, kernel seconds), taken at
    most every ``INTERVAL_S``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._due = 0.0

    def sample(self) -> None:
        # the faster of two runs: the first may pay for cold caches or an interrupt
        start = time.monotonic()
        kernel = min(kernel_seconds(), kernel_seconds())
        end = time.monotonic()
        self.samples.append((start, end - start, kernel))
        self._due = end + INTERVAL_S

    def maybe_sample(self) -> None:
        if time.monotonic() >= self._due:
            self.sample()


class Rescaler:
    """Converts raw intervals to reference-speed seconds using samples."""

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.starts = [s for s, _, _ in self.samples]

    def factor(self, t: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples around t."""
        if not self.samples:
            return 1.0
        i = bisect.bisect(self.starts, t)
        lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
        near = self.samples[lo : lo + NEAREST]
        return REFERENCE_S / statistics.fmean(k for _, _, k in near)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds in [start, end], kernel time left out."""
        total, t = 0.0, start
        for s, d, _ in self.samples:
            if s + d <= t:
                continue
            if s >= end:
                break
            if s > t:
                total += (s - t) * self.factor((s + t) / 2)
            t = max(t, s + d)
        if end > t:
            total += (end - t) * self.factor((end + t) / 2)
        return total
