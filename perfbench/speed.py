"""A CPU speed probe, sampled during each measurement, that times are scaled by.

The host's CPU speed drifts. On the shared 2-vCPU machine the benchmark was
built on, a fixed pure-Python loop took between 0.28 s and 0.52 s per chunk
within two minutes, in phases lasting seconds to minutes, and identical
agency-forbidden passes took between 19.5 and 28.2 CPU seconds. So every
PROBE_EVERY CPU seconds a profiling signal runs the fixed loop `probe_loop`
and records how much thread CPU time it took, and a measured interval is
multiplied by (REFERENCE / median probe time around it) ** EXPONENT.

The loop is timed with the thread CPU clock the intervals are measured with,
so steal counts in neither. The workloads slow down more than the loop does:
over 40 to 60 repeated passes in one process, log pass time followed log
probe time with a slope of 1.0 to 1.3 (correlation 0.8 to 0.9), and scaling
cut the quartile spread of pass times from 22% to 7% on small-trees, 23% to
9% on sim-magic and 9% to 6% on relabel-depth5. Over ten runs each of
small-trees and sim-magic, the spread of the runs' median passes was 27% and
26% unscaled, 10% and 13% with exponent 1, and 5% and 12% with 1.25. The
loop, REFERENCE and EXPONENT are part of the benchmark's definition; changing
any of them changes every time it reports.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_EVERY = 0.05  # CPU seconds between samples
REFERENCE = 2.5e-4  # seconds probe_loop takes at the reference speed
EXPONENT = 1.25
NEAREST = 21  # samples used around an interval that holds fewer


def factor(probe_seconds: float) -> float:
    """Scale for times measured while probe_loop took `probe_seconds`."""
    return (REFERENCE / probe_seconds) ** EXPONENT


def probe_loop() -> float:
    """Thread CPU seconds of a fixed pure-Python loop.

    The same clock as the intervals it scales, so time the thread was not
    running (hypervisor steal) counts in neither.
    """
    start = time.thread_time()
    x = 0
    for i in range(3000):
        x += i * i
    return time.thread_time() - start


class SpeedProbe:
    """Probe samples keyed by a clock; `now` must not go back while sampling."""

    def __init__(self, now):
        self.now = now
        self.paused = False
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        if not self.paused:
            self.times.append(self.now())
            self.samples.append(probe_loop())

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns clock seconds within [t0, t1] into reference seconds."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < NEAREST:
            lo = max(0, min((lo + hi) // 2 - NEAREST // 2, len(self.samples) - NEAREST))
            hi = lo + NEAREST
        return factor(statistics.median(self.samples[lo:hi]))
