"""Machine speed sampling, to rescale measured times to a reference speed.

The benchmark runs on shared hosts whose speed drifts by more than half
over tens of seconds, for the same code and input.  Every time the
benchmark reports is therefore rescaled to a reference speed: while a
request runs, a timer signal interrupts it every PERIOD_S seconds for one
burst of a fixed, program-independent loop of exact rational arithmetic
(the kind of work the engine does).  The bursts' own time is taken out of
the request's time, and

    reference time = measured time * REFERENCE_BURST_S / mean burst time

REFERENCE_BURST_S only fixes the scale, and must stay fixed for results to
compare across commits.  It is about the fastest time of a burst run on its
own on a 2-core x86-64 virtual machine with CPython 3.11; bursts taken
between the engine's work run slower, so reference times read below wall
times.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
BURST_STEPS = 300
REFERENCE_BURST_S = 0.00125


def burst():
    """Run the fixed loop once; returns its duration in seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, BURST_STEPS):
        total += Fraction(i, i + 1) * Fraction(3, 7)
        table[i % 37] = total
    return time.perf_counter() - start


def rescale(seconds, samples):
    """`seconds` measured at the speed the burst `samples` show, at reference speed."""
    return seconds * REFERENCE_BURST_S / statistics.mean(samples)


class Sampler:
    """Bursts taken on a timer signal while a block of code runs.

        sampler = Sampler()
        sampler.start()           # one burst now, then one per period
        start = time.perf_counter()
        try:
            work()
        finally:
            sampler.stop()
        work_s = time.perf_counter() - start - sampler.burst_s

    Every burst but the first falls inside the timed block; `on_burst`, if
    given, is called with the duration of each.  Uses SIGALRM and
    ITIMER_REAL, so it must run in the main thread and nothing else in the
    process may use them.
    """

    def __init__(self, on_burst=None):
        self.samples = []
        self.on_burst = on_burst
        self._previous = None

    @property
    def burst_s(self):
        return sum(self.samples[1:])

    def _on_timer(self, signum, frame):
        seconds = burst()
        self.samples.append(seconds)
        if self.on_burst is not None:
            self.on_burst(seconds)

    def start(self):
        self.samples = [burst()]
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
