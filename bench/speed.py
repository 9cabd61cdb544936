"""Scaling CPU times to a reference machine speed.

On the 2-CPU x86-64 container the reference figures come from, the cores
are shared with other tenants, and the speed of identical work swings
between states up to 1.8x apart, for stretches of 0.1 s to several
seconds.  Process CPU time swings with it.  bpb4's code slows nearly in
step with a short, fixed mix of Fraction, tuple and float work (the
calibration unit), so the benchmark samples that unit all through a run
and reports *reference* time:

    reference seconds = CPU seconds * mean(REF_UNIT_S / unit time)

with the mean taken over the samples that fall inside the measured
stretch (or, for a short stretch, the nearest ones).  An interval timer
interrupts the process every ``SAMPLE_EVERY_S`` of wall time to run one
unit; the CPU spent in those interruptions is subtracted from every
measured stretch.  (A CPU-time timer would do as well in principle, but
on that container's kernel arming one coarsens the process CPU clock to
4 ms ticks.)  REF_UNIT_S is the unit's CPU time on that container (Python
3.11.7) in its faster state, so reference times read as CPU time there.
"""

from __future__ import annotations

import bisect
from array import array
import signal
import time
from fractions import Fraction

clock = time.process_time

REF_UNIT_S = 0.00013
SAMPLE_EVERY_S = 0.01
MIN_SAMPLES = 6  # a stretch shorter than this many samples borrows neighbours


def calibration_unit() -> float:
    """CPU seconds of a fixed mix of Fraction, tuple and float work.

    The mix tracks bpb4's exact (l1), float (lp) and search code about
    equally well; Fraction arithmetic alone over-corrects the float code.
    """
    start = clock()
    total, kept = Fraction(0), []
    for i in range(1, 30):
        total += Fraction(1, i) * Fraction(i + 1, 7)
        kept.append((i, total))
    x = 0.0
    for i in range(1, 150):
        x += (1.0 / i) * (i + 1.0)
    return clock() - start


class SpeedSampler:
    """Calibration samples taken at a fixed CPU-time interval."""

    def __init__(self):
        self.at = array("d")  # CPU clock when each sample started
        self.speed = array("d")  # REF_UNIT_S / unit time of each sample
        self.spent = array("d", [0.0])  # CPU spent sampling, cumulative

    def _sample(self, signum, frame):
        start = clock()
        unit = calibration_unit()
        self.at.append(start)
        self.speed.append(REF_UNIT_S / unit)
        self.spent.append(self.spent[-1] + clock() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference(self, a: float, b: float) -> float:
        """Reference seconds for the CPU interval [a, b] of this process."""
        i = bisect.bisect_left(self.at, a)
        j = bisect.bisect_left(self.at, b)
        cpu = (b - a) - (self.spent[j] - self.spent[i])
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.at)):
            i, j = max(i - 1, 0), min(j + 1, len(self.at))
        window = self.speed[i:j]
        return cpu * sum(window) / len(window)
