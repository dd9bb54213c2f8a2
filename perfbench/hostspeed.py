"""Host-speed correction for the benchmark's timings.

The host the benchmark was tuned on (a 2-vCPU Xeon VM shared with other
tenants) changes speed by up to a third over tens of seconds: a fixed
pure-Python loop ran between 480 and 850 iterations per second within
100 s, which no run length averages out.  Every job and set-up time is
therefore converted to reference seconds: the measured seconds times
REFERENCE_S over the current time of ``reference_work``, a fixed mix of
the operations fptcert spends its time in, timed again after every
INTERVAL_S of measured time.  The reference work is part of the
benchmark, not of the program, so a change to the program moves the
converted times exactly as it moves the measured ones; the report
prints the raw wall times next to them.
"""

import statistics
import time
from collections import deque
from fractions import Fraction

# The reference work's time on the tuning host; a converted time equals
# the wall time whenever the host runs at that speed.
REFERENCE_S = 0.017
INTERVAL_S = 0.3


def reference_work():
    """Sparse products over tuple-keyed dicts and Fraction row updates,
    about 8 ms on the tuning host."""
    poly = {(i, j): (7 * i + j) % 5 + 1 for i in range(6) for j in range(6)}
    product = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            product[key] = (product.get(key, 0) + c * f) % 7
    row = [Fraction(i + 1, i + 2) for i in range(40)]
    for r in range(40):
        factor = Fraction(r + 1, r + 3)
        row = [x - factor * y for x, y in zip(row, reversed(row))]
    return len(product), row[0]


class HostClock:
    """Converts measured seconds into reference seconds, using the median
    of the last three timings of the reference work."""

    def __init__(self):
        self._recent = deque(maxlen=3)
        self._since = 0.0
        self._measure()

    def _measure(self):
        start = time.perf_counter()
        reference_work()
        reference_work()
        self._recent.append(time.perf_counter() - start)
        self._since = 0.0

    def scale(self, seconds):
        scaled = seconds * REFERENCE_S / statistics.median(self._recent)
        self._since += seconds
        if self._since >= INTERVAL_S:
            self._measure()
        return scaled
