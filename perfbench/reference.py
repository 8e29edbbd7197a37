"""A fixed yardstick computation, to correct timings for a shared host.

On a host shared with other tenants the same code runs up to about twice
as slow for seconds or minutes at a time, when another tenant loads the
core.  The benchmark runs the yardstick right before and right after
every timed interval.  The interval divided by the mean of those two
yardstick times is how long the interval took in yardstick units, which
the load mostly cancels out of.  Times are reported as yardstick units
times YARDSTICK_S, the yardstick's time on the undisturbed host the
benchmark was tuned on: close to seconds on that host, whatever the load
at the time.

The yardstick is a sum of Fractions, the same kind of work the package
does, and no code of the package runs in it.  A load slows it nearly as
much as it slows the jobs.  Take the load as the yardstick's time over
YARDSTICK_S.  Across `check` passes at loads of 1.25 to 1.95, a job's
time in yardstick units rose by about 9% per unit of load.  With a
pure-int yardstick it rose by 29%, and on the wall clock by about 100%.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds one yardstick run takes undisturbed: the best of 20000 runs on a
# 2-vCPU 2.1 GHz Xeon VM with Python 3.11.  A fixed unit, not a
# measurement of the host the benchmark runs on.
YARDSTICK_S = 2.9e-4

AROUND_SETUP = 24   # yardstick runs on each side of a set-up


def yardstick():
    """Seconds one fixed run of Fraction arithmetic takes."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 - 3, i)
    return time.perf_counter() - start


def yardsticks(count):
    """`count` yardstick times in a row."""
    return [yardstick() for _ in range(count)]
