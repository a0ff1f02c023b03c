"""A fixed reference loop that measures the speed of the host, not of solvsph.

The machines this benchmark runs on are shared: the same job list ran at
5.6 jobs/s in one minute and 8.5 jobs/s a few minutes later, with nothing
else of the benchmark running.  A slow phase that lasts a whole run moves
every job alike, and no statistic over one run's own job times can tell it
from a slower program.  So ``run.py`` times this loop between jobs, all
through the run, and reports the job-time metrics (jobs per second, median
and tail latency) scaled by

    REFERENCE_S / median time of this loop in the run

that is, in seconds of a host that runs this loop in ``REFERENCE_S``.

The loop does the same kind of work as the package (exact ``Fraction``
arithmetic on lists of rows: matrix commutators and a row reduction) but
calls none of its code and imports nothing beyond the standard library, so
a change to solvsph, its imports or its memory use cannot change its time.
The cyclic garbage collector is paused while it runs, so the package's
live objects do not reach into it either.  Changing this file changes the
unit of every time metric: runs before and after are not comparable.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# About the median time of one reference_loop() between the jobs of a run
# on the 2-vCPU VM the benchmark was defined on (Python 3.11.7), so scaled
# times read close to that VM's seconds; it only fixes the unit.
REFERENCE_S = 0.025

_rng = random.Random(12345)
_MATRICES = [[[Fraction(_rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)] for _ in range(4)]
_ROWS = [[_rng.randint(-3, 3) for _ in range(9)] for _ in range(8)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


def reference_loop():
    """The fixed work: 16 commutators of 5x5 rational matrices and one row
    reduction.  Returns a checksum, so the work cannot be skipped."""
    equal = 0
    for a in _MATRICES:
        for b in _MATRICES:
            ab, ba = _matmul(a, b), _matmul(b, a)
            equal += sum(x == y for r1, r2 in zip(ab, ba) for x, y in zip(r1, r2))
    return equal + len(_rref(_ROWS))


def time_reference_loop():
    """Seconds one reference_loop() takes, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
