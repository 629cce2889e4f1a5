"""Machine-speed reference: job times scaled to a fixed machine speed.

The benchmark was defined on a shared 2-core VM whose speed changed by up
to 1.7x within minutes as other tenants came and went, so ten runs of the
same code could read 1.3 and 2.1 jobs per second depending on when they
ran.  A fixed piece of exact arithmetic that does not use the package is
timed just before and just after each timed step, and the step's time is
scaled by REF_S over the reference's mean time: the step as it would have
taken had the machine run the reference in REF_S.  In an 8-minute trace
of repeated jobs during which raw job times rose by 60% as the host got
busy, the scaled times stayed within 5% of their mean per 40-second
window, and the per-job coefficient of variation fell from about 21% to
12%.
"""

import statistics
import time
from fractions import Fraction

# Median time of reference() on the defining machine in its least loaded
# stretch (x86, Python 3.11).
REF_S = 0.0034
REPS = 3


def reference():
    """Gauss-Jordan elimination of a fixed nonsingular 10x10 rational
    matrix with Fraction: the kind of arithmetic the jobs do, in code the
    program under test cannot change."""
    n = 10
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1)
          + 3 * (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def level():
    """Median time of REPS runs of reference(): the machine's speed now."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scaled(seconds, before, after):
    """A step's time as if the reference ran in REF_S, given the reference
    levels measured just before and just after the step."""
    return seconds * REF_S / ((before + after) / 2)
