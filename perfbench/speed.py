"""A fixed reference job that tells how fast the machine runs Python now.

On a shared host the speed of the same single-threaded Python code
changes by up to about 2x for seconds or minutes at a time, and a slow
spell can outlast a whole run.  The benchmark therefore times this job
next to every task and scales the task's time by ``REFERENCE_MS / probe
time``: a task time is reported in milliseconds at the speed at which
the job takes ``REFERENCE_MS``.  A slow spell stretches the task and the
job alike and cancels; a change to bftorus moves only the task.

The job does not import bftorus and its inputs are constants, so every
commit and every seed time the same job.  It mixes the kinds of work the
library does: small-integer matrix loops (principal minors of 4x4
matrices), rational-root tests, and ``Fraction`` arithmetic in a cubic
field.  Nothing in it is cached between calls.
"""

from fractions import Fraction
from time import perf_counter

import oracles as orc

# The job's time in a fast spell of a 2-vCPU cloud VM (Python 3.11).
# It only fixes the scale of the reported times; both sides of any
# comparison use the same constant.
REFERENCE_MS = 2.8

_MATRICES = [
    [[2, -1, 3, 0], [1, 4, -2, 5], [-3, 0, 1, 2], [4, 2, -1, -3]],
    [[0, 3, -4, 1], [-2, 1, 5, -1], [3, -3, 2, 4], [1, 0, -2, 3]],
    [[5, 1, 0, -2], [-1, -4, 3, 2], [2, 2, -5, 1], [0, -3, 1, 4]],
]
_FIELD = [1, -3, 5, 1]  # x^3 + 5x^2 - 3x + 1
_STEP = [Fraction(1, 2), Fraction(1), Fraction(-1, 3)]


def _job():
    for m in _MATRICES * 2:
        p = orc.char_poly(m)
        orc.is_irreducible(p)
    x = [Fraction(3, 7), Fraction(-2, 5), Fraction(11, 3)]
    for _ in range(30):
        x = orc.nf_mul(x, _STEP, _FIELD)
        # keep the coordinates small, so every step costs the same
        x = [Fraction(c.numerator % 1000003, c.denominator % 1009 + 1) for c in x]
    return x


def probe_ms():
    """Time one run of the reference job, in milliseconds."""
    t0 = perf_counter()
    _job()
    return 1000 * (perf_counter() - t0)
