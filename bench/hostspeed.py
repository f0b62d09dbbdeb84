"""Host speed, measured next to every timing the benchmark reports.

The benchmark runs on a shared virtual machine that runs the same
pure-Python code up to 1.7 times faster in some phases than in others,
whatever the process does. The phases change within a second and last up
to some 30 s. Runs of 25 s
catch different mixes of those phases, and that, not the program, set most
of the spread between runs. So a fixed kernel of pure-Python exact
arithmetic, which uses no part of ``minkred``, is timed between forms, and
every time the benchmark reports is the wall time scaled by
``REFERENCE_S / kernel time``: the time the same work takes on a host that
runs the kernel in ``REFERENCE_S``. The human-readable lines of a run also
give the unscaled wall-time figures.
"""

import gc
from fractions import Fraction
from time import perf_counter

# About the kernel's time between forms on the 2-vCPU Intel Xeon virtual
# machine (Python 3.11.7) of the first trajectory point, so that reported
# times stay close to that host's wall times.
REFERENCE_S = 0.0019
# Form time after which the kernel is timed again. The phases change
# within a second, so each form is scaled by samples taken just before and
# just after it, or around a few short forms.
SAMPLE_EVERY_S = 0.05


def _kernel():
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(1, i)
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5 + 20 * (i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return s, m


def sample():
    """Seconds the kernel takes now. The garbage collector is held off, so
    the sample does not depend on how many objects the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Factors from wall time to reference time, one per form.

    Call ``add`` with each form's wall time as the form ends, and ``close``
    after the last form. The kernel is timed at the start, after each form
    that brings the form time since the last sample to SAMPLE_EVERY_S, and
    at the close. The forms between two samples are scaled by their mean.
    """

    def __init__(self):
        self.factors = []
        self._last = sample()
        self._pending = []

    def add(self, seconds):
        self._pending.append(seconds)
        if sum(self._pending) >= SAMPLE_EVERY_S:
            self.close()

    def close(self):
        now = sample()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self.factors += [factor] * len(self._pending)
        self._last, self._pending = now, []
