"""A fixed pure-Python kernel that measures how fast the host runs now.

Shared hosts change speed by half or more from one minute to the next: on
the 2-core container this benchmark was defined on, the same run read
1525 and 2142 places-eval ops/s a minute apart.  Every worker interleaves
this kernel with its own work, in proportion to the time the work takes,
and scales its figures by REF_MS over the kernel's mean time, so that the
figures read as if taken on a host where the kernel takes REF_MS.  With
the scaling, the same four runs read within 5 %.  The kernel uses no
library code; it exercises what the library spends its time on: Fraction
arithmetic, small objects with operator methods, dicts and sorting.
"""

import time
from fractions import Fraction

REF_MS = 2.5  # mean kernel time on the reference host under sustained load
SLICE_S = 0.02  # one kernel run per this much measured work
SETUP_REPS = 40


class _Elem:
    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    def __add__(self, other):
        return _Elem(self.d + other.d)

    def __lt__(self, other):
        return self.d - other.d < 0


def kernel():
    acc = {}
    xs = [_Elem(Fraction(i, 7)) for i in range(40)]
    for a in xs:
        for b in xs[:10]:
            e = a + b
            acc[e.d] = acc.get(e.d, 0) + 1
    sorted(xs, reverse=True)
    return acc


class Speed:
    """Kernel timings taken alongside measured work."""

    def __init__(self):
        self.total_s = 0.0
        self.runs = 0
        self._owed_s = 0.0

    def sample(self, reps):
        for _ in range(reps):
            t0 = time.perf_counter()
            kernel()
            self.total_s += time.perf_counter() - t0
            self.runs += 1

    def after(self, work_s):
        """Run the kernel once for every SLICE_S of work measured so far."""
        self._owed_s += work_s
        reps = int(self._owed_s / SLICE_S)
        self._owed_s -= reps * SLICE_S
        self.sample(reps)

    def mean_ms(self):
        return 1e3 * self.total_s / self.runs

    def scale(self):
        """Factor that turns a time measured here into reference-host time."""
        return REF_MS / self.mean_ms()
