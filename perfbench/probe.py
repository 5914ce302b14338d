"""Machine-speed probe that corrects timings for CPU contention.

On a shared machine the same code ran up to 75% slower while other
tenants loaded the cores, and that load drifts over minutes. Medians of raw
wall time from runs a few minutes apart then differ by more than any useful
regression bound. So each timed interval is bracketed by a fixed probe and
reported at a reference speed: its wall time is multiplied by the probe's
reference time over the probe time measured around it (see
``corrected_times``).

The probe mixes the kinds of work drspot does: interpreter arithmetic,
walking scattered Python objects, datetime and float formatting through
``csv`` and, in the measuring process, small QR factorisations in numpy.
Contention slows these by different amounts, and the mix tracked the
slowdown of all three workloads better than any single kind. The set-up
launches do no linear algebra, so their probe leaves the QR part out. The
probe does not touch drspot, so a change to drspot moves the corrected time
by the same factor as the wall time.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time
from datetime import datetime, timedelta

# Corrected times are wall times at the speed at which the probe takes this
# long. On a 2-vCPU 2.0 GHz Xeon with CPython 3.11 and one OpenBLAS thread the
# Python part took 15-25 ms and the QR part 15-18 ms.
PYTHON_REFERENCE_S = 0.020
QR_REFERENCE_S = 0.015
# Intervals on either side whose probe times also count for an interval.
NEIGHBOURS = 2


class Probe:
    def __init__(self, qr: bool = False):
        rng = random.Random(0)
        # ~2 MB of floats in shuffled order, so the walk misses the caches.
        self._floats = [rng.random() for _ in range(60_000)]
        rng.shuffle(self._floats)
        self._matrix = None
        self.reference_s = PYTHON_REFERENCE_S
        if qr:
            import numpy

            self._matrix = numpy.random.default_rng(0).standard_normal((4_000, 20))
            self.reference_s += QR_REFERENCE_S

    def __call__(self) -> float:
        """Seconds the fixed probe work took."""
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        acc = 0.0
        for _ in range(2):
            for x in self._floats:
                acc += x
        buf = io.StringIO()
        writer = csv.writer(buf)
        base = datetime(2021, 1, 1)
        for i in range(1_500):
            stamp = (base + timedelta(hours=i)).isoformat(timespec="minutes")
            writer.writerow([stamp, repr(i * 0.37), repr(i / 3.0)])
        for line in buf.getvalue().splitlines():
            datetime.fromisoformat(line.split(",", 1)[0])
        if self._matrix is not None:
            import numpy

            for _ in range(6):
                q, r = numpy.linalg.qr(self._matrix)
                numpy.linalg.solve(r, q.T @ self._matrix[:, 0])
        return time.perf_counter() - start


def corrected_times(walls: list[float], probe_s: list[float], reference_s: float) -> list[float]:
    """Each wall time at the reference speed.

    ``probe_s[i]`` is the mean of the probes right before and after interval
    i. The correction uses the median of that value over the interval and its
    ``NEIGHBOURS`` on either side: one probe pair samples too little of a call
    that takes over a second, and the median ignores a probe that hit a short
    burst of contention.
    """
    return [
        wall * reference_s / statistics.median(probe_s[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
        for i, wall in enumerate(walls)
    ]
