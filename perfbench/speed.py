"""Machine-speed sampling for untraced passes.

The benchmark machine is shared, and other tenants slow it by up to half,
for seconds to minutes at a time.  A fixed unit of pure-Python work (no
submax, no numpy) slows with it: its time correlates at about 0.9 with both
Python-bound and numpy-bound trials run next to it.  So while a pass runs, a
timer signal times one unit every ``INTERVAL_S`` seconds, and the pass times
two more at each trial boundary (:meth:`SpeedSampler.mark`).  A time taken
over an interval is then reported at the reference speed::

    (raw - calibration work inside) * UNIT_REF_S / mean(unit times in and next to it)

The signal handler runs in the pass's only thread, between bytecodes, so
it measures the core the trials run on and never runs concurrently with
them.
"""

from __future__ import annotations

import bisect
import signal
import time

UNIT_LOOPS = 6000
# Time of one unit at full speed on the reference machine (a 2-vCPU Intel
# Xeon VM, Python 3.11.7).  Reported times are at that speed.
UNIT_REF_S = 0.0007
INTERVAL_S = 0.04
# Units that end this close to an interval count towards its speed.
MARGIN_S = 0.01


class SpeedSampler:
    """Unit times, kept in the order they ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.busy = False

    def unit(self) -> None:
        if self.busy:  # the timer fired during a boundary unit: skip, do not nest
            return
        self.busy = True
        t0 = time.perf_counter()
        s = 0
        table = {}
        for i in range(UNIT_LOOPS):
            s += i * i % 7
            table[i & 1023] = s
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.busy = False

    def mark(self) -> None:
        """Two units at a boundary, so that a short interval has samples."""
        self.unit()
        self.unit()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.unit())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def calibration_inside(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.durations[lo:hi])

    def at_reference_speed(self, t0: float, t1: float) -> float:
        """Seconds that ``[t0, t1]``, less the calibration work inside it,
        would take at the reference speed."""
        lo = bisect.bisect_left(self.ends, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.ends, t1 + MARGIN_S)
        near = self.durations[lo:hi]
        if not near:
            raise RuntimeError(f"no speed sample near [{t0}, {t1}]")
        net = t1 - t0 - self.calibration_inside(t0, t1)
        return net * UNIT_REF_S * len(near) / sum(near)
