"""Host-speed correction of the benchmark's timings.

The speed of a shared virtual machine drifts: on the 2-vCPU guest this
benchmark was tuned on, a fixed pure-Python task took anywhere from 0.14 to
0.27 s over four minutes, in 20-second blocks, with almost no steal time
reported.  Raw times of the same code then spread by more than any useful
bound.  So every timed phase also times a fixed calibration task that does
not use crystref: exact Fraction elimination on a fixed matrix, the kind of
interpreter-bound rational arithmetic crystref spends its time on.  The task
runs at the start and the end of the phase and, from a SIGALRM handler, every
INTERVAL_S in between.

A phase reports two times:

* raw_s: the phase's wall time, less the calibration tasks run inside it;
* ref_s: raw_s converted to reference seconds, that is seconds on a host where
  one calibration task takes REFERENCE_S.  It is raw_s times the mean of
  REFERENCE_S / t over the phase's calibration times t, since work done in an
  interval is its length times the speed during it.

A faster crystref lowers ref_s just as it lowers raw_s; a slower host lowers
the calibration's speed along with crystref's and leaves ref_s about the same.
On that guest, over four minutes of repeated oracle and wide_box inputs, with
the task every 0.5 s, the quartile spread of single timings fell from 0.31 and
0.29 (raw_s) to 0.10 and 0.07 (ref_s).  This module imports fractions, which
crystref imports too, so a child that imports it first leaves that import out
of its set-up time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.02      # one calibration task at the reference speed
INTERVAL_S = 0.25       # wall time between calibration tasks inside a phase
EDGE_SAMPLES = 2        # calibration tasks at each end of a phase

_SIZE = 7
_MATRIX = [[Fraction((5 * i + 3 * j * j + 1) % 17 - 8, (i * j + 2 * i + j) % 7 + 1)
            for j in range(_SIZE)] for i in range(_SIZE)]
_ROUNDS = 10


def calibration_task() -> float:
    """Seconds taken by one fixed round of Fraction row reductions."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        m = [row[:] for row in _MATRIX]
        for i in range(_SIZE):
            pivot = next((r for r in range(i, _SIZE) if m[r][i]), None)
            if pivot is None:
                continue
            m[i], m[pivot] = m[pivot], m[i]
            inv = 1 / m[i][i]
            for r in range(_SIZE):
                if r != i and m[r][i]:
                    f = m[r][i] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return time.perf_counter() - start


class Phase:
    """Times the block it wraps, with calibration tasks at its ends and,
    when `periodic`, every INTERVAL_S inside it.  Leave `periodic` off where
    something else times the wrapped calls (the traced run), so that no
    calibration lands inside them."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.calibrations: list[float] = []
        self.inside = 0.0
        self.raw_s = self.ref_s = float("nan")

    def _tick(self, signum, frame):
        t = calibration_task()
        self.calibrations.append(t)
        self.inside += t

    def __enter__(self) -> "Phase":
        self.calibrations = [calibration_task() for _ in range(EDGE_SAMPLES)]
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = end - self._start - self.inside
        self.calibrations += [calibration_task() for _ in range(EDGE_SAMPLES)]
        self.ref_s = self.raw_s * self.speed

    @property
    def speed(self) -> float:
        """Mean host speed over the phase, as a share of the reference."""
        return sum(REFERENCE_S / t for t in self.calibrations) / len(self.calibrations)
