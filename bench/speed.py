"""Host-speed calibration of timings on a shared machine.

On a small VM that shares its host, the speed of the same pure-Python code
moves by up to ±30% within seconds, with no steal time and with CPU time
moving as wall time does.  Raw wall times of unchanged code therefore
spread from run to run by more than any useful regression bound.

The sampler here runs a short fixed kernel at the start, every
``PERIOD_S`` of wall time while the timed code runs (from a ``SIGALRM``
handler, which Python runs between bytecodes of the timed code), and at
the end.  Each interval of program time between two kernel runs is
rescaled by the kernel's duration at its two ends:

    calibrated_s = sum(interval_s * KERNEL_REF_S / mean(kernel_s at its ends))

that is, the time the program would have taken at the reference speed, at
which one kernel run takes ``KERNEL_REF_S``.  The kernel's own time is
excluded from both the raw and the calibrated figure.  The kernel mixes
the operations the package spends its time in (integer arithmetic, list
indexing, set and dict updates), so that what slows the host's run of the
package slows the kernel too; a plain arithmetic loop tracked the package
less well.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
KERNEL_REF_S = 0.002  # the reference speed: one kernel run takes 2 ms
_TABLE = list(range(4096))


def kernel() -> int:
    """A fixed piece of pure-Python work: about 2 ms on one Xeon vCPU, CPython 3.11."""
    seen = set()
    counts = {}
    acc = 0
    j = 0
    for i in range(5500):
        j = (j * 1103 + 12345) & 4095
        v = _TABLE[j]
        acc += v * i % 7
        seen.add(v)
        counts[v & 255] = counts.get(v & 255, 0) + 1
    return acc + len(seen) + len(counts)


class SpeedSampler:
    """Calibrates the wall time of the code run between ``start`` and ``stop``."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (kernel start, kernel end)
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.marks.append((t0, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def raw_s(self) -> float:
        """Program time between start and stop, kernel runs excluded."""
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    def calibrated_s(self) -> float:
        total = 0.0
        for a, b in zip(self.marks, self.marks[1:]):
            speed = ((a[1] - a[0]) + (b[1] - b[0])) / 2
            total += (b[0] - a[1]) * KERNEL_REF_S / speed
        return total

    def kernel_median_s(self) -> float:
        return statistics.median(b - a for a, b in self.marks)
