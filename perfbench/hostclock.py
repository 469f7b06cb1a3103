"""Timings scaled to a reference host speed, for a shared host whose speed drifts.

On a few cores of a shared host the same pure-Python work runs up to twice as
fast in one second as in the next, and the mean speed drifts over minutes.
Raw wall times then measure the host more than the program.  Every time the
benchmark reports is therefore scaled: a fixed pure-Python kernel, which
imports nothing of ``bfc``, is timed right next to the work, and each stretch
of work counts ``REF_KERNEL_S / kernel time`` of its wall time.  A change to
``bfc`` leaves the kernel as it is, so it shows in full; a slower host slows
work and kernel alike and cancels out.  The results are seconds at the speed
at which the kernel takes ``REF_KERNEL_S``, this host's typical speed.

``HostClock`` times a region inside one process.  An interval timer
interrupts the region every ``PERIOD_S`` seconds to time the kernel, and each
stretch between two calibrations is scaled by the mean of the two.  The time
spent in the kernel is left out.

Short child processes (set-up, one-shot commands) spend much of their time
starting an interpreter and importing, which a slow host slows less than
the kernel.  ``ProcessScale`` scales them instead by a reference process: an
interpreter that imports a fixed set of standard-library modules, started
just before each measured one.  Their times are scaled by
``REF_PROCESS_S / median of the last WINDOW reference times``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the kernel's time, as calibrate() reports it, at this host's typical speed
REF_KERNEL_S = 0.00215
PERIOD_S = 0.1  # seconds of work between two calibrations in a HostClock
REPS = 2  # kernel passes per calibration; the fastest counts

# the reference process, and its wall time at this host's typical speed
REF_PROCESS_CODE = (
    "import argparse, dataclasses, decimal, email.message, fractions, http.client,"
    " json, random, statistics, typing, xml.dom.minidom"
)
REF_PROCESS_S = 0.11
WINDOW = 9


def kernel() -> tuple[int, Fraction]:
    """Fixed pure-Python work of the kinds bfc does: integer bit operations,
    Fraction arithmetic, dict updates and calls."""
    acc, counts, q = 0, {}, Fraction(0)
    for i in range(1, 1200):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        acc += bin(x).count("1")
        counts[x & 255] = counts.get(x & 255, 0) + 1
        if i % 8 == 0:
            q += Fraction(i, i + 7)
    return acc, q


def calibrate(reps: int = REPS) -> float:
    """Seconds of the fastest of ``reps`` kernel passes."""
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """A clock of scaled seconds for one region of one process.

    ``start()`` and ``stop()`` bound the region; ``now()`` reads the scaled
    seconds since ``start()``.  ``pause`` and ``resume``, if given, are called
    around every calibration, to keep a profiler out of it.  Only the main
    thread may use a HostClock, since it takes over ``SIGALRM``.
    """

    def __init__(self, pause=None, resume=None):
        self.pause = pause
        self.resume = resume
        self.raw_s = 0.0
        self.calibrations = 0
        self._state = (0.0, 0.0, REF_KERNEL_S)  # (scaled s, stretch start, its calibration)
        self._old_handler = None

    def start(self) -> None:
        cal = calibrate()
        self.calibrations = 1
        self.raw_s = 0.0
        self._state = (0.0, perf_counter(), cal)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """End the region; return its scaled seconds."""
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._close(end, calibrate())
        return self._state[0]

    def now(self) -> float:
        t = perf_counter()
        scaled, mark, cal = self._state
        return scaled + (t - mark) * REF_KERNEL_S / cal

    def _close(self, end: float, cal: float) -> None:
        scaled, mark, prev = self._state
        self.raw_s += end - mark
        self.calibrations += 1
        self._state = (scaled + (end - mark) * 2 * REF_KERNEL_S / (prev + cal), end, cal)

    def _tick(self, signum, frame) -> None:
        end = perf_counter()
        if self.pause:
            self.pause()
        cal = calibrate()
        if self.resume:
            self.resume()
        self._close(end, cal)
        self._state = (self._state[0], perf_counter(), cal)


class ProcessScale:
    """Scale factors for child-process times from the reference process.

    ``run(argv)`` must run a child process to its end and return its wall
    seconds."""

    def __init__(self, python: str, run):
        self.argv = [python, "-c", REF_PROCESS_CODE]
        self.run = run
        self.recent: list[float] = []

    def next_factor(self) -> float:
        """Time one reference process; return the factor for the next child."""
        self.recent = (self.recent + [self.run(self.argv)])[-WINDOW:]
        return REF_PROCESS_S / statistics.median(self.recent)
