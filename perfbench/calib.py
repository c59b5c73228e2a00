"""Machine-speed calibration interleaved with the timed work.

The benchmark runs on a few cores of a shared host, whose speed drifts by
25-40% over seconds to minutes as other tenants load it.  A fixed piece of
numpy/scipy work, the *burst*, is run from a SIGALRM handler every
``INTERVAL_S`` of wall time while the workload runs.  The bursts use fixed
arrays and no memkern code, so a change to the program leaves their cost
alone; their duration tracks how fast the machine is at that moment.

A timed interval is then reported in *reference seconds*: the program's own
time in the interval (the bursts inside it are taken out), with each stretch
between two bursts scaled by ``REFERENCE_BURST_S`` over the local median
burst duration.  On a machine running at reference speed the two agree.

The handler runs between bytecodes, so a long call into C delays a burst
rather than interrupting it; the program's results are unaffected.

Set-up time is measured in fresh interpreters, where no burst can run.  Each
set-up probe is followed by a probe of ``IMPORT_REFERENCE``, a fresh
interpreter that imports numpy alone, and set-up time is scaled by
``REFERENCE_IMPORT_S`` over the median of those.  Loader work tracks loader
work: the numpy import follows the machine's speed far better than the
bursts do, and it is a fixed cost outside the program.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.04
# Median burst duration over 100-second runs on the reference machine: 2
# vCPUs of an Intel Xeon at 2.1 GHz, one OpenBLAS thread.
REFERENCE_BURST_S = 1.4e-3
IMPORT_REFERENCE = "import numpy; print('ready', flush=True)"
# Median of the import reference on the same machine.
REFERENCE_IMPORT_S = 0.149
# Bursts on each side of a stretch whose median gives its local speed.
SMOOTH = 3


class Calibrator:
    """Installs the burst timer while entered; ``elapsed`` needs ``finish``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 64
        self._band = np.vstack([np.full(n, -1.0), np.full(n, 4.0),
                                np.full(n, -1.0)])
        self._rhs = rng.standard_normal(n)
        self._history = rng.standard_normal((256, 128))
        self._weights = rng.random(256)
        self._grid = np.linspace(0.0, 8.0, 4096)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous = None
        self._knots = self._clock = self._raw = None

    def burst(self) -> float:
        """Small banded solves, a growing history matvec, vector maths."""
        y = self._rhs
        for k in range(1, 25):
            y = scipy.linalg.solve_banded((1, 1), self._band, y)
            h = self._weights[:8 * k] @ self._history[:8 * k]
            y = np.maximum(y, 0.0) + 1e-3 * h[:64]
        z = np.exp(-self._grid) * np.sin(3.0 * self._grid)
        return float(z.sum() + y.sum())

    def _handler(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.burst()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        # restart system calls the signal lands in, rather than failing them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def finish(self, first: float, last: float) -> None:
        """Build the reference clock over [first, last] from the bursts."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        if starts.size < 2 * SMOOTH + 1:
            raise RuntimeError(f"only {starts.size} calibration bursts ran")
        durations = ends - starts
        local = np.array([
            np.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(durations.size)])
        factor = REFERENCE_BURST_S / local
        # knots: first, s0, e0, s1, e1, ..., last; flat across each burst,
        # each gap scaled by the mean factor of the bursts that bound it
        gap_factor = np.concatenate(
            ([factor[0]], 0.5 * (factor[:-1] + factor[1:]), [factor[-1]]))
        knots = np.empty(2 * starts.size + 2)
        knots[0] = min(first, starts[0])
        knots[1:-1:2] = starts
        knots[2:-1:2] = ends
        knots[-1] = max(last, ends[-1])
        gaps = knots[1::2] - knots[0::2]
        rises = np.zeros(knots.size)
        rises[1::2] = gaps * gap_factor
        self._knots = knots
        self._clock = np.cumsum(rises)
        self._raw = np.cumsum(np.where(np.arange(knots.size) % 2 == 1,
                                       np.append(0.0, np.diff(knots)), 0.0))

    def elapsed(self, start: float, end: float, scaled: bool = True) -> float:
        """Program time in [start, end], in reference seconds if ``scaled``."""
        clock = self._clock if scaled else self._raw
        return float(np.interp(end, self._knots, clock)
                     - np.interp(start, self._knots, clock))

    def summary(self) -> dict:
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        return {"bursts": int(durations.size),
                "burst_median_s": float(np.median(durations)),
                "burst_seconds": float(durations.sum())}
