"""The machine's speed, sampled while a workload runs, to scale its times.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python loop takes from 0.020 to 0.040 s within a minute, and a
slow spell can last minutes, longer than a whole run. The drift is in CPU
time as much as in wall time, so neither clock steadies the numbers.

`SpeedProbe` runs fixed references from a SIGALRM handler every `INTERVAL`
seconds of the run. They are benchmark code, not program code, so they
cost the same on every commit. A time the benchmark reports is the
measured time scaled by a reference's nominal time over the lower quartile
of that reference's times in a window around the measured interval: it
reads as the time on a machine where the reference takes its nominal time.
A program change moves the measured time and not the reference, so it
moves the scaled time by the same share.

A drift does not slow all code alike: in a slow spell an interpreter loop
can lose 60% while a BLAS product loses 15%, and the workloads fall in
between. So there are two references:

- `interpreter`: a Python loop and numpy calls on small arrays, like SMO
  updates, selectors, single-row predictions and table parsing;
- `kernel`: a polynomial-kernel block, a BLAS product and an elementwise
  power, like the Gram matrices that dominate exp1;

and an interval is scaled by a blend of the two, the `interpreter` share
of it set per workload (see workloads.py).

The lower quartile, not the median: reference times fall in two groups,
runs on warm caches and runs slowed by what the program did just before the
tick (after a large kernel build, for instance). The share of the second
group depends on the program, while the first tracks the machine.

The handler's own time is kept out of every measured interval: `clock()`
is `perf_counter()` minus the time spent in the handler so far, and the
ticks are stamped on that same clock.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.025  # seconds between ticks; a tick runs both references
WINDOW = 0.25  # seconds either side of an interval whose ticks scale it
MIN_TICKS = 15  # the window widens to at least this many ticks
QUANTILE = 0.25  # of the reference times in the window

_ROWS = np.random.default_rng(0).standard_normal((150, 21))
_X = np.random.default_rng(1).standard_normal(21)
_KERNEL_ROWS = np.random.default_rng(2).standard_normal((120, 21))


def interpreter_reference() -> float:
    """About 0.8 ms of an interpreter loop and numpy calls on small arrays."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    acc = 0.0
    for _ in range(120):
        v = _ROWS @ _X
        v += 1.0
        v **= 2
        acc += float(v.max())
    return s + acc


def kernel_reference() -> float:
    """About 0.9 ms of a 120 x 120 cubic polynomial-kernel block."""
    k = _KERNEL_ROWS @ _KERNEL_ROWS.T
    k += 1.0
    k **= 3
    return float(k[0, 0])


# name -> (reference, its lower-quartile time on the 2-core x86-64 VM the
# baseline comes from, in a quiet spell); the nominal time only fixes the
# scale of the reported times
REFERENCES = {
    "interpreter": (interpreter_reference, 0.75e-3),
    "kernel": (kernel_reference, 0.9e-3),
}


class SpeedProbe:
    """Reference ticks on the work clock; `scale(a, b, share)` for an interval."""

    def __init__(self):
        self.spent = 0.0  # seconds spent in the handler so far
        self.stamps: list[float] = []  # work-clock time of each tick
        self.refs: dict[str, list[float]] = {name: [] for name in REFERENCES}
        self._previous = None

    def clock(self) -> float:
        """perf_counter() without the handler's time; a tick between the
        two reads makes them disagree, and the read is repeated."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.spent)
        for name, (reference, _) in REFERENCES.items():
            r0 = time.perf_counter()
            reference()
            self.refs[name].append(time.perf_counter() - r0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        for reference, _ in REFERENCES.values():
            reference()  # warm
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, a: float, b: float, share: float) -> float:
        """1 over the machine's slowness around [a, b]: each reference's
        QUANTILE time at the ticks within WINDOW of [a, b] on the work clock
        (the window widened to MIN_TICKS ticks) over its nominal time,
        blended with weight `share` on `interpreter` and the rest on
        `kernel`."""
        n = len(self.stamps)
        if not n:
            raise RuntimeError("the speed probe recorded no tick")
        lo = bisect.bisect_left(self.stamps, a - WINDOW)
        hi = bisect.bisect_right(self.stamps, b + WINDOW)
        while hi - lo < min(MIN_TICKS, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        slowness = {
            name: float(np.quantile(self.refs[name][lo:hi], QUANTILE)) / nominal
            for name, (_, nominal) in REFERENCES.items()
        }
        return 1.0 / (share * slowness["interpreter"] + (1.0 - share) * slowness["kernel"])

    def ref_quantiles_s(self) -> dict[str, float]:
        """The QUANTILE of each reference's times over the whole run."""
        return {name: float(np.quantile(v, QUANTILE)) for name, v in self.refs.items()}


class PlainClock:
    """The clock of a traced run: no probe, no scaling."""

    spent = 0.0

    @staticmethod
    def clock() -> float:
        return time.perf_counter()

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def scale(self, a: float, b: float, share: float) -> float:
        return 1.0
