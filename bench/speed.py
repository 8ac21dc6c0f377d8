"""Host-speed probe that makes timings comparable across a noisy host.

On a shared host the speed of a core flips between two levels (up to 2x
apart) within seconds, and CPU time moves with wall time, so medians over a
run still drift from run to run.  The probe times a fixed pure-Python kernel
every ``INTERVAL`` seconds from a ``SIGALRM`` handler, in the measured process
and without any extra thread, and rescales each measured interval to the
speed at which the kernel takes its nominal time:

    normalized = (interval - probe time inside it) * mean(nominal / kernel time)

The samples are spread evenly in time, so their mean speed is the
interval's; a short interval uses the nearest samples.  Each workload names
the kernel whose code slows down most like its own (``KERNELS``).
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

INTERVAL = 0.01
_NEAREST = 4


class _Q:
    """A minimal reduced fraction: object allocation and method dispatch the
    way ``fractions.Fraction`` does them, without importing it."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, o: "_Q") -> "_Q":
        return _Q(self.n * o.d + o.n * self.d, self.d * o.d)

    def __mul__(self, o: "_Q") -> "_Q":
        return _Q(self.n * o.n, self.d * o.d)


_ROW = [(i % 7 - 3, i % 5 + 1) for i in range(8)]


def _int_loop(steps: int) -> None:
    n, d = 0, 1
    for i in range(1, steps):
        n, d = n * (i % 5 + 1) + (i % 7) * d, d * (i % 5 + 1)
        g = gcd(n, d)
        n, d = n // g, d // g


def int_kernel() -> None:
    """Reduced-fraction arithmetic on plain ints: tight interpreter loops.
    Of the kernels tried, it tracked the numpy-driven sweeps best."""
    _int_loop(200)


def mixed_kernel() -> None:
    """Integer loops plus sums of products of small rational objects.  Of the
    kernels tried, it tracked the workbench's exact tuple arithmetic best."""
    _int_loop(120)
    row = [_Q(a, b) for a, b in _ROW]
    acc = _Q(0, 1)
    for a in row:
        for b in row:
            acc = acc + a * b


# kernel kind -> (kernel, its time on the 2-core development host at full speed)
KERNELS = {"int": (int_kernel, 4.3e-5), "mixed": (mixed_kernel, 8.4e-5)}


class SpeedProbe:
    def __init__(self, kind: str):
        self.kernel, self.nominal = KERNELS[kind]
        self.starts: list[float] = []
        self.times: list[float] = []  # kernel time of each sample
        self.costs: list[float] = []  # time each sample took from the measured code

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.kernel()  # the first run refills the caches the measured code evicted
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t2 - t1)
        self.costs.append(t2 - t0)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def normalize(self, t0: float, t1: float) -> float:
        """Rescale the interval [t0, t1] to the nominal host speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        near = self.times[lo:hi]
        if len(near) < _NEAREST:
            near = self.times[max(0, lo - _NEAREST // 2):hi + _NEAREST // 2]
        speed = sum(self.nominal / k for k in near) / len(near)
        return (t1 - t0 - sum(self.costs[lo:hi])) * speed
