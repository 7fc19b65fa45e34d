"""A clock that runs at the host's current speed, for timing on a shared VM.

On a host shared with other tenants the same pure-Python work takes up to 65%
longer in some seconds than in others, so wall time spreads far more between
runs than the program's work does.  ``Probe`` measures that speed while the
workload runs: a SIGALRM timer interrupts the process every ``INTERVAL_S``
seconds and times five small fixed kernels (dictionary updates, allocation,
integer arithmetic, float maths, a pointer chase through 2 MB).  Each
kernel's time is compared with its time at the reference speed
(``REF_S``); the geometric mean of the five ratios is the host's speed until
the next sample.

``Probe.clock()`` integrates that speed over wall time, leaving out the time
spent in the probe itself.  An interval of the clock is therefore the time
the same work takes at the reference speed.  Both the probe's cost (about
3% of wall time) and its reference speed are the same for every commit, so
comparisons between commits are not biased by them.
"""
from __future__ import annotations

import gc
import math
import signal
import time
from array import array

INTERVAL_S = 0.05
# time of each kernel at the usual speed of a 2-vCPU Intel Xeon (2.1 GHz) VM
# under CPython 3.11; these set the unit of the clock, not its steadiness
REF_S = (0.000110, 0.000096, 0.000171, 0.000157, 0.000132)

# chain[j] = (5 j + 1) mod 2^18 is one cycle through all 2^18 slots (2 MB)
# whose steps jump far apart, so most steps miss the nearer caches
_CHAIN = array("l", ((5 * j + 1) & ((1 << 18) - 1) for j in range(1 << 18)))


def _dicts() -> int:
    d: dict = {}
    acc = 0
    for i in range(600):
        k = i & 255
        d[k] = d.get(k, 0) + i
        acc += (i * 7) % 13
    return acc + len(d)


def _alloc() -> int:
    rows = [(i, str(i), [i]) for i in range(250)]
    index = {s: t for t, s, _ in rows}
    return len(index)


def _ints() -> int:
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return acc


def _floats() -> float:
    s = 0.0
    for i in range(1, 500):
        s += math.exp(-i * 1e-3) * math.sqrt(i) + math.floor(i * 0.37)
    return s


def _chase() -> int:
    j = 0
    chain = _CHAIN
    for _ in range(2000):
        j = chain[j]
    return j


KERNELS = (_dicts, _alloc, _ints, _floats, _chase)


def sample() -> tuple[float, ...]:
    """Times of one warm run of each kernel, in seconds.

    Each kernel runs once untimed first, so that its time does not depend on
    what the interrupted program left in the caches.  The garbage collector
    is off meanwhile: a collection started by the probe's allocations would
    walk the program's objects and be charged to the probe.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        out = []
        for kernel in KERNELS:
            kernel()
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return tuple(out)


def speed_of(times: tuple[float, ...]) -> float:
    """Host speed relative to the reference: geometric mean of REF_S / time."""
    return math.exp(sum(math.log(ref / t) for ref, t in zip(REF_S, times)) / len(times))


class Probe:
    """Host-speed clock; ``start`` it once per process, before the work."""

    def __init__(self) -> None:
        self.samples = 0
        self.probe_s = 0.0  # wall time spent inside the probe
        self._work = 0.0  # reference-speed seconds up to _last_end
        self._speed = 1.0
        self._last_end = time.perf_counter()
        self.speeds: list[float] = []

    def _measure(self) -> None:
        t0 = time.perf_counter()
        speed = speed_of(sample())
        t1 = time.perf_counter()
        # the interval since the last sample ran at the speed measured then
        self._work += (t0 - self._last_end) * self._speed
        self._speed = speed
        self._last_end = t1
        self.probe_s += t1 - t0
        self.samples += 1
        self.speeds.append(speed)

    def _on_alarm(self, signum, frame) -> None:
        self._measure()

    def start(self) -> None:
        self._last_end = time.perf_counter()
        self._measure()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds of work at the reference speed since ``start``."""
        return self._work + (time.perf_counter() - self._last_end) * self._speed
