"""Interpreter-speed sampling, so that timings taken at different moments on
a shared machine can be compared.

On a shared virtual machine with 2 vCPUs the speed of pure-Python code
drifts by up to 1.7x within seconds, in wall and CPU time alike, so raw timings of the same
code taken minutes apart differ by more than any regression worth catching.
`Sampler` runs a fixed pure-Python kernel from a SIGALRM handler every
INTERVAL seconds while it is started, recording when and how long each run
took. `normalize` then converts an interval's raw duration into reference
time: it removes the kernel runs that fell inside the interval and scales
by KERNEL_REF_S over the mean kernel time around the interval (within
WINDOW_S of it, the slowest and fastest TRIM of the runs left out). A change
to plexus moves reference times as it moves raw ones, since the kernel does
not touch plexus; a slow or fast moment of the machine moves both the
interval and the kernel, and cancels out.
"""
from __future__ import annotations

import bisect
import gc
import itertools
import signal
import statistics
from time import perf_counter

INTERVAL = 0.025
# the kernel's time at the reference speed, about its time on an idle
# 2-vCPU virtual machine, so that reference times read close to raw ones
KERNEL_REF_S = 0.0003
# The machine's speed changes within a second: a window of 0.1 s and a
# mean trimmed of 10% at each end gave the smallest spread across runs of
# the four workloads among windows of 0.05-2 s and trims of 10-50% (the
# median)
WINDOW_S = 0.1
TRIM = 0.1


class _Ring:
    """Dispatches on its kind in an if-chain, as plexus's Semiring does; the
    kernel uses the last branch."""

    __slots__ = ("kind", "m")

    def __init__(self, kind, m):
        self.kind = kind
        self.m = m

    def add(self, x, y):
        if self.kind == "boolean":
            return x | y
        if self.kind == "tropical":
            return x if x <= y else y
        return (x + y) % self.m

    def mul(self, x, y):
        if self.kind == "boolean":
            return x & y
        if self.kind == "tropical":
            return x + y
        return (x * y) % self.m


_RING = _Ring("modular", 7)
_ENTRIES = tuple((i * 5 + 3) % 7 for i in range(27))
_NAMES = tuple(f"v{k}" for k in (12, 3, 7, 25, 1, 9, 18, 4))


def _entry(entries, idx):
    for i in idx:
        if not 0 <= i < 3:
            raise IndexError(i)
    return entries[(idx[0] * 3 + idx[1]) * 3 + idx[2]]


def kernel():
    """A small semiring contraction written in the style of plexus's inner
    loops (method dispatch, bounds-checked entry lookup, tuple indices,
    sorting and dicts of ids) but sharing no code with it. Interpreter
    slowdowns of a shared machine move plexus and this kernel in proportion,
    which a tight arithmetic loop does not (it under-reports them)."""
    r, out = _RING, []
    for _ in range(4):
        for i, j, k in itertools.product(range(3), repeat=3):
            acc = 0
            for p in range(3):
                acc = r.add(acc, r.mul(_entry(_ENTRIES, (i, j, p)), _entry(_ENTRIES, (p, k, j))))
            out.append(acc)
        order = {n: t for t, n in enumerate(sorted(_NAMES, key=lambda n: (len(n), n)))}
    return out, order


class Sampler:
    def __init__(self):
        self.starts = []
        self.durations = []

    def _tick(self, signum, frame):
        # a collection of plexus's objects must not land in a kernel sample
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, t0, t1):
        """Reference-speed duration of the raw interval [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.durations[i:j])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        around = sorted(self.durations[lo:hi] or self.durations)
        k = int(len(around) * TRIM)
        return own * KERNEL_REF_S / statistics.fmean(around[k:len(around) - k])

    def speed(self):
        """Median kernel speed over the whole sampling, relative to the
        reference: above 1 means the machine ran faster than reference."""
        return KERNEL_REF_S / statistics.median(self.durations)
