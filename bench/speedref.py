"""Machine-speed reference: scales measured times to a fixed machine speed.

The shared virtual machines this benchmark runs on change speed by up to
2x within seconds (the host's other tenants), and every qncalc time moves
with them.  A ``Sampler`` measures that speed inside the worker itself,
on the same core and at the same moments as the work: every
``INTERVAL_S`` of wall time, a ``SIGALRM`` handler times ``reference()``,
a fixed pure-Python snippet of dict, tuple and integer operations that
owes nothing to qncalc.  A window's *speed factor* is the mean of
``REF_NOMINAL_S / duration`` over the samples taken in it, and a window
is reported as

    (wall time - handler time inside it) * speed factor,

the time the same work would take on a machine where ``reference()``
runs in ``REF_NOMINAL_S``.  A change to qncalc moves the reported time
as it moves the wall time; a change in the host's speed moves both the
wall time and the reference, and cancels.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL_S = 0.02
# reference() takes 190-360 us on the 2-vCPU Xeon host (2.1 GHz,
# Python 3.11) this benchmark was built on; 250 us is its typical speed
REF_NOMINAL_S = 250e-6
# a window with fewer samples than this takes the whole process's factor
MIN_SAMPLES = 5


def reference() -> int:
    table = {}
    acc = 0
    for i in range(1, 300):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
        acc += len(tuple(range(i % 9))[1:])
    return acc


class Sampler:
    def __init__(self):
        self.starts = []      # start of each sample, perf_counter seconds
        self.speeds = []      # REF_NOMINAL_S / duration of each sample
        self.busy = [0.0]     # busy[i]: handler seconds in samples before i
        self.sampling = False

    def sample(self, *_):
        # a signal that arrives during a sample would nest a second one
        if self.sampling:
            return
        self.sampling = True
        # no collection inside the handler: it would time qncalc's garbage
        # as the snippet's and take it out of qncalc's time
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.record(t0, time.perf_counter() - t0)
        if enabled:
            gc.enable()
        self.sampling = False

    def record(self, start, duration):
        self.starts.append(start)
        self.speeds.append(REF_NOMINAL_S / duration)
        self.busy.append(self.busy[-1] + duration)

    def install(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()         # so that even a short process has a factor

    def _range(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def handler_s(self, t0=float("-inf"), t1=float("inf")) -> float:
        """Handler seconds of the samples that start in ``[t0, t1)``."""
        i, j = self._range(t0, t1)
        return self.busy[j] - self.busy[i]

    def factor(self, t0=float("-inf"), t1=float("inf")) -> float:
        i, j = self._range(t0, t1)
        if j - i < MIN_SAMPLES:
            i, j = 0, len(self.speeds)
        return sum(self.speeds[i:j]) / (j - i)

    def scaled(self, t0, t1, factor=None) -> float:
        """The window ``[t0, t1)`` without handler time, at nominal speed."""
        if factor is None:
            factor = self.factor(t0, t1)
        return (t1 - t0 - self.handler_s(t0, t1)) * factor
