"""The machine's speed, sampled while a round runs.

The machine the benchmark was tuned on runs the same pure-Python code at
speeds up to a factor of two apart, in periods from under a second to
minutes, and its two CPUs do so independently of each other.  Process CPU
time follows wall time, so the process is not waiting: the CPU it runs on
is slower.  A run of a fixed length cannot average that away.

``Sampler`` interrupts the process every ``PERIOD_S`` seconds (``SIGALRM``)
and times one pass of ``kernel``, a fixed piece of pure-Python work made of
the same tuple compositions and set look-ups that tward's own code is made
of.  Its samples are taken on the CPU that runs the workload, interleaved
with the workload itself.  ``elapsed`` turns an interval into seconds at
the reference speed, the speed at which one pass of the kernel takes
``REF_S``: the interval, less the sampler's own time in it, times the mean
of ``REF_S / sample`` over the interval.  That mean weighs every moment of
the interval alike, and a pass that was held up (a page fault, an
interrupt) counts little.
"""
from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.005
REF_S = 100e-6  # one kernel pass at the reference speed

_N = 7
_P = tuple((3 * i + 1) % _N for i in range(_N))


def kernel() -> int:
    """Fixed work: 60 compositions of a 7-point permutation, kept in a set."""
    seen = set()
    p = _P
    for _ in range(60):
        p = tuple(_P[p[i]] for i in range(_N))
        seen.add(p)
    return len(seen)


class Sampler:
    def __init__(self):
        self.began = 0.0
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection would charge the workload's objects to the kernel
        t = time.monotonic()
        kernel()
        d = time.monotonic() - t
        if collecting:
            gc.enable()
        self.starts.append(t)
        self.durations.append(d)

    def start(self) -> None:
        for _ in range(20):  # let the interpreter specialise the kernel first
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        self.began = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, t0: float, t1: float) -> tuple[float, float, int]:
        """(speed, sampler seconds, samples) of the samples begun in [t0, t1).

        Speed is 1.0 at the reference speed.  It is the mean of
        REF_S / sample, each sample weighed by the time since the previous
        one began: a long call into C defers the signal, and the one sample
        taken after it then stands for the whole call."""
        speed = weight = own = 0.0
        count = 0
        prev = t0
        for s, d in zip(self.starts, self.durations):
            if t0 <= s < t1:
                gap = s - prev
                speed += gap * REF_S / d
                weight += gap
                own += d
                count += 1
                prev = s
        if not count or weight <= 0.0:
            raise RuntimeError(f"no speed sample in an interval of {t1 - t0:.3f} s")
        return speed / weight, own, count

    def elapsed(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed."""
        speed, own, _ = self.window(t0, t1)
        return (t1 - t0 - own) * speed
