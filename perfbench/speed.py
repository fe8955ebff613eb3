"""Timings at a fixed reference speed of the machine.

The machine the bounds were set on is a shared virtual machine whose
speed swings by 20-30% within seconds: a fixed pure-Python loop, timed
back to back for a minute, had 5-second medians that ranged over 0.57 of
their overall median.  No run length averages that away, so every timed
run also times a fixed reference kernel (plain Python: tuple
composition, a dict, a set and ``Fraction`` sums, the kind of work the
package does), and each timing is multiplied by a reference time over the
median kernel time around it.  A timing is thus given as it would read at
the speed at which the kernel takes the reference time.

The kernel is part of the benchmark and never changes with the program,
so a program that gets slower or faster moves the scaled timings as much
as the wall times.  ``perfbench/NOTES.md`` has the measurements behind
the choices here.
"""

from __future__ import annotations

import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
FORKED_REFERENCE_S = 0.003  # the forked kernel took 1.9-3.3 ms there
SAMPLE_EVERY_S = 0.1  # between ops, when no timer runs
TICK_S = 0.05  # timer period of in-process sampling
WINDOW = 5  # samples on each side of a short timing that set its speed
INSIDE = 3  # a timing with this many samples inside is set by those alone
BURST = 5  # samples back to back at either end of a stretch the timer does not cover

_P = tuple(range(2, 41)) + (1,)
_Q = tuple(range(40, 0, -1))


def kernel():
    p, q = _P, _Q
    acc, seen, index = Fraction(0), set(), {}
    for _ in range(60):
        r = tuple(p[q[i] - 1] for i in range(40))
        index = {x: i for i, x in enumerate(r)}
        seen.add(r)
        acc += Fraction(sum(1 for i in range(40) if r[i] == i + 1) + 1, 40)
        p, q = q, r
    return acc, len(seen), len(index)


def forked_kernel():
    """The kernel in a forked child, timed from fork to reap as a CLI
    request is, so the sample also pays for the fork and exit."""
    pid = os.fork()
    if pid == 0:
        try:
            kernel()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)


class Speed:
    """Kernel samples of one run: midpoint time and duration of each.

    Between ``start`` and ``stop`` a timer runs the kernel every
    ``TICK_S`` seconds from a signal handler, also inside long ops; the
    handler's time is taken out of every timing it falls in.  Without the
    timer, ``due`` samples between ops."""

    def __init__(self, sampler=kernel, reference_s=REFERENCE_S):
        self.sampler, self.reference_s = sampler, reference_s
        self.at, self.took = [], []
        self.since = 0.0  # timed work since the last sample
        self.ticking = False

    def sample(self, n=1):
        for _ in range(n):
            t0 = perf_counter()
            self.sampler()
            t1 = perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
        self.since = 0.0

    def start(self):
        self.sample(BURST)  # so the first timings have samples near them
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.ticking = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticking = False

    def due(self, seconds_taken):
        """Count ``seconds_taken`` of timed work; sample when one is due."""
        if self.ticking:
            return
        self.since += seconds_taken
        if self.since >= SAMPLE_EVERY_S:
            self.sample()

    def net(self, t0, dt):
        """Seconds from ``t0`` for ``dt`` less the samples inside, and
        ``REFERENCE_S`` over the median kernel time that sets their speed:
        of the samples inside, or else of the nearest ones."""
        i, j = bisect_left(self.at, t0), bisect_right(self.at, t0 + dt)
        inside = self.took[i:j]
        near = inside if len(inside) >= INSIDE else self.took[max(0, i - WINDOW):j + WINDOW]
        return dt - sum(inside), self.reference_s / statistics.median(near)

    def scale(self, timings):
        """``timings`` as (start, seconds) pairs, at reference speed, and
        the same without the samples inside them."""
        scaled, wall = [], []
        for t0, dt in timings:
            net, factor = self.net(t0, dt)
            scaled.append(net * factor)
            wall.append(net)
        return scaled, wall

    def around(self, fn):
        """``fn()`` between two bursts of samples; returns its result and
        ``REFERENCE_S`` over the median kernel time of the bursts."""
        self.sample(BURST)
        before = self.took[-BURST:]
        result = fn()
        self.sample(BURST)
        return result, self.reference_s / statistics.median(before + self.took[-BURST:])

    def timed(self, steps):
        """Run ``steps`` (callables) in order while the timer runs.
        Returns the last step's result, the summed time at reference speed
        and the summed wall time."""
        total, wall, result = 0.0, 0.0, None
        for step in steps:
            t0 = perf_counter()
            result = step()
            net, factor = self.net(t0, perf_counter() - t0)
            total += net * factor
            wall += net
        return result, total, wall

    def median_s(self):
        return statistics.median(self.took)
