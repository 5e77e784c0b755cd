"""The clock of the benchmark, and how fast this process runs, so that
times can be reported at a fixed nominal speed.

The benchmark runs on a shared virtual machine.  When the host gives this
process's CPU to another tenant, wall time runs on but the process waits;
over a 30-second run such pauses land on a few instances each and move the
upper percentiles.  So every duration is taken with `clock`: the CPU time
of this process and of the child processes it has waited for.  smtcore is
single-threaded and does no I/O on the measured path, so on an idle
machine this equals wall time; a change that moved work into a child
process still pays for it.  Parallel work within an instance would not
shorten it, which no part of smtcore attempts.

What the other tenants leave - shared caches, memory bandwidth, clock
rate - still changes the speed of the process, by up to a factor of two,
and it can change within a second.  A fixed piece of pure-Python work,
which calls no smtcore code, is timed right before and right after every
measured operation, and `scale` converts the operation's duration into
the time it would have taken at the speed at which the reference takes
NOMINAL_S, by the mean of those two timings.  A running median over
many probes would lag behind changes shorter than its window: over 15
probes, it made the 90th percentile of `prop-core` three times as spread
from run to run.  The reference runs with the cyclic collector off, so
collecting what smtcore allocated or keeps alive is not timed in it.  A
change to smtcore then moves the scaled times as it moves the measured
ones.
"""
from __future__ import annotations

import gc
import resource
import time
from fractions import Fraction

# about what the reference work takes on an unloaded x86-64 core, CPython 3.11
NOMINAL_S = 0.0005


def clock() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_work() -> Fraction:
    """Dict, tuple and Fraction work, the mix the solver's inner loops use."""
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(200):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc


class Speed:
    def __init__(self):
        self.samples: list[float] = []  # every probe's duration, for the run's report

    def probe(self) -> float:
        """Time the reference work once; returns its duration."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            reference_work()
            elapsed = clock() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """`seconds` at nominal speed, given the probes that bracket it."""
        return seconds * 2 * NOMINAL_S / (before + after)
