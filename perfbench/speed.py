"""Host speed, measured with a fixed standard-library Fraction loop.

The shared 2-CPU host changes speed by up to 2x for stretches of a second to
a minute, independently on each CPU, so raw times of identical work spread
by 20-30 % between runs.  `Sampler` times a short slice of the loop every
INTERVAL_S seconds on a daemon thread of the worker, with the worker pinned
to one CPU, so each slice sees the speed the workload gets at that moment;
`Sampler.scale` converts a measured interval to the reference speed at
which one slice takes REFERENCE_SLICE_S.

The garbage collector is paused for the length of a slice, and a slice
frees every object it makes, so it ends with the collector's allocation
count where it began: a slice never runs or times a collection of the
program's heap, and leaves the program's collection counts unchanged.  The
scale factor is thus free of program-side effects.  (A slice of small-integer
arithmetic, which allocates nothing, tracked the workload's speed worse:
over repeated passes of one input, scaled times varied 4.2-4.7 % against
2.6-2.8 % with this slice.)  `probe` is a
longer run of the same loop that run.py times before and after a run, for
the record only.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from array import array
from fractions import Fraction

SLICE_STEPS = 300
INTERVAL_S = 0.05
REFERENCE_SLICE_S = 0.001


def fraction_loop(steps: int) -> float:
    """Seconds for `steps` Fraction additions with bounded denominators."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, steps + 1):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        if i % 64 == 0:
            acc = Fraction(0)
    return time.perf_counter() - start


def probe() -> float:
    return fraction_loop(40000)


def paused_gc_slice() -> float:
    """One slice of the Fraction loop with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fraction_loop(SLICE_STEPS)
    finally:
        if enabled:
            gc.enable()


def pin(cpu_index: int) -> None:
    """Pin this process to the `cpu_index`-th CPU it may use (modulo)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[cpu_index % len(cpus)]})


class Sampler:
    """Slice timings taken alongside the workload."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.seconds = array("d")
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stopped:
            time.sleep(INTERVAL_S)
            self.starts.append(time.perf_counter())
            self.seconds.append(paused_gc_slice())

    def stop(self) -> None:
        self._stopped = True
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference slice time over the mean slice time in [start, end]."""
        window = [d for t, d in zip(self.starts, self.seconds)
                  if start <= t <= end] or list(self.seconds) or \
            [paused_gc_slice()]
        return REFERENCE_SLICE_S * len(window) / sum(window)
