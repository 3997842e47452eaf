"""Host-speed probe: the speed of the machine at each moment of a run.

The machine this benchmark was written on changes speed by itself: its
pure-Python throughput moves between two levels about 1.5x apart, and
holds one level for seconds to minutes. Wall times of the same op then
differ by that much between runs. The probe measures the level while the
ops run, so that each op's time can be expressed in a unit that moves
with the machine.

A timer signal runs a fixed piece of the benchmark's own pure-Python code
(its closed-form cascade over the kope-1982 block, ``generators.cascade_column``)
every ``INTERVAL_S`` seconds of wall time, in the middle of whatever the
op is doing, and records how long it took. An op's *cost* is its wall
time less the probes that ran inside it, divided by the mean probe
duration from ``PAD_S`` before the op to ``PAD_S`` after it: how many
probe runs the op is worth. The probe is benchmark code, so a change to
the package cannot make it faster or slower. A set-up launch, which runs
in another process, is measured the same way against probe bursts taken
just before and just after it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import generators

INTERVAL_S = 0.05
PAD_S = 0.25
# Probe runs taken just before and just after a timed event outside the
# ops (a set-up launch) to read the level around it.
BURST = 5
# Seconds per probe run on the reference machine: a time divided by the
# probe level and multiplied by this reads in seconds at a fixed speed.
# Chosen so that such times read close to wall seconds on the 2-vCPU
# machine the benchmark was written on.
PROBE_REF_S = 0.002


class SpeedProbe:
    def __init__(self):
        from balsched.fileio import instance_to_dict
        from balsched.fixtures import build_fixture

        self.block = instance_to_dict(build_fixture("kope-1982"))["homebuilding"]
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        generators.cascade_column(self.block, 0)
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def burst(self) -> float:
        """Mean duration of ``BURST`` probe runs taken now."""
        for _ in range(BURST):
            self.sample()
        return statistics.mean(self.durations[-BURST:])

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _span(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.mids, start), bisect.bisect_right(self.mids, end))

    def inside(self, intervals) -> float:
        """Total probe time that ran within the given (start, end) intervals."""
        return sum(sum(self.durations[self._span(a, b)]) for a, b in intervals)

    def level(self, start: float, end: float) -> float:
        """Mean probe duration from ``PAD_S`` before ``start`` to ``PAD_S``
        after ``end`` (the nearest probe when none ran then)."""
        durations = self.durations[self._span(start - PAD_S, end + PAD_S)]
        if durations:
            return statistics.mean(durations)
        i = min(bisect.bisect_left(self.mids, start), len(self.mids) - 1)
        return self.durations[i]
