"""Job times split at the interpreter's garbage collections, the floor of
a job's time over a run's cycles, and the reference kernel that gives a
run's host speed.

On a shared host the speed of the same pure-Python code swings by a factor
of up to two within seconds.  A run repeats the same deterministic job
list in several fresh interpreters (cycles) and keeps each job's fastest
time, which strips the swings from short jobs.  A long job (the erdos
suite runs for over ten seconds) is unlikely to run fast from end to end
in any cycle, so it is cut into segments first: the interpreter runs its
cyclic garbage collector after a fixed count of container allocations, so
in a deterministic job every cycle reaches its n-th collection at the same
point of the work.  The time between two collections is the same work in
every cycle, and its fastest repeat is taken on its own.

A slow spell can also cover a whole run, and then it lifts every floor.
Each cycle therefore also times a fixed pure-Python reference kernel in
short bursts between its passes.  The kernel's fastest time over the run
measures the host's speed in that run the same way, and a run's times are
scaled by REFERENCE_NS over it: they read as the times on a host that runs
the kernel in REFERENCE_NS.  The kernel touches nothing of fqphi, so a
change to the code under test moves the scaled times one for one.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

# The reference kernel's fastest time on the host the benchmark was tuned
# on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7) in its fast phase.
REFERENCE_NS = 80_000
BURST = 200         # kernel runs per burst


class PassTimer:
    """Times the jobs of one pass.  Each job's time is a list of segment
    times in nanoseconds, cut at the start of every garbage collection that
    falls inside the job; they sum to the job's wall time."""

    def __init__(self) -> None:
        self.items: list[list[int]] = []
        self.other: list[list[int]] = []
        self.marks: list[int] = []

    def __enter__(self) -> PassTimer:
        # An empty young generation at the start of every pass puts its
        # collections at the same points of the work in every cycle.
        gc.collect()
        gc.callbacks.append(self._collecting)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._collecting)

    def _collecting(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.marks.append(perf_counter_ns())

    def item(self) -> _Job:
        """Context manager timing one item (a unit of item_p50/p99)."""
        return _Job(self, self.items)

    def job(self) -> _Job:
        """Context manager timing one job that is not an item."""
        return _Job(self, self.other)


class _Job:
    __slots__ = ("timer", "into", "first", "start")

    def __init__(self, timer: PassTimer, into: list) -> None:
        self.timer, self.into = timer, into

    def __enter__(self) -> None:
        self.first = len(self.timer.marks)
        self.start = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        bounds = [self.start, *self.timer.marks[self.first:], end]
        self.into.append([b - a for a, b in zip(bounds, bounds[1:])])


def per_job_best(passes) -> list[int]:
    """Each job's floor over the cycles: given each cycle's list of jobs,
    each a list of segment times, the sum of every segment's fastest time.
    A job whose segment count differs between cycles (its collections did
    not line up) gets its fastest whole time instead.  A cycle may stop
    after the first jobs (a prefix cycle); a job's floor is over the cycles
    that ran it."""
    passes = list(passes)
    best = []
    for j in range(max(len(p) for p in passes)):
        runs = [p[j] for p in passes if j < len(p)]
        if all(len(r) == len(runs[0]) for r in runs):
            best.append(sum(min(seg) for seg in zip(*runs)))
        else:
            best.append(min(sum(r) for r in runs))
    return best


def reference_kernel() -> int:
    """What fqphi's hot loops do, in miniature: small-int arithmetic,
    list and dict traffic and Python calls."""
    table: dict[int, int] = {}
    acc = []
    total = 0
    for i in range(1, 400):
        r = (i * i + 7) % 251
        table[r] = table.get(r, 0) + i
        acc.append(r ^ (i >> 1))
        total += _step(r, i)
    return total + len(acc) + len(table)


def _step(a: int, b: int) -> int:
    return (a * b) % 97


def reference_floor(reps: int = BURST) -> int:
    """Fastest of ``reps`` timed runs of the reference kernel, in ns."""
    best = None
    for _ in range(reps):
        start = perf_counter_ns()
        reference_kernel()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best
