"""A fixed computation that runs beside the timed operations, on their CPU.

The benchmark runs on shared hosts, where the CPU time of one and the same
operation drifts by up to 1.5x from one half-minute to the next as other
tenants' load comes and goes. Absolute times from runs a few minutes apart
then spread by 20% or more. The timed loop therefore pins itself, its
operations and this reference process to one CPU. The scheduler
interleaves them a few milliseconds apart, so both see the same host
state. The reference repeats ``chunk`` and publishes how many chunks it
has finished and its own CPU time. Over one operation, the reference's CPU
time per chunk is the host's current speed, and the operation's CPU time
divided by it is the operation's cost in chunks (``cpu_ref``). Over four
minutes of back-to-back ``paper-checks`` sessions, that cost varied by 2%
(standard deviation over mean) where the plain CPU time varied by 7%.

``chunk`` uses the standard library only and nothing of digitstats, so a
change to the package moves the operation's CPU time and leaves the
reference as it was.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from fractions import Fraction

_CTX = multiprocessing.get_context("fork")


def chunk() -> None:
    """About 10 ms of interpreter work: two thirds Fraction sums, int/str
    conversion and dict updates, one third building lists of a few MB.

    The mix matters. A compute-only chunk slows more than the memory-heavy
    ``paper-checks`` session when the host is busy, and so over-corrects;
    the list part brings its response closer to the workloads'.
    """
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(1, i)
        sum(int(s) for s in [str(i) for i in range(3000)])
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 100] = counts.get(i % 100, 0) + i
    xs = list(range(0, 500_000, 7))
    ys = [x * 3 + 1 for x in xs[::4]]
    dict.fromkeys(ys[::8], 0)
    "".join(map(str, ys[:2500]))
    base = 7
    (base**1000) // (3**300)


def _loop(progress, parent: int) -> None:
    while os.getppid() == parent:  # stop if the runner dies without terminating us
        chunk()
        with progress.get_lock():
            progress[0] += 1
            progress[1] = time.process_time()


class Reference:
    """``chunk`` in a loop in a forked child, which inherits the caller's CPU affinity."""

    def __init__(self) -> None:
        self.progress = _CTX.Array("d", 2)  # chunks finished, CPU seconds at the last one
        self.proc = _CTX.Process(target=_loop, args=(self.progress, os.getpid()), daemon=True)

    def __enter__(self) -> Reference:
        self.proc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.join()

    def read(self) -> tuple[float, float]:
        with self.progress.get_lock():
            return self.progress[0], self.progress[1]
