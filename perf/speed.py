"""Seconds at reference speed: timing that survives a shared box.

The sandbox's cores change speed in plateaus that last seconds to
minutes (other tenants of the host): the same pass takes 0.45 s in one
minute and 0.85 s in the next, and ten runs of an untouched commit
spread by 7-15 %.  No median over the passes of one run removes that,
because a whole run can sit on one plateau.

So the benchmark measures the box while it measures the program.  A
:class:`SpeedSampler` runs a fixed kernel of interpreter work every
100 ms (``SIGALRM``; the program is single-threaded pure Python, so the
handler runs between two of its bytecodes) and notes how long the
kernel took.  The samples cut a pass into segments; each segment's
seconds are scaled by ``KERNEL_REF_S`` over the mean kernel time of the
two samples around it, and the time spent inside the sampler is left
out.  The sum is what the pass would have taken on a box that always
runs the kernel in ``KERNEL_REF_S``.  Plateaus cancel (both the program
and the kernel are interpreter-bound and slow down together); a change
to the program does not, because the kernel is not part of it.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time
from typing import NamedTuple

#: the kernel's duration at reference speed (about what it takes on the
#: sandbox in its most common state, so reference seconds read like
#: seconds)
KERNEL_REF_S = 0.005
INTERVAL_S = 0.1


def kernel() -> tuple:
    """About 5 ms of the work the program spends its time on: dict and
    tuple traffic, float arithmetic, method calls."""
    table: dict[int, float] = {}
    total = 0.0
    pair = ()
    for i in range(31_000):
        table[i & 1023] = total
        total += table.get(i & 511, 0.0) * 0.5 + i
        pair = (i, total)
    return pair


class Seconds(NamedTuple):
    """A stretch of program time: at reference speed, and as measured."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float


class SpeedSampler:
    def __init__(self) -> None:
        #: (wall in, cpu in, wall out, cpu out) of every kernel run
        self.samples: list[tuple[float, float, float, float]] = []

    def sample(self, *_signal_args: object) -> int:
        """Run the kernel now; returns the sample's index."""
        wall_in, cpu_in = perf_counter(), process_time()
        kernel()
        self.samples.append((wall_in, cpu_in, perf_counter(), process_time()))
        return len(self.samples) - 1

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` from now on.  Without it only the
        explicit :meth:`sample` calls cut the timeline."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, index: int) -> float:
        """Reference speed over the box's speed at one sample."""
        wall_in, _, wall_out, _ = self.samples[index]
        return KERNEL_REF_S / (wall_out - wall_in)

    def between(self, first: int, last: int,
                skipped: list[tuple[int, int]] = ()) -> Seconds:
        """Program time between two samples, raw and at reference speed.

        ``skipped`` holds (first, last) sample pairs whose stretch does
        not count (a paused check).
        """
        wall_s = cpu_s = raw_wall_s = 0.0
        samples = self.samples
        for i in range(first, last):
            if any(a <= i < b for a, b in skipped):
                continue
            before, after = samples[i], samples[i + 1]
            wall, cpu = after[0] - before[2], after[1] - before[3]
            kernel_wall = (before[2] - before[0] + after[2] - after[0]) / 2
            kernel_cpu = (before[3] - before[1] + after[3] - after[1]) / 2
            raw_wall_s += wall
            wall_s += wall * KERNEL_REF_S / kernel_wall
            cpu_s += cpu * KERNEL_REF_S / kernel_cpu
        return Seconds(wall_s, cpu_s, raw_wall_s)
