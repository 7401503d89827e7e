"""Host speed meter: a fixed pure-Python kernel timed while operations run.

On a shared host the speed of the whole guest drifts by 20-30% over
minutes, and process CPU time drifts with it, so raw times of the same
code on different runs disagree by more than any useful bound.  Measured
back to back, though, an operation and a fixed pure-Python kernel keep
their ratio within a few percent.  The end-to-end times are therefore
scaled to a reference speed: the time the operation would take on a host
where the kernel takes ``REFERENCE_WALL_S`` wall and ``REFERENCE_CPU_S``
CPU seconds.

``Meter`` runs the kernel from a ``SIGALRM`` handler every ``INTERVAL``
seconds of wall time.  Its samples cover the very seconds an operation
runs, even a single operation that runs for seconds, and the time spent
in the handler is kept apart so it can be taken out of the operation's
own time.  ``sample`` times the kernel in the open, for the set-up runs.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import NamedTuple

#: Wall seconds between two kernel runs while a ``Meter`` is on.
INTERVAL = 0.02
#: Mean wall and CPU seconds of one kernel run on the reference host: a
#: 2-core Intel Xeon at 2.1 GHz, Python 3.11.7, in a calm phase.
REFERENCE_WALL_S = 1.3e-4
REFERENCE_CPU_S = 1.3e-4


def kernel() -> int:
    """Integer arithmetic, dict and list updates, string building: the mix
    the hanoilab operations spend their time on, with a small working set."""
    seen: dict[int, int] = {}
    parts: list[str] = []
    total = 0
    for i in range(500):
        total += (i * 7919) % 613
        seen[total & 255] = i
        parts.append(str(total))
    return total + len(",".join(parts)) + len(seen)


class Reading(NamedTuple):
    """Running totals of a meter: timed kernel runs and the time they took,
    and all the time spent in the meter, warm-up runs included."""

    runs: int
    wall: float
    cpu: float
    spent_wall: float
    spent_cpu: float


IDLE = Reading(0, 0.0, 0.0, 0.0, 0.0)


def scales(before: Reading, after: Reading) -> tuple[float, float]:
    """Wall and CPU scale factors to the reference speed over an interval.

    Each is the reference kernel time over the kernel's mean time in the
    interval: below 1 when the host ran slow.  An interval without a
    kernel run gets 1.
    """
    runs = after.runs - before.runs
    if runs == 0:
        return 1.0, 1.0
    wall = (after.wall - before.wall) / runs
    cpu = (after.cpu - before.cpu) / runs
    return REFERENCE_WALL_S / wall, REFERENCE_CPU_S / max(cpu, 1e-9)


class Meter:
    """Runs ``kernel`` every ``INTERVAL`` seconds inside a ``with`` block."""

    def __init__(self) -> None:
        self.totals = IDLE
        self._previous = None

    def tick(self, signum, frame) -> None:
        """One timed kernel run, after an untimed one that warms the caches
        the operation left cold, with the garbage collector held off so it
        does not bill the operation's garbage to the kernel."""
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        w1, c1 = time.perf_counter(), time.process_time()
        kernel()
        w2, c2 = time.perf_counter(), time.process_time()
        if collecting:
            gc.enable()
        runs, wall, cpu, spent_wall, spent_cpu = self.totals
        self.totals = Reading(
            runs + 1, wall + w2 - w1, cpu + c2 - c1, spent_wall + w2 - w0, spent_cpu + c2 - c0
        )

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def sample(runs: int) -> Reading:
    """``runs`` meter ticks back to back."""
    meter = Meter()
    for _ in range(runs):
        meter.tick(None, None)
    return meter.totals
