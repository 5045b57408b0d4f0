"""The host's speed, sampled while the operations run.

The benchmark's host shares its CPUs with other machines' work, and the
CPU time of the same code on the same inputs moves by a third between
the host's fast and slow spells (see "Steadiness" in ``README.md``).
CPU time alone cannot tell a slower program from a slower host.

A :class:`Speedometer` runs one background thread that, every
``INTERVAL_S``, runs a fixed burst of interpreter work twice and times
the second run with its own thread CPU clock (the first brings the
burst's few kilobytes back into the caches the program has just used).
The bursts share the program's CPU and interpreter, so they slow down
when the host does.  ``REFERENCE_BURST_S`` over the mean burst time is
the host's speed; CPU seconds times that speed are *reference seconds*:
what the same work would have cost on a host where one burst takes
``REFERENCE_BURST_S``.

The burst is the benchmark's own code, so a change to the program moves
the CPU seconds and not the speed.  It creates no container objects, so
it never runs the program's garbage collector.  The thread's own CPU
time is read from its clock and left out of the program's.  While a
parallel join's workers occupy both CPUs the bursts would time the
workers' contention rather than the host, so the runner pauses the
thread around those joins (:meth:`Speedometer.paused`).
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from contextlib import contextmanager

#: Seconds between bursts.
INTERVAL_S = 0.05
#: Heap operations in one burst.
BURST_OPS = 2400
#: About the mean burst time beside the joins on the 2-vCPU host of the
#: baseline (``README.md``), so reference seconds read close to its CPU
#: seconds.
REFERENCE_BURST_S = 0.0013
#: Fewest bursts a speed rests on; a shorter run is topped up with
#: bursts in the caller's thread.
MIN_BURSTS = 20

_heap: list[float] = []
_table: dict[int, float] = {}


def burst() -> float:
    """A fixed slice of the kind of work the join engines do: heap pushes
    and pops of float keys, dict stores and float arithmetic."""
    heap, table = _heap, _table
    heap.clear()
    total = 0.0
    for i in range(BURST_OPS):
        key = ((i * 7919) % 10007) * 0.37
        heapq.heappush(heap, key)
        table[i & 511] = key
        if i & 1:
            total += heapq.heappop(heap)
    return total


def timed_burst() -> float:
    """CPU seconds of one burst after a warm-up burst, on the calling
    thread's clock."""
    burst()
    started = time.thread_time()
    burst()
    return time.thread_time() - started


class Speedometer:
    """Times a burst every ``interval_s`` on a background thread."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._running = threading.Event()
        self._running.set()
        self._bursts: list[float] = []
        self._clock: int | None = None
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        while self._clock is None:
            time.sleep(0.001)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._running.set()
        self._thread.join()

    def _run(self) -> None:
        self._clock = time.pthread_getcpuclockid(threading.get_ident())
        while not self._stop.wait(self._interval_s):
            self._running.wait()
            if not self._stop.is_set():
                self._bursts.append(timed_burst())

    @contextmanager
    def paused(self):
        """No bursts start inside the block."""
        self._running.clear()
        try:
            yield
        finally:
            self._running.set()

    def cpu(self) -> float:
        """CPU seconds the sampling thread has used so far."""
        return time.clock_gettime(self._clock)

    def speed(self) -> tuple[float, int]:
        """The host's speed relative to the reference so far, and the
        number of bursts it rests on."""
        bursts = list(self._bursts)
        while len(bursts) < MIN_BURSTS:
            bursts.append(timed_burst())
        return REFERENCE_BURST_S / statistics.mean(bursts), len(bursts)
