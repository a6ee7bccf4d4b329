"""Machine-speed meter: divides host contention out of measured wall times.

On a shared virtual machine the same work can take 30-40% longer for tens
of seconds at a time while other tenants load the host, and each CPU
slows on its own.  No run length averages that out: 10 runs of one sweep
workload spread by 10-30% between quartiles.

:class:`SpeedMeter` starts one sampler process pinned to each CPU the
measured work runs on.  Every :data:`PERIOD_S` it times a fixed
pure-Python chunk in its own CPU time, which excludes waiting for the CPU
but not running slower on it, so the chunk's time tracks that CPU's speed
at that moment.  :meth:`SpeedMeter.normalized` scales a wall-time
interval to the speed at which the chunk takes :data:`NOMINAL_CHUNK_S`:
on an uncontended CPU the value is close to the wall time, and in a
contended stretch it estimates the time the same work would have taken
uncontended.  The chunk slows less than a sweep does, so the correction
is partial: it shrinks the run-to-run spread of sweep throughput from
10-23% to 2-7%.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Tuple

#: Seconds between chunk starts on each CPU; the chunk itself takes
#: 0.3-0.6 ms of that, so the meter costs 3-6% of each CPU it samples.
PERIOD_S = 0.01

#: CPU seconds the chunk takes on an uncontended CPU of the 2-CPU x86-64
#: machine this benchmark was sized on (the fast end of its distribution).
#: Normalized times are relative to it, so on other hardware they differ
#: from wall times by a constant factor.
NOMINAL_CHUNK_S = 330e-6

#: Longest stretch of an interval scaled by one speed estimate.
SLICE_S = 1.0

_SAMPLER = """
import json, os, signal, sys, time

def chunk():
    x = 0
    d = {}
    for i in range(3000):
        x += i * i % 7
        d[i & 255] = x
    return x

stop = []
signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
os.sched_setaffinity(0, {int(sys.argv[1])})
samples = []
print("ready", flush=True)
while not stop:
    begin = time.monotonic()
    cpu = time.thread_time()
    chunk()
    samples.append((begin, time.thread_time() - cpu))
    time.sleep(max(0.0, float(sys.argv[2]) - (time.monotonic() - begin)))
json.dump(samples, sys.stdout)
"""


def pin_to_one_cpu() -> List[int]:
    """Pin this process (and the children it starts) to its first CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


class SpeedMeter:
    """Sampler processes on ``cpus``, from ``with`` entry until exit.

    Time intervals passed to :meth:`normalized` are ``time.monotonic()``
    readings taken while the meter ran.
    """

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = list(cpus)
        self._processes: List[subprocess.Popen] = []
        self._samples: List[Tuple[List[float], List[float]]] = []

    def __enter__(self) -> "SpeedMeter":
        try:
            for cpu in self.cpus:
                process = subprocess.Popen(
                    [sys.executable, "-c", _SAMPLER, str(cpu), str(PERIOD_S)],
                    stdout=subprocess.PIPE, text=True,
                )
                self._processes.append(process)
                if process.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed sampler on CPU {cpu} did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self._stop()

    def _stop(self) -> None:
        for process in self._processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self._processes:
            output, _ = process.communicate(timeout=60)
            if process.returncode == 0 and output:
                samples = json.loads(output)
                self._samples.append(
                    ([t for t, _c in samples], [c for _t, c in samples])
                )
        self._processes = []

    def _scale(self, start: float, end: float) -> float:
        """Nominal over measured chunk time in ``[start, end]``, mean over CPUs."""
        scales = []
        for times, chunks in self._samples:
            lo = bisect_left(times, start - PERIOD_S)
            hi = bisect_right(times, end + PERIOD_S)
            window = chunks[lo:hi] or chunks
            scales.append(NOMINAL_CHUNK_S / statistics.median(window))
        return statistics.fmean(scales)

    def normalized(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the nominal speed."""
        if not self._samples:
            raise RuntimeError("the speed meter recorded no samples")
        total, t = 0.0, start
        while t < end:
            step = min(end, t + SLICE_S)
            total += (step - t) * self._scale(t, step)
            t = step
        return total
