"""Discrete-event multicore simulator.

Executes a :class:`~repro.sim.workload.SimWorkload` on a
:class:`~repro.model.platform.Platform`: per-core fixed-priority preemptive
scheduling, private direct-mapped instruction caches whose content persists
across jobs (so cache persistence, CRPD and CPRO all *emerge* rather than
being modelled), and a shared memory bus under FP/RR/TDMA/perfect
arbitration.

Core semantics (in-order, timing-compositional):

* the highest-priority ready job runs; preemption happens at work-cycle
  granularity;
* a job that misses in the cache (or issues an uncached request) stalls its
  core until the bus transaction completes — an outstanding fetch is never
  aborted, so a newly released higher-priority job waits for it (this is
  exactly the single blocking access the analysis charges via the ``+1``
  term of Eq. 7-9);
* a completed fetch installs the block in the core's cache, after which the
  scheduler re-dispatches (the resumed job competes with anything released
  during the stall).

The simulator is the library's validation oracle: observed response times
must never exceed the analytical WCRT bounds (see the integration tests).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.budget import Budget
from repro.errors import SimulationError
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task
from repro.program.trace import TraceStep
from repro.sim.bus import BusRequest, make_arbiter
from repro.sim.metrics import BusWaitStats, JobRecord, SimulationResult, TaskStats
from repro.sim.workload import ReleasePlan, SimWorkload, periodic_releases
from repro.cacheanalysis.state import DirectMappedCache

_RELEASE = 0
_STEP = 1
_BUS_DONE = 2
_BUS_TRY = 3


@dataclass
class _Job:
    task: Task
    release: int
    steps: Tuple[TraceStep, ...]
    sequence: int
    record: JobRecord
    index: int = 0
    work_left: int = 0

    def __post_init__(self) -> None:
        self.work_left = self.steps[0].work if self.steps else 0

    @property
    def sort_key(self) -> Tuple[int, int, int]:
        return (self.task.priority, self.release, self.sequence)

    @property
    def done(self) -> bool:
        return self.index >= len(self.steps)

    def current_step(self) -> TraceStep:
        return self.steps[self.index]

    def advance(self) -> None:
        """Move past the current step's access."""
        self.index += 1
        if not self.done:
            self.work_left = self.steps[self.index].work


@dataclass
class _Core:
    identifier: int
    cache: DirectMappedCache
    ready: List[Tuple[Tuple[int, int, int], "_Job"]] = field(default_factory=list)
    running: Optional[_Job] = None
    running_until: int = 0
    stalled: Optional[_Job] = None
    version: int = 0

    def push_ready(self, job: _Job) -> None:
        heapq.heappush(self.ready, (job.sort_key, job))

    def pop_ready(self) -> Optional[_Job]:
        if not self.ready:
            return None
        return heapq.heappop(self.ready)[1]

    def peek_priority(self) -> Optional[int]:
        if not self.ready:
            return None
        return self.ready[0][0][0]


class MulticoreSimulator:
    """One simulation run; construct, :meth:`run`, inspect the result."""

    def __init__(
        self,
        workload: SimWorkload,
        platform: Platform,
        releases: Optional[ReleasePlan] = None,
        duration: int = 1_000_000,
        horizon: Optional[int] = None,
        budget: Optional[Budget] = None,
    ):
        self.workload = workload
        self.platform = platform
        self.duration = duration
        #: Optional :class:`~repro.budget.Budget`, ticked once per event:
        #: an over-budget simulation aborts between events with the typed
        #: error instead of running to its horizon.
        self.budget = budget
        self.horizon = horizon if horizon is not None else 4 * duration
        self._releases = releases or periodic_releases(workload.taskset, duration)
        self._events: List[Tuple[int, int, int, object]] = []
        self._sequence = itertools.count()
        self._cores = {
            core: _Core(core, DirectMappedCache(platform.cache))
            for core in platform.cores
        }
        self._arbiter = make_arbiter(platform)
        self._bus_busy_until = 0
        self._bus_epoch = 0
        self._reserved: Optional[Tuple[BusRequest, int]] = None
        self._bus_busy_total = 0
        self._stats = {
            task: TaskStats(task=task) for task in workload.taskset
        }
        self._wait_stats = {core: BusWaitStats() for core in platform.cores}
        self._job_counter = itertools.count()

    # -- event plumbing ------------------------------------------------------

    def _schedule(self, time: int, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (time, next(self._sequence), kind, payload))

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the run and return collected statistics."""
        for task in self.workload.taskset:
            trace = self.workload.trace_of(task)
            for release in self._releases.of(task):
                record = JobRecord(release=release)
                self._stats[task].jobs.append(record)
                job = _Job(
                    task=task,
                    release=release,
                    steps=trace,
                    sequence=next(self._job_counter),
                    record=record,
                )
                self._schedule(release, _RELEASE, job)
        budget = self.budget
        if budget is not None:
            budget.start()
        while self._events:
            if budget is not None:
                budget.tick()
            time, _, kind, payload = heapq.heappop(self._events)
            if time > self.horizon:
                break
            if kind == _RELEASE:
                self._on_release(time, payload)
            elif kind == _STEP:
                self._on_step(time, payload)
            elif kind == _BUS_DONE:
                self._on_bus_done(time, payload)
            elif kind == _BUS_TRY:
                self._on_bus_try(time, payload)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind}")
        return SimulationResult(
            horizon=self.horizon,
            stats=self._stats,
            bus_busy=self._bus_busy_total,
            bus_waits=self._wait_stats,
        )

    # -- core scheduling -----------------------------------------------------

    def _on_release(self, time: int, job: _Job) -> None:
        core = self._cores[job.task.core]
        core.push_ready(job)
        self._activate(core, time)

    def _activate(self, core: _Core, time: int) -> None:
        """(Re)dispatch the highest-priority ready job if allowed."""
        if core.stalled is not None:
            return  # the core is blocked on an outstanding fetch
        if core.running is not None:
            next_priority = core.peek_priority()
            if next_priority is None or next_priority >= core.running.task.priority:
                return
            # Preempt: bank the remaining work of the running job.
            preempted = core.running
            preempted.work_left = core.running_until - time
            core.running = None
            core.version += 1
            core.push_ready(preempted)
        job = core.pop_ready()
        if job is None:
            return
        self._run_job(core, job, time)

    def _run_job(self, core: _Core, job: _Job, time: int) -> None:
        """Advance ``job`` through work segments and cache hits inline."""
        while True:
            if job.done:
                self._complete(core, job, time)
                job = core.pop_ready()
                if job is None:
                    core.running = None
                    return
                continue
            if job.work_left > 0:
                core.running = job
                core.running_until = time + job.work_left
                core.version += 1
                self._schedule(core.running_until, _STEP, (core.identifier, core.version))
                return
            step = job.current_step()
            if step.uncached:
                self._issue(core, job, cached_block=None, time=time)
                return
            if step.block is None:
                job.advance()
                continue
            if core.cache.lookup(step.block):
                job.record.cache_hits += 1
                job.advance()
                continue
            # Miss: the block is only installed once the fetch completes.
            self._issue(core, job, cached_block=step.block, time=time)
            return

    def _on_step(self, time: int, payload: Tuple[int, int]) -> None:
        core_id, version = payload
        core = self._cores[core_id]
        if version != core.version or core.running is None:
            return  # stale event (preemption or stall happened meanwhile)
        job = core.running
        job.work_left = 0
        self._run_job(core, job, time)

    def _complete(self, core: _Core, job: _Job, time: int) -> None:
        job.record.finish = time
        core.running = None
        core.version += 1

    # -- bus handling ----------------------------------------------------------

    def _issue(
        self, core: _Core, job: _Job, cached_block: Optional[int], time: int
    ) -> None:
        job.record.bus_accesses += 1
        core.running = None
        core.version += 1
        core.stalled = job
        request = BusRequest(
            priority=job.task.priority,
            arrival=time,
            sequence=next(self._sequence),
            core=core.identifier,
            payload=(job, cached_block),
        )
        if self.platform.bus_policy is BusPolicy.PERFECT:
            self._bus_busy_total += self.platform.d_mem
            self._wait_stats[core.identifier].record(0)
            self._schedule(time + self.platform.d_mem, _BUS_DONE, request)
            return
        self._arbiter.enqueue(request)
        self._reconsider_bus(time)

    def _reconsider_bus(self, time: int) -> None:
        """Re-evaluate the grant decision while the bus is free."""
        if self._bus_busy_until > time:
            return
        if self._reserved is not None:
            # Put the tentatively granted request back; a newcomer may now
            # be eligible earlier (TDMA slots).
            request, _ = self._reserved
            self._arbiter.enqueue(request)
            self._reserved = None
        selection = self._arbiter.select(time)
        if selection is None:
            return
        request, start = selection
        if start < time:  # pragma: no cover - defensive
            raise SimulationError("arbiter granted a start in the past")
        self._reserved = (request, start)
        self._bus_epoch += 1
        self._schedule(start, _BUS_TRY, self._bus_epoch)

    def _on_bus_try(self, time: int, epoch: int) -> None:
        if epoch != self._bus_epoch or self._reserved is None:
            return
        if self._bus_busy_until > time:  # pragma: no cover - defensive
            return
        request, start = self._reserved
        if start != time:  # pragma: no cover - defensive
            return
        self._reserved = None
        self._wait_stats[request.core].record(time - request.arrival)
        self._bus_busy_until = time + self.platform.d_mem
        self._bus_busy_total += self.platform.d_mem
        self._schedule(self._bus_busy_until, _BUS_DONE, request)

    def _on_bus_done(self, time: int, request: BusRequest) -> None:
        job, cached_block = request.payload
        core = self._cores[request.core]
        if core.stalled is not job:  # pragma: no cover - defensive
            raise SimulationError("bus completion for a job that is not stalled")
        core.stalled = None
        if cached_block is not None:
            core.cache.access(cached_block)
        job.advance()
        if job.done:
            job.record.finish = time
        else:
            core.push_ready(job)
        self._activate(core, time)
        if self.platform.bus_policy is not BusPolicy.PERFECT:
            self._reconsider_bus(time)


def simulate(
    workload: SimWorkload,
    platform: Platform,
    duration: int = 1_000_000,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
    horizon: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> SimulationResult:
    """Convenience wrapper: build releases, run one simulation."""
    releases = periodic_releases(workload.taskset, duration, jitter, rng)
    simulator = MulticoreSimulator(
        workload,
        platform,
        releases=releases,
        duration=duration,
        horizon=horizon,
        budget=budget,
    )
    return simulator.run()
