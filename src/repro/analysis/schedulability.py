"""Task-set schedulability tests, including the "perfect bus" reference.

:func:`is_schedulable` is the predicate evaluated for every generated task
set in the paper's experiments.  For the FP/RR/TDMA arbiters it is the WCRT
analysis of Eq. (19); for :data:`~repro.model.platform.BusPolicy.PERFECT`
it reproduces the "perfect bus" line of Fig. 2: the memory bus is assumed
contention free whenever its long-run utilisation does not exceed one, so a
task set is deemed schedulable iff

* the steady-state bus utilisation is at most 1, and
* every task meets its deadline under contention-free memory accesses
  (each still costing ``d_mem``).

Because the perfect bus is meant as an *upper bound* on what any arbiter
could achieve, its bus-utilisation check charges each task its residual
demand ``MDr`` — the steady-state per-job demand once all persistent blocks
are cached — rather than the cold-start demand ``MD``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import WcrtResult, analyze_taskset
from repro.budget import Budget
from repro.perf import PerfCounters
from repro.model.platform import BusPolicy, Platform
from repro.model.task import TaskSet


@dataclass
class SchedulabilityVerdict:
    """Outcome of a schedulability test with supporting detail."""

    schedulable: bool
    wcrt: Optional[WcrtResult] = None
    bus_utilization: Optional[float] = None
    reason: str = ""


def residual_bus_check(taskset: TaskSet, d_mem: int) -> SchedulabilityVerdict:
    """The perfect bus's bus-utilisation condition.

    Schedulable iff the long-run bus utilisation, each task charged its
    residual demand ``MDr``, is at most 1.  :func:`check_schedulability`
    runs it before the perfect bus's WCRT analysis; a sweep whose other
    variants already prove the analysis schedulable runs it alone (see
    :func:`repro.experiments.runner.evaluate_sample`).
    """
    bus_util = taskset.bus_utilization(d_mem, residual=True)
    if bus_util > 1.0:
        return SchedulabilityVerdict(
            schedulable=False,
            bus_utilization=bus_util,
            reason="bus utilisation exceeds 1",
        )
    return SchedulabilityVerdict(schedulable=True, bus_utilization=bus_util)


def check_schedulability(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> SchedulabilityVerdict:
    """Full schedulability verdict with the underlying WCRT result.

    ``perf`` optionally accumulates the analysis' performance counters
    into a caller-owned aggregate (see :mod:`repro.perf`).  Repeat calls
    with the same (task set, platform, config) reuse the task set's shared
    interference table, calculator caches and warm-start seeds (see
    :func:`repro.analysis.wcrt.analyze_taskset`), so re-checking a verdict
    is much cheaper than the first check — and bit-identical to it.
    ``budget`` threads a :class:`~repro.budget.Budget` through the WCRT
    analysis (see :mod:`repro.budget`).
    """
    d_mem = platform.d_mem

    # Quick necessary condition: the processing-plus-memory demand of every
    # core must fit, otherwise the WCRT iteration would only discover the
    # overload after walking all the way to the first deadline miss.
    for core in taskset.cores:
        if taskset.core_utilization(core, d_mem) > 1.0:
            return SchedulabilityVerdict(
                schedulable=False,
                reason=f"core {core} utilisation exceeds 1",
            )

    if platform.bus_policy is BusPolicy.PERFECT:
        bus = residual_bus_check(taskset, d_mem)
        if not bus.schedulable:
            return bus
        result = analyze_taskset(
            taskset, platform, config, perf=perf, budget=budget
        )
        return SchedulabilityVerdict(
            schedulable=result.schedulable,
            wcrt=result,
            bus_utilization=bus.bus_utilization,
            reason="" if result.schedulable else "deadline miss (perfect bus)",
        )

    result = analyze_taskset(taskset, platform, config, perf=perf, budget=budget)
    if result.schedulable:
        return SchedulabilityVerdict(schedulable=True, wcrt=result)
    failed = result.failed_task.name if result.failed_task else "<outer loop>"
    return SchedulabilityVerdict(
        schedulable=False,
        wcrt=result,
        reason=f"deadline miss: {failed}",
    )


def is_schedulable(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> bool:
    """Boolean schedulability predicate used by the experiment sweeps."""
    return check_schedulability(
        taskset, platform, config, perf=perf, budget=budget
    ).schedulable
