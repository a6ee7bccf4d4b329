"""Sensitivity analysis: how far can a task set be pushed?

Classic schedulability tooling built on top of the WCRT analysis:

* :func:`breakdown_period_scale` — the smallest uniform period/deadline
  scaling factor that keeps the task set schedulable (a factor of 1 means
  "exactly as given"; 0.5 means every period could be halved).  Binary
  search over a monotone predicate.
* :func:`breakdown_d_mem` — the largest memory latency the task set
  tolerates, with periods *fixed* (deadlines do not stretch when the
  memory slows down).  Useful to compare how much latency headroom the
  persistence-aware analysis buys over the baseline.

Every probe is an independent analysis of its own task set (or
platform), so each breakdown value is a pure function of the inputs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.schedulability import check_schedulability
from repro.errors import AnalysisError
from repro.model.platform import Platform
from repro.model.task import TaskSet
from repro.perf import PerfCounters


def _scaled_taskset(taskset: TaskSet, factor: float) -> TaskSet:
    tasks = []
    for task in taskset:
        period = max(1, int(round(task.period * factor)))
        deadline = max(1, int(round(task.deadline * factor)))
        deadline = min(deadline, period)
        tasks.append(task.with_timing(period, deadline))
    return TaskSet(tasks)


def breakdown_period_scale(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    precision: float = 0.01,
    lower: float = 0.05,
    upper: float = 4.0,
    perf: Optional[PerfCounters] = None,
) -> Optional[float]:
    """Smallest period scale factor keeping the set schedulable.

    Returns ``None`` when the set is unschedulable even at ``upper`` (the
    most relaxed scaling probed).  Smaller results mean more headroom.
    ``perf`` optionally accumulates every probe's analysis counters.
    """
    if precision <= 0:
        raise AnalysisError(f"precision must be positive, got {precision}")
    if not 0 < lower < upper:
        raise AnalysisError("need 0 < lower < upper")

    def schedulable_at(factor: float) -> bool:
        return check_schedulability(
            _scaled_taskset(taskset, factor), platform, config, perf=perf
        ).schedulable

    if not schedulable_at(upper):
        return None
    if schedulable_at(lower):
        return lower
    low, high = lower, upper  # unschedulable at low, schedulable at high
    while high - low > precision:
        mid = (low + high) / 2
        if schedulable_at(mid):
            high = mid
        else:
            low = mid
    return high


def breakdown_d_mem(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    upper: int = 10_000,
    perf: Optional[PerfCounters] = None,
) -> Optional[int]:
    """Largest memory latency (cycles) the task set tolerates.

    Periods and deadlines stay fixed; only the platform's ``d_mem`` varies.
    Returns ``None`` when the set is unschedulable even at ``d_mem = 1``.
    Schedulability is monotone in ``d_mem`` (every interference term grows
    with it), so binary search applies.  ``perf`` optionally accumulates
    every probe's analysis counters.
    """
    if upper < 1:
        raise AnalysisError(f"upper must be at least 1, got {upper}")

    def schedulable_at(d_mem: int) -> bool:
        return check_schedulability(
            taskset, platform.with_d_mem(d_mem), config, perf=perf
        ).schedulable

    if not schedulable_at(1):
        return None
    if schedulable_at(upper):
        return upper
    low, high = 1, upper  # schedulable at low, unschedulable at high
    while high - low > 1:
        mid = (low + high) // 2
        if schedulable_at(mid):
            low = mid
        else:
            high = mid
    return low
