"""System model: tasks, task sets, and the multicore platform."""

from repro.model.platform import (
    BusPolicy,
    CacheGeometry,
    Platform,
    CYCLES_PER_US,
    PROCESSOR_HZ,
    cycles_to_microseconds,
    microseconds_to_cycles,
)
from repro.model.blocks import MAX_CACHE_SETS, BlockSet
from repro.model.interference import InterferenceTable
from repro.model.task import (
    Task,
    TaskSet,
    assign_deadline_monotonic_priorities,
    assign_rate_monotonic_priorities,
)

__all__ = [
    "BlockSet",
    "InterferenceTable",
    "MAX_CACHE_SETS",
    "BusPolicy",
    "CacheGeometry",
    "Platform",
    "CYCLES_PER_US",
    "PROCESSOR_HZ",
    "cycles_to_microseconds",
    "microseconds_to_cycles",
    "Task",
    "TaskSet",
    "assign_deadline_monotonic_priorities",
    "assign_rate_monotonic_priorities",
]
