"""repro — cache persistence-aware memory bus contention analysis.

Reproduction of Rashid, Nelissen and Tovar, *"Cache Persistence-Aware Memory
Bus Contention Analysis for Multicore Systems"*, DATE 2020.

The public API re-exports the most commonly used entry points; see the
subpackages for the full surface:

* :mod:`repro.model` — tasks, task sets, platform.
* :mod:`repro.program` — synthetic CFG models of the Mälardalen benchmarks.
* :mod:`repro.cacheanalysis` — static direct-mapped cache analysis
  (ECB/UCB/PCB/MD/MDr extraction; Heptane substitute).
* :mod:`repro.crpd` / :mod:`repro.persistence` — CRPD and CPRO bounds.
* :mod:`repro.businterference` — BAS/BAO/BAT bounds (Eq. 1-9, Lemmas 1-2).
* :mod:`repro.analysis` — WCRT fixed point and schedulability tests.
* :mod:`repro.generation` — UUnifast-based random task-set generation.
* :mod:`repro.sim` — discrete-event multicore simulator (validation).
* :mod:`repro.experiments` — drivers regenerating every paper figure/table.
"""

from repro.analysis import (
    AnalysisConfig,
    BASELINE,
    PERSISTENCE_AWARE,
    WcrtBreakdown,
    WcrtResult,
    analyze_taskset,
    breakdown_d_mem,
    breakdown_period_scale,
    check_schedulability,
    decompose_taskset,
    is_schedulable,
    weighted_schedulability,
)
from repro.atomicio import atomic_write_json, atomic_write_text
from repro.budget import Budget
from repro.errors import AnalysisAborted, BudgetExceeded
from repro.serialization import load_taskset, save_taskset
from repro.model import (
    BusPolicy,
    CacheGeometry,
    Platform,
    Task,
    TaskSet,
    assign_deadline_monotonic_priorities,
    microseconds_to_cycles,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisConfig",
    "BASELINE",
    "PERSISTENCE_AWARE",
    "WcrtBreakdown",
    "WcrtResult",
    "analyze_taskset",
    "atomic_write_json",
    "atomic_write_text",
    "AnalysisAborted",
    "Budget",
    "BudgetExceeded",
    "breakdown_d_mem",
    "breakdown_period_scale",
    "decompose_taskset",
    "load_taskset",
    "save_taskset",
    "check_schedulability",
    "is_schedulable",
    "weighted_schedulability",
    "BusPolicy",
    "CacheGeometry",
    "Platform",
    "Task",
    "TaskSet",
    "assign_deadline_monotonic_priorities",
    "microseconds_to_cycles",
    "__version__",
]
