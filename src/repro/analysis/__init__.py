"""Schedulability analyses: WCRT fixed point, tests, weighted measure."""

from repro.analysis.config import AnalysisConfig, BASELINE, PERSISTENCE_AWARE
from repro.analysis.decomposition import (
    WcrtBreakdown,
    decompose,
    decompose_taskset,
)
from repro.analysis.sensitivity import breakdown_d_mem, breakdown_period_scale
from repro.analysis.schedulability import (
    SchedulabilityVerdict,
    check_schedulability,
    is_schedulable,
)
from repro.analysis.wcrt import WcrtResult, analyze_taskset, coarse_bound
from repro.analysis.weighted import weighted_schedulability

__all__ = [
    "AnalysisConfig",
    "BASELINE",
    "PERSISTENCE_AWARE",
    "WcrtBreakdown",
    "decompose",
    "decompose_taskset",
    "breakdown_d_mem",
    "breakdown_period_scale",
    "SchedulabilityVerdict",
    "check_schedulability",
    "is_schedulable",
    "WcrtResult",
    "analyze_taskset",
    "coarse_bound",
    "weighted_schedulability",
]
