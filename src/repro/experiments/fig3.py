"""Experiments 2-5 — Fig. 3: weighted schedulability sweeps.

Four single-parameter sweeps, each condensing the full utilisation grid
into the weighted schedulability measure (Bastoni et al.):

* **Fig. 3a** — number of cores 2..10 (step 2);
* **Fig. 3b** — memory reload time ``d_mem`` 2..10 us (step 2);
* **Fig. 3c** — cache size 32..1024 sets (powers of two), with benchmark
  parameters re-derived per size (``ParameterSource.HYBRID``) the way the
  authors re-ran Heptane per cache size;
* **Fig. 3d** — RR/TDMA slot size ``s`` 1..6.

All non-swept parameters keep the paper defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import (
    SweepSettings,
    Variant,
    WEIGHTED_UTILIZATIONS,
    default_platform,
    slot_variants,
    standard_variants,
)
from repro.experiments.faults import SweepFault
from repro.experiments.report import format_coverage, format_table
from repro.experiments.runner import run_curve, weighted_measures
from repro.experiments.supervisor import SampleFailure
from repro.generation.taskset_gen import ParameterSource
from repro.model.platform import CacheGeometry, Platform, microseconds_to_cycles


@dataclass
class WeightedSweepResult:
    """Weighted schedulability per variant along one parameter axis.

    ``failures`` lists the quarantined samples across every parameter
    value of the sweep (empty in a healthy run); the measures are then
    taken over the surviving samples and :meth:`render` reports coverage.
    """

    title: str
    x_label: str
    x_values: Tuple
    measures: Dict[str, List[float]]
    failures: List[SampleFailure] = field(default_factory=list)
    healthy: int = 0
    expected: int = 0

    def render(self) -> str:
        """Text rendition of the sweep."""
        table = format_table(self.title, self.x_label, self.x_values, self.measures)
        if self.failures:
            table += "\n\n" + format_coverage(
                self.healthy, self.expected, self.failures
            )
        return table

    def series(self, label: str) -> List[float]:
        """One curve by variant label."""
        return self.measures[label]


def _weighted_sweep(
    title: str,
    x_label: str,
    x_values: Sequence,
    platform_for: Callable[[object], Platform],
    variants: Tuple[Variant, ...],
    settings: SweepSettings,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> WeightedSweepResult:
    # Each parameter value runs with a distinct point offset, so each gets
    # its own fingerprint — and hence its own journal file — inside the
    # shared journal directory.
    if settings.utilizations is None or len(settings.utilizations) > len(
        WEIGHTED_UTILIZATIONS
    ):
        settings = replace(settings, utilizations=WEIGHTED_UTILIZATIONS)
    measures: Dict[str, List[float]] = {v.label: [] for v in variants}
    failures: List[SampleFailure] = []
    healthy = expected = 0
    for index, value in enumerate(x_values):
        platform = platform_for(value)
        outcomes = run_curve(
            platform,
            variants,
            settings,
            point_offset=1000 * (index + 1),
            journal_dir=journal_dir,
            resume=resume,
            fault=fault,
        )
        failures.extend(outcomes.failures)
        healthy += outcomes.healthy
        expected += outcomes.expected
        point = weighted_measures(outcomes, variants)
        for label, measure in point.items():
            measures[label].append(measure)
    return WeightedSweepResult(
        title=title,
        x_label=x_label,
        x_values=tuple(x_values),
        measures=measures,
        failures=failures,
        healthy=healthy,
        expected=expected,
    )


def run_fig3a(
    settings: SweepSettings = SweepSettings(),
    core_counts: Sequence[int] = (2, 4, 6, 8, 10),
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> WeightedSweepResult:
    """Fig. 3a — weighted schedulability versus number of cores."""
    base = default_platform()
    return _weighted_sweep(
        "Fig. 3a — weighted schedulability vs number of cores",
        "cores",
        tuple(core_counts),
        lambda m: base.with_num_cores(m),
        standard_variants(include_perfect=False),
        settings,
        journal_dir=journal_dir,
        resume=resume,
        fault=fault,
    )


def run_fig3b(
    settings: SweepSettings = SweepSettings(),
    d_mem_microseconds: Sequence[int] = (2, 4, 6, 8, 10),
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> WeightedSweepResult:
    """Fig. 3b — weighted schedulability versus memory reload time."""
    base = default_platform()
    return _weighted_sweep(
        "Fig. 3b — weighted schedulability vs d_mem (us)",
        "d_mem us",
        tuple(d_mem_microseconds),
        lambda us: base.with_d_mem(microseconds_to_cycles(us)),
        standard_variants(include_perfect=False),
        settings,
        journal_dir=journal_dir,
        resume=resume,
        fault=fault,
    )


def run_fig3c(
    settings: SweepSettings = SweepSettings(),
    cache_sets: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> WeightedSweepResult:
    """Fig. 3c — weighted schedulability versus cache size.

    Benchmark parameters are re-derived per cache size through the synthetic
    program models (the paper re-ran the Heptane extraction per size).
    """
    base = default_platform()
    generation = replace(
        settings.generation, parameter_source=ParameterSource.HYBRID
    )
    settings = replace(settings, generation=generation)
    return _weighted_sweep(
        "Fig. 3c — weighted schedulability vs cache size (sets)",
        "sets",
        tuple(cache_sets),
        lambda sets: base.with_cache(CacheGeometry(num_sets=sets, block_size=32)),
        standard_variants(include_perfect=False),
        settings,
        journal_dir=journal_dir,
        resume=resume,
        fault=fault,
    )


def run_fig3d(
    settings: SweepSettings = SweepSettings(),
    slot_sizes: Sequence[int] = (1, 2, 3, 4, 5, 6),
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> WeightedSweepResult:
    """Fig. 3d — weighted schedulability versus RR/TDMA slot size."""
    base = default_platform()
    return _weighted_sweep(
        "Fig. 3d — weighted schedulability vs RR/TDMA slot size",
        "slot s",
        tuple(slot_sizes),
        lambda s: base.with_slot_size(s),
        slot_variants(),
        settings,
        journal_dir=journal_dir,
        resume=resume,
        fault=fault,
    )
