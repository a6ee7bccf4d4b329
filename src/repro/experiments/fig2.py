"""Experiment 1 — Fig. 2: schedulability versus per-core utilisation.

The paper's Fig. 2 has three panels (FP, RR, TDMA), each showing the number
of schedulable task sets with and without cache persistence plus the
"perfect bus" upper bound, as the per-core utilisation sweeps 0.05 to 1.0.
The headline result: persistence-aware analyses schedule up to 70 (FP),
65 (RR) and 50 (TDMA) percentage points more task sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import (
    SweepSettings,
    default_platform,
    standard_variants,
)
from repro.experiments.faults import SweepFault
from repro.experiments.report import format_coverage, format_gaps, format_table
from repro.experiments.runner import max_gap, run_curve, schedulability_ratios
from repro.experiments.supervisor import SampleFailure
from repro.model.platform import Platform


@dataclass
class Fig2Result:
    """Schedulability-ratio series for all seven variants.

    ``failures`` lists the quarantined samples of a degraded sweep (empty
    in a healthy run); the ratios are then taken over the surviving
    samples and :meth:`render` reports the coverage.
    """

    utilizations: Tuple[float, ...]
    ratios: Dict[str, List[float]]
    gaps: Dict[str, float]
    failures: List[SampleFailure] = field(default_factory=list)
    healthy: int = 0
    expected: int = 0

    def render(self) -> str:
        """Text rendition of all three panels plus the gap summary."""
        parts = []
        panels = (
            ("Fig. 2a — FP bus", ("FP-P", "FP", "Perfect")),
            ("Fig. 2b — RR bus", ("RR-P", "RR", "Perfect")),
            ("Fig. 2c — TDMA bus", ("TDMA-P", "TDMA", "Perfect")),
        )
        for title, labels in panels:
            columns = {label: self.ratios[label] for label in labels}
            parts.append(
                format_table(title, "core util", self.utilizations, columns)
            )
        parts.append(format_gaps(self.gaps))
        if self.failures:
            parts.append(
                format_coverage(self.healthy, self.expected, self.failures)
            )
        return "\n\n".join(parts)


def run_fig2(
    settings: SweepSettings = SweepSettings(),
    platform: Platform = None,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> Fig2Result:
    """Regenerate Fig. 2 (all three panels share the same task sets).

    ``journal_dir``/``resume`` checkpoint the sweep for crash-safe
    restarts; ``fault`` injects a deterministic execution fault
    (recovery-path testing only).  See :func:`~repro.experiments.runner.run_curve`.
    """
    base = platform if platform is not None else default_platform()
    variants = standard_variants(include_perfect=True)
    outcomes = run_curve(
        base, variants, settings, journal_dir=journal_dir, resume=resume, fault=fault
    )
    ratios = schedulability_ratios(outcomes, variants)
    gaps = {
        "FP": max_gap(ratios, "FP-P", "FP"),
        "RR": max_gap(ratios, "RR-P", "RR"),
        "TDMA": max_gap(ratios, "TDMA-P", "TDMA"),
    }
    return Fig2Result(
        utilizations=tuple(settings.utilizations),
        ratios=ratios,
        gaps=gaps,
        failures=outcomes.failures,
        healthy=outcomes.healthy,
        expected=outcomes.expected,
    )
