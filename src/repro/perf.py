"""Lightweight performance counters for the analysis kernel.

The WCRT analysis is the hot path of every experiment sweep; this module
gives it observable internals so performance work can be measured instead
of guessed.  :class:`PerfCounters` tracks

* how hard the fixed point worked (``analyses``, ``outer_iterations``,
  ``inner_iterations``),
* how often the warm-started fixed point and the bitmask cache-set kernel
  engaged (``warm_starts``, ``warm_start_iterations_saved``,
  ``bitset_table_builds``),
* how much cross-analysis work was avoided: task sets whose
  interference-table cuts were compiled (``batch_analyses``) and analyses
  skipped via the variant dominance ordering (``dominance_skips``),
* what the sweep's state plane and the service's result cache served
  (``resident_table_*``, ``result_cache_*``), and
* per-phase wall-clock time (task-set ``generation`` vs ``analysis``).

Counters are plain integers so the bookkeeping stays cheap enough to leave
enabled unconditionally inside the kernel.  Worker processes of a parallel
sweep each accumulate their own :class:`PerfCounters` and the parent
process :meth:`~PerfCounters.merge`\\ s them; the CLI's ``--profile`` flag
aggregates into the module-level :func:`global_counters` and renders a
report after each experiment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, Iterator, Optional, Tuple


@dataclass
class PerfCounters:
    """Counters describing one or more :func:`analyze_taskset` runs."""

    analyses: int = 0
    outer_iterations: int = 0
    inner_iterations: int = 0
    #: Analyses seeded from a previously converged response-time map (same
    #: task set, platform and config) instead of the cold isolated WCETs.
    warm_starts: int = 0
    #: Outer rounds skipped by warm starts: the recorded cold run's
    #: ``outer_iterations`` minus the single re-verification round.
    warm_start_iterations_saved: int = 0
    #: Interference-table constructions (one per task set on first use of
    #: the bitmask kernel; reused across runs through ``TaskSet.derived``).
    bitset_table_builds: int = 0
    #: Task sets whose per-cut CRPD/CPRO values were compiled by
    #: :func:`repro.model.interference.prefill_batch`.
    batch_analyses: int = 0
    #: Always 0: it counted compilations on a numpy popcount backend the
    #: interference table no longer has; kept so readers of the field
    #: (benchmarks, ``/stats`` consumers) still find it.
    array_kernel_batches: int = 0
    #: Analyses skipped entirely because a dominating variant of the same
    #: task set already failed with a genuine deadline miss (see
    #: :mod:`repro.experiments.runner`).
    dominance_skips: int = 0
    #: Always 0, like ``lane_retirements``: they counted the lockstep
    #: multi-sample engine, which is gone; ``perfbench/sweeps.py`` still
    #: reads both on every rep.
    lockstep_batches: int = 0
    lane_retirements: int = 0
    #: Task sets served from the worker-resident state plane
    #: (:mod:`repro.experiments.stateplane`) with their compiled
    #: interference tables and warm-start seeds intact.
    resident_table_hits: int = 0
    #: State-plane lookups that had to generate (and compile) fresh state.
    resident_table_misses: int = 0
    #: Queued multi-item chunks split in two by the supervisor's
    #: work-stealing scheduler so idle workers could pick up the half.
    chunks_stolen: int = 0
    #: Analyses aborted cooperatively by their budget (see
    #: :mod:`repro.budget`) instead of running to a verdict.
    budget_aborts: int = 0
    #: Requests served from the persistent content-addressed result cache
    #: (:mod:`repro.resultcache`) without running any analysis.
    result_cache_hits: int = 0
    #: Cache lookups that found no (valid) entry, including entries
    #: quarantined at read time.
    result_cache_misses: int = 0
    #: Completed results written into the persistent cache.
    result_cache_stores: int = 0
    #: Entries dropped by the LRU / byte-budget eviction policy.
    result_cache_evictions: int = 0
    #: Corrupt cache files moved aside by the tolerant loader
    #: (truncated JSON, checksum mismatches, empty files, foreign tags).
    result_cache_quarantines: int = 0
    #: Requests shed before running any analysis: expired on arrival,
    #: or dropped at admission by the priority-class overload policy.
    shed_requests: int = 0
    #: Brownout answers: degraded responses from the daemon's coarse
    #: bound instead of the exact analysis.
    degraded_responses: int = 0
    #: Brownout coarse-bound runs, completed or aborted (see
    #: :func:`repro.analysis.wcrt.coarse_bound`).
    brownout_runs: int = 0
    #: Requests the service rejected because their propagated deadline
    #: had already expired on arrival.
    deadline_expired_rejects: int = 0
    verify_cases: int = 0
    verify_shrink_steps: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-oracle evaluation counts of the soundness fuzzer (repro.verify).
    oracle_checks: Dict[str, int] = field(default_factory=dict)
    #: Per-oracle violation counts (non-empty only when a bug was found).
    oracle_violations: Dict[str, int] = field(default_factory=dict)

    _INT_FIELDS: ClassVar[Tuple[str, ...]] = ()  # filled in after the class body

    # -- aggregate views ----------------------------------------------------

    @property
    def memo_hits(self) -> int:
        """Always 0, like :attr:`memo_misses`.

        They counted the per-term memo caches, which are gone;
        ``perfbench/sweeps.py`` still reads both on every rep.
        """
        return 0

    @property
    def memo_misses(self) -> int:
        """Always 0 (see :attr:`memo_hits`)."""
        return 0

    @property
    def adjacent_warm_starts(self) -> int:
        """Always 0: it counted accepted warm hints, which are gone.

        ``perfbench/sweeps.py`` still reads it on every rep.
        """
        return 0

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and drop the recorded phase timings."""
        for name in self._INT_FIELDS:
            setattr(self, name, 0)
        self.phase_seconds.clear()
        self.oracle_checks.clear()
        self.oracle_violations.clear()

    def merge(self, other: "PerfCounters") -> None:
        """Accumulate ``other``'s counters into this instance."""
        for name in self._INT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        for mapping in ("oracle_checks", "oracle_violations"):
            mine = getattr(self, mapping)
            for oracle, count in getattr(other, mapping).items():
                mine[oracle] = mine.get(oracle, 0) + count

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the enclosed block into ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    # -- reporting ----------------------------------------------------------

    def render(self) -> str:
        """Human-readable profile report (the CLI's ``--profile`` output)."""
        lines = ["Performance profile:"]
        lines.append(
            f"  analyses          {self.analyses:>12d}   "
            f"outer iterations {self.outer_iterations:>10d}   "
            f"inner iterations {self.inner_iterations:>10d}"
        )
        if self.warm_starts or self.bitset_table_builds:
            lines.append(
                f"  warm starts       {self.warm_starts:>12d}   "
                f"outer rounds saved {self.warm_start_iterations_saved:>8d}   "
                f"bitset tables {self.bitset_table_builds:>6d}"
            )
        if self.dominance_skips:
            lines.append(f"  dominance skips   {self.dominance_skips:>12d}")
        if self.batch_analyses:
            lines.append(f"  compiled tasksets {self.batch_analyses:>12d}")
        if self.resident_table_hits or self.resident_table_misses:
            lookups = self.resident_table_hits + self.resident_table_misses
            ratio = self.resident_table_hits / lookups if lookups else 0.0
            lines.append(
                f"  resident plane    hits {self.resident_table_hits:>10d}   "
                f"misses {self.resident_table_misses:>10d}   "
                f"hit ratio {100 * ratio:5.1f}%"
            )
        if self.chunks_stolen:
            lines.append(f"  chunks stolen     {self.chunks_stolen:>12d}")
        if self.budget_aborts:
            lines.append(f"  budget aborts     {self.budget_aborts:>12d}")
        if (
            self.result_cache_hits
            or self.result_cache_misses
            or self.result_cache_stores
        ):
            lookups = self.result_cache_hits + self.result_cache_misses
            ratio = self.result_cache_hits / lookups if lookups else 0.0
            lines.append(
                f"  result cache      hits {self.result_cache_hits:>10d}   "
                f"misses {self.result_cache_misses:>10d}   "
                f"hit ratio {100 * ratio:5.1f}%"
            )
            lines.append(
                f"  result cache      stores {self.result_cache_stores:>8d}   "
                f"evictions {self.result_cache_evictions:>7d}   "
                f"quarantines {self.result_cache_quarantines:>4d}"
            )
        if self.shed_requests or self.deadline_expired_rejects:
            lines.append(
                f"  shed requests     {self.shed_requests:>12d}   "
                f"deadline expired {self.deadline_expired_rejects:>10d}"
            )
        if self.degraded_responses or self.brownout_runs:
            lines.append(
                f"  degraded answers  {self.degraded_responses:>12d}   "
                f"brownout runs    {self.brownout_runs:>10d}"
            )
        if self.verify_cases:
            lines.append(
                f"  verify cases      {self.verify_cases:>12d}   "
                f"shrink steps     {self.verify_shrink_steps:>10d}"
            )
        for oracle in sorted(self.oracle_checks):
            violations = self.oracle_violations.get(oracle, 0)
            lines.append(
                f"  oracle {oracle:<20} checks {self.oracle_checks[oracle]:>8d}   "
                f"violations {violations:>6d}"
            )
        for phase in sorted(self.phase_seconds):
            lines.append(f"  phase {phase:<12} {self.phase_seconds[phase]:10.3f} s")
        return "\n".join(lines)


PerfCounters._INT_FIELDS = tuple(
    f.name for f in fields(PerfCounters) if f.type == "int"
)


_GLOBAL = PerfCounters()


def global_counters() -> PerfCounters:
    """Process-wide aggregate used by the CLI's ``--profile`` reporting."""
    return _GLOBAL


def reset_global_counters() -> None:
    """Zero the process-wide aggregate (called before each experiment)."""
    _GLOBAL.reset()


def merge_global(counters: Optional[PerfCounters]) -> None:
    """Merge ``counters`` (if any) into the process-wide aggregate."""
    if counters is not None:
        _GLOBAL.merge(counters)
