"""Generic sweep machinery shared by all figure drivers.

Every experiment point boils down to: draw ``samples`` random task sets for
one platform configuration, evaluate each task set under every analysis
variant, and aggregate either a schedulability *ratio* (Fig. 2) or the
utilisation-weighted schedulability *measure* (Fig. 3).

Determinism: the RNG seed of each sample is a pure function of the sweep
seed, the point index and the sample index, so results are reproducible and
independent of the degree of parallelism.  All variants see the *same*
task sets, as in the paper.

Parallelism and resilience: the sweep is flattened into individual
``(point, sample)`` work items and executed by the fault-tolerant
:class:`~repro.experiments.supervisor.SweepSupervisor` — contiguous
chunks dealt to worker processes created with the explicit **spawn**
start method (identical worker behaviour, perf-counter state and
recovery semantics on Linux and macOS; see the supervisor docstring).
Because each sample's seed is order-independent, any partitioning,
retry or resume order yields the same outcomes bit for bit; chunking
merely balances load (a utilisation point near the schedulability cliff
costs far more than a trivially feasible one, so per-*point* parallelism
leaves workers idle).  Failing samples are quarantined as
:class:`~repro.experiments.supervisor.SampleFailure` records instead of
aborting the sweep, and an optional journal directory checkpoints every
completed item so an interrupted campaign resumes bit-identically
(``--journal``/``--resume``; see ``docs/RESILIENCE.md``).  Worker
processes also return their :class:`repro.perf.PerfCounters`, which are
merged into the parent's global counters so ``--profile`` sees the whole
sweep.
"""

from __future__ import annotations

import gc
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.schedulability import check_schedulability
from repro.analysis.weighted import weighted_schedulability
from repro.budget import Budget
from repro.errors import AnalysisError, JournalError
from repro.experiments.config import SweepSettings, Variant
from repro.experiments.journal import RunJournal, sweep_description, sweep_fingerprint
from repro.experiments.stateplane import resident_plane
from repro.experiments.supervisor import SampleFailure, SweepSupervisor, WorkItem
from repro.generation.taskset_gen import GenerationConfig, generate_taskset
from repro.model.interference import prefill_batch
from repro.model.platform import BusPolicy, Platform
from repro.perf import PerfCounters
from repro.resultcache import ResultCache
from repro.verify.faults import SweepFault

#: Environment variable pointing sweep workers at a shared persistent
#: result cache (see :mod:`repro.resultcache`).  An env var rather than a
#: parameter because the evaluation functions pickle by reference into
#: spawn workers: the variable is inherited by every worker process, and
#: each lazily opens its own handle on first use.  Verdicts are
#: bit-identical with or without the cache (the bounds are deterministic),
#: so this knob — like the journal — never changes results.
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE_DIR"

_RESULT_CACHE: Optional[ResultCache] = None
_RESULT_CACHE_ROOT: Optional[str] = None


def _result_cache() -> Optional[ResultCache]:
    """Process-local handle on the env-configured result cache (if any)."""
    global _RESULT_CACHE, _RESULT_CACHE_ROOT
    root = os.environ.get(RESULT_CACHE_ENV) or None
    if root != _RESULT_CACHE_ROOT:
        _RESULT_CACHE = ResultCache(root) if root is not None else None
        _RESULT_CACHE_ROOT = root
    return _RESULT_CACHE


@dataclass(frozen=True)
class SampleOutcome:
    """Verdicts for one generated task set under every variant."""

    weight: float
    verdicts: Tuple[bool, ...]


def _sample_seed(seed: int, point_index: int, sample_index: int) -> int:
    """Stable per-sample seed, independent of execution order."""
    return (seed * 1_000_003 + point_index * 10_007 + sample_index) & 0x7FFFFFFF


# -- variant dominance -------------------------------------------------------
#
# The catalogue's variants are not independent: a persistence-aware bound is
# pointwise at most its baseline counterpart on the same bus (the
# ``persistence-tightens`` oracle), and the perfect bus lower-bounds every
# arbiter (the ``perfect-dominance`` oracle).  The implication cuts both
# ways.  When a *tighter* variant already failed with a genuine deadline
# miss, every variant it dominates must miss the same deadline — its WCRT
# bound can only be larger — so the sweep records ``False`` without running
# the analysis.  Conversely, when a *looser* variant is schedulable, every
# variant dominating it is schedulable too (its bounds are pointwise
# smaller), and the sweep records ``True`` for free.  Which direction pays
# depends on where the sample sits: below the schedulability cliff almost
# everything passes, so evaluating the loose (cheap) baselines first lets
# their successes discharge the expensive persistence-aware analyses; above
# the cliff almost everything fails, so evaluating the tight variants first
# lets their deadline misses discharge the rest.  ``evaluate_sample`` picks
# the order from the point's utilisation — a deterministic function of the
# work item, and pure perf: the verdicts are bit-identical in either order.
#
# Failure skips fire only on an actual deadline miss (``failed_task`` set):
# utilisation prechecks, bus-overload rejections and outer-loop exhaustion
# carry no cross-variant implication and are never used as skip evidence.
# Success skips fire on any schedulable verdict of a dominated variant, but
# never *for* a perfect-bus variant: the perfect bus has its own
# bus-overload precheck, whose rejection no other variant's success can
# rule out, so its verdict always comes from ``check_schedulability``.


def _dominates(a: Variant, b: Variant) -> bool:
    """``True`` when ``a``'s WCRT bounds are pointwise at most ``b``'s."""
    ca, cb = a.analysis, b.analysis
    if ca.crpd_approach is not cb.crpd_approach:
        return False
    if ca.cpro_approach is not cb.cpro_approach:
        return False
    if not ca.persistence and cb.persistence:
        return False  # a is looser on the persistence terms
    if not ca.persistence_in_low and cb.persistence_in_low:
        return False
    if ca.tdma_slot_alignment and not cb.tdma_slot_alignment:
        return False  # a charges extra TDMA waiting that b does not
    return a.policy is b.policy or a.policy is BusPolicy.PERFECT


_Plan = Tuple[
    Tuple[int, ...],
    Tuple[Tuple[int, ...], ...],
    Tuple[int, ...],
    Tuple[Tuple[int, ...], ...],
]

_PLAN_CACHE: Dict[Tuple[Variant, ...], _Plan] = {}

#: Utilisation at or below which ``evaluate_sample`` runs the loosest
#: variants first (harvesting success skips); above it the tightest run
#: first (harvesting failure skips).  Pure performance tuning — verdicts
#: are bit-identical in either order — roughly matching where the standard
#: catalogue's baselines start falling off the schedulability cliff.
_SUCCESS_ORDER_UTILIZATION = 0.5


def _dominance_plan(variants: Tuple[Variant, ...]) -> _Plan:
    """Evaluation orders plus per-variant skip-evidence indices.

    Returns ``(tight_order, dominators, loose_order, dominated)``.
    ``tight_order`` puts tighter variants first (perfect bus, then
    persistence-aware, then baseline); ``loose_order`` is its reverse.
    ``dominators[i]`` names the variants dominating ``i`` that run earlier
    in ``tight_order`` (failure evidence), ``dominated[i]`` the variants
    ``i`` dominates that run earlier in ``loose_order`` (success
    evidence; empty for perfect-bus variants, whose bus-overload precheck
    no other variant's success can rule out).  Both lists only name
    variants evaluated *earlier* in their order, so each plan is
    cycle-free by construction even for duplicate variants.  Verdicts are
    always reported in the caller's original variant order.
    """
    plan = _PLAN_CACHE.get(variants)
    if plan is None:
        order = tuple(
            sorted(
                range(len(variants)),
                key=lambda i: (
                    variants[i].policy is not BusPolicy.PERFECT,
                    not variants[i].analysis.persistence,
                    not variants[i].analysis.persistence_in_low,
                    variants[i].analysis.tdma_slot_alignment,
                    i,
                ),
            )
        )
        position = {index: rank for rank, index in enumerate(order)}
        dominators = tuple(
            tuple(
                j
                for j in order
                if position[j] < position[i] and _dominates(variants[j], variants[i])
            )
            for i in range(len(variants))
        )
        loose_order = tuple(reversed(order))
        dominated = tuple(
            ()
            if variants[i].policy is BusPolicy.PERFECT
            else tuple(
                j
                for j in loose_order
                if position[j] > position[i] and _dominates(variants[i], variants[j])
            )
            for i in range(len(variants))
        )
        plan = (order, dominators, loose_order, dominated)
        _PLAN_CACHE[variants] = plan
    return plan


def evaluate_sample(
    base_platform: Platform,
    utilization: float,
    variants: Sequence[Variant],
    generation: GenerationConfig,
    sample_seed: int,
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
    taskset=None,
) -> SampleOutcome:
    """Generate one task set and test it under every variant.

    The task set is generated once from ``base_platform`` (generation only
    depends on ``d_mem``, the cache geometry and the core count, not on the
    arbitration policy) and shared across variants; passing ``taskset``
    skips the generation (the sweep layer pre-generates whole points and
    compiles their interference tables together).  Variants are evaluated in
    dominance order: once a tighter variant fails with a genuine deadline
    miss, the variants it dominates are recorded unschedulable without
    running their analyses (``perf.dominance_skips``) — the verdict tuple,
    reported in the caller's variant order, is bit-identical either way.

    The cyclic garbage collector is paused for the variant loop and
    restored to its previous state afterwards, also when an analysis
    raises.  The loop allocates many small objects but no reference
    cycles (contexts, closures and the task set's derived stores are
    acyclic), so the generational collections it would trigger only
    re-traverse the live sweep state; see docs/PERFORMANCE.md.

    ``budget`` (one :class:`~repro.budget.Budget` covering *all* variants
    of the sample) lets an over-budget analysis abort cooperatively with
    :class:`~repro.errors.BudgetExceeded` instead of running on until the
    supervisor's process-kill watchdog fires.
    """
    if taskset is None:
        rng = random.Random(sample_seed)
        taskset = generate_taskset(rng, base_platform, utilization, generation)
    weight = taskset.total_utilization(base_platform.d_mem)
    variants = tuple(variants)
    order, dominators, loose_order, dominated = _dominance_plan(variants)
    if utilization <= _SUCCESS_ORDER_UTILIZATION:
        # Below the cliff most variants pass: run the loose (cheap)
        # baselines first so their successes discharge the tighter
        # analyses.  Above it, tightest-first failure skips pay instead.
        # Both skip rules are checked in either order; the order only
        # decides which evidence exists by the time a variant comes up.
        order = loose_order
    result_cache = _result_cache()
    verdicts: List[bool] = [False] * len(variants)
    missed: List[bool] = [False] * len(variants)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in order:
            variant = variants[index]
            if any(verdicts[dom] for dom in dominated[index]):
                # A dominated variant is schedulable: this variant's
                # (pointwise smaller) WCRT bounds converge below the same
                # deadlines.
                verdicts[index] = True
                if perf is not None:
                    perf.dominance_skips += 1
                continue
            if any(missed[dom] for dom in dominators[index]):
                # A dominating variant already saw a genuine deadline miss:
                # this variant's (larger) WCRT bound misses it too.
                if perf is not None:
                    perf.dominance_skips += 1
                continue
            verdict = check_schedulability(
                taskset,
                base_platform.with_bus_policy(variant.policy),
                variant.analysis,
                perf=perf,
                budget=budget,
                result_cache=result_cache,
            )
            verdicts[index] = verdict.schedulable
            wcrt = verdict.wcrt
            missed[index] = wcrt is not None and wcrt.failed_task is not None
    finally:
        if gc_was_enabled:
            gc.enable()
    return SampleOutcome(weight=weight, verdicts=tuple(verdicts))


def prewarm_items(
    base_platform: Platform,
    variants: Sequence[Variant],
    generation: GenerationConfig,
    items: Sequence[WorkItem],
    perf: Optional[PerfCounters] = None,
    context: Optional[Dict] = None,
) -> Optional[Dict]:
    """Pre-generate a chunk's task sets and compile their interference tables.

    Fills ``context["tasksets"]`` (seed-keyed) so :func:`evaluate_item`
    skips per-sample generation, then runs one
    :func:`~repro.model.interference.prefill_batch` per distinct
    CRPD/CPRO approach pair among the bitmask-kernel variants, compiling
    every task set's per-cut CRPD/CPRO values and fused rows before the
    first analysis.
    Task sets come from the worker-resident
    :func:`~repro.experiments.stateplane.resident_plane`, so a chunk
    re-visiting a sample another chunk of this worker already touched
    reuses the same object — generation, compiled tables and
    warm-start seeds included (``perf.resident_table_hits``); the
    re-prefill of a resident task set is an idempotent no-op.  Purely an
    optimisation: every step is idempotent and the analyses recompute
    anything missing, so a skipped or failed prewarm never changes
    results.
    """
    if context is None:
        return None
    tasksets = context.setdefault("tasksets", {})
    plane = resident_plane()
    fresh = []
    for item in items:
        if item.seed not in tasksets:
            taskset = plane.taskset(
                base_platform, generation, item.utilization, item.seed, perf
            )
            tasksets[item.seed] = taskset
            fresh.append(taskset)
    if fresh:
        combos = {
            (variant.analysis.crpd_approach, variant.analysis.cpro_approach)
            for variant in variants
            if not variant.analysis.reference
        }
        for crpd_approach, cpro_approach in sorted(
            combos, key=lambda pair: (pair[0].name, pair[1].name)
        ):
            prefill_batch(
                tuple(fresh), crpd_approach, cpro_approach, perf=perf,
                d_mem=base_platform.d_mem,
            )
    return context


def evaluate_item(
    base_platform: Platform,
    utilization: float,
    variants: Sequence[Variant],
    generation: GenerationConfig,
    sample_seed: int,
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
    *,
    context: Optional[Dict] = None,
) -> Tuple[float, Tuple[bool, ...]]:
    """Supervisor-facing adapter: :func:`evaluate_sample` as raw payload.

    Module-level so it pickles by reference into spawn workers.  The
    keyword-only ``context`` implements the supervisor's shared-context
    protocol (``supports_context`` below): it carries the pre-generated
    task sets of :func:`prewarm_items`, consumed here, one use each.
    """
    taskset = None
    if context is not None:
        taskset = context.setdefault("tasksets", {}).pop(sample_seed, None)
    outcome = evaluate_sample(
        base_platform, utilization, variants, generation, sample_seed, perf,
        budget=budget, taskset=taskset,
    )
    return outcome.weight, outcome.verdicts


#: Supervisor protocol: accept the keyword-only ``context`` argument.
evaluate_item.supports_context = True
#: Supervisor protocol: per-chunk batch prewarming hook.
evaluate_item.prewarm = prewarm_items

#: ``perfbench/tracing.py`` wraps this name; it is the only user and
#: nothing in the program calls it.
check_schedulability_batch = check_schedulability


class CurveOutcomes(Dict[float, List[SampleOutcome]]):
    """Per-utilisation outcome lists plus graceful-degradation metadata.

    Behaves exactly like the plain ``Dict[float, List[SampleOutcome]]``
    the aggregators always consumed; additionally carries the sweep's
    quarantined :attr:`failures` and the resulting :attr:`coverage` so
    callers can report how much of the campaign survived.
    """

    def __init__(
        self,
        mapping: Dict[float, List[SampleOutcome]],
        failures: Sequence[SampleFailure] = (),
        expected: int = 0,
    ) -> None:
        super().__init__(mapping)
        #: Quarantined samples, in ``(point, sample)`` order.
        self.failures: List[SampleFailure] = list(failures)
        #: Total number of ``(point, sample)`` items the sweep asked for.
        self.expected = expected

    @property
    def healthy(self) -> int:
        """Number of samples that completed and were aggregated."""
        return sum(len(samples) for samples in self.values())

    @property
    def coverage(self) -> float:
        """Fraction of requested samples that completed (1.0 = no loss)."""
        return self.healthy / self.expected if self.expected else 1.0


def run_point(
    base_platform: Platform,
    utilization: float,
    variants: Sequence[Variant],
    settings: SweepSettings,
    point_index: int,
) -> List[SampleOutcome]:
    """All sample outcomes for one (platform, utilisation) point."""
    items = [
        WorkItem(
            point=point_index,
            sample=i,
            utilization=utilization,
            seed=_sample_seed(settings.seed, point_index, i),
        )
        for i in range(settings.samples)
    ]
    supervisor = SweepSupervisor(
        evaluate_item, base_platform, tuple(variants), settings.generation, settings
    )
    completed, _failures = supervisor.run(items)
    return [
        SampleOutcome(weight=weight, verdicts=verdicts)
        for weight, verdicts in (
            completed[item.key] for item in items if item.key in completed
        )
    ]


def run_curve(
    base_platform: Platform,
    variants: Sequence[Variant],
    settings: SweepSettings,
    point_offset: int = 0,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    fault: Optional[SweepFault] = None,
) -> CurveOutcomes:
    """Outcomes for every utilisation point of the grid.

    ``point_offset`` decorrelates the RNG streams of different parameter
    values in multi-parameter sweeps.  With ``settings.jobs > 1`` the
    flattened ``(point, sample)`` items are evaluated in supervised
    worker processes; results are bit-identical to the sequential run
    because the per-sample seeds do not depend on execution order.

    Every item is evaluated on its own (:func:`evaluate_sample`), so
    verdicts are bit-identical with any chunk-to-worker assignment —
    including the adaptive chunk sizes and tail work stealing of
    :class:`~repro.experiments.supervisor.SweepSupervisor`.

    ``journal_dir`` checkpoints every completed item into an append-only
    JSONL journal keyed by the sweep fingerprint; with ``resume`` the
    journalled items are skipped and their recorded outcomes reused
    bit-identically.  Opening a non-empty journal without ``resume``
    raises :class:`~repro.errors.JournalError` rather than silently
    mixing two runs.  ``fault`` injects a deterministic execution fault
    into the workers (recovery-path testing only).
    """
    items: List[WorkItem] = [
        WorkItem(
            point=index,
            sample=i,
            utilization=utilization,
            seed=_sample_seed(settings.seed, point_offset + index, i),
        )
        for index, utilization in enumerate(settings.utilizations)
        for i in range(settings.samples)
    ]
    variants = tuple(variants)
    journal: Optional[RunJournal] = None
    if journal_dir is not None:
        fingerprint = sweep_fingerprint(base_platform, variants, settings, point_offset)
        journal = RunJournal.open(
            journal_dir,
            fingerprint,
            sweep_description(base_platform, variants, settings, point_offset),
        )
        if not resume and (journal.completed or journal.failures):
            path = journal.path
            journal.close()
            raise JournalError(
                f"journal {path} already holds results for this sweep; "
                f"pass --resume to continue it or remove the file to start over"
            )
    with journal if journal is not None else nullcontext():
        prior = dict(journal.completed) if journal is not None else {}
        replayed = (
            [
                SampleFailure.from_record(record)
                for _key, record in sorted(journal.failures.items())
            ]
            if journal is not None
            else []
        )
        skip = set(prior)
        skip.update(key for key in (journal.failures if journal else {}))
        pending = [item for item in items if item.key not in skip]
        supervisor = SweepSupervisor(
            evaluate_item,
            base_platform,
            variants,
            settings.generation,
            settings,
            journal=journal,
            fault=fault,
        )
        fresh, failures = supervisor.run(pending)
    completed = {**prior, **fresh}
    results: Dict[float, List[SampleOutcome]] = {}
    for index, utilization in enumerate(settings.utilizations):
        results[utilization] = [
            SampleOutcome(weight=weight, verdicts=tuple(verdicts))
            for weight, verdicts in (
                completed[(index, i)]
                for i in range(settings.samples)
                if (index, i) in completed
            )
        ]
    all_failures = sorted(
        [*replayed, *failures], key=lambda f: (f.point, f.sample)
    )
    return CurveOutcomes(results, failures=all_failures, expected=len(items))


def schedulability_ratios(
    outcomes: Dict[float, List[SampleOutcome]],
    variants: Sequence[Variant],
) -> Dict[str, List[float]]:
    """Per-variant schedulability ratio at each utilisation point.

    Degrades gracefully under quarantined samples: each point's ratio is
    taken over the samples that actually completed.  An empty utilisation
    grid, or a point where *every* sample was quarantined, raises a typed
    :class:`~repro.errors.AnalysisError` instead of dividing by zero.
    """
    if not outcomes:
        raise AnalysisError(
            "schedulability ratios of an empty utilisation grid"
        )
    ratios: Dict[str, List[float]] = {v.label: [] for v in variants}
    for utilization in sorted(outcomes):
        samples = outcomes[utilization]
        if not samples:
            raise AnalysisError(
                f"no surviving samples at utilisation {utilization}: "
                f"every sample failed or was quarantined"
            )
        for column, variant in enumerate(variants):
            schedulable = sum(1 for s in samples if s.verdicts[column])
            ratios[variant.label].append(schedulable / len(samples))
    return ratios


def weighted_measures(
    outcomes: Dict[float, List[SampleOutcome]],
    variants: Sequence[Variant],
) -> Dict[str, float]:
    """Per-variant weighted schedulability over the whole utilisation grid.

    Quarantined samples are simply absent from the weighting; a sweep
    with no surviving weight at all raises
    :class:`~repro.errors.AnalysisError` (the measure is undefined).
    """
    measures: Dict[str, float] = {}
    for column, variant in enumerate(variants):
        pairs: List[Tuple[float, bool]] = []
        for samples in outcomes.values():
            pairs.extend((s.weight, s.verdicts[column]) for s in samples)
        measures[variant.label] = weighted_schedulability(pairs)
    return measures


def max_gap(
    ratios: Dict[str, List[float]], aware_label: str, baseline_label: str
) -> float:
    """Largest percentage-point gain of ``aware`` over ``baseline``.

    This is the quantity behind the paper's "up to 70 percentage points"
    claims (Sec. V.1).  Missing labels and empty ratio series raise a
    typed :class:`~repro.errors.AnalysisError` instead of ``KeyError`` /
    ``ValueError``.
    """
    try:
        aware = ratios[aware_label]
        baseline = ratios[baseline_label]
    except KeyError as error:
        raise AnalysisError(
            f"max gap over unknown variant label {error}"
        ) from None
    if not aware or not baseline:
        raise AnalysisError("max gap over empty ratio series")
    return max(a - b for a, b in zip(aware, baseline))
