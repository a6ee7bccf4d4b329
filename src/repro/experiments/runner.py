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

A work item is one call: :func:`evaluate_item` runs
:func:`evaluate_sample` on the sample's task set from the worker's
resident :mod:`~repro.experiments.stateplane`, and each analysis compiles
the interference table it reads on first use.
"""

from __future__ import annotations

import gc
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.schedulability import check_schedulability, residual_bus_check
from repro.analysis.weighted import weighted_schedulability
from repro.budget import Budget
from repro.errors import AnalysisError, JournalError
from repro.experiments.config import SweepSettings, Variant
from repro.experiments.faults import SweepFault
from repro.experiments.journal import RunJournal, sweep_description, sweep_fingerprint
from repro.experiments.stateplane import StatePlane, resident_plane
from repro.experiments.supervisor import SampleFailure, SweepSupervisor, WorkItem
from repro.generation.taskset_gen import GenerationConfig, generate_taskset
from repro.model import interference
from repro.model.platform import BusPolicy, Platform
from repro.perf import PerfCounters


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
# The catalogue's variants are not independent.  Variant ``a`` dominates
# ``b`` (``_dominates``) when, at equal response-time estimates, ``a``'s
# Eq. (19) right-hand side is at most ``b``'s for every task and window:
#
# * on one bus, a persistence-aware bound is at most its baseline
#   counterpart (Lemmas 1-2 take a ``min`` with the baseline charge; the
#   ``persistence-tightens`` oracle);
# * the perfect bus's BAT is the BAS alone, a term of every arbiter's BAT
#   (Eq. 7-9; the ``perfect-dominance`` oracle);
# * RR's BAT is at most TDMA's: Eq. (8) charges each of the ``L - 1``
#   remote cores at most ``s * BAS`` and Eq. (9) exactly that, with the
#   same BAS and blocking term (the ``rr-tdma-dominance`` oracle).
#
# Pointwise dominance alone does not order the fixed points, because the
# persistence-aware remote term is not monotone in the remote estimates
# (see ``repro.analysis.wcrt``).  It does when one side is monotone.  Let
# ``f_A <= f_B`` at equal estimates, let B converge to ``R_B`` within its
# deadlines, and let A start from the same isolated WCETs.  For an A
# iterate ``s <= R_B`` at A's estimates ``E <= R_B``: if B is monotone,
# ``f_A(s, E) <= f_B(s, E) <= f_B(R_B, R_B) <= R_B``; if A is,
# ``f_A(s, E) <= f_A(R_B, R_B) <= f_B(R_B, R_B) <= R_B``.  By induction
# over the inner and the outer loop, A's estimates never pass ``R_B``, so
# A never misses a deadline.  The monotone side is the baseline for the
# same-bus persistence pairs, the perfect bus (BAS alone, which reads no
# remote estimate) for its pairs, and TDMA (no remote estimate either)
# for RR <= TDMA.  Two persistence-aware FP variants that differ only in
# ``persistence_in_low`` have no monotone side, so ``_dominates`` does
# not relate them.  DESIGN.md ("Why the dominance skips are sound")
# states the cases in full.
#
# So B schedulable implies A schedulable, and A's genuine deadline miss
# implies B unschedulable.  ``evaluate_sample`` uses both without running
# the other analysis: a dominated variant's success discharges the
# variants dominating it, and a dominating variant's deadline miss
# condemns the variants it dominates.  A skip can disagree with running
# the analysis in one way only: a success skip reports "schedulable" for
# an A whose outer loop would have used up all its
# ``max_outer_iterations`` rounds and answered the conservative
# "unschedulable".  A failure skip never disagrees: B is unschedulable
# whether it misses a deadline or runs out of rounds.  With different
# iteration caps that one way becomes common (an A capped at one outer
# round answers "unschedulable" for most sets B schedules), so
# ``_dominates`` relates two variants only when their
# ``max_outer_iterations`` and ``max_inner_iterations`` are equal.
#
# Failure skips fire only on an actual deadline miss (``failed_task``
# set): utilisation prechecks, bus-overload rejections and outer-loop
# exhaustion carry no cross-variant implication.  Success skips fire on
# any schedulable verdict of a dominated variant.  A perfect-bus variant
# that takes one still owes the residual bus-utilisation check
# (:func:`~repro.analysis.schedulability.residual_bus_check`), which no
# other variant's success rules out, and records its outcome.
#
# Which evidence exists depends on the order.  Below the schedulability
# cliff almost everything passes, so the loose (cheap) baselines run
# first and their successes discharge the tighter analyses; above it
# almost everything fails, so the tight variants run first and their
# deadline misses condemn the rest.  The perfect bus runs last in both
# orders: it schedules nearly every set up to U = 0.9, so its failures
# are rare evidence, while any other variant's success discharges it.


def _dominates(a: Variant, b: Variant) -> bool:
    """``True`` when ``a``'s WCRT bounds are pointwise at most ``b``'s."""
    ca, cb = a.analysis, b.analysis
    if (ca.max_outer_iterations, ca.max_inner_iterations) != (
        cb.max_outer_iterations, cb.max_inner_iterations
    ):
        return False  # different caps: see the comment above
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
    if (
        a.policy is b.policy is BusPolicy.FP
        and cb.persistence
        and ca.persistence_in_low != cb.persistence_in_low
    ):
        return False  # two persistence-aware FP bounds: neither is monotone
    return (
        a.policy is b.policy
        or a.policy is BusPolicy.PERFECT
        or (a.policy is BusPolicy.RR and b.policy is BusPolicy.TDMA)
    )


#: One evaluation order plus, per variant, the indices of the variants
#: run before it that dominate it (failure evidence) and that it dominates
#: (success evidence).
_Order = Tuple[
    Tuple[int, ...], Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]
]

_PLAN_CACHE: Dict[Tuple[Variant, ...], Tuple[_Order, _Order]] = {}

#: Utilisation at or below which ``evaluate_sample`` runs the loosest
#: variants first (harvesting success skips); above it the tightest run
#: first (harvesting failure skips).  Pure performance tuning — verdicts
#: are bit-identical in either order — roughly matching where the standard
#: catalogue's baselines start falling off the schedulability cliff.
_SUCCESS_ORDER_UTILIZATION = 0.5


def _evidence(variants: Tuple[Variant, ...], order: Tuple[int, ...]) -> _Order:
    """``order`` with each variant's skip evidence among earlier variants."""
    dominators: List[Tuple[int, ...]] = [()] * len(variants)
    dominated: List[Tuple[int, ...]] = [()] * len(variants)
    for rank, index in enumerate(order):
        earlier = order[:rank]
        variant = variants[index]
        dominators[index] = tuple(
            j for j in earlier if _dominates(variants[j], variant)
        )
        dominated[index] = tuple(
            j for j in earlier if _dominates(variant, variants[j])
        )
    return order, tuple(dominators), tuple(dominated)


def _dominance_plan(variants: Tuple[Variant, ...]) -> Tuple[_Order, _Order]:
    """The tight and the loose evaluation order with their skip evidence.

    The tight order runs tighter variants first (persistence-aware before
    baseline, RR before TDMA), the loose order the arbiters in reverse;
    both end with the perfect-bus variants.  In either order a variant
    takes failure evidence from the earlier variants dominating it and
    success evidence from the earlier variants it dominates.  Evidence
    only ever names earlier variants, so each plan is cycle-free by
    construction, duplicate variants included.  Verdicts are always
    reported in the caller's original variant order.
    """
    plan = _PLAN_CACHE.get(variants)
    if plan is None:

        def tightness(index: int):
            variant = variants[index]
            return (
                variant.policy is BusPolicy.PERFECT,
                not variant.analysis.persistence,
                not variant.analysis.persistence_in_low,
                variant.analysis.tdma_slot_alignment,
                variant.policy is BusPolicy.TDMA,
                index,
            )

        tight = sorted(range(len(variants)), key=tightness)
        perfect = [i for i in tight if variants[i].policy is BusPolicy.PERFECT]
        arbiters = tight[: len(tight) - len(perfect)]
        plan = (
            _evidence(variants, tuple(tight)),
            _evidence(variants, tuple(arbiters[::-1] + perfect[::-1])),
        )
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
    plane: Optional[StatePlane] = None,
) -> SampleOutcome:
    """Take one task set and test it under every variant.

    The task set comes from ``base_platform`` (generation only depends on
    ``d_mem``, the cache geometry and the core count, not on the
    arbitration policy) and is shared across variants: from ``plane``,
    which returns the resident object of an earlier visit, or generated
    afresh when no plane is given.  Either way it is the same value.
    Each analysis compiles the interference table it reads on first use,
    so a sample that the prechecks settle compiles none.  Variants are
    evaluated in one of the two dominance orders of
    :func:`_dominance_plan`, chosen by the utilisation: a variant whose
    verdict the earlier variants already settle (a dominated variant's
    success, a dominating variant's deadline miss) is recorded without
    running its analysis (``perf.dominance_skips``) — the verdict tuple,
    reported in the caller's variant order, is bit-identical either way.

    The cyclic garbage collector is paused for the whole sample (plane
    lookup or generation, table compilation, analyses) and restored to
    its previous state afterwards, also when generation or an analysis
    raises.  The sample allocates many small objects but no reference
    cycles (task sets, contexts, closures and the task set's derived
    stores are acyclic), so the generational collections it would
    trigger only re-traverse the live sweep state; see
    docs/PERFORMANCE.md.

    ``budget`` (one :class:`~repro.budget.Budget` covering *all* variants
    of the sample) lets an over-budget analysis abort cooperatively with
    :class:`~repro.errors.BudgetExceeded` instead of running on until the
    supervisor's process-kill watchdog fires.
    """
    variants = tuple(variants)
    tight, loose = _dominance_plan(variants)
    order, dominators, dominated = (
        loose if utilization <= _SUCCESS_ORDER_UTILIZATION else tight
    )
    verdicts: List[bool] = [False] * len(variants)
    missed: List[bool] = [False] * len(variants)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if plane is None:
            taskset = generate_taskset(
                random.Random(sample_seed), base_platform, utilization,
                generation,
            )
        else:
            taskset = plane.taskset(
                base_platform, generation, utilization, sample_seed, perf
            )
        weight = taskset.total_utilization(base_platform.d_mem)
        for index in order:
            variant = variants[index]
            if any(verdicts[dom] for dom in dominated[index]):
                # A dominated variant is schedulable: this variant's fixed
                # points converge below the same deadlines.  The perfect
                # bus still owes its bus-overload check.
                verdicts[index] = (
                    variant.policy is not BusPolicy.PERFECT
                    or residual_bus_check(
                        taskset, base_platform.d_mem
                    ).schedulable
                )
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
            )
            verdicts[index] = verdict.schedulable
            wcrt = verdict.wcrt
            missed[index] = wcrt is not None and wcrt.failed_task is not None
    finally:
        if gc_was_enabled:
            gc.enable()
    return SampleOutcome(weight=weight, verdicts=tuple(verdicts))


def evaluate_item(
    base_platform: Platform,
    utilization: float,
    variants: Sequence[Variant],
    generation: GenerationConfig,
    sample_seed: int,
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> Tuple[float, Tuple[bool, ...]]:
    """Supervisor-facing adapter: :func:`evaluate_sample` as raw payload.

    Module-level so it pickles by reference into spawn workers.  The task
    set comes from the process's
    :func:`~repro.experiments.stateplane.resident_plane`, so a worker that
    meets a sample again (a repeat sweep, a retry) reuses its task set
    with the compiled tables and warm-start seeds recorded against it.
    """
    outcome = evaluate_sample(
        base_platform, utilization, variants, generation, sample_seed, perf,
        budget=budget, plane=resident_plane(),
    )
    return outcome.weight, outcome.verdicts


#: ``perfbench/tracing.py`` wraps these names; it is their only user and
#: nothing in the program calls them (each analysis compiles its own
#: table through :func:`~repro.analysis.wcrt.analyze_taskset`).
check_schedulability_batch = check_schedulability
prefill_batch = interference.prefill_batch


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
    """All sample outcomes for one (platform, utilisation) point.

    The one-point sweep of :func:`run_curve` at offset ``point_index``,
    which draws the same sample seeds as point ``point_index`` of a
    whole-grid sweep.
    """
    one_point = replace(settings, utilizations=(utilization,))
    return run_curve(
        base_platform, variants, one_point, point_offset=point_index
    )[utilization]


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
