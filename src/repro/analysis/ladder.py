"""Graceful-degradation ladder over the soundness lattice of the bounds.

The paper's persistence-aware WCRT (Lemmas 1-2) refines the baseline
Davis et al. Eq. (1)/(3) bound, and both over-approximate the true
response times.  That lattice means a deadline-pressed service never has
to answer with nothing: a cheaper, looser tier that still completes
returns *sound* per-task upper bounds, and a "schedulable" verdict from
any sound over-approximation implies the exact analysis agrees (its
bounds are pointwise tighter, hence also under the deadlines).

:class:`AnalysisLadder` orders three tiers:

``exact``
    The request's own :class:`~repro.analysis.config.AnalysisConfig` —
    the paper configuration, bit-identical to a direct
    :func:`~repro.analysis.wcrt.analyze_taskset` call.
``baseline``
    ``persistence=False``: the Davis et al. baseline.  Skipped when the
    request already asked for the baseline (it would duplicate ``exact``).
    Dominance over the exact tier is the ``persistence-tightens``
    property the fuzzer has pinned since PR 4.
``coarse``
    A single-outer-round sufficient test: every *remote* response-time
    estimate is pinned at its task's deadline (the largest value any
    schedulable fixed point can reach) and each task runs one inner
    Eq. (19) fixed point against that frozen context.  The tier runs the
    persistence-oblivious baseline, whose interference terms are
    non-decreasing in the remote estimates (the persistence-aware remote
    term is not; see :mod:`repro.analysis.wcrt`), so the resting
    values dominate the exact fixed point, and "every bound under its
    deadline" soundly implies schedulability.  One outer round, no
    cross-core iteration, order-independent.

Each tier runs under a :meth:`~repro.budget.Budget.child` slice of the
request budget, so an expensive tier aborting cannot starve the cheaper
fallbacks behind it.  The result is a typed :class:`LadderResult` whose
``soundness`` is ``"exact"`` (tier 1 completed), ``"degraded-sound"``
(a looser tier completed; bounds are sound over-approximations, and a
"schedulable" verdict agrees with the exact analysis) or ``"unknown"``
(nothing completed; only the partial estimates of the deepest attempt
are available).  The ``ladder-dominance`` oracle in
:mod:`repro.verify.oracles` replays the dominance claims on the fuzz
grid and the historical corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import (
    WcrtResult,
    _make_context,
    _task_fixed_point,
    analyze_taskset,
)
from repro.budget import Budget
from repro.errors import AnalysisAborted, BudgetExceeded, Cancelled
from repro.model.platform import Platform
from repro.model.task import TaskSet
from repro.perf import PerfCounters

#: Tier names, in degradation order.
TIER_EXACT = "exact"
TIER_BASELINE = "baseline"
TIER_COARSE = "coarse"

#: Soundness classes a :class:`LadderResult` can carry.
SOUND_EXACT = "exact"
SOUND_DEGRADED = "degraded-sound"
SOUND_UNKNOWN = "unknown"


@dataclass(frozen=True)
class LadderTier:
    """One rung: a tier name and its slice of the *remaining* budget."""

    name: str
    #: Fraction of the budget still unspent when this tier starts (not of
    #: the original total), handed to :meth:`Budget.child`.  The last
    #: tier conventionally takes 1.0 — everything that is left.
    fraction: float


#: Default ladder: 60% of the budget on the exact paper configuration,
#: 75% of the remainder (30% of the total) on the baseline, the rest on
#: the coarse single-round test.
DEFAULT_TIERS: Tuple[LadderTier, ...] = (
    LadderTier(TIER_EXACT, 0.6),
    LadderTier(TIER_BASELINE, 0.75),
    LadderTier(TIER_COARSE, 1.0),
)


@dataclass
class LadderResult:
    """Typed outcome of a ladder descent.

    Attributes:
        tier: name of the tier that produced ``result``; ``None`` when no
            tier completed.
        soundness: ``"exact"`` / ``"degraded-sound"`` / ``"unknown"``.
        result: the completed :class:`WcrtResult`, or the partial
            estimates of the deepest aborted attempt for ``"unknown"``.
        tiers_tried: tier names attempted, in order.
        abort: the final tier's abort, kept so service layers can build
            their typed budget-exceeded response from it.
    """

    tier: Optional[str]
    soundness: str
    result: Optional[WcrtResult]
    tiers_tried: Tuple[str, ...] = ()
    abort: Optional[AnalysisAborted] = None

    @property
    def degraded(self) -> bool:
        """Whether the answer came from anything but the exact tier."""
        return self.tier != TIER_EXACT


class AnalysisLadder:
    """Ordered degradation tiers executed under budget slices."""

    def __init__(self, tiers: Sequence[LadderTier] = DEFAULT_TIERS) -> None:
        if not tiers:
            raise ValueError("ladder needs at least one tier")
        self.tiers = tuple(tiers)

    def _config_for(
        self, tier: LadderTier, config: AnalysisConfig
    ) -> Optional[AnalysisConfig]:
        """The tier's analysis configuration, or ``None`` to skip it."""
        if tier.name == TIER_EXACT:
            return config
        if tier.name == TIER_BASELINE:
            if not config.persistence:
                # The request already runs the baseline; re-running it
                # under a smaller slice could only waste budget.
                return None
            return config.with_persistence(False)
        return config  # coarse derives its own context

    def run(
        self,
        taskset: TaskSet,
        platform: Platform,
        config: AnalysisConfig = AnalysisConfig(),
        budget: Optional[Budget] = None,
        perf: Optional[PerfCounters] = None,
    ) -> LadderResult:
        """Descend the ladder until a tier completes.

        Without a budget only the exact tier runs (there is no pressure
        to degrade under) and the call is observationally identical to
        :func:`analyze_taskset`.  With a budget, each tier gets a
        :meth:`Budget.child` slice; a tier aborting on its slice falls
        through to the next, a tier aborting because the *parent* is
        exhausted ends the descent (the next slice would be empty).
        :class:`~repro.errors.Cancelled` always propagates — a cancelled
        caller does not want a degraded answer either.
        """
        tried = []
        abort: Optional[AnalysisAborted] = None
        for tier in self.tiers:
            tier_config = self._config_for(tier, config)
            if tier_config is None:
                continue
            slice_budget: Optional[Budget] = None
            if budget is not None:
                try:
                    slice_budget = budget.child(tier.fraction)
                except BudgetExceeded:
                    break  # parent exhausted: nothing left to slice
            tried.append(tier.name)
            if perf is not None:
                perf.ladder_tier_runs += 1
            try:
                if tier.name == TIER_COARSE:
                    result = coarse_bound(
                        taskset,
                        platform,
                        tier_config,
                        perf=perf,
                        budget=slice_budget,
                    )
                else:
                    result = analyze_taskset(
                        taskset,
                        platform,
                        tier_config,
                        perf=perf,
                        budget=slice_budget,
                    )
            except Cancelled:
                raise
            except BudgetExceeded as error:
                abort = error
                continue
            soundness = (
                SOUND_EXACT if tier.name == TIER_EXACT else SOUND_DEGRADED
            )
            return LadderResult(tier.name, soundness, result, tuple(tried))
        partial = abort.partial if abort is not None else None
        return LadderResult(
            None, SOUND_UNKNOWN, partial, tuple(tried), abort=abort
        )


def run_ladder(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    budget: Optional[Budget] = None,
    perf: Optional[PerfCounters] = None,
) -> LadderResult:
    """Convenience wrapper: run the default ladder once."""
    return AnalysisLadder().run(
        taskset, platform, config, budget=budget, perf=perf
    )


def coarse_bound(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> WcrtResult:
    """Single-outer-round coarse sufficient test (the ladder's last rung).

    Pins every response-time estimate at its task's deadline — the
    largest value any schedulable fixed point can reach — and runs each
    task's inner Eq. (19) fixed point once against that frozen context.
    Because the baseline's interference terms are non-decreasing in the
    remote estimates, each resting value dominates the task's exact
    bound, so

    * every resting value under its deadline ⇒ ``schedulable`` with
      sound per-task bounds (the exact analysis agrees), while
    * any task overrunning is reported with the *conservative* verdict
      shape (``schedulable=False, failed_task=None``) the rest of the
      code base uses for exhausted outer loops: "not provably
      schedulable at this tier", not "provably unschedulable".

    The one genuinely exact negative — a task whose contention-free
    isolated WCET already overruns — is reported with its ``failed_task``
    set, exactly as the full analysis would.  The context is never
    updated between tasks, so the test is order-independent and costs at
    most one inner fixed point per task.  ``persistence=False`` and
    ``warm_start=False`` keep the tier cheap and seed-free.
    """
    counters = PerfCounters()
    counters.analyses += 1
    if budget is not None:
        budget.start()
    coarse_config = replace(config, persistence=False, warm_start=False)
    ctx = _make_context(taskset, platform, coarse_config, counters, budget)
    d_mem = platform.d_mem
    try:
        with counters.phase("analysis"):
            for task in taskset:
                isolated = int(task.pd) + task.md * d_mem
                if isolated > task.deadline:
                    ctx.set_response_time(task, isolated)
                    result = WcrtResult(
                        schedulable=False,
                        response_times=dict(ctx.response_times),
                        failed_task=task,
                    )
                    break
            else:
                for task in taskset:
                    ctx.set_response_time(task, int(task.deadline))
                counters.outer_iterations += 1
                bounds = {}
                overrun = False
                for task in taskset:
                    isolated = int(task.pd) + task.md * d_mem
                    value = _task_fixed_point(
                        ctx, task, isolated, coarse_config
                    )
                    if value is None:
                        bounds[task] = int(task.deadline) + 1
                        overrun = True
                        break
                    bounds[task] = value
                if overrun:
                    for task in taskset:
                        bounds.setdefault(task, int(task.deadline))
                result = WcrtResult(
                    schedulable=not overrun,
                    response_times=bounds,
                    failed_task=None,
                    outer_iterations=1,
                )
    except AnalysisAborted as error:
        counters.budget_aborts += 1
        error.partial = WcrtResult(
            schedulable=False,
            response_times=dict(ctx.response_times),
            outer_iterations=counters.outer_iterations,
            perf=counters,
        )
        if budget is not None:
            error.iterations = budget.iterations
            error.elapsed = budget.elapsed()
        if perf is not None:
            perf.merge(counters)
        raise
    result.perf = counters
    if perf is not None:
        perf.merge(counters)
    return result
