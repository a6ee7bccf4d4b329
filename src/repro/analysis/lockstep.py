"""Lockstep multi-sample WCRT engine: many cold fixed points, one loop.

A sweep point analyses tens to hundreds of task sets under the same
platform and :class:`~repro.analysis.config.AnalysisConfig`; the scalar
path of :mod:`repro.analysis.wcrt` walks them one analysis at a time, to
completion, before touching the next.  This module iterates the *cold*
fixed points of a whole batch together as structure-of-arrays **lanes**:

* each lane owns one task set's full scalar state (its
  :class:`~repro.businterference.context.AnalysisContext`, outer-round
  cursor, remote-epoch convergence marks, per-task inner iteration), and
* the driver round-robins the active lanes at task-fixed-point
  granularity: every driver pass runs exactly one task's complete
  Eq. (19) inner fixed point per active lane, so lanes retire, abort and
  tick their budgets interleaved instead of strictly sequentially.

The interleaving granularity is deliberate.  Each inner iteration is
dominated by the lane's bus-arbitration closure (``BAT(r)``), which is a
per-lane compiled plan the fold cannot share, so synchronising lanes at
*iteration* granularity would buy nothing and pay a cross-lane
bookkeeping toll on every step.  The same-core row sum
``Σ ceil(r/T_j) * PD_j`` *is* foldable, and is vectorised per positioned
task over its ``int64`` period/PD row arrays when numpy (the optional
``.[fast]`` extra) is importable and the row set is wide enough to beat
the tight integer loop (:data:`_SOA_MIN_ROWS`); the pure-Python loop is
the reference and the fallback.  Both folds are exact integer
arithmetic, so the backend choice is invisible in the results.

Bit-identity discipline
-----------------------

Every lane executes *exactly* the operation sequence of the scalar
reference (:func:`repro.analysis.wcrt.analyze_taskset` with
``lockstep_kernel=False``): the same per-analysis preamble (interference
table compile, warm-seed verification, adjacent-hint seeding), the same
isolated-WCET precheck, the same outer-round / remote-epoch skip
structure, the same inner-iteration boundaries — each
lane's :class:`~repro.budget.Budget` is ticked at its own boundary, its
perf counters bump per lane, and a lane retires the moment the scalar path
would have returned (convergence, deadline miss, budget abort, iteration
exhaustion) without perturbing any other lane.  Only the *interleaving*
across lanes differs, and lanes share no mutable state beyond the
``TaskSet.derived`` stores, whose entries are pure functions of the task
set.  The ``lockstep-identity`` oracle of :mod:`repro.verify` and
``TestLockstepIsInvisible`` pin the equivalence on every fuzz case, with
numpy present and absent.

Budget semantics: iteration ceilings are exact per lane (each lane ticks
only at its own boundaries).  Wall-clock budgets measure real elapsed
time, which in a lockstep batch includes the co-scheduled work of the
other lanes — a wall budget generous enough for the batch is invisible,
exactly as a budget generous enough for a scalar run is, and an abort
still leaves every shared cache and warm-seed store sound.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import (
    WarmHint,
    WcrtResult,
    _hint_seeded,
    _hp_rows_for,
    _make_context,
    _warm_verify,
    analyze_taskset,
)
from repro.budget import Budget
from repro.businterference.arbiters import make_bat
from repro.businterference.context import AnalysisContext
from repro.errors import AnalysisAborted, AnalysisError, ConvergenceError
from repro.model.interference import prefill_batch
from repro.model.platform import BusPolicy, Platform
from repro.model.task import TaskSet
from repro.perf import PerfCounters

try:  # Optional acceleration only — never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

#: Conservative magnitude ceiling for the vectorised ``int64`` fold: any
#: operand or partial sum at or above this falls back to the (exact)
#: pure-Python fold for the affected step.  ``2**62`` leaves a full bit of
#: headroom over the worst-case sum of two guarded operands.
_INT64_GUARD = 2 ** 62

#: Minimum higher-priority row count before the vectorised fold engages.
#: Below this the tight Python integer loop wins outright — numpy's
#: per-call overhead (three ufunc dispatches plus an array build per
#: positioning) only amortises over wide rows.
_SOA_MIN_ROWS = 24

_ARRAY_KERNEL_WARNED = False


def note_array_kernel_unavailable(perf: Optional[PerfCounters] = None) -> None:
    """Record that the vectorised row fold was requested without numpy.

    ``AnalysisConfig(lockstep_kernel=True)`` is on by default, but the
    numpy backend behind its row fold is an optional extra
    (``pip install .[fast]``).  The pure-Python fallback is bit-identical,
    so silently falling back would be *correct* — and would just as
    silently forfeit the speedup the caller asked for.  This hook makes
    the fallback observable instead: the first occurrence per process
    emits a ``RuntimeWarning`` and every occurrence bumps the
    ``array_kernel_unavailable`` perf counter (merged across sweep workers
    like every other counter, so ``--profile`` and the daemon's
    ``/stats`` show fleet-wide totals).
    """
    global _ARRAY_KERNEL_WARNED
    if perf is not None:
        perf.array_kernel_unavailable += 1
    if not _ARRAY_KERNEL_WARNED:
        _ARRAY_KERNEL_WARNED = True
        import warnings

        warnings.warn(
            "lockstep row fold requested but numpy is not importable; "
            "running the bit-identical pure-Python fallback (install the "
            "optional extra: pip install '.[fast]' for the vectorised "
            "backend)",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass
class LaneOutcome:
    """Terminal state of one lane of a batch analysis.

    Exactly one of ``result``/``error`` is set: ``result`` carries the
    lane's :class:`~repro.analysis.wcrt.WcrtResult` (bit-identical to the
    scalar path's), ``error`` the exception the scalar path would have
    raised for this task set — an :class:`~repro.errors.AnalysisAborted`
    with its ``partial`` attached, a
    :class:`~repro.errors.ConvergenceError`, or whatever else the analysis
    surfaced.  Errors are per-lane data here so one poisoned sample cannot
    take down its batch; callers re-raise where scalar semantics demand it.
    """

    result: Optional[WcrtResult] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _Lane:
    """Scalar-path state of one task set, advanced one inner step at a time."""

    __slots__ = (
        "taskset", "ctx", "config", "budget", "counters", "seeds",
        "seed_key", "tasks", "n_tasks", "may_skip", "local_only",
        "core_epochs", "remote_marks", "outer", "cursor", "changed",
        "task", "r", "previous", "pd_i", "deadline_i", "hp_rows", "bat",
        "inner_done", "result", "error",
    )

    def __init__(self, taskset, ctx, config, budget, counters, seeds, seed_key):
        self.taskset = taskset
        self.ctx = ctx
        self.config = config
        self.budget = budget
        self.counters = counters
        self.seeds = seeds
        self.seed_key = seed_key
        self.tasks = tuple(taskset)
        self.n_tasks = len(self.tasks)
        self.task = None
        self.result = None
        self.error = None


def _retire(lane: _Lane, result: WcrtResult) -> None:
    lane.result = result
    lane.counters.lane_retirements += 1


def _retire_abort(lane: _Lane, abort: AnalysisAborted) -> None:
    """Mirror of ``analyze_taskset``'s ``except AnalysisAborted`` block."""
    lane.counters.budget_aborts += 1
    abort.partial = WcrtResult(
        schedulable=False,
        response_times=dict(lane.ctx.response_times),
        outer_iterations=lane.counters.outer_iterations,
        perf=lane.counters,
    )
    if lane.budget is not None:
        abort.iterations = lane.budget.iterations
        abort.elapsed = lane.budget.elapsed()
    lane.error = abort
    lane.counters.lane_retirements += 1


def _retire_error(lane: _Lane, error: BaseException) -> None:
    lane.error = error
    lane.counters.lane_retirements += 1


def _lane_start(lane: _Lane) -> bool:
    """The isolated-WCET precheck and round bookkeeping of ``_analyze``.

    Returns ``False`` when the lane retired on iteration zero (some task
    overruns its deadline even contention free).
    """
    ctx = lane.ctx
    d_mem = ctx.platform.d_mem
    for task in lane.taskset:
        isolated = int(task.pd) + task.md * d_mem
        if isolated > task.deadline:
            ctx.set_response_time(task, isolated)
            _retire(
                lane,
                WcrtResult(
                    schedulable=False,
                    response_times=dict(ctx.response_times),
                    failed_task=task,
                ),
            )
            return False
        ctx.set_response_time(task, isolated)
    lane.may_skip = ctx.window_oblivious
    lane.local_only = lane.may_skip and ctx.platform.bus_policy in (
        BusPolicy.TDMA,
        BusPolicy.PERFECT,
    )
    lane.core_epochs = ctx._core_epoch
    lane.remote_marks = {}
    lane.outer = 0
    lane.cursor = lane.n_tasks  # forces the first round on the next advance
    lane.changed = True
    return True


def _advance(lane: _Lane) -> bool:
    """Position the lane at its next inner iteration (round/skip logic).

    Walks the outer-round structure of ``_analyze`` — end-of-round
    convergence and exhaustion exits, remote-epoch skips — until the lane
    either retires (returns ``False``) or rests at the first inner
    iteration of some task's fixed point (returns ``True``).
    """
    ctx = lane.ctx
    while True:
        if lane.cursor >= lane.n_tasks:
            if not lane.changed:
                _retire(
                    lane,
                    WcrtResult(
                        schedulable=True,
                        response_times=dict(ctx.response_times),
                        outer_iterations=lane.outer,
                    ),
                )
                return False
            if lane.outer >= lane.config.max_outer_iterations:
                # Ran out of outer budget: conservative (sound) verdict.
                _retire(
                    lane,
                    WcrtResult(
                        schedulable=False,
                        response_times=dict(ctx.response_times),
                        failed_task=None,
                        outer_iterations=lane.outer,
                    ),
                )
                return False
            lane.outer += 1
            lane.counters.outer_iterations += 1
            lane.changed = False
            lane.cursor = 0
            continue  # re-check: an empty round must fall out, not index
        task = lane.tasks[lane.cursor]
        remote_now = (
            0
            if lane.local_only
            else ctx.epoch - lane.core_epochs.get(task.core, 0)
        )
        if lane.may_skip and lane.remote_marks.get(task) == remote_now:
            lane.cursor += 1
            continue
        lane.task = task
        lane.previous = ctx.response_time(task)
        lane.r = lane.previous
        lane.pd_i = int(task.pd)
        lane.deadline_i = int(task.deadline)
        lane.hp_rows = _hp_rows_for(ctx, task)
        bat = ctx._bat_fns.get(task.priority)
        if bat is None:
            bat = make_bat(ctx, task)
            ctx._bat_fns[task.priority] = bat
        lane.bat = bat
        lane.inner_done = 0
        return True


def _finish_task(lane: _Lane, result: int) -> None:
    """Per-task epilogue of the outer loop (estimate + remote mark)."""
    ctx = lane.ctx
    task = lane.task
    if result != lane.previous:
        ctx.set_response_time(task, result)
        lane.changed = True
    lane.remote_marks[task] = (
        0 if lane.local_only else ctx.epoch - lane.core_epochs.get(task.core, 0)
    )
    lane.cursor += 1
    lane.task = None


def _fold_rows(lane: _Lane):
    """Bind the positioned task's vectorised fold rows, or ``None``.

    Returns the ``(periods, pds)`` ``int64`` arrays when the vectorised
    row fold is engaged for this positioning; ``None`` sends every
    iteration through the tight Python integer loop instead — numpy
    absent, rows narrower than :data:`_SOA_MIN_ROWS`, a non-positive
    period (which must surface the scalar path's ``ZeroDivisionError``),
    or static magnitudes that could push an ``int64`` intermediate at or
    past :data:`_INT64_GUARD`.  Estimates never exceed the task deadline
    while a fixed point runs, so ``Σ ceil(deadline/T_j) * PD_j`` bounds
    the row sum exactly.
    """
    if _np is None or len(lane.hp_rows) < _SOA_MIN_ROWS:
        return None
    if lane.deadline_i >= _INT64_GUARD:
        return None
    bound = 0
    for period, pd_j in lane.hp_rows:
        if period <= 0:
            return None
        bound += -((-lane.deadline_i) // period) * pd_j
    if bound >= _INT64_GUARD:
        return None
    periods = _np.array([p for p, _ in lane.hp_rows], dtype=_np.int64)
    pds = _np.array([pd for _, pd in lane.hp_rows], dtype=_np.int64)
    return periods, pds


def _run_fixed_point(lane: _Lane, d_mem: int) -> bool:
    """Run the positioned task's inner fixed point to its scalar exit.

    The loop body mirrors the scalar path exactly — the budget tick sits
    at each iteration boundary *before* any work, then the Eq. (19) fold,
    the deadline exit, convergence, and the iteration ceiling — with the
    same-core row sum dispatched to the vectorised fold whenever
    :func:`_fold_rows` engaged it for this positioning.  Returns ``True``
    when the lane survives (the task's fixed point converged), ``False``
    when it retired here.
    """
    ctx = lane.ctx
    task = lane.task
    budget = lane.budget
    counters = lane.counters
    bat = lane.bat
    hp_rows = lane.hp_rows
    pd_i = lane.pd_i
    deadline_i = lane.deadline_i
    max_inner = lane.config.max_inner_iterations
    rows = _fold_rows(lane)
    r = lane.r
    inner_done = 0
    try:
        while True:
            if budget is not None:
                budget.tick()
            counters.inner_iterations += 1
            base = pd_i + bat(r) * d_mem
            if rows is not None and base < _INT64_GUARD:
                periods, pds = rows
                r_new = base + int(
                    (-((-r) // periods) * pds).sum(dtype=_np.int64)
                )
            else:
                r_new = base
                for period, pd_j in hp_rows:
                    r_new += -((-r) // period) * pd_j
            if r_new > deadline_i:
                ctx.set_response_time(task, int(task.deadline) + 1)
                _retire(
                    lane,
                    WcrtResult(
                        schedulable=False,
                        response_times=dict(ctx.response_times),
                        failed_task=task,
                        outer_iterations=lane.outer,
                    ),
                )
                return False
            if r_new <= r:
                _finish_task(lane, r)
                return True
            inner_done += 1
            if inner_done >= max_inner:
                _retire_error(
                    lane,
                    ConvergenceError(
                        f"WCRT iteration for task {task.name!r} did "
                        f"not converge within {max_inner} steps"
                    ),
                )
                return False
            r = r_new
    except AnalysisAborted as abort:
        _retire_abort(lane, abort)
        return False
    except Exception as error:  # noqa: BLE001 — per-lane isolation
        _retire_error(lane, error)
        return False


def _run_lockstep(lanes: List[_Lane], d_mem: int) -> None:
    """Drive every lane's cold fixed points to retirement, in lockstep.

    Each pass of the driver loop gives every active lane one outer round:
    positioning (round/skip bookkeeping, where the lane may retire on
    end-of-round convergence or outer exhaustion) and then task fixed
    points until the lane's cursor wraps.  The round is the natural
    lockstep quantum — lanes advance their outer recurrences together,
    a pathological sample cannot starve its batch mates by more than one
    round, and each lane's context stays hot for a whole pass over its
    tasks (interleaving at *task* granularity measurably thrashes the
    lanes' working sets against each other).  A skip-heavy positioning
    can roll a lane through more than one round in a pass; the bound is
    "at least one round per pass", not "exactly one".
    """
    active = [lane for lane in lanes if _lane_start(lane)]
    while active:
        survivors: List[_Lane] = []
        for lane in active:
            survived = None
            while survived is None:
                if lane.task is None and not _advance(lane):
                    survived = False
                elif not _run_fixed_point(lane, d_mem):
                    survived = False
                elif lane.cursor >= lane.n_tasks:
                    survived = True  # round boundary: yield to batch mates
            if survived:
                survivors.append(lane)
        active = survivors


def _lane_preamble(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig,
    budget: Optional[Budget],
    warm_hint: Optional[WarmHint],
):
    """Everything ``analyze_taskset`` does before the cold ``_analyze``.

    Returns ``(outcome, lane)``: a terminal :class:`LaneOutcome` when the
    warm-seed/hint machinery (or an abort inside it) resolved the lane, or
    a cold :class:`_Lane` ready for the lockstep loop.
    """
    counters = PerfCounters()
    if config.bitset_kernel:
        prefill_batch(
            (taskset,), config.crpd_approach, config.cpro_approach, perf=counters
        )
    counters.analyses += 1
    if budget is not None:
        budget.start()
    seeds = (
        taskset.derived("warm-start-seeds", dict) if config.warm_start else None
    )
    seed_key = (platform, config)
    result: Optional[WcrtResult] = None
    ctx: Optional[AnalysisContext] = None
    try:
        with counters.phase("analysis"):
            if seeds is not None and (stored := seeds.get(seed_key)) is not None:
                ctx = _make_context(taskset, platform, config, counters, budget)
                result = _warm_verify(ctx, stored, config)
            if result is None and warm_hint is not None and config.warm_start:
                ctx = _make_context(taskset, platform, config, counters, budget)
                result = _hint_seeded(ctx, warm_hint, config)
                if result is not None and seeds is not None:
                    seeds[seed_key] = (
                        dict(result.response_times),
                        result.outer_iterations,
                    )
    except AnalysisAborted as abort:
        counters.budget_aborts += 1
        abort.partial = WcrtResult(
            schedulable=False,
            response_times=dict(ctx.response_times) if ctx is not None else {},
            outer_iterations=counters.outer_iterations,
            perf=counters,
        )
        if budget is not None:
            abort.iterations = budget.iterations
            abort.elapsed = budget.elapsed()
        return LaneOutcome(error=abort), None
    except Exception as error:  # noqa: BLE001 — per-lane isolation
        return LaneOutcome(error=error), None
    if result is not None:
        result.perf = counters
        return LaneOutcome(result=result), None
    ctx = _make_context(taskset, platform, config, counters, budget)
    return None, _Lane(taskset, ctx, config, budget, counters, seeds, seed_key)


def analyze_taskset_batch(
    tasksets: Sequence[TaskSet],
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budgets: Optional[Sequence[Optional[Budget]]] = None,
    warm_hints: Optional[Sequence[Optional[WarmHint]]] = None,
) -> List[LaneOutcome]:
    """Analyse every task set of a batch, lockstepping the cold lanes.

    The batch equivalent of calling
    :func:`~repro.analysis.wcrt.analyze_taskset` once per task set, in
    order: per-lane results (and per-lane exceptions, returned as
    :class:`LaneOutcome.error` instead of raised) are bit-identical to the
    scalar sequence.  ``budgets``/``warm_hints`` (optional, parallel to
    ``tasksets``) carry each lane's :class:`~repro.budget.Budget` and
    adjacent :class:`~repro.analysis.wcrt.WarmHint`.

    With ``config.lockstep_kernel`` off — or a batch of at most one — the
    scalar path runs per lane unchanged (the differential reference).
    Otherwise lanes the warm-seed/hint preamble does not resolve iterate
    together in one structure-of-arrays loop (``lockstep_batches`` /
    ``lane_retirements`` perf counters); numpy's absence engages the
    bit-identical pure-Python fold and is reported through
    :func:`note_array_kernel_unavailable`.
    """
    tasksets = list(tasksets)
    n = len(tasksets)
    budgets = list(budgets) if budgets is not None else [None] * n
    warm_hints = list(warm_hints) if warm_hints is not None else [None] * n
    if len(budgets) != n or len(warm_hints) != n:
        raise AnalysisError(
            f"batch shape mismatch: {n} tasksets, {len(budgets)} budgets, "
            f"{len(warm_hints)} hints"
        )
    outcomes: List[Optional[LaneOutcome]] = [None] * n
    if not config.lockstep_kernel or n <= 1:
        for i, taskset in enumerate(tasksets):
            try:
                result = analyze_taskset(
                    taskset,
                    platform,
                    config,
                    perf=perf,
                    budget=budgets[i],
                    warm_hint=warm_hints[i],
                )
                outcomes[i] = LaneOutcome(result=result)
            except Exception as error:  # noqa: BLE001 — per-lane isolation
                outcomes[i] = LaneOutcome(error=error)
        return outcomes

    if _np is None:
        note_array_kernel_unavailable(perf)
    lanes: List[Tuple[int, _Lane]] = []
    for i, taskset in enumerate(tasksets):
        resolved, lane = _lane_preamble(
            taskset, platform, config, budgets[i], warm_hints[i]
        )
        if resolved is not None:
            outcomes[i] = resolved
            if resolved.result is not None or isinstance(
                resolved.error, AnalysisAborted
            ):
                # The scalar path merges counters into the caller's
                # aggregate on success and on budget aborts only.
                if perf is not None:
                    perf.merge(
                        resolved.result.perf
                        if resolved.result is not None
                        else resolved.error.partial.perf
                    )
        else:
            lanes.append((i, lane))

    if lanes:
        batch_counters = PerfCounters()
        batch_counters.lockstep_batches += 1
        # A batch keeps every lane's context alive at once, so each
        # generational collection triggered inside the loop traverses the
        # whole batch — measured at 10-25% of the loop for 20 lanes.  The
        # loop's own garbage is modest (ints, small dicts), so collection
        # is paused for its duration, never globally.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            with batch_counters.phase("analysis"):
                _run_lockstep([lane for _, lane in lanes], platform.d_mem)
        finally:
            if gc_was_enabled:
                gc.enable()
        if perf is not None:
            perf.merge(batch_counters)

    for i, lane in lanes:
        if lane.error is not None:
            outcomes[i] = LaneOutcome(error=lane.error)
            if isinstance(lane.error, AnalysisAborted) and perf is not None:
                perf.merge(lane.counters)
            continue
        result = lane.result
        if lane.seeds is not None and result.schedulable:
            # Same rule as the scalar path: only schedulable (converged)
            # maps are replayable seeds.
            lane.seeds[lane.seed_key] = (
                dict(result.response_times),
                result.outer_iterations,
            )
        result.perf = lane.counters
        if perf is not None:
            perf.merge(lane.counters)
        outcomes[i] = LaneOutcome(result=result)
    return outcomes
