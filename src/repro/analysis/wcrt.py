"""Worst-case response time analysis (Eq. 19 + outer loop, Sec. IV).

The WCRT of :math:`\\tau_i \\in \\Gamma_x` is the least fixed point of

.. math::

    R_i = PD_i
        + \\sum_{\\tau_j \\in \\Gamma_x \\cap hp(i)}
              \\lceil R_i / T_j \\rceil \\cdot PD_j
        + BAT^x_i(R_i) \\cdot d_{mem}

where :math:`BAT` depends on the bus policy (Eq. 7-9) and, through
Eq. (5)-(6), on the response times of tasks on *other* cores.  The paper
resolves this circular dependency with an outer loop around per-task fixed
points: every response time is initialised to the task's isolated WCET
:math:`PD_i + MD_i \\cdot d_{mem}` and the whole system is iterated until
nothing changes or some task overruns its deadline.

The interference terms are *not* all non-decreasing.  The
persistence-aware remote term of Lemma 2 can drop when a window or a
remote estimate grows, because the carry-out job, charged its full
``MD + gamma``, becomes a full job charged at the persistence rate: one
remote task with period 400, MD 10, MDr 2, |PCB| 3, gamma 1 and
``d_mem`` 10 contributes 11 accesses to a window of 300 at
:math:`R_l = 200` and 6 at :math:`R_l = 210`.  The loops therefore rely on
no monotonicity; they do the following:

* each inner fixed point starts from the task's current estimate and stops
  at the first ``r`` with ``f(r) <= r``, so an estimate is only ever
  replaced by a larger one;
* a task whose iterate exceeds its deadline is reported unschedulable and
  analysis stops; a sufficient test may always answer "unschedulable";
* a warm replay returns the stored cold result only after checking
  ``f(r) <= r`` for every task at the stored estimates (see
  :func:`_warm_verify`).

The argument that the resulting bounds are sound without monotonicity is
item 2 of ``ROADMAP.md``.  Ordering two analyses needs monotonicity on one
side only; DESIGN.md §6 gives that argument, which the sweep's dominance
skips rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.analysis.config import AnalysisConfig
from repro.budget import Budget
from repro.businterference.arbiters import make_bat
from repro.businterference.context import AnalysisContext
from repro.crpd.approaches import CrpdCalculator
from repro.errors import AnalysisAborted, AnalysisError, ConvergenceError
from repro.model.interference import prefill_batch
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet
from repro.perf import PerfCounters
from repro.persistence.cpro import CproCalculator

#: Warm-start seed recorded per (platform, config): the converged
#: response-time map of a schedulable cold analysis plus the number of
#: outer rounds that analysis took (reported again on warm replays so
#: results stay observationally identical).
_WarmSeed = Tuple[Dict[Task, int], int]


@dataclass
class WcrtResult:
    """Outcome of a whole-task-set WCRT analysis.

    Attributes:
        schedulable: ``True`` iff every task's WCRT converged within its
            deadline.
        response_times: WCRT bound per task; for an unschedulable set the
            mapping holds the estimates reached when analysis stopped and
            the failing task maps to a value exceeding its deadline.
        failed_task: first task found unschedulable, if any.
        outer_iterations: outer-loop rounds executed.
        perf: iteration counters of this analysis run.  Excluded from
            equality so production and reference runs with identical
            verdicts compare equal.
    """

    schedulable: bool
    response_times: Dict[Task, int] = field(default_factory=dict)
    failed_task: Optional[Task] = None
    outer_iterations: int = 0
    perf: Optional[PerfCounters] = field(default=None, compare=False, repr=False)

    def response_time(self, task: Task) -> int:
        """WCRT bound computed for ``task``."""
        return self.response_times[task]


def _task_fixed_point(
    ctx: AnalysisContext,
    task: Task,
    start: int,
    config: AnalysisConfig,
) -> Optional[int]:
    """Iterate Eq. (19) for one task from ``start``.

    Returns the first iterate ``r`` with ``f(r) <= r``, or ``None`` as soon
    as an iterate exceeds the task's deadline.
    """
    d_mem = ctx.platform.d_mem
    hp_rows = ctx._hp_rows.get(task.priority)
    if hp_rows is None:
        hp_rows = tuple(
            (int(tj.period), int(tj.pd))
            for tj in ctx.taskset.hp_on_core(task, task.core)
        )
        ctx._hp_rows[task.priority] = hp_rows
    pd_i = int(task.pd)
    deadline = int(task.deadline)
    perf = ctx.perf
    budget = ctx.budget
    bat = ctx._bat_fns.get(task.priority)
    if bat is None:
        bat = make_bat(ctx, task)
        if not ctx.reference:
            # The reference evaluator closes over ``ctx``; caching it here
            # would make every reference context a reference cycle.
            ctx._bat_fns[task.priority] = bat
    r = start
    for _ in range(config.max_inner_iterations):
        # The tick sits at the iteration boundary, *before* any work of the
        # iteration: an abort therefore never leaves a half-evaluated term
        # behind, and the boundary index is bit-identical across the
        # production and reference kernels and warm starts.
        if budget is not None:
            budget.tick()
        perf.inner_iterations += 1
        r_new = pd_i + bat(r) * d_mem
        for period, pd_j in hp_rows:
            r_new += -((-r) // period) * pd_j
        if r_new > deadline:
            return None
        if r_new <= r:
            return r
        r = r_new
    raise ConvergenceError(
        f"WCRT iteration for task {task.name!r} did not converge within "
        f"{config.max_inner_iterations} steps"
    )


def check_task_cores(taskset: TaskSet, platform: Platform) -> None:
    """Raise :class:`~repro.errors.AnalysisError` for a task on a core
    ``platform`` does not have.

    The remote terms of Eq. (3)-(9) sum over the platform's cores, so the
    accesses of a task on any other core would reach no other task's
    bound, and the RR <= TDMA dominance skip (DESIGN.md §6) assumes every
    task sits on a platform core.  :func:`analyze_taskset`,
    :func:`coarse_bound` and
    :func:`~repro.analysis.schedulability.check_schedulability` call it
    before any precheck or iteration.
    """
    cores = taskset.cores
    if cores and cores[-1] >= platform.num_cores:
        task = next(t for t in taskset if t.core >= platform.num_cores)
        raise AnalysisError(
            f"{task.name}: core {task.core} is not one of the platform's "
            f"{platform.num_cores} cores"
        )


def _make_context(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig,
    counters: PerfCounters,
    budget: Optional[Budget] = None,
) -> AnalysisContext:
    """Fresh analysis context over the task set's shared calculators."""
    return AnalysisContext(
        taskset=taskset,
        platform=platform,
        persistence=config.persistence,
        crpd=CrpdCalculator.shared(taskset, config.crpd_approach),
        cpro=CproCalculator.shared(taskset, config.cpro_approach),
        persistence_in_low=config.persistence_in_low,
        tdma_slot_alignment=config.tdma_slot_alignment,
        reference=config.reference,
        perf=counters,
        budget=budget,
    )


def analyze_taskset(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> WcrtResult:
    """Compute WCRT bounds for every task of ``taskset`` on ``platform``.

    Implements the outer loop of Sec. IV.  Analysis stops early — reporting
    the set unschedulable — as soon as any task's iterate exceeds its
    deadline; a sufficient test may always answer "unschedulable" (see the
    module docstring for what the loops rely on).  A task on a core the
    platform does not have raises :class:`~repro.errors.AnalysisError`
    (:func:`check_task_cores`).

    With ``config.warm_start`` (the default), a repeat analysis of the same
    (task set, platform, config) triple replays the stored result of the
    previous cold run after checking it: one outer round over the stored
    map must find ``f(r) <= r`` for every task, which costs one inner
    iteration per task instead of the full fixed point.  The returned
    result is the cold run's (it even reports the cold run's
    ``outer_iterations``); only the perf counters reveal the shortcut.  If
    the check fails the seed is discarded and a cold run is performed — so
    a stale seed can slow an analysis down but never alter its outcome.

    Each call collects a fresh set of :class:`~repro.perf.PerfCounters`
    (returned as ``result.perf``); pass ``perf`` to additionally accumulate
    them into a caller-owned aggregate, e.g. across a sweep.

    ``budget`` (optional) threads a :class:`~repro.budget.Budget` through
    the fixed points: every inner iteration ticks it, so an over-budget
    analysis aborts at the next iteration boundary with a typed
    :class:`~repro.errors.BudgetExceeded` whose ``partial`` attribute
    holds the estimates reached so far.  A
    budget generous enough for the analysis to finish is invisible: the
    result is bit-identical to a budget-less run, and all shared caches
    (derived tables, calculator caches, warm-start seeds) stay exactly as
    consistent after an abort as after a cold start — aborted runs never
    record a warm-start seed.
    """
    check_task_cores(taskset, platform)
    counters = PerfCounters()
    if not config.reference:
        # Build (or fetch) the task set's interference table and its cut
        # tables up front so the compilation is attributed to this run's
        # counters rather than hiding inside the first context (a no-op
        # when an earlier analysis of this task set compiled them).
        prefill_batch(
            (taskset,), config.crpd_approach, config.cpro_approach, perf=counters
        )
    counters.analyses += 1
    if budget is not None:
        budget.start()
    seeds: Optional[Dict[Tuple[Platform, AnalysisConfig], _WarmSeed]] = (
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
            if result is None:
                ctx = _make_context(taskset, platform, config, counters, budget)
                result = _analyze(ctx, taskset, platform, config)
                if seeds is not None and result.schedulable:
                    # Only schedulable maps are replayable: an unschedulable
                    # run stops mid-refinement, and reseeding from its partial
                    # map would not retrace the cold iteration order.
                    seeds[seed_key] = (
                        dict(result.response_times),
                        result.outer_iterations,
                    )
    except AnalysisAborted as abort:
        # Attach the partial result and accounting, then propagate.  No
        # seed was recorded and every shared cache holds only values that
        # are pure functions of the task set, so a rerun is bit-identical
        # to a cold run (pinned by tests/test_budget.py).
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
        if perf is not None:
            perf.merge(counters)
        raise
    result.perf = counters
    if perf is not None:
        perf.merge(counters)
    return result


def _warm_verify(
    ctx: AnalysisContext,
    stored: _WarmSeed,
    config: AnalysisConfig,
) -> Optional[WcrtResult]:
    """Check a previously converged response-time map in one round.

    Seeds every task's estimate with the stored converged value and runs a
    single outer round.  The map is where the cold run stopped on
    *identical* inputs, so every per-task iteration should find
    ``f(r) <= r`` there and return the seeded value at once; any deviation
    means the seed does not fit (correctness must not depend on it fitting)
    and the caller falls back to a cold run.

    Returns the stored schedulable result, or ``None`` to request the cold
    fallback.
    """
    seed_map, cold_outer = stored
    taskset = ctx.taskset
    if len(seed_map) != len(taskset):
        return None
    for task in taskset:
        value = seed_map.get(task)
        if value is None:
            return None
        ctx.set_response_time(task, value)
    ctx.perf.outer_iterations += 1
    for task in taskset:
        previous = ctx.response_time(task)
        verified = _task_fixed_point(ctx, task, previous, config)
        if verified != previous:
            return None
    perf = ctx.perf
    perf.warm_starts += 1
    perf.warm_start_iterations_saved += max(0, cold_outer - 1)
    return WcrtResult(
        schedulable=True,
        response_times=dict(ctx.response_times),
        outer_iterations=cold_outer,
    )


def _analyze(
    ctx: AnalysisContext,
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig,
) -> WcrtResult:
    d_mem = platform.d_mem
    for task in taskset:
        isolated = int(task.pd) + task.md * d_mem
        if isolated > task.deadline:
            # Even a contention-free job overruns: trivially unschedulable.
            ctx.set_response_time(task, isolated)
            return WcrtResult(
                schedulable=False,
                response_times=dict(ctx.response_times),
                failed_task=task,
            )
        ctx.set_response_time(task, isolated)

    # Remote-epoch snapshots for the convergence shortcut below.  With both
    # approaches window oblivious, a task's Eq. (19) right-hand side
    # depends, besides its own estimate ``r``, only on the response-time
    # estimates of *other* cores (the same-core terms read static
    # parameters and ``r`` itself).  ``ctx.epoch`` minus the task's own
    # core epoch is exactly the number of remote-estimate revisions, so if
    # that count is unchanged since the task's last converged evaluation,
    # re-running the fixed point from the unchanged estimate would
    # terminate immediately with the same value — the round can skip it
    # without evaluating anything.  The multiset approaches void the
    # premise (their window terms read same-core estimates — see
    # ``AnalysisContext.window_oblivious``), so the shortcut stays off
    # there.  Where it applies it fires identically on both kernels (it
    # reads no kernel state), so results and iteration boundaries stay
    # bit-identical between them.
    may_skip = ctx.window_oblivious
    # The TDMA and perfect buses read no remote estimates at all — their
    # BAT is a function of the window length and static parameters only —
    # so a task is exactly converged after its first fixed point and every
    # later round can skip it outright, not just while remote estimates
    # hold still.  Freezing the remote count at a constant makes the mark
    # comparison below degrade to "was this task evaluated before".
    local_only = may_skip and ctx.platform.bus_policy in (
        BusPolicy.TDMA,
        BusPolicy.PERFECT,
    )
    core_epochs = ctx._core_epoch
    remote_marks: Dict[Task, int] = {}

    outer = 0
    for outer in range(1, config.max_outer_iterations + 1):
        ctx.perf.outer_iterations += 1
        changed = False
        for task in taskset:
            remote_now = (
                0 if local_only else ctx.epoch - core_epochs.get(task.core, 0)
            )
            if may_skip and remote_marks.get(task) == remote_now:
                continue
            previous = ctx.response_time(task)
            result = _task_fixed_point(ctx, task, previous, config)
            if result is None:
                ctx.set_response_time(task, int(task.deadline) + 1)
                return WcrtResult(
                    schedulable=False,
                    response_times=dict(ctx.response_times),
                    failed_task=task,
                    outer_iterations=outer,
                )
            if result != previous:
                ctx.set_response_time(task, result)
                changed = True
            # Recording the own estimate bumps the own-core and global
            # epochs in lockstep, so the remote count is unchanged by it.
            remote_marks[task] = (
                0 if local_only else ctx.epoch - core_epochs.get(task.core, 0)
            )
        if not changed:
            return WcrtResult(
                schedulable=True,
                response_times=dict(ctx.response_times),
                outer_iterations=outer,
            )
    # Estimates only grow and stay at or below the deadlines, so the outer
    # loop does converge eventually; running out of the iteration budget
    # first is answered with the conservative (sound for a sufficient test)
    # verdict "unschedulable".
    return WcrtResult(
        schedulable=False,
        response_times=dict(ctx.response_times),
        failed_task=None,
        outer_iterations=outer,
    )


def coarse_bound(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    perf: Optional[PerfCounters] = None,
    budget: Optional[Budget] = None,
) -> WcrtResult:
    """Single-outer-round coarse sufficient test (the service's brownout).

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
      schedulable by this bound", not "provably unschedulable".

    The one genuinely exact negative — a task whose contention-free
    isolated WCET already overruns — is reported with its ``failed_task``
    set, exactly as the full analysis would.  The context is never
    updated between tasks, so the test is order-independent and costs at
    most one inner fixed point per task.  ``persistence=False`` and
    ``warm_start=False`` keep it cheap and seed-free.  The
    ``ladder-dominance`` oracle of :mod:`repro.verify.oracles` checks the
    dominance claims.
    """
    check_task_cores(taskset, platform)
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
