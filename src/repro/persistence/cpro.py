"""Cache persistence reload overhead (CPRO) bounds (Eq. 14).

A task cannot evict its own PCBs, but other tasks executing (interleaved or
preemptively) on the *same core* can.  Each eviction forces the next job of
the owning task to reload the block from main memory — an extra bus access
on top of the residual demand.  The paper uses the **CPRO-union** approach of
Rashid et al. (ECRTS 2016): across :math:`n_j` successive jobs of
:math:`\\tau_j` inside the busy window of :math:`\\tau_i` on core
:math:`\\pi_x`, at most

.. math::

    \\hat{\\rho}_{j,i,x}(n_j) = (n_j - 1) \\cdot
        \\Big| PCB_j \\cap \\bigcup_{\\tau_s \\in \\Gamma_x \\cap hep(i)
        \\setminus \\{\\tau_j\\}} ECB_s \\Big|

additional requests are generated: between two consecutive jobs of
:math:`\\tau_j` only tasks of priority :math:`\\geq` that of :math:`\\tau_i`
run on the core, and only PCBs they overlap can be evicted.

For ablation we also provide a **global** variant whose eviction set is the
union of the ECBs of *every* other task on the core regardless of priority —
coarser, but independent of the task under analysis.
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.budget import Budget
from repro.errors import AnalysisError
from repro.model.interference import OverlapGroups
from repro.model.task import Task, TaskSet


class CproApproach(enum.Enum):
    """Selectable CPRO eviction-set construction.

    ``MULTISET`` is the window-aware refinement of Rashid et al.
    (RTSS 2017): instead of assuming every evictable PCB is evicted between
    *every* pair of consecutive jobs, each PCB is charged at most as many
    reloads as the evicting tasks can actually release jobs inside the
    analysed window (and never more than ``n_jobs - 1``).
    """

    UNION = "cpro-union"
    GLOBAL = "cpro-global"
    MULTISET = "cpro-multiset"
    NONE = "none"


def evicting_ecb_union(
    taskset: TaskSet, tasks: Iterable[Task]
) -> FrozenSet[int]:
    """Union of the ECBs of ``tasks`` — the eviction set of Eq. (14).

    The single place both reference eviction counts build their evicting
    set from, over ``taskset``'s ``frozenset`` views
    (:meth:`~repro.model.task.TaskSet.frozen_blocks`) of its members
    ``tasks``; an empty task group yields the empty set (nothing to
    evict).
    """
    return frozenset().union(*(taskset.frozen_blocks(t).ecbs for t in tasks))


def cpro_eviction_count_union(
    taskset: TaskSet, task_j: Task, task_i: Task
) -> int:
    """Number of PCBs of ``task_j`` evictable inside ``task_i``'s window.

    This is the cardinality term of Eq. (14): PCBs of ``task_j`` overlapping
    the ECBs of the other tasks of priority higher than or equal to
    ``task_i``'s on ``task_j``'s core.
    """
    core = task_j.core
    others = [
        t for t in taskset.hep_on_core(task_i, core) if t is not task_j
    ]
    if not others:
        return 0
    return len(
        taskset.frozen_blocks(task_j).pcbs
        & evicting_ecb_union(taskset, others)
    )


def cpro_eviction_count_global(
    taskset: TaskSet, task_j: Task, task_i: Task
) -> int:
    """Coarse eviction count: every other task on the core may run.

    Over-approximates :func:`cpro_eviction_count_union` (the union grows),
    hence remains a sound CPRO bound; used as an ablation baseline.
    """
    core = task_j.core
    others = [t for t in taskset.on_core(core) if t is not task_j]
    if not others:
        return 0
    return len(
        taskset.frozen_blocks(task_j).pcbs
        & evicting_ecb_union(taskset, others)
    )


def cpro_multiset_window(
    taskset: TaskSet,
    task_j: Task,
    task_i: Task,
    n_jobs: int,
    window: int,
    carry_in: bool = False,
) -> int:
    """Window-aware multiset CPRO bound (extension; Rashid et al. 2017).

    For each PCB of ``task_j``, the number of reloads across ``n_jobs``
    successive jobs is bounded both by ``n_jobs - 1`` (one reload per job
    boundary) and by the total number of jobs the overlapping evicting
    tasks can release inside the window.  ``carry_in`` adds one job per
    evicting task, needed when the window is observed from another core
    (no release synchronisation can be assumed; cf. Eq. 3-6).
    """
    if n_jobs <= 1 or window <= 0:
        return 0
    core = task_j.core
    others = [t for t in taskset.hep_on_core(task_i, core) if t is not task_j]
    if not others:
        return 0
    extra = 1 if carry_in else 0
    frozen = taskset.frozen_blocks
    total = 0
    for pcb_set in frozen(task_j).pcbs:
        opportunities = 0
        for evictor in others:
            if pcb_set in frozen(evictor).ecbs:
                opportunities += -((-window) // int(evictor.period)) + extra
        total += min(n_jobs - 1, opportunities)
    return total


_APPROACHES: Dict[CproApproach, Callable[[TaskSet, Task, Task], int]] = {
    CproApproach.UNION: cpro_eviction_count_union,
    CproApproach.GLOBAL: cpro_eviction_count_global,
    # The multiset approach degrades to the union eviction count when no
    # window information is available (rho() without a window).
    CproApproach.MULTISET: cpro_eviction_count_union,
    CproApproach.NONE: lambda taskset, task_j, task_i: 0,
}


#: Per-(task_j, task_i) overlap table of the ``frozenset`` reference: one
#: entry per PCB of ``task_j`` that at least one relevant evictor overlaps,
#: holding the periods of those evictors.  PCBs nobody can evict contribute
#: zero reloads and are dropped.
_OverlapTable = Tuple[Tuple[int, ...], ...]


def overlap_groups_window(
    groups: OverlapGroups, per_boundary: int, window: int, extra: int
) -> int:
    """The multiset CPRO sum over grouped overlap rows.

    ``groups`` are ``(count, periods)`` rows of
    :meth:`~repro.model.interference.InterferenceTable.cpro_multiset_cuts`;
    each adds ``count * min(per_boundary, sum(ceil(window / T) + extra))``
    over its periods — exactly what its ``count`` PCBs add one by one in
    :func:`cpro_multiset_window` (``per_boundary = n_jobs - 1``, ``extra``
    1 with carry-in, else 0).  Callers handle ``n_jobs <= 1`` and
    ``window <= 0``.
    """
    total = 0
    for count, periods in groups:
        opportunities = 0
        for period in periods:
            opportunities += -((-window) // period) + extra
        total += count * (
            opportunities if opportunities < per_boundary else per_boundary
        )
    return total


class CproCalculator:
    """Memoising front-end over the CPRO approaches (the reference kernel).

    Only the per-window-per-task eviction *count* is cached, computed once
    per pair with ``frozenset`` algebra over the task set's views (built
    on the first value asked for, so the production kernel, whose
    contexts construct a calculator too, builds none); the job count
    multiplier of Eq. (14) varies with the window length and is applied
    in :meth:`rho`.
    For the ``MULTISET`` approach the per-PCB evictor-overlap scan is
    precomputed too, so the per-call work of :meth:`rho_window` is a pure
    arithmetic fold.  The production kernel reads the same values from the
    task set's :class:`~repro.model.interference.InterferenceTable`
    instead.
    """

    def __init__(
        self,
        taskset: TaskSet,
        approach: CproApproach = CproApproach.UNION,
    ):
        # Weak: the shared calculator lives in the task set's derived
        # store, so a strong reference back would make every task set a
        # reference cycle that only a full collection frees.  Callers of
        # the constructor keep the task set alive while they use it.
        self._taskset = weakref.proxy(taskset)
        self._approach = approach
        self._fn = _APPROACHES[approach]
        self._cache: Dict[Tuple[int, int], int] = {}
        self._overlap_cache: Dict[Tuple[int, int], Optional[_OverlapTable]] = {}

    @classmethod
    def shared(
        cls,
        taskset: TaskSet,
        approach: CproApproach = CproApproach.UNION,
    ) -> "CproCalculator":
        """The task set's shared calculator for ``approach``.

        CPRO eviction counts are pure functions of the (immutable) task
        set, so one calculator per (task set, approach) pair serves every
        analysis run and keeps its pair cache warm across them.
        """
        return taskset.derived(
            ("cpro-calculator", approach), lambda: cls(taskset, approach)
        )

    @property
    def approach(self) -> CproApproach:
        """The CPRO approach this calculator applies."""
        return self._approach

    def eviction_count(self, task_j: Task, task_i: Task) -> int:
        """Evictable-PCB count of ``task_j`` within ``task_i``'s window."""
        key = (task_j.priority, task_i.priority)
        if key not in self._cache:
            self._cache[key] = self._fn(self._taskset, task_j, task_i)
        return self._cache[key]

    def rho(self, task_j: Task, task_i: Task, n_jobs: int) -> int:
        """CPRO bound :math:`\\hat{\\rho}_{j,i,x}(n)` of Eq. (14).

        Zero when at most one job of ``task_j`` executes in the window: the
        first job's (re)loads are already covered by :math:`\\hat{MD}`.
        """
        if n_jobs < 0:
            raise AnalysisError(f"n_jobs must be non-negative, got {n_jobs}")
        if n_jobs <= 1:
            return 0
        return (n_jobs - 1) * self.eviction_count(task_j, task_i)

    def _overlap_table(self, task_j: Task, task_i: Task) -> Optional[_OverlapTable]:
        """Precomputed evictor-period table behind the reference bound."""
        key = (task_j.priority, task_i.priority)
        if key in self._overlap_cache:
            return self._overlap_cache[key]
        core = task_j.core
        others = [
            t for t in self._taskset.hep_on_core(task_i, core) if t is not task_j
        ]
        table: Optional[_OverlapTable]
        if not others:
            table = None
        else:
            frozen = self._taskset.frozen_blocks
            table = tuple(
                periods
                for pcb in frozen(task_j).pcbs
                if (
                    periods := tuple(
                        int(evictor.period)
                        for evictor in others
                        if pcb in frozen(evictor).ecbs
                    )
                )
            )
        self._overlap_cache[key] = table
        return table

    def rho_window(
        self,
        task_j: Task,
        task_i: Task,
        n_jobs: int,
        window: int,
        carry_in: bool = False,
        budget: Optional[Budget] = None,
    ) -> int:
        """Window-aware CPRO bound.

        Evaluates the multiset bound of :func:`cpro_multiset_window` for
        the ``MULTISET`` approach, from the per-pair overlap table, and the
        window-oblivious :meth:`rho` otherwise.  The multiset value never
        exceeds the union value.  ``budget`` adds one cooperative
        cancellation point per fold without affecting the computed value.
        """
        if budget is not None:
            budget.check()
        if self._approach is not CproApproach.MULTISET:
            return self.rho(task_j, task_i, n_jobs)
        cap = self.rho(task_j, task_i, n_jobs)
        if cap == 0 or n_jobs <= 1 or window <= 0:
            return 0
        table = self._overlap_table(task_j, task_i)
        if table is None:
            return 0
        extra = 1 if carry_in else 0
        per_boundary = n_jobs - 1
        total = 0
        for periods in table:
            opportunities = 0
            for period in periods:
                opportunities += -((-window) // period) + extra
            total += min(per_boundary, opportunities)
        return min(total, cap)
