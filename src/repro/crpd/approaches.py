"""Cache-related preemption delay (CRPD) bounds.

The paper charges each preemption of a lower-priority task :math:`\\tau_i` by
a higher-priority task :math:`\\tau_j` on the same core :math:`\\pi_x` with a
CRPD term :math:`\\gamma_{i,j,x}` measured in *additional main-memory
requests* (reloads of evicted useful cache blocks).  The paper uses the
**ECB-union** approach of Altmeyer, Davis and Maiza (RTSS 2011), Eq. (2):

.. math::

    \\gamma_{i,j,x} = \\max_{g \\in \\Gamma_x \\cap aff(i,j)}
        \\Big| UCB_g \\cap \\bigcup_{h \\in \\Gamma_x \\cap hep(j)} ECB_h \\Big|

Two classic coarser bounds are provided for ablation studies:

* **UCB-only** — ignore what the preempting task actually evicts and charge
  all useful blocks of any affected task: :math:`\\max_g |UCB_g|`.
* **ECB-only** — ignore usefulness and charge every block the preempting
  task touches: :math:`|ECB_j|`.

All three return *numbers of memory requests*; the response-time analysis
multiplies by ``d_mem`` where needed.  They serve the reference kernel and
evaluate over the task set's ``frozenset`` views
(:meth:`~repro.model.task.TaskSet.frozen_blocks`).
"""

from __future__ import annotations

import enum
import weakref
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.budget import Budget
from repro.crpd.multiset import multiset_pair_data, multiset_window_from_pairs
from repro.model.task import Task, TaskSet


class CrpdApproach(enum.Enum):
    """Selectable CRPD bounding approach.

    ``ECB_UNION_MULTISET`` selects the window-level multiset refinement of
    :mod:`repro.crpd.multiset` for the same-core bound; per-job values
    (used by the remote-core terms of Eq. 3-6) fall back to plain
    ECB-union.
    """

    ECB_UNION = "ecb-union"
    ECB_UNION_MULTISET = "ecb-union-multiset"
    UCB_ONLY = "ucb-only"
    ECB_ONLY = "ecb-only"
    NONE = "none"


def crpd_ecb_union(taskset: TaskSet, task_i: Task, task_j: Task) -> int:
    """ECB-union CRPD bound :math:`\\gamma_{i,j,x}` of Eq. (2).

    ``task_j`` is the (higher-priority) preempting task and ``task_i`` the
    task whose busy window is analysed; both must live on the same core.
    Returns 0 when ``task_j`` cannot preempt anything relevant (empty
    ``aff(i, j)``).
    """
    core = task_j.core
    affected = taskset.aff_on_core(task_i, task_j, core)
    if not affected:
        return 0
    evicting: FrozenSet[int] = taskset.hep_ecb_union(task_j, core)
    return max(
        len(taskset.frozen_blocks(t).ucbs & evicting) for t in affected
    )


def crpd_ucb_only(taskset: TaskSet, task_i: Task, task_j: Task) -> int:
    """UCB-only CRPD bound: the largest UCB set of any affected task."""
    core = task_j.core
    affected = taskset.aff_on_core(task_i, task_j, core)
    if not affected:
        return 0
    return max(len(taskset.frozen_blocks(t).ucbs) for t in affected)


def crpd_ecb_only(taskset: TaskSet, task_i: Task, task_j: Task) -> int:
    """ECB-only CRPD bound: every block the preempting task may evict.

    Sound because a single preemption cannot force more reloads than the
    number of cache sets the preempting task touches.  When ``aff(i, j)`` is
    empty no preemption of interest exists and the bound is 0.
    """
    core = task_j.core
    affected = taskset.aff_on_core(task_i, task_j, core)
    if not affected:
        return 0
    return len(taskset.frozen_blocks(task_j).ecbs)


_APPROACHES: Dict[CrpdApproach, Callable[[TaskSet, Task, Task], int]] = {
    CrpdApproach.ECB_UNION: crpd_ecb_union,
    # Per-job fallback for the multiset refinement (see module docstring of
    # repro.crpd.multiset): remote-core terms use plain ECB-union values.
    CrpdApproach.ECB_UNION_MULTISET: crpd_ecb_union,
    CrpdApproach.UCB_ONLY: crpd_ucb_only,
    CrpdApproach.ECB_ONLY: crpd_ecb_only,
    CrpdApproach.NONE: lambda taskset, task_i, task_j: 0,
}


class CrpdCalculator:
    """Memoising front-end over the CRPD approaches (the reference kernel).

    The WCRT fixed point evaluates :math:`\\gamma_{i,j,x}` for the same task
    pairs at every iteration; the values only depend on the (static) task
    set, so they are computed once per pair with ``frozenset`` algebra over
    the task set's views, built on the first value asked for, and cached.
    The production kernel, whose contexts construct a calculator too,
    reads the same values from the task set's
    :class:`~repro.model.interference.InterferenceTable` instead and asks
    for none.
    """

    def __init__(
        self,
        taskset: TaskSet,
        approach: CrpdApproach = CrpdApproach.ECB_UNION,
    ):
        # Weak: the shared calculator lives in the task set's derived
        # store, so a strong reference back would make every task set a
        # reference cycle that only a full collection frees.  Callers of
        # the constructor keep the task set alive while they use it.
        self._taskset = weakref.proxy(taskset)
        self._approach = approach
        self._fn = _APPROACHES[approach]
        self._cache: Dict[Tuple[int, int], int] = {}
        self._multiset_cache: Dict[Tuple[int, int], Tuple[int, tuple]] = {}

    @classmethod
    def shared(
        cls,
        taskset: TaskSet,
        approach: CrpdApproach = CrpdApproach.ECB_UNION,
    ) -> "CrpdCalculator":
        """The task set's shared calculator for ``approach``.

        CRPD values are pure functions of the (immutable) task set, so one
        calculator per (task set, approach) pair serves every analysis run
        and keeps its pair cache warm across them.
        """
        return taskset.derived(
            ("crpd-calculator", approach), lambda: cls(taskset, approach)
        )

    @property
    def approach(self) -> CrpdApproach:
        """The CRPD approach this calculator applies."""
        return self._approach

    def gamma(self, task_i: Task, task_j: Task) -> int:
        """CRPD (in memory requests) charged per preemption by ``task_j``.

        ``task_i`` identifies the busy window under analysis (its priority
        bounds the set of affected tasks); ``task_j`` is the preempting task
        and determines the core.  Mirrors :math:`\\gamma_{i,j,x}` with
        :math:`x =` ``task_j.core``.
        """
        key = (task_i.priority, task_j.priority)
        if key not in self._cache:
            self._cache[key] = self._fn(self._taskset, task_i, task_j)
        return self._cache[key]

    def multiset_window(
        self,
        task_i: Task,
        task_j: Task,
        window: int,
        response_time_of: Callable[[Task], int],
        budget: Optional[Budget] = None,
    ) -> int:
        """Window-level multiset CRPD (see :mod:`repro.crpd.multiset`).

        The static data (reload costs, periods) is extracted once per pair,
        so only the window-dependent greedy sum runs per call.  ``budget``
        adds one wall-clock budget check per fold without affecting the
        computed value.
        """
        if budget is not None:
            budget.check()
        key = (task_i.priority, task_j.priority)
        data = self._multiset_cache.get(key)
        if data is None:
            entries = multiset_pair_data(self._taskset, task_i, task_j)
            data = (int(task_j.period), entries)
            self._multiset_cache[key] = data
        period_j, entries = data
        return multiset_window_from_pairs(
            entries, period_j, window, response_time_of
        )
