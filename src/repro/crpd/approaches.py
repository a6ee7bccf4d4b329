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
multiplies by ``d_mem`` where needed.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.budget import Budget
from repro.crpd.multiset import multiset_pair_data, multiset_window_from_pairs
from repro.model.interference import InterferenceTable
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
    return max(len(t.ucbs & evicting) for t in affected)


def crpd_ucb_only(taskset: TaskSet, task_i: Task, task_j: Task) -> int:
    """UCB-only CRPD bound: the largest UCB set of any affected task."""
    core = task_j.core
    affected = taskset.aff_on_core(task_i, task_j, core)
    if not affected:
        return 0
    return max(len(t.ucbs) for t in affected)


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
    return len(task_j.ecbs)


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
    """Memoising front-end over the CRPD approaches.

    The WCRT fixed point evaluates :math:`\\gamma_{i,j,x}` for the same task
    pairs at every iteration; the values only depend on the (static) task
    set, so they are computed once and cached.

    With ``bitset=True`` (the default) :math:`\\gamma` and the multiset
    entries are read from the task set's
    :class:`~repro.model.interference.InterferenceTable` cut tables;
    ``bitset=False`` selects the retained ``frozenset`` reference path
    (``bitset-identity`` oracle of :mod:`repro.verify`), the only one
    that fills the per-pair caches.
    """

    def __init__(
        self,
        taskset: TaskSet,
        approach: CrpdApproach = CrpdApproach.ECB_UNION,
        bitset: bool = True,
    ):
        self._taskset = taskset
        self._approach = approach
        self._bitset = bitset
        self._fn = _APPROACHES[approach]
        self._table: Optional[InterferenceTable] = (
            InterferenceTable.shared(taskset) if bitset else None
        )
        self._cache: Dict[Tuple[int, int], int] = {}
        self._multiset_cache: Dict[Tuple[int, int], Tuple[int, tuple]] = {}

    @classmethod
    def shared(
        cls,
        taskset: TaskSet,
        approach: CrpdApproach = CrpdApproach.ECB_UNION,
        bitset: bool = True,
    ) -> "CrpdCalculator":
        """The task set's shared calculator for ``(approach, bitset)``.

        CRPD values are pure functions of the (immutable) task set, so one
        calculator per (task set, approach, kernel) triple serves every
        analysis run and keeps its pair cache warm across them.  The two
        kernels do not share caches, keeping the differential oracle's
        comparison independent.
        """
        return taskset.derived(
            ("crpd-calculator", approach, bitset),
            lambda: cls(taskset, approach, bitset),
        )

    @property
    def approach(self) -> CrpdApproach:
        """The CRPD approach this calculator applies."""
        return self._approach

    @property
    def bitset(self) -> bool:
        """Whether this calculator runs on the bitmask kernel."""
        return self._bitset

    def gamma(self, task_i: Task, task_j: Task) -> int:
        """CRPD (in memory requests) charged per preemption by ``task_j``.

        ``task_i`` identifies the busy window under analysis (its priority
        bounds the set of affected tasks); ``task_j`` is the preempting task
        and determines the core.  Mirrors :math:`\\gamma_{i,j,x}` with
        :math:`x =` ``task_j.core``.
        """
        table = self._table
        if table is not None:
            return table.gamma_cuts(self._approach)[task_j.priority][
                table.cut[task_i.priority][task_j.core]
            ]
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

        The static data (reload costs, periods) is extracted once — on the
        bitmask kernel per (``task_j``, cut of ``task_i``) in the table's
        :meth:`~repro.model.interference.InterferenceTable.
        crpd_multiset_cuts`, on the reference path per pair — so only the
        window-dependent greedy sum runs per call.  ``budget`` adds one
        cooperative cancellation point per fold without affecting the
        computed value.
        """
        if budget is not None:
            budget.check()
        table = self._table
        if table is not None:
            tasks = self._taskset.tasks
            return multiset_window_from_pairs(
                table.crpd_multiset_cuts()[task_j.priority][
                    table.cut[task_i.priority][task_j.core]
                ],
                int(task_j.period),
                window,
                lambda slot: response_time_of(tasks[slot]),
            )
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
