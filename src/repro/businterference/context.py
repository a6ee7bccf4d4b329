"""Shared state threaded through the bus-interference equations.

The interference bounds of the paper are parameterised by quantities that are
fixed for a given analysis run (task set, platform, CRPD/CPRO calculators,
whether cache persistence is exploited) plus the current worst-case response
time estimates of all tasks (Eq. 5/6 need :math:`R_l`, which the outer loop
of Sec. IV refines iteratively).  :class:`AnalysisContext` bundles them.

Two kernels read a context.  A production context (the default) evaluates
each task's :math:`BAT` in one pass over integer rows sliced from the task
set's :class:`~repro.model.interference.InterferenceTable` (``make_bat`` in
:mod:`repro.businterference.arbiters`), with the estimates in a list
indexed by each task's slot.  A reference context (``reference=True``,
selected by :attr:`repro.analysis.config.AnalysisConfig.reference`) runs
the per-term functions of :mod:`repro.businterference.requests` over the
CRPD/CPRO calculators, which compute over ``frozenset`` views of the
block sets, and builds no table.  Both give
bit-identical results; the ``kernel-identity`` oracle checks it.

The context keeps one estimate-revision counter (*epoch*) per core plus a
global one, bumped exactly when a task's estimate changes; the outer loop
of :mod:`repro.analysis.wcrt` reads them to skip tasks whose remote
estimates have not moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.budget import Budget
from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.errors import AnalysisError
from repro.model.interference import InterferenceTable, estimate_slots
from repro.model.platform import Platform
from repro.model.task import Task, TaskSet
from repro.perf import PerfCounters
from repro.persistence.cpro import CproApproach, CproCalculator


@dataclass
class AnalysisContext:
    """Everything the interference equations need besides the window length.

    Attributes:
        taskset: the task set under analysis.
        platform: the multicore platform (supplies ``d_mem``, core count,
            bus policy and slot size).
        persistence: when ``True`` the persistence-aware bounds of Lemmas 1
            and 2 are used; when ``False`` the baseline bounds of Davis et
            al. (Eq. 1 and 3).
        crpd: CRPD calculator (:math:`\\gamma` of Eq. 2) of the per-term
            functions; the fused rows read only its approach.
        cpro: CPRO calculator (:math:`\\hat{\\rho}` of Eq. 14) of the
            per-term functions; the fused rows read only its approach.
        response_times: current WCRT estimate of every task, refined by the
            outer fixed-point loop.  Tasks missing from the mapping fall back
            to their isolated WCET, the value the outer loop starts from.
        persistence_in_low: also apply the persistence-aware :math:`\\hat{W}`
            to the lower-priority other-core term :math:`BAO^y_{i,low}` of
            the FP bus (Eq. 7).  The paper leaves that term persistence
            oblivious; enabling this is a sound tightening kept off by
            default for fidelity.
        tdma_slot_alignment: charge one extra TDMA slot of waiting per
            access (see :class:`repro.analysis.config.AnalysisConfig`).
        reference: run the per-term reference kernel instead of the
            fused rows (see the module docstring).  A reference context
            builds no interference table.
        perf: counters recording iteration counts.
        budget: optional :class:`~repro.budget.Budget` ticked at every
            inner fixed-point iteration (and checked inside the expensive
            window folds), so an over-budget analysis aborts
            cooperatively.  ``None`` — the default — removes every check;
            a present budget never alters any computed value.
    """

    taskset: TaskSet
    platform: Platform
    persistence: bool = True
    crpd: Optional[CrpdCalculator] = None
    cpro: Optional[CproCalculator] = None
    response_times: Dict[Task, int] = field(default_factory=dict)
    persistence_in_low: bool = False
    tdma_slot_alignment: bool = False
    reference: bool = False
    perf: PerfCounters = field(default_factory=PerfCounters)
    budget: Optional[Budget] = None

    #: Global estimate-revision counter ("epoch"): incremented every time
    #: any task's response-time estimate actually changes.
    epoch: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.crpd is None:
            self.crpd = CrpdCalculator.shared(self.taskset, CrpdApproach.ECB_UNION)
        if self.cpro is None:
            self.cpro = CproCalculator.shared(self.taskset, CproApproach.UNION)
        # Per-core epoch counters: the outer loop's remote-epoch skip
        # reads them (see repro.analysis.wcrt).
        self._core_epoch: Dict[int, int] = {
            core: 0 for core in self.platform.cores
        }
        self._remote_cores: Dict[int, Tuple[int, ...]] = {
            core: tuple(c for c in self.platform.cores if c != core)
            for core in self.platform.cores
        }
        self._hp_rows: Dict[int, tuple] = self.taskset.derived("hp-rows", dict)
        # With *both* approaches window oblivious, every same-core term of
        # Eq. (19) is a pure function of static parameters and the window
        # length: a task's right-hand side then depends only on its own
        # estimate and the estimates of other cores.  The multiset variants
        # break this — their window terms read response-time estimates of
        # same-core tasks (and of the analysed task itself) — so the outer
        # loop's remote-epoch convergence shortcut must not engage there.
        self.window_oblivious: bool = (
            self.cpro.approach is not CproApproach.MULTISET
            and self.crpd.approach is not CrpdApproach.ECB_UNION_MULTISET
        )
        # The fused rows read estimates from a list indexed by a per-task-set
        # slot (the task's position in iteration order) instead of a
        # Task-keyed dict.  The list mirrors ``response_times`` exactly —
        # same values, same isolated-WCET fallback — and is maintained by
        # :meth:`set_response_time`.
        self._slot_of: Dict[int, int] = estimate_slots(self.taskset)
        d_mem = self.platform.d_mem
        self._est = [int(t.pd + t.md * d_mem) for t in self.taskset]
        if not self.reference:
            table = InterferenceTable.shared(self.taskset)
            self._cut = table.cut
            self._rows = table.rows(
                self.crpd.approach, self.cpro.approach, d_mem
            )
            # Per-task row slices of the fused BAT (see
            # repro.businterference.arbiters._bat_plan), shared across
            # contexts: keyed by the full platform (policy, d_mem, cores)
            # on top of the approach pair.
            self._bat_plans: Dict[int, tuple] = self.taskset.derived(
                ("bat-plans", self.crpd.approach, self.cpro.approach,
                 self.platform),
                dict,
            )
        # Per-task fused BAT evaluators (``make_bat`` closures), built once
        # per production context: they close over this context's estimate
        # list and bind the tunables at creation time, so unlike the plans
        # they must not outlive the context.
        self._bat_fns: Dict[int, object] = {}

    # -- response-time estimates --------------------------------------------

    def response_time(self, task: Task) -> int:
        """Current WCRT estimate of ``task`` (isolated WCET if not yet set)."""
        estimate = self.response_times.get(task)
        if estimate is None:
            return int(task.pd + task.md * self.platform.d_mem)
        return estimate

    def set_response_time(self, task: Task, value: int) -> None:
        """Record a refined WCRT estimate for ``task``.

        Bumps the epoch of the task's core (and the global epoch) when the
        estimate actually changes.
        """
        if value < 0:
            raise AnalysisError(
                f"response time of {task.name!r} must be non-negative, got {value}"
            )
        if self.response_times.get(task) != value:
            self.epoch += 1
            core_epoch = self._core_epoch
            core_epoch[task.core] = core_epoch.get(task.core, 0) + 1
        self.response_times[task] = value
        slot = self._slot_of.get(task.priority)
        if slot is not None:
            self._est[slot] = value

    def remote_cores(self, core: int) -> Tuple[int, ...]:
        """All platform cores except ``core`` (precomputed)."""
        cores = self._remote_cores.get(core)
        if cores is None:
            cores = tuple(c for c in self.platform.cores if c != core)
            self._remote_cores[core] = cores
        return cores
