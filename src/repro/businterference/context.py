"""Shared state threaded through the bus-interference equations.

The interference bounds of the paper are parameterised by quantities that are
fixed for a given analysis run (task set, platform, CRPD/CPRO calculators,
whether cache persistence is exploited) plus the current worst-case response
time estimates of all tasks (Eq. 5/6 need :math:`R_l`, which the outer loop
of Sec. IV refines iteratively).  :class:`AnalysisContext` bundles them.

Epoch-keyed memoization
-----------------------

The remote-core terms :math:`W`, :math:`BAO` and :math:`BAO_{low}` depend,
besides the window length ``t``, only on the response-time estimates of the
tasks on *one* remote core — estimates that are frozen while a single
task's inner fixed point runs and change only when the outer loop records a
refined value.  :class:`AnalysisContext` therefore keeps one *epoch*
counter per core (plus a global one), bumped exactly when a task on that
core gets a new estimate, and caches each term keyed by its inputs plus
the epoch of the core it reads.  A cache hit is by construction a
recomputation with identical inputs, so memoized results are bit-identical
to the naive evaluation — the differential test in
``tests/test_differential.py`` pins this down.  Set ``memoize=False`` (via
``AnalysisConfig(memoization=False)``) to force the reference path.  The
caches serve only the per-term evaluator; the default fused evaluator
(``array_kernel``) consults none.
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
        crpd: memoising CRPD calculator (:math:`\\gamma` of Eq. 2).
        cpro: memoising CPRO calculator (:math:`\\hat{\\rho}` of Eq. 14).
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
        memoize: cache the window-level interference terms keyed by their
            inputs plus the epoch of the core whose estimates they read.
            Results are bit-identical either way; disabling selects the
            reference path used by the differential correctness test.
        array_kernel: allow the fused tight-loop evaluator for the bus
            terms (``make_bat`` in :mod:`repro.businterference.arbiters`):
            a whole BAT evaluation becomes one pass over slices of the
            task set's :meth:`~repro.model.interference.InterferenceTable.
            rows`, with response-time estimates resolved through a slot
            list instead of a ``Task``-keyed dict probe, and no per-term
            memo caches are consulted (they essentially never hit on this
            path, so the memo hit/miss counters read zero under the fused
            evaluator).  Serves every CRPD/CPRO approach pair — the
            multiset refinements fold their per-cut tables inside the
            rows — but engages only on the bitmask kernel and when
            ``memoize`` is also set, so the ``memoize=False`` reference
            stays the untouched legacy evaluation.  Computed values are
            bit-identical either way.
        perf: counters recording iteration counts and memo hits/misses.
        budget: optional :class:`~repro.budget.Budget` ticked at every
            inner fixed-point iteration (and checked inside the expensive
            window folds), so an over-budget or cancelled analysis aborts
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
    memoize: bool = True
    array_kernel: bool = True
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
        # Per-core epoch counters: cache keys embed the epoch of the core a
        # term reads, so revising one core's estimate leaves cached terms
        # about the other cores valid.
        self._core_epoch: Dict[int, int] = {
            core: 0 for core in self.platform.cores
        }
        self._remote_cores: Dict[int, Tuple[int, ...]] = {
            core: tuple(c for c in self.platform.cores if c != core)
            for core in self.platform.cores
        }
        # Memo caches of the window-level interference terms.  Values store
        # the epoch they were computed at; a mismatch is treated as a miss.
        self._bao_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._bao_low_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._crpd_window_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # Static parameter tables (see repro.businterference.requests):
        # everything a BAS / W evaluation needs besides the window length and
        # the current response-time estimates.  Pure functions of the task
        # set, the two approach enums and ``d_mem``, so they are shared
        # across every context analysing the same task set (kept warm
        # between runs and across sweep variants).  The kernel flags are
        # part of the key: rows built from the bitmask kernel must never be
        # reused by the reference path (or vice versa), else the
        # ``bitset-identity`` oracle would compare a value against itself.
        approaches = (
            self.crpd.approach,
            self.crpd.bitset,
            self.cpro.approach,
            self.cpro.bitset,
        )
        self._bas_rows: Dict[int, tuple] = self.taskset.derived(
            ("bas-rows",) + approaches, dict
        )
        self._w_rows: Dict[Tuple[int, int, bool], tuple] = self.taskset.derived(
            ("w-rows",) + approaches + (self.platform.d_mem,), dict
        )
        self._hp_rows: Dict[int, tuple] = self.taskset.derived("hp-rows", dict)
        # With a window-oblivious CPRO approach the per-pair demand terms
        # reduce to closed-form arithmetic over the prefetched parameters.
        self.fast_demand: bool = self.cpro.approach is not CproApproach.MULTISET
        # With *both* approaches window oblivious, every same-core term of
        # Eq. (19) is a pure function of static parameters and the window
        # length: a task's right-hand side then depends only on its own
        # estimate and the estimates of other cores.  The multiset variants
        # break this — their window terms read response-time estimates of
        # same-core tasks (and of the analysed task itself) — so the outer
        # loop's remote-epoch convergence shortcut must not engage there.
        self.window_oblivious: bool = (
            self.fast_demand
            and self.crpd.approach is not CrpdApproach.ECB_UNION_MULTISET
        )
        # Fused tight-loop evaluation of the window terms: estimates live in
        # a list indexed by a per-task-set slot (the task's position in
        # iteration order), so the hot row loops replace the Task-keyed
        # dict probe with a plain list subscript.  The slot list mirrors
        # ``response_times`` exactly — same values, same isolated-WCET
        # fallback — and is maintained by :meth:`set_response_time`; the
        # multiset folds read same-core estimates from it too, so every
        # approach pair runs fused.  The rows come from the bitmask
        # kernel's interference table, so the ``frozenset`` reference
        # kernel always takes the per-term path.
        self.fused: bool = (
            self.memoize
            and self.array_kernel
            and self.crpd.bitset
            and self.cpro.bitset
        )
        self._slot_of: Dict[int, int] = estimate_slots(self.taskset)
        d_mem = self.platform.d_mem
        self._est = [int(t.pd + t.md * d_mem) for t in self.taskset]
        if self.fused:
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
        # Per-task specialised BAT evaluators (``make_bat`` closures), built
        # once per context: they close over this context's estimate list and
        # bind the tunables at creation time, so unlike the plans they must
        # not outlive the context.
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
        estimate actually changes, invalidating exactly the cached terms
        that could have read the old value.
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

    def core_epoch(self, core: int) -> int:
        """Estimate-revision counter of ``core`` (cache-key ingredient)."""
        return self._core_epoch.get(core, 0)

    def remote_cores(self, core: int) -> Tuple[int, ...]:
        """All platform cores except ``core`` (precomputed)."""
        cores = self._remote_cores.get(core)
        if cores is None:
            cores = tuple(c for c in self.platform.cores if c != core)
            self._remote_cores[core] = cores
        return cores
