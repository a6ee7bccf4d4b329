"""Packed-bitmask interference table over ECB/UCB/PCB cache-block sets.

Every cardinality the analysis evaluates — the CPRO union bound of
Eq. (14), the ECB-union CRPD of Eq. (2), the per-pair reload costs of the
multiset refinement — is at bottom ``|A ∩ (B_1 ∪ ... ∪ B_k)|`` over sets of
*cache set indices*.  Every task holds its block sets as packed
:class:`~repro.model.blocks.BlockSet` masks, so such a cardinality is one
``&`` plus one popcount (``int.bit_count()``) and a union over a task
group a fold of ``|``.

:class:`InterferenceTable` is the per-task-set compilation of that idea.
Besides the per-task ``ecb``/``ucb``/``pcb`` masks, read off the tasks'
block sets as they are, it holds the two per-pair quantities the fixed
point reads: :math:`\\gamma` of Eq. (2) (and its UCB-only / ECB-only
ablations) and the CPRO eviction count of Eq. (14) (and its global
ablation).  Both depend on the analysed task
:math:`\\tau_i` only through its **priority cut** on the other task's
core — the number of that core's tasks whose priority is at least
:math:`\\tau_i`'s (:attr:`InterferenceTable.cut`): :math:`aff(i, j)` on
:math:`\\tau_j`'s core is that core's tasks after :math:`\\tau_j` and
before the cut, and the evicting tasks of :math:`\\tau_j`'s PCBs are the
core's tasks before the cut, :math:`\\tau_j` excluded.  The table
therefore stores one value per core member and cut
(:meth:`~InterferenceTable.gamma_cuts`,
:meth:`~InterferenceTable.eviction_cuts`: 2 x 288 small integers for 32
tasks on 4 cores), likewise the static data of the window-aware multiset
refinements (:meth:`~InterferenceTable.cpro_multiset_cuts`,
:meth:`~InterferenceTable.crpd_multiset_cuts`) and, per ``d_mem``, the
fused BAT evaluator's integer rows of every member at every cut
(:meth:`~InterferenceTable.rows`), so a task's evaluation plan is a
handful of slices.

Every part is a pure function of the (immutable) task set and the
approaches, so the table is built at most once per task set (shared via
:meth:`~repro.model.task.TaskSet.derived`) and each part lazily on first
use; the table build is counted by the ``bitset_table_builds`` perf
counter and the cut compilation of :func:`prefill_batch` by
``batch_analyses``.  The production kernel reads its CRPD/CPRO values
only from this table.  The ``frozenset`` implementations in
:mod:`repro.persistence.cpro`, :mod:`repro.crpd.approaches` and
:mod:`repro.crpd.multiset` serve the reference kernel
(:attr:`repro.analysis.config.AnalysisConfig.reference`), which builds no
table and evaluates over ``frozenset`` views of the block sets
(:meth:`~repro.model.task.TaskSet.frozen_blocks`); the
``kernel-identity`` oracle of :mod:`repro.verify.oracles` checks that the
two set implementations agree on every fuzz case and corpus entry.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Optional, Sequence, Tuple

from repro.model.task import Task, TaskSet

#: Values of one core member at every cut ``0..len(core)`` of its core.
Cuts = Dict[int, Tuple[int, ...]]

#: ``rows[core][cut]``: the ``(persistence_rows, baseline_rows)`` of every
#: member of ``core`` at that cut (see :meth:`InterferenceTable.rows`).
FusedRows = Dict[int, Tuple[Tuple[tuple, tuple], ...]]

#: Multiset CPRO rows of one PCB owner at one cut: ``(count, periods)``,
#: ``count`` PCBs overlapped by evictors with exactly these (sorted)
#: periods (see :meth:`InterferenceTable.cpro_multiset_cuts`).
OverlapGroups = Tuple[Tuple[int, Tuple[int, ...]], ...]

#: Multiset CRPD entries of one preempting task at one cut:
#: ``(cost, period_g, slot_g)`` (see
#: :meth:`InterferenceTable.crpd_multiset_cuts`).
MultisetEntries = Tuple[Tuple[int, int, int], ...]


def estimate_slots(taskset: TaskSet) -> Dict[int, int]:
    """Each task's position in task-set order (its estimate slot), by priority.

    One dict per task set (:meth:`~repro.model.task.TaskSet.derived`),
    shared by its interference table and every analysis context.
    """
    return taskset.derived(
        "est-slots",
        lambda: {task.priority: index for index, task in enumerate(taskset)},
    )


class InterferenceTable:
    """Precompiled bitmask views of one task set's cache-block sets.

    Task-indexed lookups are keyed by *priority* (unique per task set).
    The approach enums live above this module in the dependency graph
    (:mod:`repro.persistence.cpro` imports this one), so the cut builders
    match them by name.
    """

    def __init__(self, taskset: TaskSet):
        self.ecb_mask: Dict[int, int] = {}
        self.ucb_mask: Dict[int, int] = {}
        self.pcb_mask: Dict[int, int] = {}
        for task in taskset:
            key = task.priority
            self.ecb_mask[key] = task.ecbs.mask
            self.ucb_mask[key] = task.ucbs.mask
            self.pcb_mask[key] = task.pcbs.mask
        #: Tasks of every core that has any, highest priority first.
        self.members: Dict[int, Tuple[Task, ...]] = {
            core: taskset.on_core(core) for core in taskset.cores
        }
        #: Each task's position in task-set order (its estimate slot).
        self.slot: Dict[int, int] = estimate_slots(taskset)
        #: ``cut[priority][core]``: how many of ``core``'s tasks have a
        #: priority at least as high as the task's.
        self.cut: Dict[int, Dict[int, int]] = {}
        counts = dict.fromkeys(self.members, 0)
        for task in taskset:
            counts[task.core] += 1
            self.cut[task.priority] = dict(counts)
        self._gamma: Dict[object, Cuts] = {}
        self._evictions: Dict[object, Cuts] = {}
        self._overlaps: Optional[Dict[int, Tuple[OverlapGroups, ...]]] = None
        self._multiset: Optional[Dict[int, Tuple[MultisetEntries, ...]]] = None
        self._rows: Dict[tuple, FusedRows] = {}

    @classmethod
    def shared(
        cls, taskset: TaskSet, perf: Optional[object] = None
    ) -> "InterferenceTable":
        """The task set's shared table, built at most once.

        ``perf`` (a :class:`repro.perf.PerfCounters`) has its
        ``bitset_table_builds`` counter bumped only when this call actually
        constructs the table — cache hits are free and uncounted.
        """

        def build() -> "InterferenceTable":
            if perf is not None:
                perf.bitset_table_builds += 1
            return cls(taskset)

        return taskset.derived("interference-table", build)

    def gamma_cuts(self, crpd_approach) -> Cuts:
        """:math:`\\gamma` per preempting task and cut of its core.

        ``gamma_cuts(a)[j][k]`` is :math:`\\gamma_{i,j}` under CRPD
        approach ``a`` for every :math:`\\tau_i` whose cut on
        :math:`\\tau_j`'s core is ``k``: the running maximum of the reload
        costs of the core's tasks after :math:`\\tau_j` and before the cut
        (0 while that range is empty).  The per-job value of the multiset
        refinement is plain ECB-union.
        """
        cuts = self._gamma.get(crpd_approach)
        if cuts is not None:
            return cuts
        cuts = {}
        name = crpd_approach.name
        ecb, ucb = self.ecb_mask, self.ucb_mask
        for members in self.members.values():
            hep = 0
            for position, task_j in enumerate(members):
                hep |= ecb[task_j.priority]
                later = members[position + 1:]
                if name == "UCB_ONLY":
                    costs = [ucb[t.priority].bit_count() for t in later]
                elif name == "ECB_ONLY":
                    costs = [ecb[task_j.priority].bit_count()] * len(later)
                elif name == "NONE":
                    costs = [0] * len(later)
                else:  # ECB_UNION, ECB_UNION_MULTISET
                    costs = [(ucb[t.priority] & hep).bit_count() for t in later]
                cuts[task_j.priority] = (0,) * (position + 2) + tuple(
                    accumulate(costs, max)
                )
        self._gamma[crpd_approach] = cuts
        return cuts

    def eviction_cuts(self, cpro_approach) -> Cuts:
        """CPRO eviction count per PCB owner and cut of its core.

        ``eviction_cuts(a)[j][k]`` is the number of :math:`\\tau_j`'s PCBs
        overlapped by the ECBs of the core's first ``k`` tasks other than
        :math:`\\tau_j` — for the global ablation, of every other task of
        the core whatever the cut.  The multiset approach reads the union
        count where no window is known.
        """
        cuts = self._evictions.get(cpro_approach)
        if cuts is not None:
            return cuts
        cuts = {}
        name = cpro_approach.name
        ecb = self.ecb_mask
        for members in self.members.values():
            for task_j in members:
                pcb = self.pcb_mask[task_j.priority]
                union = 0
                counts = [0]
                for task in members:
                    if task is not task_j:
                        union |= ecb[task.priority]
                    counts.append((pcb & union).bit_count())
                if name == "GLOBAL":
                    counts = [counts[-1]] * len(counts)
                elif name == "NONE":
                    counts = [0] * len(counts)
                cuts[task_j.priority] = tuple(counts)
        self._evictions[cpro_approach] = cuts
        return cuts

    def cpro_multiset_cuts(self) -> Dict[int, Tuple[OverlapGroups, ...]]:
        """Multiset CPRO rows per PCB owner and cut of its core.

        ``cpro_multiset_cuts()[j][k]`` holds :math:`\\tau_j`'s PCBs that
        the ECBs of the core's first ``k`` tasks other than
        :math:`\\tau_j` overlap, merged into ``(count, periods)`` rows by
        the sorted periods of the tasks overlapping them.  The bound of
        :func:`~repro.persistence.cpro.cpro_multiset_window` charges each
        PCB :math:`\\min(n - 1, \\sum_e (\\lceil t/T_e \\rceil + c))`, a
        function of those periods alone, so the PCBs of one row add the
        same term and the row adds ``count`` times it.  PCBs no such task
        overlaps add nothing and get no row; the counts of a cut sum to
        its union eviction count.  Built incrementally, one evictor
        joining per cut, with rows shared across cuts when unchanged.
        """
        cuts = self._overlaps
        if cuts is not None:
            return cuts
        cuts = {}
        ecb = self.ecb_mask
        for members in self.members.values():
            evictors = [(t, ecb[t.priority], int(t.period)) for t in members]
            for task_j in members:
                pcb = self.pcb_mask[task_j.priority]
                # Sorted evictor periods -> mask of the PCBs they overlap.
                groups: Dict[Tuple[int, ...], int] = {(): pcb}
                rows: OverlapGroups = ()
                per_cut = [rows]
                for task, evicts, period in evictors:
                    evicts &= pcb
                    if task is not task_j and evicts:
                        merged: Dict[Tuple[int, ...], int] = {}
                        for periods, mask in groups.items():
                            hit = mask & evicts
                            if hit:
                                key = tuple(sorted(periods + (period,)))
                                merged[key] = merged.get(key, 0) | hit
                            if hit != mask:
                                merged[periods] = merged.get(periods, 0) | (
                                    mask ^ hit
                                )
                        groups = merged
                        rows = tuple([
                            (mask.bit_count(), periods)
                            for periods, mask in groups.items()
                            if periods
                        ])
                    per_cut.append(rows)
                cuts[task_j.priority] = tuple(per_cut)
        self._overlaps = cuts
        return cuts

    def crpd_multiset_cuts(self) -> Dict[int, Tuple[MultisetEntries, ...]]:
        """Multiset CRPD entries per preempting task and cut of its core.

        ``crpd_multiset_cuts()[j][k]`` holds one ``(cost, period_g,
        slot_g)`` entry per task :math:`\\tau_g` of the core after
        :math:`\\tau_j` and before the cut whose reload cost
        :math:`c_g = |UCB_g \\cap \\bigcup_{h \\in hep(j)} ECB_h|` is
        nonzero — ``slot_g`` is its position in task-set order — sorted
        by decreasing cost, ties in priority order: the entries and order
        of :func:`~repro.crpd.multiset.multiset_pair_data`.  Each cut
        adds at most one entry, inserted after every entry of equal or
        higher cost.
        """
        cuts = self._multiset
        if cuts is not None:
            return cuts
        cuts = {}
        ecb, ucb, slot = self.ecb_mask, self.ucb_mask, self.slot
        for members in self.members.values():
            hep = 0
            for position, task_j in enumerate(members):
                hep |= ecb[task_j.priority]
                entries: MultisetEntries = ()
                per_cut = [entries] * (position + 2)
                for task_g in members[position + 1:]:
                    cost = (ucb[task_g.priority] & hep).bit_count()
                    if cost > 0:
                        at = 0
                        while at < len(entries) and entries[at][0] >= cost:
                            at += 1
                        entries = (
                            entries[:at]
                            + ((cost, int(task_g.period), slot[task_g.priority]),)
                            + entries[at:]
                        )
                    per_cut.append(entries)
                cuts[task_j.priority] = tuple(per_cut)
        self._multiset = cuts
        return cuts

    def rows(self, crpd_approach, cpro_approach, d_mem: int) -> FusedRows:
        """The fused BAT evaluator's integer rows at every cut.

        ``rows(...)[core][k]`` is ``(persistence_rows, baseline_rows)``
        with one row per member of ``core`` (priority order), its
        :math:`\\gamma` and eviction count read at cut ``k``:

        * persistence rows ``(slot, gamma, T, MD, MDr, |PCB|, evictable,
          MD + gamma, (MD + gamma) * d_mem)``, for a pair with a multiset
          side extended by ``(overlaps, entries)``: the member's
          :meth:`cpro_multiset_cuts` rows under the multiset CPRO approach
          and its :meth:`crpd_multiset_cuts` entries under the multiset
          CRPD approach, ``None`` for the other side;
        * baseline rows ``(slot, T, MD + gamma, (MD + gamma) * d_mem)``;

        ``slot`` is the member's position in task-set order (its index in
        the evaluator's estimate list).  A member whose values do not
        change between two cuts shares one row tuple across them.
        """
        key = (crpd_approach, cpro_approach, d_mem)
        rows = self._rows.get(key)
        if rows is not None:
            return rows
        gamma = self.gamma_cuts(crpd_approach)
        evictions = self.eviction_cuts(cpro_approach)
        overlaps = (
            self.cpro_multiset_cuts()
            if cpro_approach.name == "MULTISET" else None
        )
        entries = (
            self.crpd_multiset_cuts()
            if crpd_approach.name == "ECB_UNION_MULTISET" else None
        )
        multiset = overlaps is not None or entries is not None
        rows = {}
        for core, members in self.members.items():
            unset = (None,) * (len(members) + 1)
            columns = []
            for task in members:
                priority = task.priority
                slot = self.slot[priority]
                period = int(task.period)
                column = []
                last = None
                for values in zip(
                    gamma[priority],
                    evictions[priority],
                    unset if overlaps is None else overlaps[priority],
                    unset if entries is None else entries[priority],
                ):
                    if values != last:
                        g, evictable, overlap, entry = last = values
                        jd = task.md + g
                        row_p = (slot, g, period, task.md, task.md_r,
                                 len(task.pcbs), evictable, jd, jd * d_mem)
                        if multiset:
                            row_p += (overlap, entry)
                        pair = (row_p, (slot, period, jd, jd * d_mem))
                    column.append(pair)
                columns.append(column)
            rows[core] = tuple(
                tuple(zip(*at_cut)) for at_cut in zip(*columns)
            )
        self._rows[key] = rows
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterferenceTable({len(self.ecb_mask)} tasks)"


def prefill_batch(
    tasksets: Sequence[TaskSet],
    crpd_approach,
    cpro_approach,
    perf: Optional[object] = None,
) -> int:
    """Compile the per-cut tables of ``tasksets`` for one approach pair.

    The compile entry point, which
    :func:`~repro.analysis.wcrt.analyze_taskset` calls once per analysis.
    It compiles the :math:`\\gamma` and eviction-count cuts and, only for
    a pair that reads them, the multiset CPRO rows and multiset CRPD
    entries; an analysis context builds the fused evaluator's
    :meth:`~InterferenceTable.rows` for its own ``d_mem`` on first use.
    Idempotent per (task set, approach pair) — already-compiled task sets
    cost a few dict probes.  Bumps ``perf.batch_analyses`` by the number
    of task sets compiled here, and returns it.
    """
    multiset_cpro = cpro_approach.name == "MULTISET"
    multiset_crpd = crpd_approach.name == "ECB_UNION_MULTISET"
    compiled = 0
    for taskset in tasksets:
        table = InterferenceTable.shared(taskset, perf)
        if (
            crpd_approach not in table._gamma
            or cpro_approach not in table._evictions
            or (multiset_cpro and table._overlaps is None)
            or (multiset_crpd and table._multiset is None)
        ):
            table.gamma_cuts(crpd_approach)
            table.eviction_cuts(cpro_approach)
            if multiset_cpro:
                table.cpro_multiset_cuts()
            if multiset_crpd:
                table.crpd_multiset_cuts()
            compiled += 1
    if perf is not None:
        perf.batch_analyses += compiled
    return compiled
