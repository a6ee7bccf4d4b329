"""Packed-bitmask interference table over ECB/UCB/PCB cache-block sets.

Every cardinality the analysis evaluates — the CPRO union bound of
Eq. (14), the ECB-union CRPD of Eq. (2), the per-pair reload costs of the
multiset refinement — is at bottom ``|A ∩ (B_1 ∪ ... ∪ B_k)|`` over sets of
*cache set indices*.  Python ``frozenset`` algebra evaluates these with
per-element hashing; the classic trick of the CRPD tooling lineage
(Altmeyer & Davis's ECB/UCB analyses) is to pack each block set into an
integer bitmask — bit ``b`` set iff cache set ``b`` is touched — so an
intersection cardinality becomes one ``&`` plus one popcount
(``int.bit_count()``), and a union over a task group becomes a fold of
``|``.  Python's arbitrary-precision integers make this exact for any
cache size: indices beyond 63 simply spill into further limbs of the same
integer, so nothing special happens at the 64-bit word boundary.

:class:`InterferenceTable` is the per-task-set compilation of that idea.
Besides the per-task ``ecb``/``ucb``/``pcb`` masks it holds the two
per-pair quantities the fixed point reads: :math:`\\gamma` of Eq. (2)
(and its UCB-only / ECB-only ablations) and the CPRO eviction count of
Eq. (14) (and its global ablation).  Both depend on the analysed task
:math:`\\tau_i` only through its **priority cut** on the other task's
core — the number of that core's tasks whose priority is at least
:math:`\\tau_i`'s (:attr:`InterferenceTable.cut`): :math:`aff(i, j)` on
:math:`\\tau_j`'s core is that core's tasks after :math:`\\tau_j` and
before the cut, and the evicting tasks of :math:`\\tau_j`'s PCBs are the
core's tasks before the cut, :math:`\\tau_j` excluded.  The table
therefore stores one value per core member and cut
(:meth:`~InterferenceTable.gamma_cuts`,
:meth:`~InterferenceTable.eviction_cuts`: 2 x 288 small integers for 32
tasks on 4 cores) and, per ``d_mem``, the fused BAT evaluator's integer
rows of every member at every cut (:meth:`~InterferenceTable.rows`), so a
task's evaluation plan is a handful of slices.

Every part is a pure function of the (immutable) task set and the
approaches, so the table is built at most once per task set (shared via
:meth:`~repro.model.task.TaskSet.derived`) and each part lazily on first
use; the table build is counted by the ``bitset_table_builds`` perf
counter and the cut compilation of :func:`prefill_batch` by
``batch_analyses``.  The set-based implementations in
:mod:`repro.persistence.cpro`, :mod:`repro.crpd.approaches` and
:mod:`repro.crpd.multiset` are retained as the reference path
(``AnalysisConfig(bitset_kernel=False)``); the ``bitset-identity`` oracle
of :mod:`repro.verify.oracles` proves the two kernels bit-identical on
every fuzz case and corpus entry.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.model.task import Task, TaskSet

#: Values of one core member at every cut ``0..len(core)`` of its core.
Cuts = Dict[int, Tuple[int, ...]]

#: ``rows[core][cut]``: the ``(persistence_rows, baseline_rows)`` of every
#: member of ``core`` at that cut (see :meth:`InterferenceTable.rows`).
FusedRows = Dict[int, Tuple[Tuple[tuple, tuple], ...]]


def blocks_to_mask(blocks: Iterable[int]) -> int:
    """Pack a set of cache-set indices into an integer bitmask.

    Bit ``b`` of the result is set iff ``b`` is in ``blocks``.  Arbitrary
    indices are supported (Python integers have no word-size limit);
    negative indices are rejected — a cache set index is a non-negative
    position in the cache.
    """
    mask = 0
    for block in blocks:
        if block < 0:
            raise ModelError(
                f"cache set indices must be non-negative, got {block}"
            )
        mask |= 1 << block
    return mask


def mask_to_blocks(mask: int) -> FrozenSet[int]:
    """Inverse of :func:`blocks_to_mask` (testing / debugging aid)."""
    blocks = []
    index = 0
    while mask:
        if mask & 1:
            blocks.append(index)
        mask >>= 1
        index += 1
    return frozenset(blocks)


class InterferenceTable:
    """Precompiled bitmask views of one task set's cache-block sets.

    Task-indexed lookups are keyed by *priority* (unique per task set).
    The approach enums live above this module in the dependency graph
    (their modules import this one), so the cut builders match them by
    name.
    """

    def __init__(self, taskset: TaskSet):
        self._taskset = taskset
        self.ecb_mask: Dict[int, int] = {}
        self.ucb_mask: Dict[int, int] = {}
        self.pcb_mask: Dict[int, int] = {}
        for task in taskset:
            key = task.priority
            self.ecb_mask[key] = blocks_to_mask(task.ecbs)
            self.ucb_mask[key] = blocks_to_mask(task.ucbs)
            self.pcb_mask[key] = blocks_to_mask(task.pcbs)
        #: Tasks of every core that has any, highest priority first.
        self.members: Dict[int, Tuple[Task, ...]] = {
            core: taskset.on_core(core) for core in taskset.cores
        }
        #: ``cut[priority][core]``: how many of ``core``'s tasks have a
        #: priority at least as high as the task's.
        self.cut: Dict[int, Dict[int, int]] = {}
        counts = dict.fromkeys(self.members, 0)
        for task in taskset:
            counts[task.core] += 1
            self.cut[task.priority] = dict(counts)
        self._gamma: Dict[object, Cuts] = {}
        self._evictions: Dict[object, Cuts] = {}
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

    def rows(self, crpd_approach, cpro_approach, d_mem: int) -> FusedRows:
        """The fused BAT evaluator's integer rows at every cut.

        ``rows(...)[core][k]`` is ``(persistence_rows, baseline_rows)``
        with one row per member of ``core`` (priority order), its
        :math:`\\gamma` and eviction count read at cut ``k``:

        * persistence rows ``(slot, gamma, T, MD, MDr, |PCB|, evictable,
          MD + gamma, (MD + gamma) * d_mem)``;
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
        slot = {task.priority: index for index, task in enumerate(self._taskset)}
        rows = {}
        for core, members in self.members.items():
            made: Dict[tuple, Tuple[tuple, tuple]] = {}
            per_cut = []
            for k in range(len(members) + 1):
                rows_p, rows_b = [], []
                for task in members:
                    values = (task.priority, gamma[task.priority][k],
                              evictions[task.priority][k])
                    pair = made.get(values)
                    if pair is None:
                        _, g, evictable = values
                        period = int(task.period)
                        jd = task.md + g
                        pair = made[values] = (
                            (slot[task.priority], g, period, task.md,
                             task.md_r, len(task.pcbs), evictable, jd,
                             jd * d_mem),
                            (slot[task.priority], period, jd, jd * d_mem),
                        )
                    rows_p.append(pair[0])
                    rows_b.append(pair[1])
                per_cut.append((tuple(rows_p), tuple(rows_b)))
            rows[core] = tuple(per_cut)
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
    """Compile the :math:`\\gamma` and eviction-count cuts of ``tasksets``.

    The compile entry point: sweeps call it once per chunk of task sets,
    :func:`~repro.analysis.wcrt.analyze_taskset` once per analysis.
    Idempotent per (task set, approach pair) — already-compiled task sets
    cost two dict probes — so the fused rows, the calculators and every
    later call read the same table.  Bumps ``perf.batch_analyses`` by the
    number of task sets compiled here, and returns it.
    """
    compiled = 0
    for taskset in tasksets:
        table = InterferenceTable.shared(taskset, perf)
        if (
            crpd_approach not in table._gamma
            or cpro_approach not in table._evictions
        ):
            table.gamma_cuts(crpd_approach)
            table.eviction_cuts(cpro_approach)
            compiled += 1
    if perf is not None:
        perf.batch_analyses += compiled
    return compiled
