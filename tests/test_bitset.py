"""Unit tests of the packed-bitmask interference table.

The bitmask kernel (:mod:`repro.model.interference`) must agree with the
reference path's ``frozenset`` views on *every* input, including the edges where a
packed-integer implementation classically goes wrong: empty block sets,
cache-set indices crossing the 64-bit word boundary, and degenerate task
groups (a core with a single task has nobody to evict anything).  The
broad differential grids live in ``tests/test_differential.py``; this file
pins the edge cases down directly at the table level.
"""

import random

import pytest

from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.crpd.multiset import multiset_pair_data
from repro.errors import ModelError
from repro.generation.taskset_gen import generate_taskset
from repro.model.blocks import BlockSet
from repro.model.interference import InterferenceTable
from repro.model.platform import CacheGeometry, Platform
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import (
    CproApproach,
    CproCalculator,
    cpro_eviction_count_global,
    cpro_eviction_count_union,
    cpro_multiset_window,
    evicting_ecb_union,
    overlap_groups_window,
)


def _task(name, priority, core=0, ecbs=(), ucbs=(), pcbs=(), period=1000):
    return Task(
        name=name,
        pd=100,
        md=10,
        md_r=5,
        period=period,
        deadline=period,
        priority=priority,
        core=core,
        ecbs=frozenset(ecbs),
        ucbs=frozenset(ucbs),
        pcbs=frozenset(pcbs),
    )


def _gamma(table, approach, task_i, task_j):
    """gamma(i, j) as the production kernel reads it: j's value at i's cut."""
    cut = table.cut[task_i.priority][task_j.core]
    return table.gamma_cuts(approach)[task_j.priority][cut]


def _evictable(table, approach, task_j, task_i):
    """Evictable PCBs of j in i's window, read like :func:`_gamma`."""
    cut = table.cut[task_i.priority][task_j.core]
    return table.eviction_cuts(approach)[task_j.priority][cut]


class TestMaskPacking:
    """Edge cases of packing a block set into its mask."""

    def test_round_trip_small_indices(self):
        blocks = frozenset({0, 3, 17})
        packed = BlockSet(blocks)
        assert packed.mask == 0b100000000000001001
        assert BlockSet.from_mask(packed.mask) == blocks

    def test_empty_set_packs_to_zero(self):
        assert BlockSet(()).mask == 0 == BlockSet().mask
        assert BlockSet.from_mask(0) == frozenset()
        assert list(BlockSet()) == [] and len(BlockSet()) == 0

    def test_word_boundary_indices(self):
        # Indices straddling the 64-bit limb boundary and far beyond it:
        # Python ints have no word size, so nothing special may happen.
        blocks = frozenset({0, 63, 64, 127, 128, 1000})
        packed = BlockSet(blocks)
        assert packed.mask.bit_count() == len(blocks)
        assert packed.mask >> 63 & 0b11 == 0b11
        assert list(packed) == sorted(blocks)
        assert BlockSet.from_mask(packed.mask) == blocks

    def test_index_256_past_the_paper_cache(self):
        # The first index past the paper's 256-set cache packs like any
        # other, with its neighbours on either side of the boundary.
        assert BlockSet([255]).mask == 1 << 255
        assert BlockSet([256]).mask == 1 << 256
        assert BlockSet([256, 255, 0]).mask == 0b11 << 255 | 1
        assert list(BlockSet([256, 0])) == [0, 256]

    def test_intersection_cardinality_across_words(self):
        a, b = {63, 64, 65, 500}, {64, 500, 501}
        assert len(BlockSet(a) & BlockSet(b)) == len(a & b) == 2
        assert (BlockSet(a).mask & BlockSet(b).mask).bit_count() == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            BlockSet({1, -1})


class TestInterferenceTableEdges:
    def test_empty_ecb_and_pcb_sets(self):
        # Tasks with no cache footprint at all: every mask is zero, every
        # cardinality zero, and both kernels agree on the eviction counts.
        tasks = (_task("a", 1), _task("b", 2), _task("c", 3))
        taskset = TaskSet(tasks)
        table = InterferenceTable(taskset)
        assert table.ecb_mask == {1: 0, 2: 0, 3: 0}
        assert table.pcb_mask == {1: 0, 2: 0, 3: 0}
        a, _, c = tasks
        for approach in CrpdApproach:
            assert table.gamma_cuts(approach) == {
                priority: (0, 0, 0, 0) for priority in (1, 2, 3)
            }
        for approach in CproApproach:
            reference = CproCalculator(taskset, approach)
            assert _evictable(table, approach, c, a) == 0
            assert reference.eviction_count(c, a) == 0

    def test_pcbs_with_empty_evictors(self):
        # The PCB owner is the only task with any cache footprint: the
        # evicting union is empty, so nothing can be evicted.
        tasks = (
            _task("a", 1),
            _task("b", 2),
            _task("c", 3, ecbs={5}, pcbs={5}),
        )
        taskset = TaskSet(tasks)
        table = InterferenceTable(taskset)
        assert table.pcb_mask[3] == 1 << 5
        a, _, c = tasks
        assert table.eviction_cuts(CproApproach.UNION)[3] == (0, 0, 0, 0)
        for approach in CproApproach:
            reference = CproCalculator(taskset, approach)
            assert _evictable(table, approach, c, a) == 0
            assert reference.eviction_count(c, a) == 0

    def test_blocks_beyond_word_boundary_match_reference(self):
        # ECB/UCB/PCB indices spread across several 64-bit limbs; the
        # eviction and CRPD counts must match the frozenset reference.
        tasks = (
            _task("hi", 1, ecbs={0, 63, 64}, ucbs={64}, pcbs={63}),
            _task(
                "mid",
                2,
                ecbs={64, 127, 128, 1000},
                ucbs={127},
                pcbs={64, 1000},
            ),
            _task("lo", 3, ecbs={0, 63, 127, 1000}, ucbs={1000}, pcbs={0, 127}),
        )
        taskset = TaskSet(tasks)
        hi, mid, lo = tasks
        table = InterferenceTable(taskset)
        for task_j in tasks:
            for task_i in tasks:
                if task_j is task_i:
                    continue
                assert _evictable(
                    table, CproApproach.UNION, task_j, task_i
                ) == cpro_eviction_count_union(taskset, task_j, task_i)
                assert _evictable(
                    table, CproApproach.GLOBAL, task_j, task_i
                ) == cpro_eviction_count_global(taskset, task_j, task_i)
        crpd_ref = CrpdCalculator(taskset, CrpdApproach.ECB_UNION)
        for task_j in (hi, mid):
            assert _gamma(
                table, CrpdApproach.ECB_UNION, lo, task_j
            ) == crpd_ref.gamma(lo, task_j)

    def test_single_task_core_has_no_evictors(self):
        # One task per core: hep/evicting unions over "the others" are
        # empty, so every eviction count and CRPD value must be zero.
        tasks = (
            _task("solo0", 1, core=0, ecbs={1, 2}, ucbs={1}, pcbs={2}),
            _task("solo1", 2, core=1, ecbs={2, 3}, ucbs={3}, pcbs={2}),
        )
        taskset = TaskSet(tasks)
        table = InterferenceTable(taskset)
        solo0, solo1 = tasks
        assert table.cut == {1: {0: 1, 1: 0}, 2: {0: 1, 1: 1}}
        for approach in CproApproach:
            assert table.eviction_cuts(approach) == {1: (0, 0), 2: (0, 0)}
        for approach in CproApproach:
            calculator = CproCalculator(taskset, approach)
            assert calculator.eviction_count(solo0, solo0) == 0
            assert calculator.rho(solo0, solo0, 5) == 0

    @pytest.mark.parametrize("num_sets", [64, 256])
    def test_every_mask_packs_its_set(self, num_sets):
        # The generator builds its block sets as masks, by shifts, and
        # hands a whole-run UCB/PCB set over as the ECB set itself; every
        # mask the table reads must still be its own set's members.
        platform = Platform(
            num_cores=4, d_mem=10, cache=CacheGeometry(num_sets=num_sets)
        )
        shared = 0
        for seed in range(6):
            taskset = generate_taskset(random.Random(seed), platform, 0.5)
            table = InterferenceTable(taskset)
            for task in taskset:
                key = task.priority
                for mask, blocks in (
                    (table.ecb_mask[key], task.ecbs),
                    (table.ucb_mask[key], task.ucbs),
                    (table.pcb_mask[key], task.pcbs),
                ):
                    members = frozenset(blocks)
                    assert mask == sum(1 << b for b in members)
                    assert max(members, default=0) < num_sets
                shared += (task.ucbs is task.ecbs) + (task.pcbs is task.ecbs)
        assert shared > 0

    def test_shared_table_is_built_once_per_taskset(self):
        taskset = TaskSet((_task("a", 1, ecbs={1}), _task("b", 2, ecbs={2})))
        first = InterferenceTable.shared(taskset)
        second = InterferenceTable.shared(taskset)
        assert first is second

    def test_evicting_union_helper_matches_manual_fold(self):
        tasks = (_task("a", 1, ecbs={1, 64}), _task("b", 2, ecbs={64, 200}))
        taskset = TaskSet(tasks)
        union = evicting_ecb_union(taskset, tasks)
        assert union == frozenset({1, 64, 200})
        assert type(union) is frozenset
        assert evicting_ecb_union(taskset, ()) == frozenset()


#: Job counts and windows the multiset CPRO rows are evaluated at: the
#: ``n <= 1`` / ``t <= 0`` guards, windows on and next to period
#: multiples, and windows long enough for every PCB to saturate.
_JOB_COUNTS = (0, 1, 2, 3, 5, 40)
_WINDOWS = (-5, 0, 1, 299, 300, 301, 700, 1000, 2500, 99_999)


def _ceil(numerator, denominator):
    return -((-numerator) // denominator)


def _pin_multiset_tables(taskset):
    """Multiset CPRO rows and CRPD entries == ``frozenset`` reference.

    At every cut of every core member the grouped CPRO rows, evaluated
    at several windows and job counts with carry-in on and off, must
    equal a per-PCB transcription of the reference bound over the cut's
    evictors, and for every (tau_j, tau_i) pair
    :func:`cpro_multiset_window` and the reference calculator's
    ``rho_window``.  The CRPD entries of every cut must be the sorted
    nonzero reload costs of the tasks between tau_j and the cut, and for
    every pair exactly :func:`multiset_pair_data`, order included.
    """
    table = InterferenceTable.shared(taskset)
    overlaps = table.cpro_multiset_cuts()
    entries = table.crpd_multiset_cuts()
    slot = table.slot

    def folded(groups, n_jobs, window, carry_in):
        if n_jobs <= 1 or window <= 0:
            return 0
        return overlap_groups_window(groups, n_jobs - 1, window, int(carry_in))

    for members in table.members.values():
        for position, task_j in enumerate(members):
            assert len(overlaps[task_j.priority]) == len(members) + 1
            assert len(entries[task_j.priority]) == len(members) + 1
            evicting = taskset.hep_ecb_union(task_j, task_j.core)
            for k in range(len(members) + 1):
                groups = overlaps[task_j.priority][k]
                evictors = [t for t in members[:k] if t is not task_j]
                assert all(count > 0 and periods for count, periods in groups)
                assert sum(count for count, _ in groups) == len(
                    task_j.pcbs & evicting_ecb_union(taskset, evictors)
                )
                for n_jobs in _JOB_COUNTS:
                    for window in _WINDOWS:
                        for carry_in in (False, True):
                            expected = 0
                            if n_jobs > 1 and window > 0:
                                for pcb in task_j.pcbs:
                                    expected += min(n_jobs - 1, sum(
                                        _ceil(window, int(e.period)) + carry_in
                                        for e in evictors
                                        if pcb in e.ecbs
                                    ))
                            assert folded(
                                groups, n_jobs, window, carry_in
                            ) == expected, (task_j.name, k, n_jobs, window)
                affected = [
                    (cost, int(t.period), slot[t.priority])
                    for t in members[position + 1:k]
                    if (cost := len(t.ucbs & evicting)) > 0
                ]
                affected.sort(key=lambda entry: entry[0], reverse=True)
                assert entries[task_j.priority][k] == tuple(affected)
    cpro_ref = CproCalculator(taskset, CproApproach.MULTISET)
    for task_i in taskset:
        for task_j in taskset:
            k = table.cut[task_i.priority][task_j.core]
            assert entries[task_j.priority][k] == tuple(
                (cost, period, slot[task_g.priority])
                for cost, period, task_g in multiset_pair_data(
                    taskset, task_i, task_j
                )
            ), (task_i.name, task_j.name)
            groups = overlaps[task_j.priority][k]
            for n_jobs in _JOB_COUNTS:
                for window in _WINDOWS[1:]:
                    for carry_in in (False, True):
                        expected = cpro_multiset_window(
                            taskset, task_j, task_i, n_jobs, window, carry_in
                        )
                        assert folded(groups, n_jobs, window, carry_in) == expected
                        assert cpro_ref.rho_window(
                            task_j, task_i, n_jobs, window, carry_in
                        ) == expected


def _pin_against_reference(taskset, d_mem=7):
    """Every approach pair: table values == ``frozenset`` reference values.

    For all 5 x 4 CRPD/CPRO approach pairs and every (tau_i, tau_j) pair
    the task set's cut table, read at tau_i's cut, must hold the
    ``frozenset`` calculators' values; the fused rows must
    hold exactly the table's values at every cut of every core, extended
    by the multiset rows and entries for a pair with a multiset side
    (see :func:`_pin_multiset_tables`).
    """
    _pin_multiset_tables(taskset)
    table = InterferenceTable.shared(taskset)
    slot = table.slot
    overlaps = table.cpro_multiset_cuts()
    entries = table.crpd_multiset_cuts()
    for crpd in CrpdApproach:
        for cpro in CproApproach:
            crpd_ref = CrpdCalculator(taskset, crpd)
            cpro_ref = CproCalculator(taskset, cpro)
            for task_i in taskset:
                for task_j in taskset:
                    assert _gamma(table, crpd, task_i, task_j) == crpd_ref.gamma(
                        task_i, task_j
                    ), (crpd, task_i.name, task_j.name)
                    assert _evictable(
                        table, cpro, task_j, task_i
                    ) == cpro_ref.eviction_count(task_j, task_i), (
                        cpro,
                        task_j.name,
                        task_i.name,
                    )
            gamma = table.gamma_cuts(crpd)
            evictions = table.eviction_cuts(cpro)
            rows = table.rows(crpd, cpro, d_mem)
            multiset_cpro = cpro is CproApproach.MULTISET
            multiset_crpd = crpd is CrpdApproach.ECB_UNION_MULTISET
            assert set(rows) == set(taskset.cores)
            for core, members in table.members.items():
                assert len(rows[core]) == len(members) + 1
                for k, (rows_p, rows_b) in enumerate(rows[core]):
                    assert len(rows_p) == len(rows_b) == len(members)
                    for task, row_p, row_b in zip(members, rows_p, rows_b):
                        g = gamma[task.priority][k]
                        jd = task.md + g
                        expected = (
                            slot[task.priority], g, int(task.period), task.md,
                            task.md_r, len(task.pcbs),
                            evictions[task.priority][k], jd, jd * d_mem,
                        )
                        if multiset_cpro or multiset_crpd:
                            expected += (
                                overlaps[task.priority][k]
                                if multiset_cpro else None,
                                entries[task.priority][k]
                                if multiset_crpd else None,
                            )
                        assert row_p == expected
                        assert row_b == (
                            slot[task.priority], int(task.period), jd, jd * d_mem
                        )


class TestCutTableMatchesReference:
    def test_empty_core(self):
        # Cores 0 and 2 hold tasks, core 1 none: no cut exists for it and
        # no pair may read one.
        tasks = (
            _task("a", 1, core=0, ecbs={1, 2, 3}, ucbs={1, 2}, pcbs={3},
                  period=300),
            _task("b", 2, core=2, ecbs={2, 3, 4}, ucbs={4}, pcbs={2, 3},
                  period=700),
            _task("c", 3, core=0, ecbs={3, 4, 5}, ucbs={3, 5}, pcbs={3, 4}),
            _task("d", 4, core=2, ecbs={1, 2, 5}, ucbs={1, 2}, pcbs={2, 5},
                  period=2500),
        )
        taskset = TaskSet(tasks)
        assert InterferenceTable.shared(taskset).cut[4] == {0: 2, 2: 2}
        _pin_against_reference(taskset)

    def test_single_task_core(self):
        tasks = (
            _task("a", 1, core=0, ecbs={1, 2}, ucbs={1}, pcbs={2}, period=300),
            _task("solo", 2, core=1, ecbs={1, 2, 3}, ucbs={1, 3}, pcbs={1, 2},
                  period=700),
            _task("b", 3, core=0, ecbs={2, 3}, ucbs={2, 3}, pcbs={2, 3}),
            _task("c", 4, core=0, ecbs={1, 3}, ucbs={1}, pcbs={1, 3},
                  period=2500),
        )
        _pin_against_reference(TaskSet(tasks))

    def test_non_contiguous_core_ids(self):
        tasks = (
            _task("a", 1, core=7, ecbs={1, 2, 9}, ucbs={9}, pcbs={1}),
            _task("b", 2, core=0, ecbs={2, 3}, ucbs={2}, pcbs={2, 3}),
            _task("c", 3, core=3, ecbs={1, 9}, ucbs={1, 9}, pcbs={9}),
            _task("d", 4, core=7, ecbs={9, 10}, ucbs={10}, pcbs={9}),
            _task("e", 5, core=0, ecbs={3, 4}, ucbs={3}, pcbs={4}),
            _task("f", 6, core=3, ecbs={2, 10}, ucbs={2}, pcbs={2, 10}),
        )
        _pin_against_reference(TaskSet(tasks))

    def test_indices_beyond_64_and_256(self):
        tasks = (
            _task("a", 1, core=0, ecbs={0, 63, 64, 255, 256}, ucbs={64, 255},
                  pcbs={63}, period=300),
            _task("b", 2, core=1, ecbs={255, 256, 300}, ucbs={256},
                  pcbs={255, 300}, period=700),
            _task("c", 3, core=0, ecbs={63, 256, 1000}, ucbs={63, 1000},
                  pcbs={63, 256}),
            _task("d", 4, core=1, ecbs={64, 300, 1000}, ucbs={300},
                  pcbs={64, 300, 1000}, period=2500),
            _task("e", 5, core=0, ecbs={0, 63, 255, 256, 300},
                  ucbs={0, 256, 300}, pcbs={0, 63, 255, 256}, period=2500),
        )
        _pin_against_reference(TaskSet(tasks))

    def test_empty_ucb_and_pcb_sets(self):
        tasks = (
            _task("a", 1, core=0, ecbs={1, 2, 3}),
            _task("b", 2, core=0, ecbs={2, 3}, ucbs={2}),
            _task("c", 3, core=1, ecbs={1, 3}, pcbs={3}),
            _task("d", 4, core=0, ecbs={3, 4}),
            _task("e", 5, core=1),
        )
        _pin_against_reference(TaskSet(tasks))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_task_sets(self, seed):
        rng = random.Random(seed)
        periods = random.Random(1000 + seed)
        cores = rng.sample([0, 1, 2, 5, 9], rng.randint(1, 4))
        tasks = []
        for priority in range(1, rng.randint(2, 10)):
            ecbs = set(rng.sample(range(320), rng.randint(0, 40)))
            ucbs = set(rng.sample(sorted(ecbs), rng.randint(0, len(ecbs))))
            pcbs = set(rng.sample(sorted(ecbs), rng.randint(0, len(ecbs))))
            tasks.append(
                _task(f"t{priority}", priority, rng.choice(cores), ecbs, ucbs,
                      pcbs, period=periods.choice((300, 700, 1000, 2500)))
            )
        _pin_against_reference(TaskSet(tasks))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_64_set_footprints(self, seed):
        # Footprints covering most of a 64-set cache, with repeated
        # periods: PCBs overlapped by different evictors of equal periods
        # share one overlap row, so the rows merge.
        rng = random.Random(100 + seed)
        tasks = []
        for priority in range(1, 9):
            ecbs = set(rng.sample(range(64), rng.randint(30, 64)))
            tasks.append(
                _task(f"t{priority}", priority, priority % 2, ecbs,
                      set(rng.sample(sorted(ecbs), len(ecbs) // 2)),
                      set(rng.sample(sorted(ecbs), len(ecbs) // 2)),
                      period=rng.choice((300, 1000)))
            )
        taskset = TaskSet(tasks)
        _pin_against_reference(taskset)
        table = InterferenceTable.shared(taskset)
        lowest = tasks[-1]
        rows = table.cpro_multiset_cuts()[lowest.priority][-1]
        assert len(rows) < len(lowest.pcbs)


class TestKernelSelection:
    def test_shared_calculators_keyed_by_approach(self):
        # Both kernels read one frozenset calculator per (task set,
        # approach): the production kernel only its approach, the
        # reference its values.  Sharing one compiles no table.
        taskset = TaskSet((_task("a", 1, ecbs={1}), _task("b", 2, ecbs={2})))
        union = CproCalculator.shared(taskset, CproApproach.UNION)
        assert union is CproCalculator.shared(taskset, CproApproach.UNION)
        assert union is not CproCalculator.shared(taskset, CproApproach.GLOBAL)
        assert union.approach is CproApproach.UNION
        crpd = CrpdCalculator.shared(taskset, CrpdApproach.ECB_UNION)
        assert crpd is CrpdCalculator.shared(taskset, CrpdApproach.ECB_UNION)
        assert crpd is not CrpdCalculator.shared(
            taskset, CrpdApproach.UCB_ONLY
        )
        assert crpd.approach is CrpdApproach.ECB_UNION
        assert "interference-table" not in taskset._derived
        # Nor are the reference's frozenset views built before a
        # reference value is asked for.
        assert "frozen-blocks" not in taskset._derived
        low, high = reversed(taskset)
        assert crpd.gamma(low, high) == 0
        assert "frozen-blocks" in taskset._derived
