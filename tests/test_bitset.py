"""Unit tests of the packed-bitmask interference table.

The bitmask kernel (:mod:`repro.model.interference`) must agree with the
``frozenset`` reference path on *every* input, including the edges where a
packed-integer implementation classically goes wrong: empty block sets,
cache-set indices crossing the 64-bit word boundary, and degenerate task
groups (a core with a single task has nobody to evict anything).  The
broad differential grids live in ``tests/test_differential.py``; this file
pins the edge cases down directly at the table level.
"""

import random

import pytest

from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.errors import ModelError
from repro.model.interference import (
    InterferenceTable,
    blocks_to_mask,
    mask_to_blocks,
)
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import (
    CproApproach,
    CproCalculator,
    cpro_eviction_count_global,
    cpro_eviction_count_union,
    evicting_ecb_union,
)


def _task(name, priority, core=0, ecbs=(), ucbs=(), pcbs=()):
    return Task(
        name=name,
        pd=100,
        md=10,
        md_r=5,
        period=1000,
        deadline=1000,
        priority=priority,
        core=core,
        ecbs=frozenset(ecbs),
        ucbs=frozenset(ucbs),
        pcbs=frozenset(pcbs),
    )


class TestMaskPacking:
    def test_round_trip_small_indices(self):
        blocks = frozenset({0, 3, 17})
        assert mask_to_blocks(blocks_to_mask(blocks)) == blocks

    def test_empty_set_packs_to_zero(self):
        assert blocks_to_mask(()) == 0
        assert mask_to_blocks(0) == frozenset()

    def test_word_boundary_indices(self):
        # Indices straddling the 64-bit limb boundary and far beyond it:
        # Python ints have no word size, so nothing special may happen.
        blocks = frozenset({0, 63, 64, 127, 128, 1000})
        mask = blocks_to_mask(blocks)
        assert mask.bit_count() == len(blocks)
        assert mask_to_blocks(mask) == blocks

    def test_intersection_cardinality_across_words(self):
        a = blocks_to_mask({63, 64, 65, 500})
        b = blocks_to_mask({64, 500, 501})
        assert (a & b).bit_count() == len(
            frozenset({63, 64, 65, 500}) & frozenset({64, 500, 501})
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ModelError):
            blocks_to_mask({1, -1})


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
            bitset = CproCalculator(taskset, approach, bitset=True)
            reference = CproCalculator(taskset, approach, bitset=False)
            assert bitset.eviction_count(c, a) == reference.eviction_count(c, a)
            assert bitset.eviction_count(c, a) == 0

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
        assert table.pcb_mask[3] == blocks_to_mask({5})
        a, _, c = tasks
        assert table.eviction_cuts(CproApproach.UNION)[3] == (0, 0, 0, 0)
        for approach in CproApproach:
            bitset = CproCalculator(taskset, approach, bitset=True)
            reference = CproCalculator(taskset, approach, bitset=False)
            assert bitset.eviction_count(c, a) == reference.eviction_count(c, a)
            assert bitset.eviction_count(c, a) == 0

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
        for task_j in tasks:
            for task_i in tasks:
                if task_j is task_i:
                    continue
                bitset = CproCalculator(taskset, CproApproach.UNION, bitset=True)
                assert bitset.eviction_count(
                    task_j, task_i
                ) == cpro_eviction_count_union(taskset, task_j, task_i)
                coarse = CproCalculator(
                    taskset, CproApproach.GLOBAL, bitset=True
                )
                assert coarse.eviction_count(
                    task_j, task_i
                ) == cpro_eviction_count_global(taskset, task_j, task_i)
        crpd_bit = CrpdCalculator(taskset, CrpdApproach.ECB_UNION, bitset=True)
        crpd_ref = CrpdCalculator(taskset, CrpdApproach.ECB_UNION, bitset=False)
        assert crpd_bit.gamma(lo, hi) == crpd_ref.gamma(lo, hi)
        assert crpd_bit.gamma(lo, mid) == crpd_ref.gamma(lo, mid)

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
            calculator = CproCalculator(taskset, approach, bitset=True)
            assert calculator.eviction_count(solo0, solo0) == 0
            assert calculator.rho(solo0, solo0, 5) == 0

    def test_shared_table_is_built_once_per_taskset(self):
        taskset = TaskSet((_task("a", 1, ecbs={1}), _task("b", 2, ecbs={2})))
        first = InterferenceTable.shared(taskset)
        second = InterferenceTable.shared(taskset)
        assert first is second

    def test_evicting_union_helper_matches_manual_fold(self):
        tasks = (_task("a", 1, ecbs={1, 64}), _task("b", 2, ecbs={64, 200}))
        assert evicting_ecb_union(tasks) == frozenset({1, 64, 200})
        assert evicting_ecb_union(()) == frozenset()


def _pin_against_reference(taskset, d_mem=7):
    """Every approach pair: table values == ``frozenset`` reference values.

    For all 5 x 4 CRPD/CPRO approach pairs and every (tau_i, tau_j) pair
    the bitmask calculators, which answer from the task set's cut table,
    must return the ``bitset_kernel=False`` values; the fused rows must
    hold exactly the table's values at every cut of every core.
    """
    table = InterferenceTable.shared(taskset)
    slot = {task.priority: index for index, task in enumerate(taskset)}
    for crpd in CrpdApproach:
        for cpro in CproApproach:
            crpd_bit = CrpdCalculator(taskset, crpd, bitset=True)
            crpd_ref = CrpdCalculator(taskset, crpd, bitset=False)
            cpro_bit = CproCalculator(taskset, cpro, bitset=True)
            cpro_ref = CproCalculator(taskset, cpro, bitset=False)
            for task_i in taskset:
                for task_j in taskset:
                    assert crpd_bit.gamma(task_i, task_j) == crpd_ref.gamma(
                        task_i, task_j
                    ), (crpd, task_i.name, task_j.name)
                    assert cpro_bit.eviction_count(
                        task_j, task_i
                    ) == cpro_ref.eviction_count(task_j, task_i), (
                        cpro,
                        task_j.name,
                        task_i.name,
                    )
            assert not crpd_bit._cache and not cpro_bit._cache
            gamma = table.gamma_cuts(crpd)
            evictions = table.eviction_cuts(cpro)
            rows = table.rows(crpd, cpro, d_mem)
            assert set(rows) == set(taskset.cores)
            for core, members in table.members.items():
                assert len(rows[core]) == len(members) + 1
                for k, (rows_p, rows_b) in enumerate(rows[core]):
                    assert len(rows_p) == len(rows_b) == len(members)
                    for task, row_p, row_b in zip(members, rows_p, rows_b):
                        g = gamma[task.priority][k]
                        jd = task.md + g
                        assert row_p == (
                            slot[task.priority], g, int(task.period), task.md,
                            task.md_r, len(task.pcbs),
                            evictions[task.priority][k], jd, jd * d_mem,
                        )
                        assert row_b == (
                            slot[task.priority], int(task.period), jd, jd * d_mem
                        )


class TestCutTableMatchesReference:
    def test_empty_core(self):
        # Cores 0 and 2 hold tasks, core 1 none: no cut exists for it and
        # no pair may read one.
        tasks = (
            _task("a", 1, core=0, ecbs={1, 2, 3}, ucbs={1, 2}, pcbs={3}),
            _task("b", 2, core=2, ecbs={2, 3, 4}, ucbs={4}, pcbs={2, 3}),
            _task("c", 3, core=0, ecbs={3, 4, 5}, ucbs={3, 5}, pcbs={4}),
            _task("d", 4, core=2, ecbs={1, 5}, ucbs={1}, pcbs={5}),
        )
        taskset = TaskSet(tasks)
        assert InterferenceTable.shared(taskset).cut[4] == {0: 2, 2: 2}
        _pin_against_reference(taskset)

    def test_single_task_core(self):
        tasks = (
            _task("a", 1, core=0, ecbs={1, 2}, ucbs={1}, pcbs={2}),
            _task("solo", 2, core=1, ecbs={1, 2, 3}, ucbs={1, 3}, pcbs={1, 2}),
            _task("b", 3, core=0, ecbs={2, 3}, ucbs={2, 3}, pcbs={3}),
            _task("c", 4, core=0, ecbs={1, 3}, ucbs={1}, pcbs={1}),
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
            _task("a", 1, core=0, ecbs={0, 63, 64, 255}, ucbs={64, 255},
                  pcbs={63}),
            _task("b", 2, core=1, ecbs={255, 256, 300}, ucbs={256},
                  pcbs={255, 300}),
            _task("c", 3, core=0, ecbs={63, 256, 1000}, ucbs={63, 1000},
                  pcbs={256}),
            _task("d", 4, core=1, ecbs={64, 300, 1000}, ucbs={300},
                  pcbs={64, 1000}),
            _task("e", 5, core=0, ecbs={0, 255, 300}, ucbs={0, 300},
                  pcbs={255}),
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
        cores = rng.sample([0, 1, 2, 5, 9], rng.randint(1, 4))
        tasks = []
        for priority in range(1, rng.randint(2, 10)):
            ecbs = set(rng.sample(range(320), rng.randint(0, 40)))
            ucbs = set(rng.sample(sorted(ecbs), rng.randint(0, len(ecbs))))
            pcbs = set(rng.sample(sorted(ecbs), rng.randint(0, len(ecbs))))
            tasks.append(
                _task(f"t{priority}", priority, rng.choice(cores), ecbs, ucbs,
                      pcbs)
            )
        _pin_against_reference(TaskSet(tasks))


class TestKernelSelection:
    def test_shared_calculators_keyed_by_kernel(self):
        # The two kernels must not share cache state: a bitset calculator
        # and a reference calculator for the same approach are distinct.
        taskset = TaskSet((_task("a", 1, ecbs={1}), _task("b", 2, ecbs={2})))
        bit = CproCalculator.shared(taskset, CproApproach.UNION, bitset=True)
        ref = CproCalculator.shared(taskset, CproApproach.UNION, bitset=False)
        assert bit is not ref
        assert bit.bitset and not ref.bitset
        assert bit is CproCalculator.shared(
            taskset, CproApproach.UNION, bitset=True
        )
        crpd_bit = CrpdCalculator.shared(
            taskset, CrpdApproach.ECB_UNION, bitset=True
        )
        crpd_ref = CrpdCalculator.shared(
            taskset, CrpdApproach.ECB_UNION, bitset=False
        )
        assert crpd_bit is not crpd_ref
