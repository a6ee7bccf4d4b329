"""Unit tests for the CRPD bounds (Eq. 2 and ablation variants)."""

import pytest

from repro.crpd.approaches import (
    CrpdApproach,
    CrpdCalculator,
    crpd_ecb_only,
    crpd_ecb_union,
    crpd_ucb_only,
)
from repro.model.interference import InterferenceTable
from repro.model.task import Task, TaskSet


def make_task(name, priority, core=0, ecbs=(), ucbs=(), pcbs=()):
    return Task(
        name=name,
        pd=10,
        md=5,
        period=1000,
        deadline=1000,
        priority=priority,
        core=core,
        ecbs=frozenset(ecbs),
        ucbs=frozenset(ucbs),
        pcbs=frozenset(pcbs),
    )


@pytest.fixture()
def three_tasks():
    """High (t1), middle (t2), low (t3) on core 0."""
    t1 = make_task("t1", 1, ecbs={1, 2, 3, 4}, ucbs={1, 2})
    t2 = make_task("t2", 2, ecbs={3, 4, 5, 6}, ucbs={3, 4, 5})
    t3 = make_task("t3", 3, ecbs={5, 6, 7, 8}, ucbs={5, 6, 7, 8})
    return TaskSet([t1, t2, t3]), t1, t2, t3


class TestEcbUnion:
    def test_affected_task_intersection(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        # Preemption of t3's window by t1: affected = {t2, t3}.
        # ECBs of hep(t1) = {1,2,3,4}.
        # |UCB_2 ∩ {1..4}| = |{3,4}| = 2; |UCB_3 ∩ {1..4}| = 0 -> max = 2.
        assert crpd_ecb_union(taskset, t3, t1) == 2

    def test_union_includes_preempting_task_level(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        # Preemption by t2: evicting union = ECB_1 ∪ ECB_2 = {1..6}.
        # affected = aff(3, 2) = {t3}: |UCB_3 ∩ {1..6}| = |{5,6}| = 2.
        assert crpd_ecb_union(taskset, t3, t2) == 2

    def test_no_affected_tasks_gives_zero(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        # aff(1, 1) is empty: the highest-priority task is never preempted.
        assert crpd_ecb_union(taskset, t1, t1) == 0

    def test_other_core_tasks_ignored(self):
        t1 = make_task("t1", 1, core=0, ecbs={1, 2})
        t2 = make_task("t2", 2, core=1, ecbs={1, 2}, ucbs={1, 2})
        t3 = make_task("t3", 3, core=0, ecbs={1, 2}, ucbs={1, 2})
        taskset = TaskSet([t1, t2, t3])
        # t2 lives on core 1, so only t3 is affected on core 0.
        assert crpd_ecb_union(taskset, t3, t1) == 2

    def test_matches_paper_example(self):
        t1 = make_task("tau1", 1, ecbs={5, 6, 7, 8, 9, 10}, ucbs={5, 6, 7, 8, 10})
        t2 = make_task("tau2", 2, ecbs={1, 2, 3, 4, 5, 6}, ucbs={5, 6})
        taskset = TaskSet([t1, t2])
        assert crpd_ecb_union(taskset, t2, t1) == 2


class TestCoarserBounds:
    def test_ucb_only_ignores_evictions(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        # max |UCB_g| over affected {t2, t3} = |UCB_3| = 4.
        assert crpd_ucb_only(taskset, t3, t1) == 4

    def test_ecb_only_counts_preempter_footprint(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        assert crpd_ecb_only(taskset, t3, t1) == len(t1.ecbs)

    def test_coarse_bounds_dominate_ecb_union(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        for task_i in (t2, t3):
            for task_j in taskset.hp(task_i):
                union = crpd_ecb_union(taskset, task_i, task_j)
                assert crpd_ucb_only(taskset, task_i, task_j) >= union
                assert crpd_ecb_only(taskset, task_i, task_j) >= union

    def test_empty_aff_zero_for_all_variants(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        assert crpd_ucb_only(taskset, t1, t1) == 0
        assert crpd_ecb_only(taskset, t1, t1) == 0


class TestCalculator:
    def test_none_approach_returns_zero(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        calc = CrpdCalculator(taskset, CrpdApproach.NONE)
        assert calc.gamma(t3, t1) == 0

    def test_caches_results(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        calc = CrpdCalculator(taskset)
        first = calc.gamma(t3, t1)
        assert calc.gamma(t3, t1) == first
        assert len(calc._cache) == 1
        # The production kernel reads the same value from the task set's
        # shared cut table: t1's value at t3's cut of core 0.
        table = InterferenceTable.shared(taskset)
        cut = table.cut[t3.priority][t1.core]
        assert table.gamma_cuts(CrpdApproach.ECB_UNION)[t1.priority][cut] == first

    def test_approach_property(self, three_tasks):
        taskset, _, _, _ = three_tasks
        assert CrpdCalculator(taskset).approach is CrpdApproach.ECB_UNION

    def test_matches_direct_function(self, three_tasks):
        taskset, t1, t2, t3 = three_tasks
        calc = CrpdCalculator(taskset, CrpdApproach.ECB_UNION)
        for i in (t2, t3):
            for j in taskset.hp(i):
                assert calc.gamma(i, j) == crpd_ecb_union(taskset, i, j)
