"""Unit tests for the task and task-set model."""

import pickle
import random

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import analyze_taskset
from repro.errors import ModelError
from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.model.blocks import MAX_CACHE_SETS, BlockSet
from repro.model.task import (
    Task,
    TaskSet,
    assign_deadline_monotonic_priorities,
    assign_rate_monotonic_priorities,
)


def make_task(name="t", priority=1, core=0, **overrides):
    defaults = dict(
        pd=100,
        md=10,
        md_r=4,
        period=1000,
        deadline=1000,
        ecbs=frozenset({1, 2, 3}),
        ucbs=frozenset({1, 2}),
        pcbs=frozenset({3}),
    )
    defaults.update(overrides)
    return Task(name=name, priority=priority, core=core, **defaults)


class TestTaskValidation:
    def test_md_r_defaults_to_md(self):
        task = Task(name="t", pd=5, md=7, period=100, deadline=100, priority=1)
        assert task.md_r == 7

    def test_rejects_md_r_above_md(self):
        with pytest.raises(ModelError):
            make_task(md=5, md_r=6)

    def test_rejects_negative_pd(self):
        with pytest.raises(ModelError):
            make_task(pd=-1)

    def test_rejects_negative_md(self):
        with pytest.raises(ModelError):
            make_task(md=-1)

    def test_rejects_deadline_beyond_period(self):
        with pytest.raises(ModelError):
            make_task(period=100, deadline=200)

    def test_rejects_non_positive_period(self):
        with pytest.raises(ModelError):
            make_task(period=0, deadline=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["pd", "md", "period", "deadline"])
    def test_rejects_non_finite_numbers(self, field, value):
        # NaN compares false both ways, so a bare sign check passes it.
        overrides = {field: value}
        if field == "period":
            overrides["deadline"] = 1000
        with pytest.raises(ModelError, match=f"{field} must be .*finite"):
            make_task(**overrides)

    def test_rejects_negative_core(self):
        with pytest.raises(ModelError):
            make_task(core=-1)

    def test_rejects_ucbs_outside_ecbs(self):
        with pytest.raises(ModelError):
            make_task(ucbs=frozenset({99}))

    def test_rejects_pcbs_outside_ecbs(self):
        with pytest.raises(ModelError):
            make_task(pcbs=frozenset({99}))

    def test_rejects_negative_cache_set_index(self):
        with pytest.raises(ModelError, match="non-negative"):
            make_task(
                ecbs=frozenset({-1, 2}), ucbs=frozenset(), pcbs=frozenset()
            )
        # A negative UCB or PCB index lies outside the ECBs.
        with pytest.raises(ModelError):
            make_task(ucbs=frozenset({-1}))

    @pytest.mark.parametrize(
        "index, message",
        [
            (-1, "non-negative"),
            (-(2**70), "non-negative"),
            # Too many digits to format into a message.
            pytest.param(-(10**5000), "non-negative", id="-10**5000"),
            (1.0, "must be ints"),
            (True, "must be ints"),
            ("3", "must be ints"),
            (None, "must be ints"),
            (MAX_CACHE_SETS, "too large to pack"),
            (10**10, "too large to pack"),
            (2**70, "too large to pack"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("label", ["ecbs", "ucbs", "pcbs"])
    def test_unpackable_index_is_a_typed_error(self, label, index, message):
        # Rejected before any shift: 10**10 would be a 1.25 GB mask.
        sets = dict(ecbs=[1, 2, 3], ucbs=[], pcbs=[])
        sets[label] = [2, index] if label == "ecbs" else [index]
        with pytest.raises(ModelError, match=f"^t: .*{message}"):
            make_task(**sets)

    def test_last_packable_index_is_accepted(self):
        last = MAX_CACHE_SETS - 1
        task = make_task(ecbs=[0, last], ucbs=[last], pcbs=[])
        assert task.ecbs.mask == 1 | 1 << last and max(task.ucbs) == last

    def test_whole_run_subsets_may_be_the_ecb_set(self):
        ecbs = frozenset({1, 2, 3})
        task = make_task(ecbs=ecbs, ucbs=ecbs, pcbs=ecbs)
        assert task.ucbs is task.ecbs and task.pcbs is task.ecbs
        # Equal but distinct arguments pack into equal block sets.
        task = make_task(ecbs=ecbs, ucbs=set(ecbs), pcbs=[3, 2, 1])
        assert task.ucbs == task.ecbs == task.pcbs == ecbs

    def test_sets_packed_into_block_sets(self):
        task = make_task(ecbs={1, 2, 3}, ucbs={1}, pcbs={2})
        assert type(task.ecbs) is BlockSet and task.ecbs.mask == 0b1110
        assert type(task.ucbs) is BlockSet and task.ucbs.mask == 0b10
        assert type(task.pcbs) is BlockSet and task.pcbs.mask == 0b100
        # A block set is taken as it is, not packed again.
        packed = BlockSet({1, 2, 3})
        assert make_task(ecbs=packed, ucbs=(), pcbs=()).ecbs is packed


class TestTaskMetrics:
    def test_isolated_wcet(self):
        assert make_task(pd=100, md=10).isolated_wcet(10) == 200

    def test_utilization(self):
        task = make_task(pd=100, md=10, period=400, deadline=400)
        assert task.utilization(10) == pytest.approx(0.5)

    def test_with_helpers(self):
        task = make_task()
        assert task.with_priority(9).priority == 9
        assert task.with_core(3).core == 3
        updated = task.with_timing(2000, 1500)
        assert (updated.period, updated.deadline) == (2000, 1500)

    def test_identity_semantics(self):
        a = make_task(priority=1)
        b = make_task(priority=1)
        assert a != b
        assert len({a, b}) == 2


class TestTaskSet:
    def setup_method(self):
        self.t1 = make_task("t1", priority=1, core=0)
        self.t2 = make_task("t2", priority=2, core=0)
        self.t3 = make_task("t3", priority=3, core=1)
        self.t4 = make_task("t4", priority=4, core=1)
        self.ts = TaskSet([self.t3, self.t1, self.t4, self.t2])

    def test_sorted_by_priority(self):
        assert [t.name for t in self.ts] == ["t1", "t2", "t3", "t4"]

    def test_len_and_getitem(self):
        assert len(self.ts) == 4
        assert self.ts[0] is self.t1

    def test_contains_is_identity_based(self):
        assert self.t1 in self.ts
        assert make_task("t1", priority=9) not in self.ts

    def test_rejects_duplicate_priorities(self):
        with pytest.raises(ModelError):
            TaskSet([make_task("a", priority=1), make_task("b", priority=1)])

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            TaskSet([])

    def test_hp_lp_hep(self):
        assert self.ts.hp(self.t3) == (self.t1, self.t2)
        assert self.ts.lp(self.t3) == (self.t4,)
        assert self.ts.hep(self.t3) == (self.t1, self.t2, self.t3)

    def test_aff(self):
        # aff(4, 1) = hep(4) ∩ lp(1) = {t2, t3, t4}
        assert self.ts.aff(self.t4, self.t1) == (self.t2, self.t3, self.t4)
        # aff(2, 2) is empty (nothing both <= prio 2 and > prio 2).
        assert self.ts.aff(self.t2, self.t2) == ()

    def test_per_core_views(self):
        assert self.ts.on_core(0) == (self.t1, self.t2)
        assert self.ts.on_core(1) == (self.t3, self.t4)
        assert self.ts.on_core(7) == ()
        assert self.ts.hp_on_core(self.t4, 1) == (self.t3,)
        assert self.ts.hep_on_core(self.t4, 0) == (self.t1, self.t2)
        assert self.ts.lp_on_core(self.t1, 1) == (self.t3, self.t4)

    def test_cores_property(self):
        assert self.ts.cores == (0, 1)

    def test_lowest_priority_task(self):
        assert self.ts.lowest_priority_task is self.t4

    def test_relation_rejects_foreign_task(self):
        foreign = make_task("x", priority=99)
        with pytest.raises(ModelError):
            self.ts.hp(foreign)

    def test_utilization_aggregates(self):
        d_mem = 10
        expected_core0 = self.t1.utilization(d_mem) + self.t2.utilization(d_mem)
        assert self.ts.core_utilization(0, d_mem) == pytest.approx(expected_core0)
        assert self.ts.total_utilization(d_mem) == pytest.approx(
            sum(t.utilization(d_mem) for t in self.ts)
        )

    def test_bus_utilization_residual_is_lower(self):
        assert self.ts.bus_utilization(10, residual=True) < self.ts.bus_utilization(10)

    def test_survives_pickling(self):
        # Membership is by id(), so the copy must be rebuilt around the
        # unpickled tasks rather than keep the original ids.
        clone = pickle.loads(pickle.dumps(self.ts))
        assert [t.name for t in clone] == ["t1", "t2", "t3", "t4"]
        assert all(task in clone for task in clone)
        assert self.t1 not in clone
        t1, t2, t3, t4 = clone
        assert clone.hp(t3) == (t1, t2)
        assert clone.on_core(1) == (t3, t4)
        assert clone.aff(t4, t1) == (t2, t3, t4)

    def test_pickled_task_set_analyses_identically(self):
        platform = default_platform()
        taskset = generate_taskset(random.Random(3), platform, 0.5)
        clone = pickle.loads(pickle.dumps(taskset))
        original = analyze_taskset(taskset, platform, AnalysisConfig())
        copied = analyze_taskset(clone, platform, AnalysisConfig())
        assert copied.schedulable == original.schedulable
        assert copied.outer_iterations == original.outer_iterations
        assert [copied.response_times[t] for t in clone] == [
            original.response_times[t] for t in taskset
        ]
        # Whole-run UCB/PCB sets stay the ECB set itself.
        for mine, theirs in zip(taskset, clone):
            assert (theirs.ucbs is theirs.ecbs) == (mine.ucbs is mine.ecbs)
            assert (theirs.pcbs is theirs.ecbs) == (mine.pcbs is mine.ecbs)


class TestPriorityAssignment:
    def test_deadline_monotonic(self):
        short = make_task("short", priority=0, period=500, deadline=500)
        long = make_task("long", priority=0, period=2000, deadline=2000)
        ordered = assign_deadline_monotonic_priorities([long, short])
        by_name = {t.name: t for t in ordered}
        assert by_name["short"].priority < by_name["long"].priority

    def test_rate_monotonic(self):
        fast = make_task("fast", priority=0, period=500, deadline=400)
        slow = make_task("slow", priority=0, period=2000, deadline=300)
        ordered = assign_rate_monotonic_priorities([slow, fast])
        by_name = {t.name: t for t in ordered}
        assert by_name["fast"].priority < by_name["slow"].priority

    def test_priorities_unique_on_ties(self):
        tasks = [make_task(f"t{i}", priority=0) for i in range(5)]
        ordered = assign_deadline_monotonic_priorities(tasks)
        priorities = [t.priority for t in ordered]
        assert sorted(priorities) == [1, 2, 3, 4, 5]

    def test_tie_break_preserves_input_order(self):
        tasks = [make_task(f"t{i}", priority=0) for i in range(3)]
        ordered = assign_deadline_monotonic_priorities(tasks)
        assert [t.name for t in sorted(ordered, key=lambda t: t.priority)] == [
            "t0",
            "t1",
            "t2",
        ]
