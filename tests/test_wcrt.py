"""Unit tests for the WCRT fixed point (Eq. 19) and its outer loop."""

import random

import pytest

from repro.analysis.config import AnalysisConfig, BASELINE, PERSISTENCE_AWARE
from repro.analysis.schedulability import check_schedulability
from repro.analysis.wcrt import analyze_taskset, coarse_bound
from repro.budget import Budget
from repro.errors import AnalysisError, BudgetExceeded
from repro.experiments.config import default_platform
from repro.generation.taskset_gen import generate_taskset
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet


def make_task(name, priority, core, pd=50, md=5, md_r=None, period=1000,
              deadline=None, ecbs=(), ucbs=(), pcbs=()):
    return Task(
        name=name,
        pd=pd,
        md=md,
        md_r=md_r,
        period=period,
        deadline=deadline if deadline is not None else period,
        priority=priority,
        core=core,
        ecbs=frozenset(ecbs),
        ucbs=frozenset(ucbs),
        pcbs=frozenset(pcbs),
    )


def single_task_platform(policy=BusPolicy.FP, cores=1):
    return Platform(num_cores=cores, d_mem=10, bus_policy=policy)


class TestSingleTask:
    def test_isolated_wcrt_is_exact(self):
        task = make_task("solo", 1, 0, pd=50, md=5)
        result = analyze_taskset(TaskSet([task]), single_task_platform())
        assert result.schedulable
        # Alone in the system: R = PD + MD*d_mem, no blocking term.
        assert result.response_time(task) == 50 + 5 * 10

    def test_tight_deadline_fails(self):
        task = make_task("solo", 1, 0, pd=50, md=5, period=1000, deadline=99)
        result = analyze_taskset(TaskSet([task]), single_task_platform())
        assert not result.schedulable
        assert result.failed_task is task

    def test_deadline_equal_to_wcrt_passes(self):
        task = make_task("solo", 1, 0, pd=50, md=5, period=1000, deadline=100)
        result = analyze_taskset(TaskSet([task]), single_task_platform())
        assert result.schedulable


class TestSameCoreInterference:
    def test_classic_response_time_with_memory(self):
        # Two tasks, one core, perfect bus: the textbook recurrence.
        t1 = make_task("hp", 1, 0, pd=20, md=2, period=100)
        t2 = make_task("lp", 2, 0, pd=30, md=3, period=300)
        platform = single_task_platform(BusPolicy.PERFECT)
        result = analyze_taskset(TaskSet([t1, t2]), platform)
        assert result.schedulable
        assert result.response_time(t1) == 20 + 2 * 10
        # R2 = 30 + ceil(R2/100)*20 + (3 + ceil(R2/100)*2)*10:
        # try R2 = 30 + 20 + 50 = 100 -> ceil(100/100)=1 -> 100. Fixed point.
        assert result.response_time(t2) == 100

    def test_crpd_included(self):
        t1 = make_task("hp", 1, 0, pd=20, md=2, period=100,
                       ecbs={0, 1, 2, 3})
        t2 = make_task("lp", 2, 0, pd=30, md=3, period=300,
                       ecbs={0, 1}, ucbs={0, 1})
        platform = single_task_platform(BusPolicy.PERFECT)
        result = analyze_taskset(TaskSet([t1, t2]), platform)
        # gamma_{2,1} = |UCB_2 ∩ ECB_1| = 2 extra accesses per preemption.
        # R2 = 30 + ceil(R2/100)*20 + (3 + ceil(R2/100)*(2+2))*10 has its
        # least fixed point at 180 (two hp jobs, each charged CRPD).
        assert result.response_time(t2) == 180
        # Without the UCB overlap the fixed point drops back to 100.
        no_overlap = make_task("lp", 2, 0, pd=30, md=3, period=300,
                               ecbs={8, 9}, ucbs={8, 9})
        result2 = analyze_taskset(TaskSet([t1, no_overlap]), platform)
        assert result2.response_time(no_overlap) == 100

    def test_persistence_tightens_response_time(self):
        t1 = make_task("hp", 1, 0, pd=10, md=5, md_r=1, period=80,
                       ecbs=frozenset(range(5)), pcbs=frozenset(range(5)))
        t2 = make_task("lp", 2, 0, pd=100, md=5, period=2000)
        platform = single_task_platform(BusPolicy.PERFECT)
        taskset = TaskSet([t1, t2])
        aware = analyze_taskset(taskset, platform, PERSISTENCE_AWARE)
        baseline = analyze_taskset(taskset, platform, BASELINE)
        assert aware.schedulable and baseline.schedulable
        assert aware.response_time(t2) < baseline.response_time(t2)


class TestCrossCoreInterference:
    def test_remote_traffic_delays_on_fp_bus(self):
        t1 = make_task("local", 1, 0, pd=50, md=5, period=1000)
        t2 = make_task("remote", 2, 1, pd=50, md=20, period=300)
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        both = analyze_taskset(TaskSet([t1, t2]), platform)
        alone = analyze_taskset(TaskSet([t1]), platform)
        assert both.schedulable and alone.schedulable
        # t2's lower-priority accesses block t1 (the min(BAS, BAO_low) term
        # of Eq. 7), so t1's WCRT grows but by at most one blocking access
        # per own access.
        assert both.response_time(t1) > alone.response_time(t1)
        # t1's higher-priority traffic delays the remote t2.
        t2_solo = make_task("remote", 1, 1, pd=50, md=20, period=300)
        solo = analyze_taskset(TaskSet([t2_solo]), platform)
        assert both.response_time(t2) > solo.response_time(t2_solo)

    def test_outer_loop_reaches_fixed_point(self):
        tasks = [
            make_task(f"t{i}", i, i % 2, pd=30, md=4, period=500 + 100 * i)
            for i in range(1, 7)
        ]
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        result = analyze_taskset(TaskSet(tasks), platform)
        assert result.schedulable
        assert result.outer_iterations >= 1


class TestTasksOnMissingCores:
    """A task on a core the platform lacks is rejected, not analysed."""

    @pytest.mark.parametrize("policy", list(BusPolicy))
    @pytest.mark.parametrize(
        "entry",
        [analyze_taskset, check_schedulability, coarse_bound],
        ids=lambda entry: entry.__name__,
    )
    def test_every_entry_point_raises(self, entry, policy):
        tasks = TaskSet([
            make_task("a", 1, 0, period=400),
            make_task("b", 2, 1, period=400),
            make_task("c", 3, 5, period=400),
        ])
        platform = Platform(num_cores=2, d_mem=10, bus_policy=policy)
        with pytest.raises(AnalysisError, match="c: core 5 is not one"):
            entry(tasks, platform)


class TestUnschedulableDetection:
    def test_overloaded_core_fails(self):
        t1 = make_task("a", 1, 0, pd=600, md=10, period=1000)
        t2 = make_task("b", 2, 0, pd=600, md=10, period=1000)
        platform = single_task_platform(BusPolicy.PERFECT)
        result = analyze_taskset(TaskSet([t1, t2]), platform)
        assert not result.schedulable
        assert result.failed_task is t2

    def test_failed_task_estimate_exceeds_deadline(self):
        t1 = make_task("a", 1, 0, pd=600, md=10, period=1000)
        t2 = make_task("b", 2, 0, pd=600, md=10, period=1000)
        result = analyze_taskset(TaskSet([t1, t2]), single_task_platform(BusPolicy.PERFECT))
        assert result.response_times[t2] > t2.deadline

    def test_isolated_overrun_shortcircuits(self):
        task = make_task("fat", 1, 0, pd=50, md=500, period=1000, deadline=1000)
        result = analyze_taskset(TaskSet([task]), single_task_platform())
        assert not result.schedulable
        assert result.outer_iterations == 0


class TestBoundsMonotonicity:
    def test_persistence_wcrt_never_worse(self):
        tasks = [
            make_task(
                f"t{i}",
                i,
                i % 2,
                pd=40,
                md=12,
                md_r=3,
                period=600 + 150 * i,
                ecbs=frozenset(range(12)),
                ucbs=frozenset(range(6)),
                pcbs=frozenset(range(6, 12)),
            )
            for i in range(1, 7)
        ]
        taskset = TaskSet(tasks)
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.RR)
        aware = analyze_taskset(taskset, platform, PERSISTENCE_AWARE)
        baseline = analyze_taskset(taskset, platform, BASELINE)
        if aware.schedulable and baseline.schedulable:
            for task in taskset:
                assert aware.response_time(task) <= baseline.response_time(task)
        else:
            # Persistence awareness can only help.
            assert aware.schedulable or not baseline.schedulable

    def test_config_validation(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(max_outer_iterations=0)
        with pytest.raises(AnalysisError):
            AnalysisConfig(max_inner_iterations=-1)


class TestConfigHelpers:
    def test_with_persistence_toggle(self):
        from repro.analysis.config import PERSISTENCE_AWARE

        toggled = PERSISTENCE_AWARE.with_persistence(False)
        assert toggled.persistence is False
        # Every other knob is preserved.
        assert toggled.crpd_approach is PERSISTENCE_AWARE.crpd_approach
        assert toggled.cpro_approach is PERSISTENCE_AWARE.cpro_approach
        assert PERSISTENCE_AWARE.persistence is True  # original untouched

    def test_paper_configs_differ_only_in_persistence(self):
        from dataclasses import asdict

        from repro.analysis.config import BASELINE, PERSISTENCE_AWARE

        aware = asdict(PERSISTENCE_AWARE)
        base = asdict(BASELINE)
        aware.pop("persistence")
        base.pop("persistence")
        assert aware == base


class TestIterationBudgets:
    def test_inner_budget_exhaustion_raises(self):
        from repro.errors import ConvergenceError

        # A task needing several refinement steps with a budget of one.
        t1 = make_task("hp", 1, 0, pd=20, md=2, period=100)
        t2 = make_task("lp", 2, 0, pd=30, md=3, period=300)
        config = AnalysisConfig(max_inner_iterations=1)
        with pytest.raises(ConvergenceError):
            analyze_taskset(
                TaskSet([t1, t2]), single_task_platform(BusPolicy.PERFECT), config
            )

    def test_outer_budget_exhaustion_is_conservative(self):
        # Cross-core coupling needs a couple of outer rounds; with a budget
        # of one round the analysis must answer "unschedulable" rather than
        # raise or return an unstable fixed point.
        tasks = [
            make_task(f"t{i}", i, i % 2, pd=30, md=8, period=400 + 50 * i)
            for i in range(1, 7)
        ]
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.FP)
        generous = analyze_taskset(TaskSet(tasks), platform)
        strict = analyze_taskset(
            TaskSet(tasks), platform, AnalysisConfig(max_outer_iterations=1)
        )
        if generous.schedulable and generous.outer_iterations > 1:
            assert not strict.schedulable
            assert strict.failed_task is None
        else:
            # Budget was never the binding constraint here; both agree.
            assert strict.schedulable == generous.schedulable


class TestNoReferenceCycles:
    """An analysis leaves no cyclic garbage behind, on any kernel path.

    Sweeps pause the cyclic collector around each sample's variant loop,
    so whatever an analysis allocates must be freed by reference counting.
    """

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(array_kernel=False),
            dict(memoization=False, bitset_kernel=False, array_kernel=False,
                 warm_start=False),
        ],
        ids=["fused", "per-term", "reference"],
    )
    @pytest.mark.parametrize("policy", list(BusPolicy))
    def test_analysis_leaves_nothing_for_the_collector(self, overrides, policy):
        import gc

        platform = default_platform().with_bus_policy(policy)
        config = AnalysisConfig(**overrides)
        gc.collect()
        gc.disable()
        try:
            for seed in range(3):
                taskset = generate_taskset(random.Random(seed), platform, 0.45)
                analyze_taskset(taskset, platform, config)
                del taskset
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCoarseBound:
    """The brownout's single-outer-round sufficient test."""

    @pytest.fixture(scope="class")
    def platform(self):
        return default_platform()

    @pytest.fixture(scope="class")
    def taskset(self, platform):
        return generate_taskset(random.Random(5), platform, 0.3)

    def test_dominates_the_exact_analysis(self, taskset, platform):
        exact = analyze_taskset(taskset, platform)
        coarse = coarse_bound(taskset, platform)
        if coarse.schedulable:
            # A coarse "schedulable" verdict is sound: the exact analysis
            # agrees and its bounds are pointwise tighter.
            assert exact.schedulable
            for task, bound in exact.response_times.items():
                assert coarse.response_times[task] >= bound

    def test_dominates_the_baseline_analysis(self, taskset, platform):
        # Each resting value of the frozen-context round bounds the
        # baseline's exact fixed point from above.
        baseline = analyze_taskset(taskset, platform, BASELINE)
        coarse = coarse_bound(taskset, platform, BASELINE)
        assert baseline.schedulable and coarse.schedulable
        for task, bound in baseline.response_times.items():
            assert coarse.response_times[task] >= bound

    def test_runs_one_outer_round(self, taskset, platform):
        coarse = coarse_bound(taskset, platform)
        assert coarse.outer_iterations <= 1

    def test_conservative_failure_has_no_failed_task(self, platform):
        # Build an overloaded set the coarse bound cannot prove
        # schedulable; its negative verdict must use the conservative
        # shape (failed_task=None) unless the overrun is the exact
        # isolated-WCET case.
        taskset = generate_taskset(random.Random(11), platform, 0.95)
        coarse = coarse_bound(taskset, platform)
        if not coarse.schedulable and coarse.failed_task is not None:
            # failed_task set = an exact negative: isolated WCET alone
            # overruns, which the full analysis would report identically.
            exact = analyze_taskset(taskset, platform)
            assert not exact.schedulable

    def test_respects_its_budget(self, taskset, platform):
        with pytest.raises(BudgetExceeded):
            coarse_bound(
                taskset,
                platform,
                budget=Budget(max_iterations=1).start(),
            )
