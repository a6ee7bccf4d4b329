"""Unit tests for the schedulability predicate and the perfect-bus test."""

import pytest

from repro.analysis.config import BASELINE, PERSISTENCE_AWARE
from repro.analysis.schedulability import (
    check_schedulability,
    is_schedulable,
    residual_bus_check,
)
from repro.analysis.weighted import weighted_schedulability
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet


def make_task(name, priority, core, pd=50, md=5, md_r=None, period=1000):
    return Task(
        name=name,
        pd=pd,
        md=md,
        md_r=md_r,
        period=period,
        deadline=period,
        priority=priority,
        core=core,
    )


class TestQuickRejects:
    def test_overutilised_core_rejected_without_wcrt(self):
        t1 = make_task("a", 1, 0, pd=700, md=10)
        t2 = make_task("b", 2, 0, pd=700, md=10)
        verdict = check_schedulability(
            TaskSet([t1, t2]), Platform(num_cores=1, d_mem=10)
        )
        assert not verdict.schedulable
        assert "utilisation" in verdict.reason
        assert verdict.wcrt is None

    def test_feasible_set_accepted(self):
        t1 = make_task("a", 1, 0)
        t2 = make_task("b", 2, 1)
        platform = Platform(num_cores=2, d_mem=10)
        verdict = check_schedulability(TaskSet([t1, t2]), platform)
        assert verdict.schedulable
        assert verdict.wcrt is not None


class TestPerfectBus:
    def test_bus_saturation_rejected(self):
        # Each core is fine on its own (utilisation 0.91) but the four
        # cores' residual demands add up to 3.6 on the shared bus.
        tasks = [
            make_task(f"t{i}", i, i - 1, pd=10, md=90, md_r=90, period=1000)
            for i in range(1, 5)
        ]
        platform = Platform(num_cores=4, d_mem=10, bus_policy=BusPolicy.PERFECT)
        verdict = check_schedulability(TaskSet(tasks), platform)
        assert not verdict.schedulable
        assert verdict.bus_utilization is not None
        assert verdict.bus_utilization > 1.0

    def test_light_set_accepted_with_bus_utilisation_reported(self):
        tasks = [make_task("a", 1, 0), make_task("b", 2, 1)]
        platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.PERFECT)
        verdict = check_schedulability(TaskSet(tasks), platform)
        assert verdict.schedulable
        assert 0 <= verdict.bus_utilization <= 1

    def test_residual_bus_check_is_the_perfect_bus_precheck(self):
        saturated = TaskSet([
            make_task(f"t{i}", i, i - 1, pd=10, md=90, md_r=90, period=1000)
            for i in range(1, 5)
        ])
        light = TaskSet([make_task("a", 1, 0), make_task("b", 2, 1)])
        platform = Platform(num_cores=4, d_mem=10, bus_policy=BusPolicy.PERFECT)
        overloaded = residual_bus_check(saturated, platform.d_mem)
        assert overloaded == check_schedulability(saturated, platform)
        assert overloaded.bus_utilization == pytest.approx(3.6)
        fits = residual_bus_check(light, platform.d_mem)
        assert fits.schedulable and fits.wcrt is None
        full = check_schedulability(light, platform)
        assert full.bus_utilization == fits.bus_utilization
        # Residual demand: MDr, not MD, is charged to the bus.
        persistent = TaskSet([
            make_task(f"t{i}", i, i - 1, pd=10, md=90, md_r=10, period=1000)
            for i in range(1, 5)
        ])
        assert residual_bus_check(persistent, 10).schedulable

    def test_perfect_dominates_real_arbiters(self):
        tasks = [
            make_task(f"t{i}", i, i % 2, pd=100, md=30, md_r=5, period=1500)
            for i in range(1, 7)
        ]
        taskset = TaskSet(tasks)
        base = Platform(num_cores=2, d_mem=10)
        for policy in (BusPolicy.FP, BusPolicy.RR, BusPolicy.TDMA):
            real = is_schedulable(taskset, base.with_bus_policy(policy))
            perfect = is_schedulable(
                taskset, base.with_bus_policy(BusPolicy.PERFECT)
            )
            assert perfect or not real


class TestPersistenceDominance:
    def test_baseline_schedulable_implies_persistence_schedulable(self):
        # The persistence-aware bound is pointwise <= the baseline bound, so
        # schedulability verdicts must be ordered.
        tasks = [
            make_task(f"t{i}", i, i % 2, pd=80, md=25, md_r=4, period=1400)
            for i in range(1, 9)
        ]
        taskset = TaskSet(tasks)
        for policy in (BusPolicy.FP, BusPolicy.RR, BusPolicy.TDMA):
            platform = Platform(num_cores=2, d_mem=10, bus_policy=policy)
            if is_schedulable(taskset, platform, BASELINE):
                assert is_schedulable(taskset, platform, PERSISTENCE_AWARE)


class TestWeightedMeasure:
    def test_all_schedulable(self):
        assert weighted_schedulability([(1.0, True), (2.0, True)]) == 1.0

    def test_none_schedulable(self):
        assert weighted_schedulability([(1.0, False), (2.0, False)]) == 0.0

    def test_weighting_emphasises_heavy_sets(self):
        # A heavy schedulable set outweighs a light unschedulable one.
        assert weighted_schedulability([(3.0, True), (1.0, False)]) == 0.75

    def test_rejects_empty(self):
        with pytest.raises(AnalysisError):
            weighted_schedulability([])

    def test_rejects_negative_weight(self):
        with pytest.raises(AnalysisError):
            weighted_schedulability([(-1.0, True)])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(AnalysisError):
            weighted_schedulability([(0.0, True)])
