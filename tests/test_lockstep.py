"""Tests of the lockstep multi-sample WCRT engine.

The engine's one obligation is *bit-identity*: a batch of lanes must
return exactly what the scalar path (``AnalysisConfig(lockstep_kernel=
False)``) returns for the same task sets, one at a time — same verdicts,
same response times, same outer-iteration counts, same exception classes
and messages — with numpy importable and absent.  The broad randomized
equivalences live in ``tests/test_differential.py`` and the
``lockstep-identity`` fuzz oracle; this file pins the engine's edge cases
and counters.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis import lockstep as lockstep_mod
from repro.analysis.config import AnalysisConfig
from repro.analysis.lockstep import LaneOutcome, analyze_taskset_batch
from repro.analysis.wcrt import WarmHint, analyze_taskset
from repro.budget import Budget
from repro.errors import AnalysisAborted, AnalysisError, BudgetExceeded
from repro.experiments.config import default_platform
from repro.generation.taskset_gen import generate_taskset
from repro.model.task import Task, TaskSet
from repro.perf import PerfCounters

SCALAR = AnalysisConfig(lockstep_kernel=False)
LOCKSTEP = AnalysisConfig(lockstep_kernel=True)


def _tasksets(seeds, utilization=0.45, platform=None):
    platform = platform or default_platform()
    return [
        generate_taskset(random.Random(seed), platform, utilization)
        for seed in seeds
    ]


def _scalar_reference(tasksets, platform, config=SCALAR):
    """The sequence of scalar outcomes the batch must reproduce."""
    outcomes = []
    for taskset in tasksets:
        try:
            outcomes.append(
                LaneOutcome(result=analyze_taskset(taskset, platform, config))
            )
        except Exception as error:  # noqa: BLE001 — mirrored comparison
            outcomes.append(LaneOutcome(error=error))
    return outcomes


def _snapshot(result):
    """Object-independent projection of a :class:`WcrtResult`.

    ``Task`` compares by identity, so results over *distinct* (equal)
    generated task sets are compared through priority-keyed maps.
    """
    return (
        result.schedulable,
        result.outer_iterations,
        None if result.failed_task is None else result.failed_task.priority,
        {task.priority: r for task, r in result.response_times.items()},
    )


def _assert_outcomes_match(batch, reference):
    assert len(batch) == len(reference)
    for got, want in zip(batch, reference):
        if want.error is not None:
            assert got.error is not None
            assert type(got.error) is type(want.error)
            assert str(got.error) == str(want.error)
        else:
            assert got.error is None
            assert _snapshot(got.result) == _snapshot(want.result)


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("utilization", [0.2, 0.45, 0.65, 0.85])
    def test_mixed_batch_identical(self, utilization):
        platform = default_platform()
        tasksets = _tasksets(range(6), utilization)
        batch = analyze_taskset_batch(tasksets, platform, LOCKSTEP)
        reference = _scalar_reference(
            _tasksets(range(6), utilization), platform
        )
        _assert_outcomes_match(batch, reference)

    def test_numpy_absent_fallback_identical(self, monkeypatch):
        monkeypatch.setattr(lockstep_mod, "_np", None)
        monkeypatch.setattr(lockstep_mod, "_ARRAY_KERNEL_WARNED", True)
        platform = default_platform()
        perf = PerfCounters()
        batch = analyze_taskset_batch(
            _tasksets(range(4), 0.55), platform, LOCKSTEP, perf=perf
        )
        reference = _scalar_reference(_tasksets(range(4), 0.55), platform)
        _assert_outcomes_match(batch, reference)
        assert perf.array_kernel_unavailable >= 1

    def test_numpy_absent_warns_once(self, monkeypatch):
        monkeypatch.setattr(lockstep_mod, "_np", None)
        monkeypatch.setattr(lockstep_mod, "_ARRAY_KERNEL_WARNED", False)
        platform = default_platform()
        with pytest.warns(RuntimeWarning, match="pure-Python fallback"):
            analyze_taskset_batch(_tasksets((0, 1), 0.4), platform, LOCKSTEP)
        # The second batch of the same process must stay silent.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analyze_taskset_batch(_tasksets((2, 3), 0.4), platform, LOCKSTEP)

    def test_disabled_kernel_runs_scalar_per_lane(self):
        platform = default_platform()
        perf = PerfCounters()
        batch = analyze_taskset_batch(
            _tasksets((1, 2), 0.4), platform, SCALAR, perf=perf
        )
        reference = _scalar_reference(_tasksets((1, 2), 0.4), platform)
        _assert_outcomes_match(batch, reference)
        assert perf.lockstep_batches == 0
        assert perf.lane_retirements == 0

    def test_warm_hints_stay_invisible(self):
        platform = default_platform()
        config = replace(LOCKSTEP, warm_start=True)
        donors = analyze_taskset_batch(
            _tasksets(range(3), 0.3), platform, config
        )
        hints = [
            WarmHint(
                response_times={
                    task.priority: value
                    for task, value in outcome.result.response_times.items()
                },
                outer_iterations=outcome.result.outer_iterations,
            )
            if outcome.ok and outcome.result.schedulable
            else None
            for outcome in donors
        ]
        hinted = analyze_taskset_batch(
            _tasksets(range(3), 0.3), platform, config, warm_hints=hints
        )
        reference = _scalar_reference(
            _tasksets(range(3), 0.3),
            platform,
            replace(SCALAR, warm_start=True),
        )
        _assert_outcomes_match(hinted, reference)


class TestLaneEdgeCases:
    def test_single_task_lanes(self):
        platform = default_platform()
        tasksets = [
            TaskSet([next(iter(taskset))])
            for taskset in _tasksets(range(4), 0.5)
        ]
        clones = [TaskSet(list(taskset)) for taskset in tasksets]
        batch = analyze_taskset_batch(tasksets, platform, LOCKSTEP)
        reference = _scalar_reference(clones, platform)
        _assert_outcomes_match(batch, reference)

    def test_lane_retired_on_iteration_zero(self):
        # One lane's task overruns its deadline contention-free, so the
        # isolated-WCET precheck retires it before any lockstep step; the
        # healthy co-scheduled lanes must be untouched.
        platform = default_platform()
        doomed = TaskSet(
            [
                Task(
                    name="doomed",
                    pd=500,
                    md=100,
                    md_r=50,
                    period=1_000,
                    deadline=600,
                    priority=1,
                )
            ]
        )
        healthy = _tasksets((5, 6), 0.3)
        batch = analyze_taskset_batch(
            [doomed, *healthy], platform, LOCKSTEP
        )
        assert batch[0].ok
        assert not batch[0].result.schedulable
        assert batch[0].result.failed_task.name == "doomed"
        assert batch[0].result.outer_iterations == 0
        reference = _scalar_reference(
            [TaskSet(list(doomed)), *_tasksets((5, 6), 0.3)], platform
        )
        _assert_outcomes_match(batch, reference)

    def test_batch_of_one_uses_scalar_path(self):
        platform = default_platform()
        perf = PerfCounters()
        (outcome,) = analyze_taskset_batch(
            _tasksets((3,), 0.4), platform, LOCKSTEP, perf=perf
        )
        assert outcome.ok
        assert perf.lockstep_batches == 0
        assert _snapshot(outcome.result) == _snapshot(
            analyze_taskset(_tasksets((3,), 0.4)[0], platform, SCALAR)
        )

    def test_empty_batch(self):
        assert analyze_taskset_batch([], default_platform(), LOCKSTEP) == []

    def test_shape_mismatch_rejected(self):
        platform = default_platform()
        tasksets = _tasksets((1, 2), 0.4)
        with pytest.raises(AnalysisError, match="batch shape mismatch"):
            analyze_taskset_batch(tasksets, platform, LOCKSTEP, budgets=[None])
        with pytest.raises(AnalysisError, match="batch shape mismatch"):
            analyze_taskset_batch(
                tasksets, platform, LOCKSTEP, warm_hints=[None]
            )


class TestBudgetAbortMidLockstep:
    def test_abort_is_per_lane_and_leaves_state_sound(self):
        platform = default_platform()
        # High utilisation => many inner iterations; a one-tick iteration
        # ceiling aborts the budgeted lane mid-lockstep.
        tasksets = _tasksets(range(4), 0.8)
        budgets = [None, Budget(max_iterations=1), None, None]
        perf = PerfCounters()
        batch = analyze_taskset_batch(
            tasksets, platform, LOCKSTEP, perf=perf, budgets=budgets
        )
        aborted = batch[1]
        assert not aborted.ok
        assert isinstance(aborted.error, BudgetExceeded)
        assert isinstance(aborted.error, AnalysisAborted)
        assert aborted.error.partial is not None
        assert not aborted.error.partial.schedulable
        assert perf.budget_aborts == 1
        # Every other lane retires exactly as an unbudgeted scalar run.
        reference = _scalar_reference(_tasksets(range(4), 0.8), platform)
        for index in (0, 2, 3):
            assert batch[index].ok
            assert _snapshot(batch[index].result) == _snapshot(
                reference[index].result
            )
        # The abort left the shared caches and warm-seed stores sound:
        # re-analysing the aborted lane's *same object* without a budget
        # matches a fresh-object cold analysis bit for bit.
        rerun = analyze_taskset(tasksets[1], platform, SCALAR)
        fresh = analyze_taskset(_tasksets(range(4), 0.8)[1], platform, SCALAR)
        assert _snapshot(rerun) == _snapshot(fresh)

    def test_abort_mid_lockstep_keeps_warm_seeds_sound(self):
        platform = default_platform()
        config = replace(LOCKSTEP, warm_start=True)
        tasksets = _tasksets((10, 11, 12), 0.35)
        budgets = [Budget(max_iterations=1), None, None]
        batch = analyze_taskset_batch(
            tasksets, platform, config, budgets=budgets
        )
        assert isinstance(batch[0].error, AnalysisAborted)
        # An aborted lane must not have recorded a replayable seed: the
        # warm replay on the same object still matches a fresh cold run.
        replay = analyze_taskset(tasksets[0], platform, config)
        fresh = analyze_taskset(
            _tasksets((10,), 0.35)[0], platform, replace(config, warm_start=True)
        )
        assert _snapshot(replay) == _snapshot(fresh)


class TestCounters:
    def test_lockstep_counters_accumulate(self):
        platform = default_platform()
        perf = PerfCounters()
        batch = analyze_taskset_batch(
            _tasksets(range(5), 0.5), platform, LOCKSTEP, perf=perf
        )
        assert perf.lockstep_batches == 1
        # Every cold lane retires exactly once.
        assert perf.lane_retirements == sum(
            1 for outcome in batch if outcome.result is not None
        )
        assert perf.analyses == 5
        assert perf.inner_iterations > 0

    def test_lane_counters_attach_to_results(self):
        platform = default_platform()
        batch = analyze_taskset_batch(
            _tasksets((7, 8), 0.4), platform, LOCKSTEP
        )
        for outcome in batch:
            assert outcome.ok
            assert outcome.result.perf is not None
            assert outcome.result.perf.analyses == 1
