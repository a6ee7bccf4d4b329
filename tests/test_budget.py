"""Deadline-budget tests.

Pins the three guarantees :mod:`repro.budget` makes:

1. completions under an active budget are bit-identical to budget-less
   runs (the broad grid lives in ``tests/test_differential.py``; here only
   the targeted cases);
2. iteration-ceiling aborts are deterministic and carry typed partial
   results;
3. aborting at *any* iteration boundary leaves every shared cache and
   warm-start seed in a state where the rerun is bit-identical to a cold
   run — the property test walks every single boundary of one analysis.
"""

import inspect
import random

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import analyze_taskset
from repro.budget import Budget, DEFAULT_WALL_CHECK_STRIDE
from repro.errors import AnalysisError, BudgetExceeded
from repro.experiments.config import default_platform
from repro.generation.taskset_gen import generate_taskset


class FakeClock:
    """Deterministic monotonic clock for wall-deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBudgetUnit:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(AnalysisError):
            Budget(wall_seconds=0)
        with pytest.raises(AnalysisError):
            Budget(wall_seconds=-1.0)
        with pytest.raises(AnalysisError):
            Budget(max_iterations=0)
        with pytest.raises(AnalysisError):
            Budget(wall_check_stride=0)

    def test_unlimited_budget_never_fires(self):
        budget = Budget()
        budget.start()
        for _ in range(10_000):
            budget.tick()
        assert budget.iterations == 10_000
        assert budget.remaining() is None

    def test_iteration_ceiling_fires_at_exact_boundary(self):
        budget = Budget(max_iterations=5)
        for _ in range(5):
            budget.tick()
        with pytest.raises(BudgetExceeded, match="iteration ceiling of 5"):
            budget.tick()
        assert budget.iterations == 6

    def test_wall_deadline_with_injected_clock(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock, wall_check_stride=1)
        budget.start()
        clock.now = 9.9
        budget.tick()  # within budget
        clock.now = 10.1
        with pytest.raises(BudgetExceeded, match="wall-clock"):
            budget.tick()

    def test_wall_checks_are_strided(self):
        # With the default stride the clock is only consulted every
        # stride ticks, so an overrun is detected at the next read —
        # never later than stride ticks after it happened.
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock)
        budget.start()
        budget.tick()  # tick 1 reads the clock (still at 0.0)
        clock.now = 5.0
        for _ in range(DEFAULT_WALL_CHECK_STRIDE - 1):
            budget.tick()  # strided: no clock read yet
        with pytest.raises(BudgetExceeded):
            budget.tick()

    def test_check_does_not_charge_iterations(self):
        budget = Budget(max_iterations=1)
        budget.check()
        budget.check()
        assert budget.iterations == 0

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=5.0, clock=clock)
        budget.start()
        clock.now = 3.0
        budget.start()  # must not re-arm the deadline
        assert budget.elapsed() == pytest.approx(3.0)
        assert budget.remaining() == pytest.approx(2.0)

    def test_an_unstarted_budget_has_its_whole_allowance(self):
        # The wall-clock deadline runs from start(), not from construction.
        clock = FakeClock()
        budget = Budget(wall_seconds=5.0, clock=clock, wall_check_stride=1)
        clock.now = 100.0
        assert budget.elapsed() == 0.0
        assert budget.remaining() == pytest.approx(5.0)
        budget.check()
        budget.tick()
        budget.start()
        clock.now = 104.0
        assert budget.remaining() == pytest.approx(1.0)

    def test_remaining_is_never_negative(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=1.0, clock=clock).start()
        clock.now = 7.5
        assert budget.remaining() == 0.0
        with pytest.raises(BudgetExceeded):
            budget.check()

    def test_a_budget_is_one_flat_allowance(self):
        # One request, one budget: nothing slices it, chains it to a
        # parent or cancels it from outside.
        assert "token" not in inspect.signature(Budget).parameters
        for name in ("child", "started"):
            assert not hasattr(Budget(), name), name


def _fresh(seed=11, utilization=0.45):
    platform = default_platform()
    return generate_taskset(random.Random(seed), platform, utilization), platform


def _canonical(result):
    """Name-keyed projection of a result, comparable across distinct
    (but identically generated) task-set objects — ``Task`` equality is
    by identity, so ``WcrtResult ==`` only works within one object."""
    return (
        result.schedulable,
        tuple(
            sorted(
                (task.name, bound)
                for task, bound in result.response_times.items()
            )
        ),
        result.failed_task.name if result.failed_task else None,
        result.outer_iterations,
    )


class TestBudgetedAnalysis:
    def test_generous_budget_is_invisible(self):
        taskset, platform = _fresh()
        cold = analyze_taskset(taskset, platform, AnalysisConfig())
        budgeted_set, _ = _fresh()
        budget = Budget(max_iterations=10**9, wall_seconds=3600.0)
        budgeted = analyze_taskset(
            budgeted_set, platform, AnalysisConfig(), budget=budget
        )
        assert _canonical(budgeted) == _canonical(cold)
        assert budget.iterations > 0

    def test_ceiling_abort_carries_partial_result(self):
        taskset, platform = _fresh()
        with pytest.raises(BudgetExceeded) as info:
            analyze_taskset(
                taskset,
                platform,
                AnalysisConfig(),
                budget=Budget(max_iterations=3),
            )
        abort = info.value
        assert abort.partial is not None
        assert not abort.partial.schedulable
        assert abort.partial.response_times  # estimates reached so far
        assert abort.iterations == 4  # the boundary that fired
        assert abort.elapsed >= 0.0

    def test_wall_abort_with_injected_clock(self):
        taskset, platform = _fresh()
        clock = FakeClock()

        class ExpiringClock(FakeClock):
            def __call__(self):
                self.now += 1.0
                return self.now

        with pytest.raises(BudgetExceeded, match="wall-clock"):
            analyze_taskset(
                taskset,
                platform,
                AnalysisConfig(),
                budget=Budget(
                    wall_seconds=0.5,
                    clock=ExpiringClock(),
                    wall_check_stride=1,
                ),
            )
        del clock


class TestAbortLeavesCachesSound:
    """The property: abort anywhere, rerun bit-identically."""

    @pytest.mark.parametrize("seed,utilization", [(3, 0.4), (7, 0.6)])
    def test_every_boundary(self, seed, utilization):
        platform = default_platform()
        config = AnalysisConfig()
        cold_set = generate_taskset(random.Random(seed), platform, utilization)
        cold = analyze_taskset(cold_set, platform, config)
        probe = Budget(max_iterations=10**9)
        reference_set = generate_taskset(
            random.Random(seed), platform, utilization
        )
        reference = analyze_taskset(
            reference_set, platform, config, budget=probe
        )
        assert _canonical(reference) == _canonical(cold)
        total_ticks = probe.iterations
        assert total_ticks > 1
        for ceiling in range(1, total_ticks):
            taskset = generate_taskset(
                random.Random(seed), platform, utilization
            )
            with pytest.raises(BudgetExceeded):
                analyze_taskset(
                    taskset,
                    platform,
                    config,
                    budget=Budget(max_iterations=ceiling),
                )
            rerun = analyze_taskset(taskset, platform, config)
            # Bit-identical to the cold analysis: same verdict, same
            # per-task bounds, same outer iteration count.
            assert _canonical(rerun) == _canonical(
                cold
            ), f"rerun differs after abort at {ceiling}"
            # And genuinely cold: the abort never planted a warm seed.
            assert rerun.perf.warm_starts == 0

    def test_abort_points_are_deterministic_across_kernels(self):
        # The ceiling counts inner iterations — identical across the
        # production and reference kernels — so the same ceiling aborts
        # with the same partial estimates on both.
        platform = default_platform()
        partials = []
        for config in (AnalysisConfig(), AnalysisConfig(bitset_kernel=False)):
            taskset = generate_taskset(random.Random(13), platform, 0.5)
            with pytest.raises(BudgetExceeded) as info:
                analyze_taskset(
                    taskset,
                    platform,
                    config,
                    budget=Budget(max_iterations=7),
                )
            partials.append(
                (info.value.iterations, _canonical(info.value.partial))
            )
        assert len(set(partials)) == 1
