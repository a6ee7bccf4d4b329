"""Recovery-path tests for the fault-tolerant sweep supervisor.

Every path is exercised with *deterministic* fault injection
(:class:`repro.experiments.faults.SweepFault` specs carried into the workers):
injected worker crash -> chunk bisection quarantines exactly the poison
seed; injected hang -> pool kill + retry recovers bit-identically;
injected transient exception -> per-sample retry with backoff.
"""

from dataclasses import replace

import pytest

from repro.errors import AnalysisError
from repro.experiments.config import (
    SweepSettings,
    default_platform,
    standard_variants,
)
from repro.experiments.faults import (
    SweepFault,
    TransientWorkerFault,
    parse_sweep_fault,
    sweep_fault_kinds,
    trigger_sweep_fault,
)
from repro.experiments.runner import (
    _sample_seed,
    run_curve,
    schedulability_ratios,
)
from repro.experiments.supervisor import SampleFailure, WorkItem, chunked

#: Two utilisation points x 4 samples; retries=1 keeps recovery cycles short.
SETTINGS = SweepSettings(
    samples=4,
    seed=7,
    utilizations=(0.2, 0.4),
    jobs=2,
    retries=1,
)

VARIANTS = standard_variants(include_perfect=False)[:2]


@pytest.fixture(scope="module")
def clean():
    """Reference outcomes of the unfaulted sweep."""
    return run_curve(default_platform(), VARIANTS, SETTINGS)


class TestFaultSpecs:
    def test_known_kinds(self):
        assert sweep_fault_kinds() == (
            "crash-sample",
            "flaky-sample",
            "hang-sample",
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError, match="unknown sweep fault"):
            SweepFault("segfault-everything")

    def test_parse_defaults_to_origin(self):
        fault = parse_sweep_fault("crash-sample")
        assert (fault.kind, fault.point, fault.sample) == ("crash-sample", 0, 0)

    def test_parse_explicit_target(self):
        fault = parse_sweep_fault("hang-sample:3,17")
        assert (fault.point, fault.sample) == (3, 17)

    def test_parse_rejects_garbage_target(self):
        with pytest.raises(AnalysisError):
            parse_sweep_fault("hang-sample:x,y")
        with pytest.raises(AnalysisError):
            parse_sweep_fault("hang-sample:1")

    def test_flaky_fires_only_on_first_attempt(self):
        fault = SweepFault("flaky-sample", point=1, sample=2)
        with pytest.raises(TransientWorkerFault):
            trigger_sweep_fault(fault, 1, 2, attempt=0)
        trigger_sweep_fault(fault, 1, 2, attempt=1)  # no raise
        trigger_sweep_fault(fault, 0, 0, attempt=0)  # non-matching item

    def test_none_fault_is_noop(self):
        trigger_sweep_fault(None, 0, 0, 0)


class TestChunking:
    def test_chunks_cover_items_in_order(self):
        items = [WorkItem(0, i, 0.5, i) for i in range(10)]
        chunks = chunked(items, jobs=3)
        assert [item for chunk in chunks for item in chunk] == items
        assert all(chunks)

    @pytest.mark.parametrize("samples", [1, 2, 7, 40, 100])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_guided_sizes_cover_everything_in_order(self, samples, jobs):
        items = [
            WorkItem(point, i, 0.5, point * 1000 + i)
            for point in range(2)
            for i in range(samples)
        ]
        chunks = chunked(items, jobs=jobs)
        assert [item for chunk in chunks for item in chunk] == items
        assert all(chunks)
        # Chunks never span sweep points (prewarm compiles one point's
        # task sets together).
        for chunk in chunks:
            assert len({item.point for item in chunk}) == 1
        # Within a point the guided sizes never grow head-to-tail.
        for point in range(2):
            sizes = [
                len(chunk) for chunk in chunks if chunk[0].point == point
            ]
            assert sizes == sorted(sizes, reverse=True)


class TestResidentWorkers:
    def test_worker_counters_merge_across_processes(self):
        # The analysis and residency counters bump inside spawn workers
        # and must surface in the parent's global aggregate (the transport
        # is the pickled PerfCounters of each chunk result).
        from repro.perf import global_counters, reset_global_counters

        reset_global_counters()
        run_curve(default_platform(), VARIANTS, replace(SETTINGS, samples=16))
        counters = global_counters()
        assert counters.analyses > 0
        assert counters.inner_iterations > 0
        assert counters.resident_table_misses > 0

    def test_forced_stealing_is_counted_and_invisible(self, clean, monkeypatch):
        # One whole point per chunk with three workers: more idle slots
        # than queued chunks from the first dispatch on, so the tail
        # work-stealing split must fire — and the outcomes must still be
        # bit-identical to the unfaulted reference sweep.
        from repro.experiments import supervisor as supervisor_mod
        from repro.perf import global_counters, reset_global_counters

        def one_chunk_per_point(items, jobs):
            chunks = []
            for point in sorted({item.point for item in items}):
                chunks.append(
                    tuple(item for item in items if item.point == point)
                )
            return chunks

        monkeypatch.setattr(supervisor_mod, "chunked", one_chunk_per_point)
        reset_global_counters()
        stolen = run_curve(
            default_platform(), VARIANTS, replace(SETTINGS, jobs=3)
        )
        assert global_counters().chunks_stolen >= 1
        assert not stolen.failures
        for utilization in SETTINGS.utilizations:
            assert stolen[utilization] == clean[utilization]


class TestCrashRecovery:
    def test_poison_sample_is_quarantined_exactly(self, clean):
        crashed = run_curve(
            default_platform(),
            VARIANTS,
            SETTINGS,
            fault=SweepFault("crash-sample", point=1, sample=2),
        )
        assert [(f.point, f.sample) for f in crashed.failures] == [(1, 2)]
        failure = crashed.failures[0]
        assert failure.kind == "crash"
        assert failure.exception == "WorkerCrashError"
        # The quarantine record carries the complete reproducer seed.
        assert failure.seed == _sample_seed(SETTINGS.seed, 1, 2)
        assert failure.attempts == SETTINGS.retries + 1

    def test_healthy_samples_survive_bit_identically(self, clean):
        crashed = run_curve(
            default_platform(),
            VARIANTS,
            SETTINGS,
            fault=SweepFault("crash-sample", point=1, sample=2),
        )
        assert crashed[0.2] == clean[0.2]
        assert len(crashed[0.4]) == SETTINGS.samples - 1
        assert crashed.healthy == clean.healthy - 1
        assert crashed.coverage == pytest.approx(7 / 8)

    def test_ratios_degrade_gracefully(self):
        crashed = run_curve(
            default_platform(),
            VARIANTS,
            SETTINGS,
            fault=SweepFault("crash-sample", point=0, sample=0),
        )
        ratios = schedulability_ratios(crashed, VARIANTS)
        for series in ratios.values():
            assert len(series) == 2
            assert all(0.0 <= value <= 1.0 for value in series)


class TestHangRecovery:
    def test_timeout_then_retry_recovers_fully(self, clean):
        hung = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, timeout=1.5),
            fault=SweepFault("hang-sample", point=0, sample=1),
        )
        assert hung.failures == []
        assert hung.coverage == 1.0
        assert hung == dict(clean)


class TestTransientRecovery:
    def test_flaky_sample_retries_and_succeeds(self, clean):
        flaky = run_curve(
            default_platform(),
            VARIANTS,
            SETTINGS,
            fault=SweepFault("flaky-sample", point=0, sample=0),
        )
        assert flaky.failures == []
        assert flaky == dict(clean)

    def test_flaky_sample_quarantined_without_retry_budget(self, clean):
        flaky = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, retries=0),
            fault=SweepFault("flaky-sample", point=0, sample=0),
        )
        assert [(f.point, f.sample) for f in flaky.failures] == [(0, 0)]
        failure = flaky.failures[0]
        assert failure.kind == "exception"
        assert failure.exception == "TransientWorkerFault"
        assert failure.traceback_digest  # correlatable across occurrences
        # Everything else is untouched.
        assert flaky[0.4] == clean[0.4]

    def test_inline_path_recovers_flaky_too(self, clean):
        inline = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, jobs=1),
            fault=SweepFault("flaky-sample", point=1, sample=3),
        )
        assert inline.failures == []
        assert inline == dict(clean)

    def test_inline_path_quarantines_exhausted_flaky(self, clean):
        inline = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, jobs=1, retries=0),
            fault=SweepFault("flaky-sample", point=0, sample=2),
        )
        assert [(f.point, f.sample) for f in inline.failures] == [(0, 2)]
        assert inline[0.4] == clean[0.4]


class TestBudgetQuarantine:
    """The in-process budget layer under the supervisor (layer 0)."""

    def test_exhausted_budget_quarantines_without_retry(self, clean):
        # A budget this small aborts every sample at its first wall-clock
        # check, so every item lands in quarantine deterministically.
        budgeted = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, jobs=1, sample_budget=1e-6),
        )
        total = len(SETTINGS.utilizations) * SETTINGS.samples
        assert len(budgeted.failures) == total
        failure = budgeted.failures[0]
        assert failure.kind == "budget"
        assert failure.exception == "BudgetExceeded"
        # Deterministic aborts are never retried.
        assert failure.attempts == 1
        assert budgeted.coverage == 0.0

    def test_worker_path_quarantines_budget_aborts_too(self):
        budgeted = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, sample_budget=1e-6),
        )
        assert budgeted.failures
        assert {f.kind for f in budgeted.failures} == {"budget"}
        assert all(f.attempts == 1 for f in budgeted.failures)

    def test_generous_budget_is_invisible(self, clean):
        budgeted = run_curve(
            default_platform(),
            VARIANTS,
            replace(SETTINGS, sample_budget=300.0),
        )
        assert budgeted.failures == []
        assert budgeted == dict(clean)

    def test_settings_reject_bad_budget(self):
        with pytest.raises(AnalysisError):
            replace(SETTINGS, sample_budget=0.0)
        with pytest.raises(AnalysisError):
            replace(SETTINGS, sample_budget=float("inf"))


class TestSampleFailureRecords:
    def test_round_trip_through_record(self):
        failure = SampleFailure(
            point=3,
            sample=9,
            utilization=0.45,
            seed=12345,
            kind="crash",
            exception="WorkerCrashError",
            message="worker died",
            traceback_digest="abc123",
            attempts=3,
        )
        assert SampleFailure.from_record(failure.to_record()) == failure

    def test_describe_names_the_reproducer_seed(self):
        failure = SampleFailure(
            point=0,
            sample=1,
            utilization=0.2,
            seed=777,
            kind="hang",
            exception="ChunkTimeoutError",
            message="",
            traceback_digest="",
            attempts=2,
        )
        text = failure.describe()
        assert "777" in text and "hang" in text
