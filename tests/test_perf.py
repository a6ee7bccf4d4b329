"""Tests of the :mod:`repro.perf` counters and their kernel integration."""

import dataclasses
import random
from contextlib import ExitStack
from dataclasses import replace

import pytest

from repro.analysis.config import PERSISTENCE_AWARE, AnalysisConfig
from repro.analysis.wcrt import analyze_taskset
from repro.experiments.config import default_platform
from repro.generation.taskset_gen import generate_taskset
from repro.model.platform import BusPolicy
from repro.perf import (
    PerfCounters,
    global_counters,
    merge_global,
    reset_global_counters,
)


def _taskset(seed=1, utilization=0.4):
    platform = default_platform()
    return generate_taskset(random.Random(seed), platform, utilization), platform


class TestPerfCounters:
    def test_fresh_counters_are_zero(self):
        counters = PerfCounters()
        assert counters.analyses == 0
        assert counters.phase_seconds == {}

    def test_merge_accumulates(self):
        a = PerfCounters(analyses=1, warm_starts=3, dominance_skips=2)
        a.phase_seconds["analysis"] = 0.5
        b = PerfCounters(analyses=2, warm_starts=1, inner_iterations=7)
        b.phase_seconds["analysis"] = 0.25
        b.phase_seconds["generation"] = 0.1
        a.merge(b)
        assert a.analyses == 3
        assert a.warm_starts == 4
        assert a.dominance_skips == 2
        assert a.inner_iterations == 7
        assert a.phase_seconds["analysis"] == 0.75
        assert a.phase_seconds["generation"] == 0.1

    def test_merge_accumulates_lockstep_and_residency_counters(self):
        a = PerfCounters(
            lockstep_batches=1,
            lane_retirements=4,
            resident_table_hits=2,
        )
        b = PerfCounters(
            lockstep_batches=2,
            lane_retirements=3,
            resident_table_hits=5,
            resident_table_misses=1,
            chunks_stolen=2,
        )
        a.merge(b)
        assert a.lockstep_batches == 3
        assert a.lane_retirements == 7
        assert a.resident_table_hits == 7
        assert a.resident_table_misses == 1
        assert a.chunks_stolen == 2

    def test_new_counters_survive_the_worker_transport(self):
        # Worker processes return their counters by pickling (see
        # repro.experiments.supervisor.run_chunk); the merge on the parent
        # side must see every lockstep/residency field intact.
        import pickle

        counters = PerfCounters(
            lockstep_batches=4,
            lane_retirements=9,
            resident_table_hits=3,
            resident_table_misses=2,
            chunks_stolen=1,
        )
        shipped = pickle.loads(pickle.dumps(counters))
        aggregate = PerfCounters(lockstep_batches=1)
        aggregate.merge(shipped)
        assert aggregate.lockstep_batches == 5
        assert aggregate.lane_retirements == 9
        assert aggregate.resident_table_hits == 3
        assert aggregate.resident_table_misses == 2
        assert aggregate.chunks_stolen == 1

    def test_reset_zeroes_everything(self):
        counters = PerfCounters(analyses=5, warm_starts=2, outer_iterations=9)
        counters.phase_seconds["analysis"] = 1.0
        counters.reset()
        assert counters == PerfCounters()

    def test_phase_records_elapsed_time(self):
        counters = PerfCounters()
        with counters.phase("busy"):
            pass
        with counters.phase("busy"):
            pass
        assert counters.phase_seconds["busy"] >= 0.0
        assert set(counters.phase_seconds) == {"busy"}

    def test_render_mentions_all_sections(self):
        counters = PerfCounters(
            analyses=1, result_cache_hits=10, result_cache_misses=30
        )
        counters.phase_seconds["analysis"] = 0.125
        text = counters.render()
        assert "analyses" in text
        assert "result cache" in text
        assert "25.0%" in text  # 10 hits / 40 lookups
        assert "analysis" in text


    def test_render_gives_dominance_skips_their_own_line(self):
        text = PerfCounters(analyses=3, dominance_skips=4).render()
        assert "  dominance skips              4" in text.splitlines()
        assert "adjacent" not in text
        assert "dominance" not in PerfCounters(analyses=3).render()


class TestKernelIntegration:
    def test_analysis_reports_its_iterations(self):
        taskset, platform = _taskset()
        result = analyze_taskset(taskset, platform, PERSISTENCE_AWARE)
        perf = result.perf
        assert perf is not None
        assert perf.analyses == 1
        assert perf.outer_iterations == result.outer_iterations
        assert perf.inner_iterations > 0
        assert perf.phase_seconds.get("analysis", 0.0) > 0.0

    def test_counters_reset_between_analyses(self):
        taskset, platform = _taskset()
        first = analyze_taskset(taskset, platform, PERSISTENCE_AWARE).perf
        second = analyze_taskset(taskset, platform, PERSISTENCE_AWARE).perf
        # Each analysis collects a fresh counter set, not a running total.
        assert second.analyses == 1
        assert second is not first

    def test_caller_aggregate_accumulates_across_analyses(self):
        taskset, platform = _taskset()
        aggregate = PerfCounters()
        analyze_taskset(taskset, platform, PERSISTENCE_AWARE, perf=aggregate)
        analyze_taskset(taskset, platform, PERSISTENCE_AWARE, perf=aggregate)
        assert aggregate.analyses == 2
        assert aggregate.inner_iterations > 0


class TestGlobalCounters:
    def test_merge_global_and_reset(self):
        reset_global_counters()
        merge_global(PerfCounters(analyses=4, warm_starts=1))
        merge_global(None)  # no-op
        assert global_counters().analyses == 4
        assert global_counters().warm_starts == 1
        reset_global_counters()
        assert global_counters().analyses == 0


class TestNamesTheBenchmarkHarnessReads:
    """``perfbench/`` patches or reads these names on every run.

    The lockstep engine and the memo caches they belonged to are gone;
    each stays as a binding with the same behaviour the harness measured
    through it.  The configuration names come from ``perfbench.metrics``
    itself, so the harness's correctness check stays a real comparison.
    """

    def test_reference_off_selects_the_table_free_reference(self):
        from perfbench.metrics import REFERENCE_OFF

        config = replace(PERSISTENCE_AWARE, **REFERENCE_OFF)
        assert config.reference
        assert not PERSISTENCE_AWARE.reference
        taskset, platform = _taskset(seed=5)
        result = analyze_taskset(taskset, platform, config)
        assert result.perf.bitset_table_builds == 0
        assert "interference-table" not in taskset._derived

    def test_every_ablation_is_a_config_field_but_the_state_plane(self):
        from perfbench.metrics import ABLATIONS

        fields = {field.name for field in dataclasses.fields(AnalysisConfig)}
        assert set(ABLATIONS) - fields == {"state_plane"}
        for name in set(ABLATIONS) & fields:
            assert getattr(replace(PERSISTENCE_AWARE, **{name: False}), name) is False

    @pytest.mark.parametrize("reference", [False, True])
    def test_memo_counters_read_zero_on_both_kernels(self, reference):
        taskset, platform = _taskset()
        config = replace(PERSISTENCE_AWARE, bitset_kernel=not reference)
        assert config.reference is reference
        perf = analyze_taskset(taskset, platform, config).perf
        assert perf.inner_iterations > 0
        assert (perf.memo_hits, perf.memo_misses) == (0, 0)

    def test_make_bat_is_bound_where_the_tracer_patches_it(self):
        from repro.analysis import lockstep, wcrt
        from repro.businterference.arbiters import make_bat

        assert lockstep.make_bat is make_bat
        assert wcrt.make_bat is make_bat

    def test_check_schedulability_batch_is_the_scalar_check(self):
        from repro.experiments import runner

        assert runner.check_schedulability_batch is runner.check_schedulability

    def test_prefill_batch_is_the_compile_entry_point(self):
        from repro.experiments import runner
        from repro.model.interference import prefill_batch

        assert runner.prefill_batch is prefill_batch

    @pytest.mark.parametrize("policy", list(BusPolicy))
    def test_lockstep_kernel_is_inert(self, policy):
        taskset, base = _taskset(seed=3, utilization=0.55)
        platform = base.with_bus_policy(policy)
        off = analyze_taskset(
            taskset, platform, replace(PERSISTENCE_AWARE, lockstep_kernel=False)
        )
        on = analyze_taskset(
            _taskset(seed=3, utilization=0.55)[0], platform, PERSISTENCE_AWARE
        )
        assert (off.schedulable, off.outer_iterations) == (
            on.schedulable, on.outer_iterations
        )
        assert {t.priority: r for t, r in off.response_times.items()} == {
            t.priority: r for t, r in on.response_times.items()
        }

    @pytest.mark.parametrize(
        "install", ["install_sweep_layers", "install_service_layers"]
    )
    def test_every_layer_the_tracer_wraps_exists(self, install):
        # mock.patch.object raises AttributeError on a missing name.
        from perfbench import tracing

        with ExitStack() as stack:
            getattr(tracing, install)(tracing.Tracer(), stack)

    def test_every_counter_the_harness_reads_exists(self):
        from perfbench.sweeps import _COUNTERS

        counters = PerfCounters()
        assert {
            name: getattr(counters, attr) for name, attr in _COUNTERS.items()
        } == dict.fromkeys(_COUNTERS, 0)

    def test_retired_lockstep_counters_stay_zero(self):
        from repro.experiments.config import SweepSettings, standard_variants
        from repro.experiments.runner import run_curve

        reset_global_counters()
        try:
            run_curve(
                default_platform(),
                standard_variants(False)[:2],
                SweepSettings(samples=3, seed=5, utilizations=(0.4,), jobs=1),
            )
            counters = global_counters()
            assert counters.analyses > 0
            assert counters.lockstep_batches == 0
            assert counters.lane_retirements == 0
        finally:
            reset_global_counters()
