"""Smoke and shape tests for the experiment drivers (tiny sample counts)."""

import pytest

from repro.analysis.config import AnalysisConfig
from repro.crpd.approaches import CrpdApproach
from repro.experiments.config import (
    PAPER_UTILIZATIONS,
    SweepSettings,
    Variant,
    default_platform,
    settings_from_environment,
    slot_variants,
    standard_variants,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3a, run_fig3b, run_fig3c, run_fig3d
from repro.experiments.report import format_gaps, format_rows, format_table
from repro.experiments.runner import (
    max_gap,
    run_curve,
    schedulability_ratios,
    weighted_measures,
)
from repro.experiments.table1 import run_table1
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy

TINY = SweepSettings(samples=4, seed=7, utilizations=(0.2, 0.4, 0.6))


class TestConfig:
    def test_paper_grid(self):
        assert PAPER_UTILIZATIONS[0] == 0.05
        assert PAPER_UTILIZATIONS[-1] == 1.0
        assert len(PAPER_UTILIZATIONS) == 20

    def test_standard_variants(self):
        labels = [v.label for v in standard_variants()]
        assert labels == ["FP-P", "FP", "RR-P", "RR", "TDMA-P", "TDMA", "Perfect"]

    def test_slot_variants_exclude_fp(self):
        assert all(v.policy is not BusPolicy.FP for v in slot_variants())

    def test_default_platform_matches_paper(self):
        platform = default_platform()
        assert platform.num_cores == 4
        assert platform.cache.num_sets == 256
        assert platform.slot_size == 2

    def test_settings_validation(self):
        with pytest.raises(AnalysisError):
            SweepSettings(samples=0)
        with pytest.raises(AnalysisError):
            SweepSettings(jobs=-1)
        with pytest.raises(AnalysisError):
            SweepSettings(utilizations=())

    def test_settings_reject_degenerate_utilizations(self):
        with pytest.raises(AnalysisError, match="utilisation"):
            SweepSettings(utilizations=(0.2, float("nan")))
        with pytest.raises(AnalysisError, match="utilisation"):
            SweepSettings(utilizations=(0.2, float("inf")))
        with pytest.raises(AnalysisError, match="utilisation"):
            SweepSettings(utilizations=(0.2, 0.0))
        with pytest.raises(AnalysisError, match="utilisation"):
            SweepSettings(utilizations=(-0.5,))

    def test_settings_reject_bad_supervision_parameters(self):
        with pytest.raises(AnalysisError, match="timeout"):
            SweepSettings(timeout=0.0)
        with pytest.raises(AnalysisError, match="timeout"):
            SweepSettings(timeout=float("nan"))
        with pytest.raises(AnalysisError, match="retries"):
            SweepSettings(retries=-1)
        # The defaults and explicit sane values pass.
        SweepSettings(timeout=10.0, retries=0)

    def test_jobs_zero_resolves_to_cpu_count(self):
        import os

        assert SweepSettings(jobs=0).jobs == (os.cpu_count() or 1)

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "17")
        monkeypatch.setenv("REPRO_JOBS", "3")
        settings = settings_from_environment()
        assert settings.samples == 17
        assert settings.jobs == 3

    def test_environment_jobs_auto(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "0")
        assert settings_from_environment().jobs == (os.cpu_count() or 1)

    def test_environment_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(AnalysisError, match="REPRO_JOBS"):
            settings_from_environment()

    def test_explicit_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "17")
        assert settings_from_environment(samples=5).samples == 5


class TestRunner:
    def test_outcomes_deterministic(self):
        platform = default_platform()
        variants = standard_variants(include_perfect=False)[:2]
        a = run_curve(platform, variants, TINY)
        b = run_curve(platform, variants, TINY)
        for utilization in TINY.utilizations:
            assert [s.verdicts for s in a[utilization]] == [
                s.verdicts for s in b[utilization]
            ]

    def test_ratios_within_unit_interval(self):
        platform = default_platform()
        variants = standard_variants(include_perfect=False)[:2]
        outcomes = run_curve(platform, variants, TINY)
        ratios = schedulability_ratios(outcomes, variants)
        for series in ratios.values():
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_weighted_measures_within_unit_interval(self):
        platform = default_platform()
        variants = standard_variants(include_perfect=False)[:2]
        outcomes = run_curve(platform, variants, TINY)
        measures = weighted_measures(outcomes, variants)
        for value in measures.values():
            assert 0.0 <= value <= 1.0

    def test_max_gap(self):
        ratios = {"A": [0.9, 0.5], "B": [0.4, 0.45]}
        assert max_gap(ratios, "A", "B") == pytest.approx(0.5)

    def test_ratios_of_empty_grid_is_typed_error(self):
        variants = standard_variants(include_perfect=False)[:2]
        with pytest.raises(AnalysisError, match="empty utilisation grid"):
            schedulability_ratios({}, variants)

    def test_ratios_of_fully_quarantined_point_is_typed_error(self):
        variants = standard_variants(include_perfect=False)[:2]
        outcomes = run_curve(default_platform(), variants, TINY)
        outcomes[0.4] = []  # every sample at this point was quarantined
        with pytest.raises(AnalysisError, match="no surviving samples"):
            schedulability_ratios(outcomes, variants)

    def test_max_gap_over_empty_series_is_typed_error(self):
        with pytest.raises(AnalysisError, match="empty ratio series"):
            max_gap({"A": [], "B": []}, "A", "B")

    def test_max_gap_over_unknown_label_is_typed_error(self):
        with pytest.raises(AnalysisError, match="unknown variant label"):
            max_gap({"A": [0.5]}, "A", "missing")


def _variant(label, policy, **analysis):
    return Variant(label, policy, AnalysisConfig(**analysis))


class TestDominanceRule:
    """``runner._dominates``: which variant's bounds sit below which."""

    RR = _variant("RR", BusPolicy.RR, persistence=False)
    RR_P = _variant("RR-P", BusPolicy.RR)
    TDMA = _variant("TDMA", BusPolicy.TDMA, persistence=False)
    TDMA_P = _variant("TDMA-P", BusPolicy.TDMA)
    FP = _variant("FP", BusPolicy.FP, persistence=False)
    FP_P = _variant("FP-P", BusPolicy.FP)
    FP_P_LOW = _variant("FP-P-low", BusPolicy.FP, persistence_in_low=True)
    PERFECT = _variant("Perfect", BusPolicy.PERFECT)

    @pytest.mark.parametrize(
        "tight, loose, expected",
        [
            (RR, TDMA, True),
            (RR_P, TDMA, True),
            (RR_P, TDMA_P, True),
            (
                RR,
                _variant("TDMA-aligned", BusPolicy.TDMA, persistence=False,
                         tdma_slot_alignment=True),
                True,
            ),
            (TDMA, RR, False),
            (TDMA_P, RR_P, False),
            (FP, RR, False),
            (RR, FP, False),
            (FP_P, RR_P, False),
            (RR, TDMA_P, False),
            (
                _variant("RR-aligned", BusPolicy.RR, persistence=False,
                         tdma_slot_alignment=True),
                TDMA,
                False,
            ),
            (
                _variant("RR-multiset", BusPolicy.RR, persistence=False,
                         crpd_approach=CrpdApproach.ECB_UNION_MULTISET),
                TDMA,
                False,
            ),
            (FP_P, FP, True),
            (FP, FP_P, False),
            (PERFECT, FP_P, True),
            (PERFECT, TDMA, True),
            (FP_P, PERFECT, False),
            (FP_P_LOW, FP, True),
            # Both persistence-aware FP bounds are non-monotone in the
            # remote estimates, so pointwise dominance orders no fixed
            # points there.
            (FP_P_LOW, FP_P, False),
            (_variant("RR-P-low", BusPolicy.RR, persistence_in_low=True),
             RR_P, True),
            # Different iteration caps: the capped side can run out of
            # rounds where the other converges, so no verdict carries over.
            (_variant("FP-P-1-round", BusPolicy.FP, max_outer_iterations=1),
             FP, False),
            (FP_P,
             _variant("FP-1-round", BusPolicy.FP, persistence=False,
                      max_outer_iterations=1),
             False),
            (_variant("RR-P-short", BusPolicy.RR, max_inner_iterations=100),
             RR, False),
            (_variant("Perfect-1-round", BusPolicy.PERFECT,
                      max_outer_iterations=1),
             TDMA, False),
            (_variant("FP-P-1-round", BusPolicy.FP, max_outer_iterations=1),
             _variant("FP-1-round", BusPolicy.FP, persistence=False,
                      max_outer_iterations=1),
             True),
        ],
        ids=lambda value: value.label if isinstance(value, Variant) else None,
    )
    def test_truth_table(self, tight, loose, expected):
        from repro.experiments.runner import _dominates

        assert _dominates(tight, loose) is expected

    def test_a_capped_variant_runs_its_own_analysis(self):
        # FP-P capped at one outer round runs out of it on these sets,
        # which FP schedules: FP's success must not discharge it.
        import random

        from repro.analysis.schedulability import check_schedulability
        from repro.experiments.runner import evaluate_sample
        from repro.generation.taskset_gen import (
            GenerationConfig,
            generate_taskset,
        )

        base = default_platform()
        capped = _variant("FP-P-1-round", BusPolicy.FP, max_outer_iterations=1)
        variants = (self.FP, capped)
        generation = GenerationConfig()
        for seed in range(3):
            outcome = evaluate_sample(base, 0.3, variants, generation, seed)
            taskset = generate_taskset(
                random.Random(seed), base, 0.3, generation
            )
            brute = tuple(
                check_schedulability(
                    taskset, base.with_bus_policy(v.policy), v.analysis
                ).schedulable
                for v in variants
            )
            assert outcome.verdicts == brute == (True, False), seed

    def test_standard_plan_runs_the_perfect_bus_last(self):
        from repro.experiments.runner import _dominance_plan

        variants = standard_variants(True)
        labels = [v.label for v in variants]
        perfect = labels.index("Perfect")
        tight, loose = _dominance_plan(variants)
        assert [labels[i] for i in tight[0]] == [
            "FP-P", "RR-P", "TDMA-P", "FP", "RR", "TDMA", "Perfect",
        ]
        assert [labels[i] for i in loose[0]] == [
            "TDMA", "RR", "FP", "TDMA-P", "RR-P", "FP-P", "Perfect",
        ]
        for order, dominators, dominated in (tight, loose):
            # Every arbiter's success discharges the perfect bus, and
            # nothing but a perfect bus could condemn it.
            assert sorted(dominated[perfect]) == sorted(
                set(range(len(variants))) - {perfect}
            )
            assert dominators[perfect] == ()
            for rank, index in enumerate(order):
                earlier = set(order[:rank])
                assert set(dominators[index]) <= earlier
                assert set(dominated[index]) <= earlier

    def test_rr_and_tdma_exchange_evidence(self):
        from repro.experiments.runner import _dominance_plan

        variants = standard_variants(True)
        labels = [v.label for v in variants]
        tight, loose = _dominance_plan(variants)
        rr, rr_p, tdma, tdma_p = (
            labels.index(label) for label in ("RR", "RR-P", "TDMA", "TDMA-P")
        )
        # An RR deadline miss condemns TDMA; RR-P's condemns TDMA-P too.
        assert set(tight[1][tdma]) == {rr_p, tdma_p, rr}
        assert tight[1][tdma_p] == (rr_p,)
        # A schedulable TDMA set discharges RR, and RR-P.
        assert loose[2][rr] == (tdma,)
        assert set(loose[2][rr_p]) == {tdma, rr, tdma_p}


class TestPerfectBusSuccessSkip:
    """A perfect-bus variant discharged by an arbiter's success records
    the residual bus-utilisation check and runs no analysis."""

    VARIANTS = standard_variants(True)
    PERFECT = [v.label for v in VARIANTS].index("Perfect")

    def _evaluate(self):
        from repro.experiments.runner import evaluate_sample
        from repro.generation.taskset_gen import GenerationConfig

        # U = 0.3, seed 5: every arbiter but TDMA schedules the set.
        return evaluate_sample(
            default_platform(), 0.3, self.VARIANTS, GenerationConfig(), 5
        )

    def test_runs_no_perfect_bus_analysis(self, monkeypatch):
        from repro.experiments import runner

        policies = []
        check = runner.check_schedulability

        def spy(taskset, platform, *args, **kwargs):
            policies.append(platform.bus_policy)
            return check(taskset, platform, *args, **kwargs)

        monkeypatch.setattr(runner, "check_schedulability", spy)
        outcome = self._evaluate()
        assert outcome.verdicts[self.PERFECT]
        assert BusPolicy.PERFECT not in policies

    def test_records_the_bus_check(self, monkeypatch):
        from repro.analysis.schedulability import SchedulabilityVerdict
        from repro.experiments import runner

        healthy = self._evaluate()
        checked = []

        def overloaded(taskset, d_mem):
            checked.append(d_mem)
            return SchedulabilityVerdict(schedulable=False, bus_utilization=1.5)

        monkeypatch.setattr(runner, "residual_bus_check", overloaded)
        outcome = self._evaluate()
        assert checked == [default_platform().d_mem]
        assert healthy.verdicts[self.PERFECT]
        assert outcome.verdicts[self.PERFECT] is False
        assert outcome.verdicts[: self.PERFECT] == healthy.verdicts[: self.PERFECT]


class TestEvaluateSampleCollector:
    """``evaluate_sample`` pauses the cyclic collector and restores it."""

    @staticmethod
    def _evaluate(budget=None):
        from repro.experiments.runner import evaluate_sample
        from repro.generation.taskset_gen import GenerationConfig

        return evaluate_sample(
            default_platform(), 0.6, standard_variants(True),
            GenerationConfig(), 5, budget=budget,
        )

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        import gc

        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_paused_during_the_variant_loop(self, collector, monkeypatch):
        import gc

        from repro.experiments import runner

        seen = []
        check = runner.check_schedulability

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return check(*args, **kwargs)

        monkeypatch.setattr(runner, "check_schedulability", spy)
        self._evaluate()
        assert seen and not any(seen)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("resident", [False, True], ids=["fresh", "plane"])
    def test_paused_while_the_task_set_is_generated(
        self, collector, monkeypatch, resident
    ):
        import gc

        from repro.experiments import runner, stateplane
        from repro.generation.taskset_gen import GenerationConfig

        seen = []
        module = stateplane if resident else runner
        generate = module.generate_taskset

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return generate(*args, **kwargs)

        monkeypatch.setattr(module, "generate_taskset", spy)
        runner.evaluate_sample(
            default_platform(), 0.6, standard_variants(True),
            GenerationConfig(), 5,
            plane=stateplane.StatePlane(capacity=0) if resident else None,
        )
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_restored_when_generation_raises(self, collector, monkeypatch):
        import gc

        from repro.experiments import runner

        def boom(*args, **kwargs):
            raise RuntimeError("generation failed")

        monkeypatch.setattr(runner, "generate_taskset", boom)
        with pytest.raises(RuntimeError, match="generation failed"):
            self._evaluate()
        assert gc.isenabled() is collector

    def test_restored_when_an_analysis_raises(self, collector, monkeypatch):
        import gc

        from repro.experiments import runner

        def boom(*args, **kwargs):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr(runner, "check_schedulability", boom)
        with pytest.raises(RuntimeError, match="analysis failed"):
            self._evaluate()
        assert gc.isenabled() is collector

    def test_restored_when_a_budget_aborts(self, collector):
        import gc

        from repro.budget import Budget
        from repro.errors import AnalysisAborted

        with pytest.raises(AnalysisAborted):
            self._evaluate(budget=Budget(max_iterations=1))
        assert gc.isenabled() is collector


class TestEachAnalysisCompilesItsOwnTable:
    """A sweep sample compiles only the tables its analyses read, inside
    the sample's collector pause."""

    @pytest.fixture(autouse=True)
    def _fresh_state(self):
        from repro.experiments.stateplane import reset_resident_plane
        from repro.perf import reset_global_counters

        reset_resident_plane()
        reset_global_counters()
        yield
        reset_resident_plane()
        reset_global_counters()

    def test_samples_the_prechecks_settle_compile_nothing(self):
        from repro.experiments.runner import run_point
        from repro.perf import global_counters

        # Point 9 of the Fig. 2 grid is U = 1.0: the core-utilisation
        # precheck settles 38 of these 40 sets for every variant.
        outcomes = run_point(
            default_platform(), 1.0, standard_variants(True),
            SweepSettings(samples=40, seed=2020, jobs=1), 9,
        )
        assert len(outcomes) == 40
        assert global_counters().batch_analyses == 2

    def test_run_point_is_its_point_of_the_curve(self):
        from repro.experiments.runner import run_point

        settings = SweepSettings(samples=3, seed=31, utilizations=(0.3, 0.6))
        curve = run_curve(default_platform(), standard_variants(True), settings)
        for index, utilization in enumerate(settings.utilizations):
            point = run_point(
                default_platform(), utilization, standard_variants(True),
                settings, index,
            )
            assert point == curve[utilization]

    def test_table_parts_build_with_the_collector_paused(self, monkeypatch):
        import gc

        from repro.model.interference import InterferenceTable
        from repro.persistence.cpro import CproApproach

        seen = []
        for name in (
            "__init__", "gamma_cuts", "eviction_cuts", "cpro_multiset_cuts",
            "crpd_multiset_cuts", "rows",
        ):
            method = getattr(InterferenceTable, name)

            def spy(*args, _method=method, **kwargs):
                seen.append(gc.isenabled())
                return _method(*args, **kwargs)

            monkeypatch.setattr(InterferenceTable, name, spy)
        multiset = _variant(
            "FP-P-multiset", BusPolicy.FP,
            crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
            cpro_approach=CproApproach.MULTISET,
        )
        settings = SweepSettings(samples=3, seed=11, utilizations=(0.3, 0.6))
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            run_curve(
                default_platform(), standard_variants(True) + (multiset,),
                settings,
            )
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen and not any(seen)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2(TINY)

    def test_series_cover_grid(self, result):
        assert result.utilizations == TINY.utilizations
        for label in ("FP-P", "FP", "RR-P", "RR", "TDMA-P", "TDMA", "Perfect"):
            assert len(result.ratios[label]) == len(TINY.utilizations)

    def test_persistence_dominates_baseline(self, result):
        for policy in ("FP", "RR", "TDMA"):
            aware = result.ratios[f"{policy}-P"]
            base = result.ratios[policy]
            assert all(a >= b for a, b in zip(aware, base))

    def test_perfect_dominates_everything(self, result):
        perfect = result.ratios["Perfect"]
        for label, series in result.ratios.items():
            if label != "Perfect":
                assert all(p >= v for p, v in zip(perfect, series))

    def test_gaps_are_reported(self, result):
        assert set(result.gaps) == {"FP", "RR", "TDMA"}
        assert all(0.0 <= gap <= 1.0 for gap in result.gaps.values())

    def test_render_contains_panels(self, result):
        text = result.render()
        assert "Fig. 2a" in text and "Fig. 2c" in text
        assert "percentage points" in text


class TestFig3:
    def test_fig3a_shape(self):
        result = run_fig3a(TINY, core_counts=(2, 4))
        assert result.x_values == (2, 4)
        for label, series in result.measures.items():
            assert len(series) == 2
        # More cores -> never easier for the same per-core utilisation.
        for policy in ("FP-P", "FP"):
            assert result.measures[policy][1] <= result.measures[policy][0] + 0.25

    def test_fig3b_runs(self):
        result = run_fig3b(TINY, d_mem_microseconds=(2, 10))
        assert result.x_values == (2, 10)
        assert "FP-P" in result.measures

    def test_fig3c_runs_with_hybrid_parameters(self):
        result = run_fig3c(TINY, cache_sets=(64, 256))
        assert result.x_values == (64, 256)
        assert all(0 <= v <= 1 for series in result.measures.values() for v in series)

    def test_fig3d_slot_axis(self):
        result = run_fig3d(TINY, slot_sizes=(1, 4))
        assert set(result.measures) == {"RR-P", "RR", "TDMA-P", "TDMA"}

    def test_render(self):
        result = run_fig3a(TINY, core_counts=(2,))
        assert "Fig. 3a" in result.render()


class TestTable1:
    def test_twenty_five_rows(self):
        assert len(run_table1().rows) == 25

    def test_render_lists_all_benchmarks(self):
        text = run_table1().render()
        for name in ("lcdnum", "nsichneu", "minver"):
            assert name in text


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", "x", [1, 2], {"A": [0.1, 0.2], "B": [0.3, 0.4]})
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[2] and "B" in lines[2]
        assert "0.100" in text and "0.400" in text

    def test_format_gaps(self):
        text = format_gaps({"FP": 0.7})
        assert "70.0 pp" in text

    def test_format_rows(self):
        text = format_rows("T", ("a", "b"), [(1, 2), (30, 40)])
        assert "30" in text and "b" in text

    def test_format_coverage_lists_quarantines(self):
        from repro.experiments.report import format_coverage
        from repro.experiments.supervisor import SampleFailure

        failure = SampleFailure(
            point=1,
            sample=2,
            utilization=0.4,
            seed=123,
            kind="crash",
            exception="WorkerCrashError",
            message="worker died",
            traceback_digest="",
            attempts=3,
        )
        text = format_coverage(7, 8, [failure])
        assert "7/8" in text and "87.5%" in text
        assert "reproducer seed 123" in text


class TestParallelRunner:
    def test_parallel_jobs_match_sequential(self):
        # Determinism is seed-based, so worker processes must reproduce the
        # sequential results exactly.
        platform = default_platform()
        variants = standard_variants(include_perfect=False)[:2]
        sequential = run_curve(platform, variants, TINY)
        from dataclasses import replace

        parallel = run_curve(platform, variants, replace(TINY, jobs=2))
        for utilization in TINY.utilizations:
            assert [s.verdicts for s in sequential[utilization]] == [
                s.verdicts for s in parallel[utilization]
            ]


class TestFig1:
    def test_all_quantities_match_paper(self):
        from repro.experiments.fig1 import run_fig1

        result = run_fig1()
        assert result.all_match
        assert len(result.checks) == 9

    def test_render_reports_verdicts(self):
        from repro.experiments.fig1 import run_fig1

        text = run_fig1().render()
        assert "Fig. 1" in text
        assert "MISMATCH" not in text
        assert text.count("ok") >= 9
