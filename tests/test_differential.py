"""Differential correctness tests of the analysis-kernel optimisations.

Each optimisation must be an *invisible* one — for every task set,
platform and approach combination it has to return results identical to
its reference path (same verdict, same per-task response times, same
iteration counts):

* the production kernel, whose fused evaluator reads the per-cut rows of
  the packed-bitmask :class:`repro.model.interference.InterferenceTable`,
  versus the reference kernel, the per-term evaluation over ``frozenset``
  calculators (``AnalysisConfig(bitset_kernel=False)``, or any other
  kernel flag off);
* the warm-started fixed point (re-verifying a previously converged map)
  versus a cold analysis of a fresh task-set object, and sensitivity
  bisections with warm starts versus without;
* the dominance-ordered variant evaluation of ``evaluate_sample`` (both
  the tightest-first and loosest-first orders) versus brute-forcing every
  variant independently, and the supervised sweep and its resident
  per-item path versus evaluating each sample on its own;
* the worker-resident state plane
  (:class:`repro.experiments.stateplane.StatePlane` replaying resident
  task sets through re-verified warm starts) versus residency disabled
  (``REPRO_STATE_PLANE_CAP=0``).

This file pins them down over broad randomized samples; the fuzzing
counterparts are the ``kernel-identity`` / ``warm-start-identity``
oracles of :mod:`repro.verify.oracles`.
"""

import itertools
import random
from dataclasses import replace

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.schedulability import check_schedulability
from repro.analysis.sensitivity import breakdown_d_mem, breakdown_period_scale
from repro.analysis.wcrt import analyze_taskset
from repro.budget import Budget
from repro.crpd.approaches import CrpdApproach
from repro.experiments.config import (
    SweepSettings,
    Variant,
    default_platform,
    slot_variants,
    standard_variants,
)
from repro.experiments.runner import _sample_seed, evaluate_sample, run_curve
from repro.generation.taskset_gen import GenerationConfig, generate_taskset
from repro.model.interference import prefill_batch
from repro.model.platform import BusPolicy, CacheGeometry
from repro.model.task import Task, TaskSet
from repro.perf import PerfCounters
from repro.persistence.cpro import CproApproach

#: Seeds x utilisations: 60 distinct random task sets, spanning trivially
#: schedulable, borderline and hopeless regions of the sweep.
SAMPLE_GRID = tuple(
    (seed, utilization)
    for seed in range(12)
    for utilization in (0.15, 0.35, 0.5, 0.65, 0.85)
)


def _compare(taskset, platform, config):
    """Production kernel vs reference kernel, bit for bit."""
    production = analyze_taskset(taskset, platform, config)
    reference = analyze_taskset(
        taskset, platform, replace(config, bitset_kernel=False)
    )
    # WcrtResult equality covers verdict, per-task response times, failing
    # task and outer iteration count (perf counters are excluded); both
    # kernels share the fixed-point loops, so the inner iterations agree too.
    assert production == reference
    assert production.perf.inner_iterations == reference.perf.inner_iterations
    return production


def _small_platform():
    """The default platform shrunk to 64 cache sets.

    Every mask of a 64-set cache fits one machine word, so the grid over
    this platform keeps the kernels honest where block sets overlap far
    more than on the paper's 256 sets.
    """
    base = default_platform()
    return replace(base, cache=CacheGeometry(num_sets=64, block_size=32))


#: The approach pairs with a multiset side: the fused evaluator folds
#: their multiset CRPD entries and CPRO overlap rows.
MULTISET_PAIRS = tuple(
    (crpd, cpro)
    for crpd in CrpdApproach
    for cpro in CproApproach
    if crpd is CrpdApproach.ECB_UNION_MULTISET or cpro is CproApproach.MULTISET
)

#: Analysis flag sets of the multiset grid: the persistence-aware and
#: baseline bounds, and the two opt-in tightenings/corrections.
MULTISET_FLAGS = (
    {},
    {"persistence": False},
    {"persistence_in_low": True},
    {"tdma_slot_alignment": True},
)


#: The configuration flags that select the kernel: any one off selects
#: the reference (see :attr:`AnalysisConfig.reference`).
KERNEL_FLAGS = ("memoization", "bitset_kernel", "array_kernel")


def _flags_id(flags):
    """Test id of one on/off combination of :data:`KERNEL_FLAGS`."""
    off = [name for name, on in zip(KERNEL_FLAGS, flags) if not on]
    return "+".join(off) + "-off" if off else "all-on"


#: First seeds of the task-set draws of the approach-combination grid.
COMBINATION_DRAWS = (100, 400, 800)


class TestKernelIsInvisible:
    """Production kernel == reference kernel on every input."""

    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID)
    def test_default_analysis_identical(self, seed, utilization):
        base = default_platform()
        taskset = generate_taskset(random.Random(seed), base, utilization)
        for policy in BusPolicy:
            _compare(taskset, base.with_bus_policy(policy), AnalysisConfig())

    @pytest.mark.parametrize("first_seed", COMBINATION_DRAWS)
    @pytest.mark.parametrize("crpd", list(CrpdApproach))
    @pytest.mark.parametrize("cpro", list(CproApproach))
    def test_every_crpd_cpro_combination_identical(self, crpd, cpro, first_seed):
        base = default_platform()
        config = AnalysisConfig(crpd_approach=crpd, cpro_approach=cpro)
        for seed in range(4):
            taskset = generate_taskset(
                random.Random(first_seed + seed), base, 0.4 + 0.1 * seed
            )
            for policy in (BusPolicy.FP, BusPolicy.RR):
                _compare(taskset, base.with_bus_policy(policy), config)

    @pytest.mark.parametrize("policy", list(BusPolicy))
    def test_baseline_analysis_identical(self, policy):
        base = default_platform()
        config = AnalysisConfig(persistence=False)
        for seed in range(8):
            taskset = generate_taskset(
                random.Random(200 + seed), base, 0.3 + 0.08 * seed
            )
            _compare(taskset, base.with_bus_policy(policy), config)

    def test_persistence_in_low_identical(self):
        base = default_platform()
        config = AnalysisConfig(persistence_in_low=True)
        for seed in range(6):
            taskset = generate_taskset(
                random.Random(300 + seed), base, 0.35 + 0.1 * seed
            )
            _compare(taskset, base.with_bus_policy(BusPolicy.FP), config)

    def test_reanalysis_of_same_taskset_is_stable(self):
        # Shared derived tables must not leak state between configurations
        # analysing the same task set object.
        base = default_platform()
        taskset = generate_taskset(random.Random(42), base, 0.5)
        first = [
            _compare(taskset, base.with_bus_policy(policy), AnalysisConfig())
            for policy in BusPolicy
        ]
        second = [
            _compare(taskset, base.with_bus_policy(policy), AnalysisConfig())
            for policy in BusPolicy
        ]
        assert first == second

    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::2])
    def test_small_platform_identical(self, seed, utilization):
        small = _small_platform()
        taskset = generate_taskset(random.Random(seed), small, utilization)
        for policy in BusPolicy:
            _compare(taskset, small.with_bus_policy(policy), AnalysisConfig())

    @pytest.mark.parametrize(
        "num_sets", (64, 16, 256), ids=lambda sets: f"{sets}sets"
    )
    @pytest.mark.parametrize(
        "index,pair",
        list(enumerate(MULTISET_PAIRS)),
        ids=[f"{crpd.value}+{cpro.value}" for crpd, cpro in MULTISET_PAIRS],
    )
    def test_multiset_pairs_identical(self, index, pair, num_sets):
        # Every approach pair with a multiset side under every bus policy,
        # flag set and cache size: overlap-heavy small caches make the
        # multiset folds bind, the paper's 256 sets leave them slack.
        crpd, cpro = pair
        base = replace(
            default_platform(),
            cache=CacheGeometry(num_sets=num_sets, block_size=32),
        )
        taskset = generate_taskset(random.Random(1300 + index), base, 0.45)
        for policy in BusPolicy:
            for flags in MULTISET_FLAGS:
                config = AnalysisConfig(
                    crpd_approach=crpd, cpro_approach=cpro, warm_start=False,
                    **flags,
                )
                _compare(taskset, base.with_bus_policy(policy), config)

    def test_platform_core_without_tasks(self):
        # A three-core platform whose middle core holds no task: the fused
        # FP/RR evaluators find no rows for it and must agree with the
        # reference, which sums an empty core to zero.
        tasks = []
        for index in range(6):
            period = 40000 + 9000 * index
            ecbs = frozenset(range(10 * index, 10 * index + 30))
            tasks.append(
                Task(
                    name=f"t{index}",
                    pd=300 + 50 * index,
                    md=20 + index,
                    md_r=8,
                    period=period,
                    deadline=period,
                    priority=index + 1,
                    core=(0, 2)[index % 2],
                    ecbs=ecbs,
                    ucbs=frozenset(sorted(ecbs)[::3]),
                    pcbs=frozenset(sorted(ecbs)[1::4]),
                )
            )
        taskset = TaskSet(tasks)
        platform = replace(default_platform(), num_cores=3)
        for policy in BusPolicy:
            for persistence in (True, False):
                _compare(
                    taskset,
                    platform.with_bus_policy(policy),
                    AnalysisConfig(persistence=persistence),
                )

    def test_prefill_batch_compiles_each_taskset_once(self):
        small = _small_platform()
        config = AnalysisConfig()
        tasksets = [
            generate_taskset(random.Random(seed), small, 0.4)
            for seed in (900, 901)
        ]
        perf = PerfCounters()
        compiled = prefill_batch(
            tasksets, config.crpd_approach, config.cpro_approach, perf=perf
        )
        assert compiled == 2
        assert perf.batch_analyses == 2
        assert perf.bitset_table_builds == 2
        again = prefill_batch(
            tasksets, config.crpd_approach, config.cpro_approach, perf=perf
        )
        assert again == 0
        assert perf.batch_analyses == 2
        # An analysis of a compiled task set compiles nothing further.
        result = analyze_taskset(tasksets[0], small, config)
        assert result.perf.batch_analyses == 0
        assert result.perf.bitset_table_builds == 0

    @pytest.mark.parametrize(
        "flags",
        list(itertools.product((True, False), repeat=len(KERNEL_FLAGS))),
        ids=_flags_id,
    )
    def test_any_kernel_flag_off_selects_the_reference(self, flags):
        # Every combination of the three kernel flags: one off is enough
        # to select the reference, which builds no table; all on is the
        # production kernel, which builds one.  Both give one result.
        config = AnalysisConfig(**dict(zip(KERNEL_FLAGS, flags)))
        assert config.reference is not all(flags)
        base = default_platform()
        taskset = generate_taskset(random.Random(500), base, 0.4)
        result = analyze_taskset(taskset, base, config)
        built = "interference-table" in taskset._derived
        assert built is not config.reference
        assert result.perf.bitset_table_builds == int(built)
        assert result == analyze_taskset(taskset, base, AnalysisConfig())


class TestBudgetIsInvisible:
    """A budget generous enough to finish must never perturb a result.

    Ticks only count and compare (see :mod:`repro.budget`), so a
    completed analysis under an active budget has to be bit-identical to
    the budget-less run — same verdict, same per-task bounds, same outer
    iteration count.  The abort-side properties (partial results, cache
    soundness after aborts) live in ``tests/test_budget.py``.
    """

    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::3])
    def test_default_analysis_identical(self, seed, utilization):
        base = default_platform()
        config = AnalysisConfig()
        for policy in BusPolicy:
            platform = base.with_bus_policy(policy)
            taskset = generate_taskset(random.Random(seed), base, utilization)
            plain = analyze_taskset(taskset, platform, config)
            budget = Budget(max_iterations=10**9, wall_seconds=3600.0)
            budgeted = analyze_taskset(
                taskset, platform, config, budget=budget
            )
            assert budgeted == plain
            assert budget.iterations > 0

    @pytest.mark.parametrize("crpd", list(CrpdApproach))
    @pytest.mark.parametrize("cpro", list(CproApproach))
    def test_every_crpd_cpro_combination_identical(self, crpd, cpro):
        base = default_platform()
        config = AnalysisConfig(crpd_approach=crpd, cpro_approach=cpro)
        for seed in range(3):
            taskset = generate_taskset(
                random.Random(700 + seed), base, 0.35 + 0.15 * seed
            )
            for policy in (BusPolicy.FP, BusPolicy.RR):
                platform = base.with_bus_policy(policy)
                plain = analyze_taskset(taskset, platform, config)
                budgeted = analyze_taskset(
                    taskset,
                    platform,
                    config,
                    budget=Budget(max_iterations=10**9),
                )
                assert budgeted == plain


class TestWarmStartIsInvisible:
    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::4])
    def test_replay_bit_identical_to_cold(self, seed, utilization):
        base = default_platform()
        config = AnalysisConfig()
        for policy in BusPolicy:
            platform = base.with_bus_policy(policy)
            taskset = generate_taskset(random.Random(seed), base, utilization)
            cold = analyze_taskset(taskset, platform, config)
            warm = analyze_taskset(taskset, platform, config)
            # WcrtResult equality covers verdict, bounds, failing task and
            # the reported outer iteration count (perf is excluded).
            assert warm == cold
            if cold.schedulable:
                assert warm.perf.warm_starts == 1
                assert warm.perf.outer_iterations == 1
                assert (
                    warm.perf.warm_start_iterations_saved
                    == cold.outer_iterations - 1
                )
            else:
                # Unschedulable results must never seed a warm start.
                assert warm.perf.warm_starts == 0

    def test_seeds_are_config_keyed(self):
        # A seed recorded under one config must not leak into analyses
        # under another: every distinct config gets its own cold run.
        base = default_platform()
        taskset = generate_taskset(random.Random(600), base, 0.4)
        aware = AnalysisConfig(persistence=True)
        oblivious = AnalysisConfig(persistence=False)
        first = analyze_taskset(taskset, base, aware)
        cross = analyze_taskset(taskset, base, oblivious)
        assert cross.perf.warm_starts == 0
        again = analyze_taskset(taskset, base, oblivious)
        if cross.schedulable:
            assert again.perf.warm_starts == 1
        assert again == cross
        assert analyze_taskset(taskset, base, aware) == first

    def test_disabled_warm_start_always_runs_cold(self):
        base = default_platform()
        config = AnalysisConfig(warm_start=False)
        taskset = generate_taskset(random.Random(601), base, 0.4)
        first = analyze_taskset(taskset, base, config)
        second = analyze_taskset(taskset, base, config)
        assert second == first
        assert second.perf.warm_starts == 0
        assert second.perf.outer_iterations == first.perf.outer_iterations


class TestBisectionProbesAreIndependent:
    """Sensitivity bisections give the same breakdown with warm starts off."""

    @pytest.mark.parametrize("policy", [BusPolicy.FP, BusPolicy.RR])
    def test_bisections_identical_with_and_without_warm_start(self, policy):
        # One task-set object probed at every latency (its memo and
        # warm-start stores shared by the probes) must find what fresh
        # objects find with warm starts off.  No probe seeds another.
        base = default_platform().with_bus_policy(policy)
        warm_config = AnalysisConfig()
        cold_config = replace(warm_config, warm_start=False)
        for seed in (9100, 9101, 9102):
            taskset = generate_taskset(random.Random(seed), base, 0.4)
            perf = PerfCounters()
            assert breakdown_d_mem(
                taskset, base, warm_config, perf=perf
            ) == breakdown_d_mem(
                generate_taskset(random.Random(seed), base, 0.4),
                base,
                cold_config,
            )
            assert perf.analyses > 0
            assert breakdown_period_scale(
                taskset, base, warm_config
            ) == breakdown_period_scale(
                generate_taskset(random.Random(seed), base, 0.4),
                base,
                cold_config,
            )


def _dominance_catalogues():
    """``(platform, variants)`` catalogues whose plans relate variants in
    every way ``runner._dominates`` can: same-bus persistence pairs, the
    perfect bus, RR <= TDMA, slot alignment, ``persistence_in_low``,
    the multiset approach pairs and duplicate variants."""
    base = default_platform()
    standard = standard_variants(True)
    aware = AnalysisConfig()
    baseline = AnalysisConfig(persistence=False)
    aligned = AnalysisConfig(tdma_slot_alignment=True)
    aligned_baseline = replace(baseline, tdma_slot_alignment=True)
    low = AnalysisConfig(persistence_in_low=True)
    both = AnalysisConfig(
        crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
        cpro_approach=CproApproach.MULTISET,
    )
    both_baseline = replace(both, persistence=False)
    return {
        "standard": (base, standard),
        "slot-variants": (base, slot_variants()),
        "aligned-tdma": (
            base,
            (
                Variant("RR-P", BusPolicy.RR, aware),
                Variant("RR", BusPolicy.RR, baseline),
                Variant("RR-aligned", BusPolicy.RR, aligned_baseline),
                Variant("TDMA-P-aligned", BusPolicy.TDMA, aligned),
                Variant("TDMA-aligned", BusPolicy.TDMA, aligned_baseline),
                Variant("TDMA", BusPolicy.TDMA, baseline),
                Variant("Perfect", BusPolicy.PERFECT, aware),
            ),
        ),
        "persistence-in-low": (
            base,
            (
                Variant("FP-P-low", BusPolicy.FP, low),
                Variant("FP-P", BusPolicy.FP, aware),
                Variant("FP", BusPolicy.FP, baseline),
                Variant("RR-P-low", BusPolicy.RR, low),
                Variant("TDMA", BusPolicy.TDMA, baseline),
                Variant("Perfect-low", BusPolicy.PERFECT, low),
            ),
        ),
        "multiset-64-sets": (
            replace(base, cache=CacheGeometry(num_sets=64, block_size=32)),
            (
                Variant("FP-P", BusPolicy.FP, both),
                Variant("FP", BusPolicy.FP, both_baseline),
                Variant("RR-P", BusPolicy.RR, both),
                Variant("RR", BusPolicy.RR, both_baseline),
                Variant("TDMA-P", BusPolicy.TDMA, both),
                Variant("TDMA", BusPolicy.TDMA, both_baseline),
                Variant("Perfect", BusPolicy.PERFECT, both),
            ),
        ),
        "duplicates": (
            base,
            standard + (standard[0], standard[3], standard[5], standard[6]),
        ),
    }


DOMINANCE_CATALOGUES = _dominance_catalogues()


class TestDominanceSkipsAreInvisible:
    """Skipped analyses report the verdict brute force would have."""

    #: The grid spans both orders of the plan (the loosest-first success
    #: order up to ``_SUCCESS_ORDER_UTILIZATION`` in
    #: repro.experiments.runner, the tightest-first failure order above).
    UTILIZATIONS = tuple(round(0.1 * step, 1) for step in range(1, 11))
    SAMPLES = 8

    @pytest.mark.parametrize("catalogue", sorted(DOMINANCE_CATALOGUES))
    def test_verdicts_match_brute_force(self, catalogue):
        base, variants = DOMINANCE_CATALOGUES[catalogue]
        generation = GenerationConfig()
        perf = PerfCounters()
        for point, utilization in enumerate(self.UTILIZATIONS):
            for i in range(self.SAMPLES):
                seed = _sample_seed(2020, point, i)
                outcome = evaluate_sample(
                    base, utilization, variants, generation, seed, perf
                )
                brute_set = generate_taskset(
                    random.Random(seed), base, utilization, generation
                )
                brute = tuple(
                    check_schedulability(
                        brute_set,
                        base.with_bus_policy(variant.policy),
                        variant.analysis,
                    ).schedulable
                    for variant in variants
                )
                assert outcome.verdicts == brute, (utilization, i)
        assert perf.dominance_skips > 0

    def test_curve_matches_per_sample_evaluation(self):
        base = default_platform()
        variants = standard_variants(True)
        settings = SweepSettings(
            samples=4,
            seed=77,
            utilizations=(0.3, 0.4, 0.5),
            jobs=1,
        )
        outcomes = run_curve(base, variants, settings)
        for point, utilization in enumerate(settings.utilizations):
            for i, outcome in enumerate(outcomes[utilization]):
                seed = _sample_seed(settings.seed, point, i)
                cold = evaluate_sample(
                    base, utilization, variants, settings.generation, seed
                )
                assert outcome.verdicts == cold.verdicts
                assert outcome.weight == cold.weight


class TestResidentItemsAreInvisible:
    """The supervisor's per-item path matches evaluating each sample alone."""

    @pytest.mark.parametrize("utilization", [0.3, 0.6])
    def test_resident_items_match_fresh_samples(self, utilization):
        from repro.experiments.runner import evaluate_item
        from repro.experiments.stateplane import reset_resident_plane

        base = default_platform()
        variants = standard_variants(True)
        generation = GenerationConfig()
        seeds = [_sample_seed(55, 0, i) for i in range(6)]
        expected = [
            (outcome.weight, outcome.verdicts)
            for outcome in (
                evaluate_sample(base, utilization, variants, generation, seed)
                for seed in seeds
            )
        ]
        reset_resident_plane()
        try:
            # The first visit generates every task set into the
            # worker-resident plane; the second replays them, with the
            # tables their analyses compiled and their warm-start seeds.
            for misses, hits in ((len(seeds), 0), (0, len(seeds))):
                perf = PerfCounters()
                assert [
                    evaluate_item(
                        base, utilization, variants, generation, seed, perf
                    )
                    for seed in seeds
                ] == expected
                assert (
                    perf.resident_table_misses, perf.resident_table_hits
                ) == (misses, hits)
        finally:
            reset_resident_plane()


class TestResidentPlaneIsInvisible:
    """Worker-resident state (capacity on vs 0) never changes outcomes."""

    def test_sweep_outcomes_identical_with_and_without_residency(
        self, monkeypatch
    ):
        from repro.experiments.stateplane import (
            STATE_PLANE_CAP_ENV,
            reset_resident_plane,
        )

        settings = SweepSettings(
            samples=6, seed=13, utilizations=(0.3, 0.5, 0.7), jobs=1
        )
        variants = standard_variants(False)[:2]
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "0")
        reset_resident_plane()
        without = run_curve(default_platform(), variants, settings)
        monkeypatch.delenv(STATE_PLANE_CAP_ENV)
        reset_resident_plane()
        with_plane = run_curve(default_platform(), variants, settings)
        reset_resident_plane()
        assert dict(without) == dict(with_plane)
        assert not without.failures and not with_plane.failures
