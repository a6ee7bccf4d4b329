"""Differential correctness tests of the analysis-kernel optimisations.

Three optimisations must each be an *invisible* one — for every task set,
platform and approach combination they have to return results identical to
their reference path (same verdict, same per-task response times, same
iteration counts):

* the epoch-keyed memoization of the interference terms (see
  :class:`repro.businterference.context.AnalysisContext`) versus
  ``AnalysisConfig(memoization=False)``;
* the packed-bitmask cache-set kernel (see
  :class:`repro.model.interference.InterferenceTable`) versus the retained
  ``frozenset`` algebra (``AnalysisConfig(bitset_kernel=False)``);
* the warm-started fixed point (re-verifying a previously converged map)
  versus a cold analysis of a fresh task-set object;
* the fused BAT evaluator over the interference table's per-cut rows
  (:meth:`repro.model.interference.InterferenceTable.rows`) versus the
  per-term evaluation over the same table
  (``AnalysisConfig(array_kernel=False)``), on the multiset approach
  pairs also versus the ``frozenset`` reference;
* the adjacent warm-start chains (cross-utilisation hint chains of
  :func:`repro.experiments.runner.evaluate_sample` and the hint-chained
  sensitivity bisections) versus hint-free cold runs;
* the dominance-ordered variant evaluation of ``evaluate_sample`` (both
  the tightest-first and loosest-first orders) versus brute-forcing every
  variant independently;
* the lockstep multi-sample engine
  (:func:`repro.analysis.lockstep.analyze_taskset_batch`, with and
  without the numpy row fold) versus the sequential per-lane path
  (``AnalysisConfig(lockstep_kernel=False)``);
* the worker-resident state plane
  (:class:`repro.experiments.stateplane.StatePlane` replaying resident
  task sets through re-verified warm starts) versus residency disabled
  (``REPRO_STATE_PLANE_CAP=0``).

This file pins them down over broad randomized samples; the fuzzing
counterparts are the ``memo-identity`` / ``bitset-identity`` /
``warm-start-identity`` / ``batch-identity`` /
``adjacent-warmstart-identity`` / ``lockstep-identity`` /
``resident-plane-identity`` oracles of :mod:`repro.verify.oracles`.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.schedulability import check_schedulability
from repro.analysis.sensitivity import breakdown_d_mem, breakdown_period_scale
from repro.analysis.wcrt import WarmHint, analyze_taskset
from repro.budget import Budget
from repro.crpd.approaches import CrpdApproach
from repro.experiments.config import (
    SweepSettings,
    default_platform,
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
    memoized = analyze_taskset(taskset, platform, config)
    reference = analyze_taskset(
        taskset, platform, replace(config, memoization=False)
    )
    # WcrtResult equality covers verdict, per-task response times, failing
    # task and outer iteration count (perf counters are excluded).
    assert memoized == reference
    return memoized


class TestMemoizationIsInvisible:
    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID)
    def test_default_analysis_identical(self, seed, utilization):
        base = default_platform()
        taskset = generate_taskset(random.Random(seed), base, utilization)
        for policy in BusPolicy:
            _compare(taskset, base.with_bus_policy(policy), AnalysisConfig())

    @pytest.mark.parametrize("crpd", list(CrpdApproach))
    @pytest.mark.parametrize("cpro", list(CproApproach))
    def test_every_crpd_cpro_combination_identical(self, crpd, cpro):
        base = default_platform()
        config = AnalysisConfig(crpd_approach=crpd, cpro_approach=cpro)
        for seed in range(4):
            taskset = generate_taskset(
                random.Random(100 + seed), base, 0.4 + 0.1 * seed
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


def _compare_bitset(taskset, platform, config):
    bitset = analyze_taskset(
        taskset, platform, replace(config, bitset_kernel=True)
    )
    reference = analyze_taskset(
        taskset, platform, replace(config, bitset_kernel=False)
    )
    assert bitset == reference
    return bitset


class TestBitsetKernelIsInvisible:
    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::3])
    def test_default_analysis_identical(self, seed, utilization):
        base = default_platform()
        taskset = generate_taskset(random.Random(seed), base, utilization)
        for policy in BusPolicy:
            _compare_bitset(
                taskset, base.with_bus_policy(policy), AnalysisConfig()
            )

    @pytest.mark.parametrize("crpd", list(CrpdApproach))
    @pytest.mark.parametrize("cpro", list(CproApproach))
    def test_every_crpd_cpro_combination_identical(self, crpd, cpro):
        base = default_platform()
        config = AnalysisConfig(crpd_approach=crpd, cpro_approach=cpro)
        for seed in range(3):
            taskset = generate_taskset(
                random.Random(400 + seed), base, 0.35 + 0.15 * seed
            )
            for policy in (BusPolicy.FP, BusPolicy.RR):
                _compare_bitset(taskset, base.with_bus_policy(policy), config)

    def test_reference_path_never_builds_a_table(self):
        base = default_platform()
        taskset = generate_taskset(random.Random(500), base, 0.4)
        result = analyze_taskset(
            taskset, base, AnalysisConfig(bitset_kernel=False)
        )
        assert result.perf.bitset_table_builds == 0
        result = analyze_taskset(
            taskset, base, AnalysisConfig(bitset_kernel=True)
        )
        assert result.perf.bitset_table_builds == 1


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


def _small_platform():
    """The default platform shrunk to 64 cache sets.

    Every mask of a 64-set cache fits one machine word, so the grid over
    this platform keeps the kernels honest where block sets overlap far
    more than on the paper's 256 sets.
    """
    base = default_platform()
    return replace(base, cache=CacheGeometry(num_sets=64, block_size=32))


def _compare_batch(taskset, platform, config):
    """Fused evaluation vs per-term evaluation over one table, bit for bit."""
    batched_config = replace(config, bitset_kernel=True, array_kernel=True)
    prefill_batch(
        (taskset,),
        batched_config.crpd_approach,
        batched_config.cpro_approach,
    )
    batched = analyze_taskset(taskset, platform, batched_config)
    reference = analyze_taskset(
        taskset, platform, replace(config, array_kernel=False)
    )
    assert batched == reference
    return batched


class TestBatchKernelIsInvisible:
    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::3])
    def test_default_analysis_identical(self, seed, utilization):
        base = default_platform()
        taskset = generate_taskset(random.Random(seed), base, utilization)
        for policy in BusPolicy:
            _compare_batch(
                taskset, base.with_bus_policy(policy), AnalysisConfig()
            )

    @pytest.mark.parametrize("crpd", list(CrpdApproach))
    @pytest.mark.parametrize("cpro", list(CproApproach))
    def test_every_crpd_cpro_combination_identical(self, crpd, cpro):
        base = default_platform()
        config = AnalysisConfig(crpd_approach=crpd, cpro_approach=cpro)
        for seed in range(3):
            taskset = generate_taskset(
                random.Random(800 + seed), base, 0.35 + 0.15 * seed
            )
            for policy in (BusPolicy.FP, BusPolicy.RR):
                _compare_batch(taskset, base.with_bus_policy(policy), config)

    @pytest.mark.parametrize("seed,utilization", SAMPLE_GRID[::4])
    def test_small_platform_identical(self, seed, utilization):
        small = _small_platform()
        taskset = generate_taskset(random.Random(seed), small, utilization)
        for policy in BusPolicy:
            _compare_batch(
                taskset, small.with_bus_policy(policy), AnalysisConfig()
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
        assert perf.array_kernel_batches == 0
        again = prefill_batch(
            tasksets, config.crpd_approach, config.cpro_approach, perf=perf
        )
        assert again == 0
        assert perf.batch_analyses == 2
        # An analysis of a compiled task set compiles nothing further.
        result = analyze_taskset(tasksets[0], small, config)
        assert result.perf.batch_analyses == 0
        assert result.perf.bitset_table_builds == 0

    def test_platform_core_without_tasks(self):
        # A three-core platform whose middle core holds no task: the fused
        # FP/RR evaluators find no rows for it and must agree with the
        # per-term path, which sums an empty core to zero, and with the
        # frozenset reference.
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
                config = AnalysisConfig(persistence=persistence)
                fused = _compare_batch(
                    taskset, platform.with_bus_policy(policy), config
                )
                reference = analyze_taskset(
                    taskset,
                    platform.with_bus_policy(policy),
                    replace(config, bitset_kernel=False, memoization=False),
                )
                assert fused == reference


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


class TestFusedMultisetIsInvisible:
    """The fused evaluator on multiset pairs == per-term == ``frozenset``.

    Every approach pair with a multiset side under every bus policy and
    flag set: the fused run, the per-term run over the same table
    (``array_kernel=False``) and the reference kernel return equal
    results with equal iteration counts, and the fused run makes no memo
    probe.  Cache sizes rotate through 64, 16 and 256 sets across the
    pairs: overlap-heavy small caches make the multiset folds bind.
    """

    @pytest.mark.parametrize(
        "index,pair",
        list(enumerate(MULTISET_PAIRS)),
        ids=[f"{crpd.value}+{cpro.value}" for crpd, cpro in MULTISET_PAIRS],
    )
    def test_fused_matches_per_term_and_reference(self, index, pair):
        crpd, cpro = pair
        base = replace(
            default_platform(),
            cache=CacheGeometry(num_sets=(64, 16, 256)[index % 3], block_size=32),
        )
        taskset = generate_taskset(random.Random(1300 + index), base, 0.45)
        for policy in BusPolicy:
            platform = base.with_bus_policy(policy)
            for flags in MULTISET_FLAGS:
                config = AnalysisConfig(
                    crpd_approach=crpd, cpro_approach=cpro, warm_start=False,
                    **flags,
                )
                fused = analyze_taskset(taskset, platform, config)
                per_term = analyze_taskset(
                    taskset, platform, replace(config, array_kernel=False)
                )
                reference = analyze_taskset(
                    taskset,
                    platform,
                    replace(config, bitset_kernel=False, memoization=False),
                )
                assert fused == per_term == reference, (policy, flags)
                assert (
                    fused.perf.inner_iterations
                    == per_term.perf.inner_iterations
                    == reference.perf.inner_iterations
                )
                assert fused.perf.memo_hits + fused.perf.memo_misses == 0


class TestAdjacentWarmStartIsInvisible:
    """Cross-analysis hint chains never change a verdict or a bound."""

    def test_chained_sample_identical_and_chain_engages(self):
        base = default_platform()
        variants = standard_variants(True)
        generation = GenerationConfig()
        taskset = generate_taskset(random.Random(9000), base, 0.3)
        chain = {}
        first = evaluate_sample(
            base, 0.3, variants, generation, 9000,
            taskset=taskset, hint_chain=chain,
        )
        assert chain  # schedulable analyses donated converged maps
        # Re-evaluate an equal-but-fresh task set with the chain attached:
        # hints verify exactly, and the verdicts stay bit-identical to a
        # chain-free evaluation.
        again = generate_taskset(random.Random(9000), base, 0.3)
        perf = PerfCounters()
        chained = evaluate_sample(
            base, 0.3, variants, generation, 9000, perf,
            taskset=again, hint_chain=chain,
        )
        cold = evaluate_sample(
            base, 0.3, variants, generation, 9000,
            taskset=generate_taskset(random.Random(9000), base, 0.3),
        )
        assert chained.verdicts == cold.verdicts == first.verdicts
        assert perf.adjacent_warm_starts >= 1
        assert perf.adjacent_warm_start_iterations_saved >= 0

    def test_curve_chains_bit_identical_to_cold_samples(self):
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

    @pytest.mark.parametrize("policy", [BusPolicy.FP, BusPolicy.RR])
    def test_hint_chained_bisections_identical(self, policy):
        base = default_platform().with_bus_policy(policy)
        chained_config = AnalysisConfig()
        cold_config = replace(chained_config, warm_start=False)
        for seed in (9100, 9101, 9102):
            taskset = generate_taskset(random.Random(seed), base, 0.4)
            perf = PerfCounters()
            assert breakdown_d_mem(
                taskset, base, chained_config, perf=perf
            ) == breakdown_d_mem(
                generate_taskset(random.Random(seed), base, 0.4),
                base,
                cold_config,
            )
            assert breakdown_period_scale(
                generate_taskset(random.Random(seed), base, 0.4),
                base,
                chained_config,
            ) == breakdown_period_scale(
                generate_taskset(random.Random(seed), base, 0.4),
                base,
                cold_config,
            )

    def test_foreign_hint_never_perturbs_a_cold_analysis(self):
        # A hint from a *different* problem (scaled periods) must either
        # verify exactly or be discarded — the result is bit-identical to
        # the cold analysis in both cases.
        base = default_platform()
        config = AnalysisConfig()
        for seed in (9200, 9201):
            taskset = generate_taskset(random.Random(seed), base, 0.45)
            donor_set = generate_taskset(random.Random(seed), base, 0.45)
            scaled = donor_set  # same structure, analysed independently
            donor = analyze_taskset(scaled, base, config)
            if not donor.schedulable:
                continue
            hint = WarmHint(
                response_times={
                    task.priority: value
                    for task, value in donor.response_times.items()
                },
                outer_iterations=donor.outer_iterations,
            )
            fresh = generate_taskset(random.Random(seed), base, 0.45)
            hinted = analyze_taskset(fresh, base, config, warm_hint=hint)
            cold = analyze_taskset(
                generate_taskset(random.Random(seed), base, 0.45),
                base,
                config,
            )
            # The two runs analyse equal-but-distinct task objects, so
            # compare by priority (task equality is identity-based).
            assert hinted.schedulable == cold.schedulable
            assert hinted.outer_iterations == cold.outer_iterations
            assert {
                task.priority: value
                for task, value in hinted.response_times.items()
            } == {
                task.priority: value
                for task, value in cold.response_times.items()
            }


class TestDominanceSkipsAreInvisible:
    """Skipped analyses report the verdict brute force would have."""

    #: Low utilisations exercise the loosest-first success-skip order,
    #: high ones the tightest-first failure-skip order (see
    #: ``_SUCCESS_ORDER_UTILIZATION`` in repro.experiments.runner).
    @pytest.mark.parametrize("utilization", [0.3, 0.45, 0.6, 0.8])
    def test_verdicts_match_brute_force(self, utilization):
        base = default_platform()
        variants = standard_variants(True)
        generation = GenerationConfig()
        for i in range(6):
            seed = _sample_seed(2020, int(utilization * 100), i)
            outcome = evaluate_sample(
                base, utilization, variants, generation, seed
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
            assert outcome.verdicts == brute


def _lockstep_snapshot(result):
    """Object-independent projection of a WcrtResult (Task compares by id)."""
    return (
        result.schedulable,
        result.outer_iterations,
        None if result.failed_task is None else result.failed_task.priority,
        {task.priority: r for task, r in result.response_times.items()},
    )


class TestLockstepIsInvisible:
    """The lockstep batch engine vs the sequential scalar path, bit for bit.

    The edge-case tests live in ``tests/test_lockstep.py``; here the broad
    randomized grid pins the equivalence across utilisations, bus
    policies, and the numpy-absent pure-Python fold.
    """

    @pytest.mark.parametrize("utilization", [0.15, 0.35, 0.5, 0.65, 0.85])
    def test_batch_matches_scalar_sequence(self, utilization):
        from repro.analysis.lockstep import analyze_taskset_batch

        base = default_platform()
        for policy in (BusPolicy.FP, BusPolicy.TDMA, BusPolicy.PERFECT):
            platform = base.with_bus_policy(policy)

            def fresh():
                return [
                    generate_taskset(random.Random(seed), base, utilization)
                    for seed in range(5)
                ]

            batch = analyze_taskset_batch(
                fresh(), platform, AnalysisConfig(lockstep_kernel=True)
            )
            scalar_config = AnalysisConfig(lockstep_kernel=False)
            for outcome, taskset in zip(batch, fresh()):
                assert outcome.ok
                reference = analyze_taskset(taskset, platform, scalar_config)
                assert _lockstep_snapshot(outcome.result) == _lockstep_snapshot(
                    reference
                )

    @pytest.mark.parametrize("utilization", [0.35, 0.65])
    def test_numpy_absent_fold_identical(self, utilization, monkeypatch):
        from repro.analysis import lockstep as lockstep_mod
        from repro.analysis.lockstep import analyze_taskset_batch

        monkeypatch.setattr(lockstep_mod, "_np", None)
        monkeypatch.setattr(lockstep_mod, "_ARRAY_KERNEL_WARNED", True)
        base = default_platform()
        perf = PerfCounters()
        batch = analyze_taskset_batch(
            [
                generate_taskset(random.Random(seed), base, utilization)
                for seed in range(4)
            ],
            base,
            AnalysisConfig(lockstep_kernel=True),
            perf=perf,
        )
        assert perf.array_kernel_unavailable == 1
        scalar_config = AnalysisConfig(lockstep_kernel=False)
        for outcome, seed in zip(batch, range(4)):
            assert outcome.ok
            reference = analyze_taskset(
                generate_taskset(random.Random(seed), base, utilization),
                base,
                scalar_config,
            )
            assert _lockstep_snapshot(outcome.result) == _lockstep_snapshot(
                reference
            )

    @pytest.mark.parametrize("utilization", [0.3, 0.6])
    def test_batch_worker_path_matches_per_item_path(self, utilization):
        from repro.experiments.stateplane import reset_resident_plane
        from repro.experiments.supervisor import WorkItem
        from repro.experiments.runner import evaluate_items_batch, evaluate_sample

        base = default_platform()
        variants = standard_variants(True)
        generation = GenerationConfig()
        items = [
            WorkItem(0, i, utilization, _sample_seed(55, 0, i))
            for i in range(6)
        ]
        reset_resident_plane()
        results, _perf = evaluate_items_batch(
            base, variants, generation, [(item, 0) for item in items]
        )
        reset_resident_plane()
        for item, result in zip(items, results):
            assert result[0] == "ok"
            _tag, key, weight, verdicts = result
            assert key == item.key
            outcome = evaluate_sample(
                base, utilization, variants, generation, item.seed
            )
            assert verdicts == outcome.verdicts
            assert weight == outcome.weight
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

    def test_canonical_replay_matches_fresh_analysis(self):
        from repro.experiments.stateplane import StatePlane

        base = default_platform()
        plane = StatePlane(capacity=4)
        config = AnalysisConfig(warm_start=True)
        for seed in range(4):
            def build(seed=seed):
                return generate_taskset(random.Random(seed), base, 0.4)

            fresh = analyze_taskset(build(), base, config)
            resident = plane.canonical(("case", seed), build)
            cold = analyze_taskset(resident, base, config)
            warm = analyze_taskset(
                plane.canonical(("case", seed), build), base, config
            )
            assert _lockstep_snapshot(cold) == _lockstep_snapshot(fresh)
            assert _lockstep_snapshot(warm) == _lockstep_snapshot(fresh)
            if fresh.schedulable:
                assert warm.perf.warm_starts == 1
