"""Micro-benchmarks of the library's hot paths.

These use pytest-benchmark's normal auto-calibrated timing (many rounds):

* one full WCRT analysis of a paper-default task set (32 tasks, 4 cores);
* one cold WCRT analysis under both multiset refinements on a 64-set
  cache;
* the per-pair CPRO/CRPD cache-set term kernel from cold calculator caches;
* static parameter extraction of the heaviest benchmark model;
* task-set generation;
* one simulator run of a small scenario.

Note that ``test_bench_wcrt_analysis`` re-analyses the *same* task-set
object every round, so from the second round on it measures the
warm-started re-verification path (plus the shared interference table and
calculator caches) — exactly the regime sweep re-runs and repeated
schedulability checks operate in.  ``test_bench_wcrt_multiset`` is its
cold counterpart on the multiset path: every round analyses a fresh
task-set container, so the interference table, its per-cut multiset
tables and fused rows are rebuilt and nothing warm-starts.
``test_bench_cpro_terms`` isolates the bitmask kernel itself by
rebuilding the calculators (cold pair caches) each round.
"""

import random
from dataclasses import replace

from repro.analysis import PERSISTENCE_AWARE, analyze_taskset
from repro.cacheanalysis.extraction import extract_parameters
from repro.crpd.approaches import CrpdApproach, CrpdCalculator
from repro.experiments.config import default_platform
from repro.generation import generate_taskset
from repro.model.platform import BusPolicy, CacheGeometry, Platform
from repro.model.task import TaskSet
from repro.persistence.cpro import CproApproach, CproCalculator
from repro.program.malardalen import benchmark_program, reference_geometry
from repro.sim import (
    ScenarioSpec,
    build_scenario,
    simulate,
    workload_from_programs,
)


def test_bench_wcrt_analysis(benchmark):
    platform = default_platform()
    taskset = generate_taskset(random.Random(1), platform, 0.3)
    result = benchmark(analyze_taskset, taskset, platform, PERSISTENCE_AWARE)
    assert result.response_times


def test_bench_wcrt_multiset(benchmark):
    """Cold FP-P analysis with multiset CRPD and CPRO on a 64-set cache."""
    platform = replace(
        default_platform(), cache=CacheGeometry(num_sets=64, block_size=32)
    )
    tasks = tuple(generate_taskset(random.Random(11), platform, 0.4))
    config = replace(
        PERSISTENCE_AWARE,
        crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
        cpro_approach=CproApproach.MULTISET,
    )

    def fresh_taskset():
        return (TaskSet(tasks), platform, config), {}

    result = benchmark.pedantic(
        analyze_taskset, setup=fresh_taskset, rounds=40, iterations=1
    )
    assert result.schedulable
    assert result.perf.bitset_table_builds == 1
    assert result.perf.warm_starts == 0


def test_bench_cpro_terms(benchmark):
    """Pairwise CPRO eviction counts + CRPD gammas through fresh calculators.

    The shared interference table persists across rounds, as it does
    across real analysis runs, so its per-cut values are compiled in the
    first round and every later query is two dict lookups and an index;
    the calculators themselves hold no per-pair state.
    """
    platform = default_platform()
    taskset = generate_taskset(random.Random(3), platform, 0.5)
    tasks = tuple(taskset)

    def evaluate() -> int:
        cpro = CproCalculator(taskset, CproApproach.UNION)
        crpd = CrpdCalculator(taskset, CrpdApproach.ECB_UNION)
        total = 0
        for task_i in tasks:
            for task_j in tasks:
                if task_i is task_j:
                    continue
                total += cpro.eviction_count(task_j, task_i)
                if (
                    task_j.core == task_i.core
                    and task_j.priority < task_i.priority
                ):
                    total += crpd.gamma(task_i, task_j)
        return total

    total = benchmark(evaluate)
    assert total > 0


def test_bench_extraction_nsichneu(benchmark):
    program = benchmark_program("nsichneu")
    geometry = reference_geometry()
    params = benchmark(extract_parameters, program, geometry)
    assert len(params.ecbs) == 256


def test_bench_taskset_generation(benchmark):
    platform = default_platform()

    def generate():
        return generate_taskset(random.Random(7), platform, 0.5)

    taskset = benchmark(generate)
    assert len(taskset) == 32


def test_bench_simulator(benchmark):
    platform = Platform(num_cores=2, d_mem=10, bus_policy=BusPolicy.RR)
    scenario = build_scenario(
        [ScenarioSpec("lcdnum", 0), ScenarioSpec("cnt", 1)], platform
    )
    workload = workload_from_programs(scenario.taskset, platform, scenario.programs)
    duration = int(max(t.period for t in scenario.taskset)) * 5

    result = benchmark(simulate, workload, platform, duration)
    assert result.stats


def test_bench_verify_fuzz(benchmark):
    """Fuzz-campaign throughput: a fixed seeded batch across all case
    kinds and every oracle (tracked as scenarios-per-second via the
    benchmark's ops/s column)."""
    from repro.verify import fuzz

    report = benchmark(fuzz, max_cases=8, seed=2020)
    assert report.passed
    assert report.cases == 8
