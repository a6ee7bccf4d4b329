"""Unit tests for task-set generation (UUnifast + placement + timing)."""

import hashlib
import math
import random
from dataclasses import replace

import pytest

from repro.data.benchmarks import benchmark_spec, benchmark_table
from repro.errors import GenerationError
from repro.experiments.config import PAPER_UTILIZATIONS, default_platform
from repro.experiments.runner import _sample_seed
from repro.generation.taskset_gen import (
    GenerationConfig,
    ParameterSource,
    PlacementPolicy,
    _sample,
    _skip_sample,
    generate_taskset,
)
from repro.generation.uunifast import uunifast
from repro.model.platform import CacheGeometry, Platform


class TestUUnifast:
    def test_sums_to_target(self):
        rng = random.Random(1)
        for total in (0.1, 0.5, 1.0, 3.0):
            utils = uunifast(rng, 8, total)
            assert sum(utils) == pytest.approx(total)

    def test_count(self):
        assert len(uunifast(random.Random(2), 5, 0.8)) == 5

    def test_all_positive(self):
        for seed in range(20):
            utils = uunifast(random.Random(seed), 8, 0.9)
            assert all(u > 0 for u in utils)

    def test_single_task(self):
        assert uunifast(random.Random(3), 1, 0.7) == [0.7]

    def test_deterministic_given_seed(self):
        assert uunifast(random.Random(42), 6, 0.5) == uunifast(
            random.Random(42), 6, 0.5
        )

    def test_rejects_bad_inputs(self):
        rng = random.Random(4)
        with pytest.raises(GenerationError):
            uunifast(rng, 0, 0.5)
        with pytest.raises(GenerationError):
            uunifast(rng, 4, 0)
        with pytest.raises(GenerationError):
            uunifast(rng, 2, 3.0)


@pytest.fixture()
def platform():
    return Platform(num_cores=4, d_mem=10)


class TestGenerateTaskset:
    def test_default_size(self, platform):
        taskset = generate_taskset(random.Random(1), platform, 0.5)
        assert len(taskset) == 32
        for core in platform.cores:
            assert len(taskset.on_core(core)) == 8

    def test_priorities_unique_and_deadline_monotonic(self, platform):
        taskset = generate_taskset(random.Random(2), platform, 0.5)
        deadlines = [t.deadline for t in taskset]  # priority order
        assert deadlines == sorted(deadlines)

    def test_per_core_utilization_close_to_target(self, platform):
        taskset = generate_taskset(random.Random(3), platform, 0.6)
        for core in platform.cores:
            # Rounding periods to integers perturbs utilisation slightly.
            assert taskset.core_utilization(core, platform.d_mem) == pytest.approx(
                0.6, abs=0.02
            )

    def test_implicit_deadlines(self, platform):
        taskset = generate_taskset(random.Random(4), platform, 0.4)
        assert all(t.deadline == t.period for t in taskset)

    def test_footprints_match_specs(self, platform):
        taskset = generate_taskset(random.Random(5), platform, 0.4)
        for task in taskset:
            spec = benchmark_spec(task.name.split("#")[0])
            assert len(task.ecbs) == min(spec.n_ecb, platform.cache.num_sets)
            assert len(task.ucbs) == min(spec.n_ucb, len(task.ecbs))
            assert len(task.pcbs) == min(spec.n_pcb, len(task.ecbs))
            assert task.md == spec.md
            assert task.md_r == spec.md_r
            assert task.pd == spec.pd

    def test_deterministic_given_seed(self, platform):
        a = generate_taskset(random.Random(7), platform, 0.5)
        b = generate_taskset(random.Random(7), platform, 0.5)
        assert [t.name for t in a] == [t.name for t in b]
        assert [t.period for t in a] == [t.period for t in b]
        assert [sorted(t.ecbs) for t in a] == [sorted(t.ecbs) for t in b]

    def test_period_at_least_isolated_wcet(self, platform):
        # Near-saturated cores force the period floor to kick in.
        taskset = generate_taskset(random.Random(8), platform, 0.999)
        for task in taskset:
            assert task.period >= task.isolated_wcet(platform.d_mem)

    def test_rejects_bad_utilization(self, platform):
        with pytest.raises(GenerationError):
            generate_taskset(random.Random(9), platform, 0)

    def test_benchmark_restriction(self, platform):
        config = GenerationConfig(benchmarks=("lcdnum", "fdct"))
        taskset = generate_taskset(random.Random(10), platform, 0.5, config)
        assert {t.name.split("#")[0] for t in taskset} <= {"lcdnum", "fdct"}

    def test_unknown_benchmark_rejected(self, platform):
        config = GenerationConfig(benchmarks=("quake",))
        with pytest.raises(GenerationError):
            generate_taskset(random.Random(11), platform, 0.5, config)

    def test_rejects_bad_tasks_per_core(self):
        with pytest.raises(GenerationError):
            GenerationConfig(tasks_per_core=0)


class TestPlacement:
    def test_zero_start_places_prefix_runs(self, platform):
        config = GenerationConfig(placement=PlacementPolicy.ZERO_START)
        taskset = generate_taskset(random.Random(1), platform, 0.5, config)
        for task in taskset:
            assert min(task.ecbs) == 0
            # Consecutive run from zero.
            assert task.ecbs == frozenset(range(len(task.ecbs)))

    def test_random_start_runs_are_consecutive_mod_cache(self, platform):
        taskset = generate_taskset(random.Random(2), platform, 0.5)
        size = platform.cache.num_sets
        for task in taskset:
            if len(task.ecbs) == size:
                continue
            ordered = sorted(task.ecbs)
            # A consecutive run modulo `size` has exactly one gap > 1 when
            # it wraps, zero otherwise.
            gaps = sum(
                1
                for a, b in zip(ordered, ordered[1:] + [ordered[0] + size])
                if b - a != 1
            )
            assert gaps <= 1

    def test_subsets_within_run(self, platform):
        taskset = generate_taskset(random.Random(3), platform, 0.5)
        for task in taskset:
            assert task.ucbs <= task.ecbs
            assert task.pcbs <= task.ecbs


class TestSharedBlockSets:
    def test_whole_run_subsets_are_the_ecb_set(self, platform):
        # Free to share: the whole run's subset is the ECB set already
        # built, so the generator packs nothing more for it.
        seen = set()
        for seed in range(10):
            for task in generate_taskset(random.Random(seed), platform, 0.5):
                spec = benchmark_spec(task.name.split("#")[0])
                subsets = ((task.ucbs, spec.n_ucb), (task.pcbs, spec.n_pcb))
                for blocks, count in subsets:
                    whole = count >= len(task.ecbs)
                    seen.add(whole)
                    assert (blocks is task.ecbs) == whole
                    assert len(blocks) == min(count, len(task.ecbs))
        assert seen == {True, False}

    def test_whole_cache_runs_are_the_whole_cache(self):
        # Runs of any start that cover the cache pack to the same mask;
        # each task holds its own block set (sharing one across tasks
        # would save about a hundred bytes).
        at_64 = Platform(num_cores=4, d_mem=10, cache=CacheGeometry(num_sets=64))
        runs = [
            task.ecbs
            for seed in range(5)
            for task in generate_taskset(random.Random(seed), at_64, 0.5)
            if len(task.ecbs) == 64
        ]
        assert len(runs) > 5
        assert all(blocks.mask == (1 << 64) - 1 for blocks in runs)
        assert all(blocks == frozenset(range(64)) for blocks in runs)


def _setsize(k):
    """``random.Random.sample``'s branch threshold for ``k`` picks."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


class TestSamplerDrawIdentity:
    """The generator's sampler draws exactly what ``Random.sample`` draws.

    Picks, their order and the generator's state afterwards all match, so
    a change to CPython's ``sample`` fails here (CI runs every supported
    Python) before it silently changes generated task sets.
    """

    def _cases(self):
        master = random.Random(2020)
        # n = 1, k = 0, k = n and the empty run, then random shapes.
        cases = [(1, 0, 1), (1, 1, 2), (0, 0, 3), (300, 0, 4), (300, 300, 5)]
        while len(cases) < 3200:
            n = master.randrange(1, 400)
            k = master.choice(
                (0, n, master.randrange(n + 1), min(n, master.randrange(8)))
            )
            cases.append((n, k, master.randrange(1 << 32)))
        return cases

    def test_same_picks_and_state_as_sample(self):
        branches = set()
        for n, k, seed in self._cases():
            population = list(range(1000, 1000 + n))
            expected, actual = random.Random(seed), random.Random(seed)
            picks = _sample(actual.getrandbits, population, k)
            assert picks == expected.sample(population, k), (n, k, seed)
            assert actual.random() == expected.random(), (n, k, seed)
            branches.add("pool" if n <= _setsize(k) else "rejection")
        assert branches == {"pool", "rejection"}

    def test_whole_run_skip_draws_like_sample(self):
        for n, _, seed in self._cases():
            expected, actual = random.Random(seed), random.Random(seed)
            expected.sample(range(n), n)
            _skip_sample(actual.getrandbits, n)
            assert actual.random() == expected.random(), (n, seed)


def _content_digest(tasksets) -> str:
    """Short SHA-256 over everything generation decides for each task."""
    digest = hashlib.sha256()
    for taskset in tasksets:
        for task in taskset:
            digest.update(repr((
                task.name, task.period, task.priority, task.core,
                task.pd, task.md, task.md_r,
                sorted(task.ecbs), sorted(task.ucbs), sorted(task.pcbs),
            )).encode())
    return digest.hexdigest()[:16]


def _generated(case: str):
    """The task sets of one pinned generation case."""
    base = default_platform()
    at_64 = replace(base, cache=CacheGeometry(num_sets=64, block_size=32))
    at_128 = replace(base, cache=CacheGeometry(num_sets=128, block_size=32))
    if case == "fig2":
        # Fig. 2's sample seeds at U = 0.1, 0.5 and 1.0.
        draws = [
            (base, GenerationConfig(), PAPER_UTILIZATIONS[point],
             _sample_seed(2020, point, sample))
            for point in (1, 9, 19) for sample in range(20)
        ]
    elif case == "64-set":
        draws = [(at_64, GenerationConfig(), u, seed)
                 for u in (0.3, 0.7) for seed in range(20)]
    elif case == "zero-start":
        config = GenerationConfig(placement=PlacementPolicy.ZERO_START)
        draws = [(base, config, 0.5, seed) for seed in range(20)]
    else:
        source = {"models@128": ParameterSource.MODELS,
                  "hybrid@128": ParameterSource.HYBRID}[case]
        config = GenerationConfig(parameter_source=source)
        draws = [(at_128, config, 0.5, seed) for seed in range(15)]
    return [
        generate_taskset(random.Random(seed), platform, utilization, config)
        for platform, config, utilization, seed in draws
    ]


class TestGeneratedContentIsPinned:
    """Generated task sets are exactly those ``rng.sample`` drew.

    The digests were recorded while ``rng.sample`` drew the UCBs and PCBs,
    so they pin identity with that generator, not self-consistency.  A
    digest that changes means every reported figure may change.
    """

    DIGESTS = {
        "fig2": "472ccfd8740359d5",
        "64-set": "581edb24687907c1",
        "zero-start": "44ba25565ae95fde",
        "models@128": "7531e0b7e299ded6",
        "hybrid@128": "e1061449c96e4359",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_digest(self, case):
        assert _content_digest(_generated(case)) == self.DIGESTS[case]


class TestParameterSources:
    def test_models_source_uses_geometry(self):
        tiny = Platform(num_cores=2, d_mem=10, cache=CacheGeometry(num_sets=32))
        config = GenerationConfig(parameter_source=ParameterSource.MODELS)
        taskset = generate_taskset(random.Random(4), tiny, 0.3, config)
        for task in taskset:
            assert len(task.ecbs) <= 32

    def test_hybrid_equals_table_at_reference_geometry(self):
        reference = Platform(num_cores=2, d_mem=10)
        config = GenerationConfig(parameter_source=ParameterSource.HYBRID)
        taskset = generate_taskset(random.Random(5), reference, 0.3, config)
        for task in taskset:
            spec = benchmark_spec(task.name.split("#")[0])
            assert task.md == spec.md
            assert task.md_r == spec.md_r

    def test_hybrid_scales_demand_with_cache_size(self):
        small = Platform(num_cores=2, d_mem=10, cache=CacheGeometry(num_sets=32))
        config = GenerationConfig(
            parameter_source=ParameterSource.HYBRID, benchmarks=("fdct",)
        )
        taskset = generate_taskset(random.Random(6), small, 0.3, config)
        spec = benchmark_spec("fdct")
        for task in taskset:
            # At 32 sets fdct's conflicting regions collide much more.
            assert task.md >= spec.md

    def test_hybrid_md_r_consistent(self):
        for sets in (32, 128, 1024):
            plat = Platform(num_cores=2, d_mem=10, cache=CacheGeometry(num_sets=sets))
            config = GenerationConfig(parameter_source=ParameterSource.HYBRID)
            taskset = generate_taskset(random.Random(7), plat, 0.3, config)
            for task in taskset:
                assert 0 <= task.md_r <= task.md


class TestBenchmarkTableAccess:
    def test_spec_lookup(self):
        spec = benchmark_spec("statemate")
        assert spec.n_ecb == 256

    def test_unknown_spec(self):
        with pytest.raises(GenerationError):
            benchmark_spec("nothere")

    def test_table_is_cached(self):
        assert benchmark_table() is benchmark_table()
