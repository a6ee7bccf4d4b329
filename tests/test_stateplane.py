"""Tests of the worker-resident sweep state plane."""

import gc
import random
import weakref
from dataclasses import replace

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import analyze_taskset
from repro.crpd.approaches import CrpdApproach
from repro.experiments.config import default_platform, standard_variants
from repro.experiments.runner import evaluate_sample
from repro.experiments.stateplane import (
    DEFAULT_CAPACITY,
    STATE_PLANE_CAP_ENV,
    StatePlane,
    reset_resident_plane,
    resident_plane,
)
from repro.generation.taskset_gen import GenerationConfig, generate_taskset
from repro.perf import PerfCounters
from repro.persistence.cpro import CproApproach


@pytest.fixture(autouse=True)
def _fresh_plane():
    reset_resident_plane()
    yield
    reset_resident_plane()


class TestTasksetResidency:
    def test_hit_returns_the_same_object(self):
        plane = StatePlane(capacity=8)
        platform = default_platform()
        generation = GenerationConfig()
        perf = PerfCounters()
        first = plane.taskset(platform, generation, 0.4, 7, perf)
        again = plane.taskset(platform, generation, 0.4, 7, perf)
        assert again is first
        assert perf.resident_table_misses == 1
        assert perf.resident_table_hits == 1

    def test_miss_generates_the_exact_fresh_value(self):
        plane = StatePlane(capacity=8)
        platform = default_platform()
        generation = GenerationConfig()
        resident = plane.taskset(platform, generation, 0.5, 11)
        fresh = generate_taskset(random.Random(11), platform, 0.5, generation)
        assert [t.priority for t in resident] == [t.priority for t in fresh]
        assert [int(t.pd) for t in resident] == [int(t.pd) for t in fresh]
        assert [t.period for t in resident] == [t.period for t in fresh]

    def test_distinct_keys_do_not_collide(self):
        plane = StatePlane(capacity=8)
        platform = default_platform()
        generation = GenerationConfig()
        a = plane.taskset(platform, generation, 0.4, 7)
        b = plane.taskset(platform, generation, 0.5, 7)
        c = plane.taskset(platform, generation, 0.4, 8)
        assert a is not b and a is not c

    def test_lru_evicts_oldest(self):
        plane = StatePlane(capacity=2)
        platform = default_platform()
        generation = GenerationConfig()
        first = plane.taskset(platform, generation, 0.4, 1)
        plane.taskset(platform, generation, 0.4, 2)
        # Touch the first so seed 2 is the LRU victim of the next insert.
        assert plane.taskset(platform, generation, 0.4, 1) is first
        plane.taskset(platform, generation, 0.4, 3)
        perf = PerfCounters()
        assert plane.taskset(platform, generation, 0.4, 1, perf) is first
        plane.taskset(platform, generation, 0.4, 2, perf)
        assert perf.resident_table_hits == 1  # seed 1 survived
        assert perf.resident_table_misses == 1  # seed 2 was evicted


class TestDroppedStateIsFreedByRefcount:
    """Resident task sets and everything derived from them are acyclic.

    Sweeps pause the cyclic collector while they evaluate a sample, so a
    task set the plane drops must be freed by reference counting alone.
    """

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(array_kernel=False),
            dict(memoization=False, bitset_kernel=False, array_kernel=False,
                 warm_start=False),
        ],
        ids=["default", "per-term", "reference"],
    )
    def test_cleared_plane_frees_its_task_sets(self, overrides):
        platform = default_platform()
        generation = GenerationConfig()
        variants = tuple(
            replace(v, analysis=replace(v.analysis, **overrides))
            for v in standard_variants(True)
        )
        multiset = replace(
            AnalysisConfig(**overrides),
            crpd_approach=CrpdApproach.ECB_UNION_MULTISET,
            cpro_approach=CproApproach.MULTISET,
        )
        plane = StatePlane(capacity=8)
        gc.collect()
        gc.disable()
        try:
            refs = []
            for seed in range(4):
                evaluate_sample(
                    platform, 0.45, variants, generation, seed, plane=plane
                )
                taskset = plane.taskset(platform, generation, 0.45, seed)
                analyze_taskset(taskset, platform, multiset)
                refs.append(weakref.ref(taskset))
                del taskset
            assert all(ref() is not None for ref in refs)
            plane.clear()
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestCapacity:
    def test_zero_capacity_disables_residency(self):
        plane = StatePlane(capacity=0)
        platform = default_platform()
        generation = GenerationConfig()
        perf = PerfCounters()
        plane.taskset(platform, generation, 0.4, 5, perf)
        plane.taskset(platform, generation, 0.4, 5, perf)
        assert perf.resident_table_hits == 0
        assert perf.resident_table_misses == 2

    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "3")
        assert StatePlane().capacity == 3
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "0")
        assert StatePlane().capacity == 0
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "-4")
        assert StatePlane().capacity == 0
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "not-a-number")
        assert StatePlane().capacity == DEFAULT_CAPACITY
        monkeypatch.delenv(STATE_PLANE_CAP_ENV)
        assert StatePlane().capacity == DEFAULT_CAPACITY

    def test_clear_drops_everything(self):
        plane = StatePlane(capacity=8)
        platform = default_platform()
        generation = GenerationConfig()
        resident = plane.taskset(platform, generation, 0.4, 5)
        plane.clear()
        perf = PerfCounters()
        assert plane.taskset(platform, generation, 0.4, 5, perf) is not resident
        assert perf.resident_table_misses == 1


class TestResidentSingleton:
    def test_process_global_plane_is_shared_and_resettable(self):
        plane = resident_plane()
        assert resident_plane() is plane
        reset_resident_plane()
        assert resident_plane() is not plane

    def test_reset_rereads_capacity(self, monkeypatch):
        monkeypatch.setenv(STATE_PLANE_CAP_ENV, "5")
        reset_resident_plane()
        assert resident_plane().capacity == 5
