"""Unit tests of the persistent content-addressed result cache.

Covers the soundness-critical invariants of :mod:`repro.resultcache`:
fingerprints only hash the outcome-determining knobs, payloads round-trip
bit-identically, aborted partials are refused at the store layer,
corruption of every flavour is quarantined (never crashes, never served),
and a kill mid-write — exercised in a real subprocess — leaves committed
state untouched.  The end-to-end counterpart against real daemon
processes is ``scripts/chaos_smoke.py`` (CI's ``chaos-smoke`` job).
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.schedulability import check_schedulability
from repro.analysis.wcrt import analyze_taskset
from repro.budget import Budget
from repro.errors import BudgetExceeded, CacheError, ModelError
from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.perf import PerfCounters
from repro.resultcache import (
    CHAOS_FAULT_ENV,
    CHAOS_KILL_STATUS,
    ResultCache,
    request_fingerprint,
    result_from_payload,
    result_payload,
)
from repro.serialization import canonical_json


@pytest.fixture(scope="module")
def platform():
    return default_platform()


@pytest.fixture(scope="module")
def taskset(platform):
    return generate_taskset(random.Random(7), platform, 0.3)


@pytest.fixture(scope="module")
def result(taskset, platform):
    return analyze_taskset(taskset, platform, AnalysisConfig())


@pytest.fixture(scope="module")
def fingerprint(taskset, platform):
    return request_fingerprint(taskset, platform, AnalysisConfig())


class TestFingerprint:
    def test_is_64_hex_digits(self, fingerprint):
        assert len(fingerprint) == 64
        assert all(c in "0123456789abcdef" for c in fingerprint)

    def test_invisible_optimisation_knobs_do_not_change_it(
        self, taskset, platform, fingerprint
    ):
        # Kernel variants are pinned bit-identical by the differential
        # oracles, so an entry computed under any of them serves all.
        for variant in (
            AnalysisConfig(memoization=False),
            AnalysisConfig(bitset_kernel=False),
            AnalysisConfig(warm_start=False),
            AnalysisConfig(array_kernel=False),
        ):
            assert request_fingerprint(taskset, platform, variant) == fingerprint

    def test_outcome_determining_knobs_change_it(
        self, taskset, platform, fingerprint
    ):
        loose = AnalysisConfig(persistence=False)
        assert request_fingerprint(taskset, platform, loose) != fingerprint

    def test_different_tasksets_differ(self, taskset, platform, fingerprint):
        other = generate_taskset(random.Random(8), platform, 0.3)
        assert request_fingerprint(other, platform, AnalysisConfig()) != fingerprint


class TestPayloadRoundtrip:
    def test_result_round_trips_bit_identically(self, taskset, result):
        rebuilt = result_from_payload(taskset, result_payload(result))
        assert rebuilt == result

    def test_payload_survives_json(self, taskset, result):
        payload = json.loads(json.dumps(result_payload(result)))
        assert result_from_payload(taskset, payload) == result

    def test_mismatched_payload_raises_model_error(self, taskset, result):
        payload = dict(result_payload(result), response_times={"ghost": 1})
        with pytest.raises(ModelError):
            result_from_payload(taskset, payload)


class TestResultCache:
    def test_round_trip_and_reopen(self, tmp_path, result, fingerprint):
        cache = ResultCache(tmp_path)
        payload = result_payload(result)
        assert cache.put(fingerprint, payload)
        assert cache.get(fingerprint) == payload
        # A fresh handle on the same directory sees the same entry.
        assert ResultCache(tmp_path).get(fingerprint) == payload

    def test_refuses_non_ok_payloads(self, tmp_path, fingerprint):
        cache = ResultCache(tmp_path)
        partial = {"status": "budget-exceeded", "partial_response_times": {}}
        assert not cache.put(fingerprint, partial)
        assert cache.get(fingerprint) is None
        assert len(cache) == 0

    def test_rejects_malformed_fingerprints(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "xyz", "A" * 64, "../../etc/passwd", None):
            with pytest.raises(CacheError):
                cache.get(bad)

    def test_rejects_invalid_store_configuration(self, tmp_path):
        with pytest.raises(CacheError):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(CacheError):
            ResultCache(tmp_path, max_bytes=0)

    def _distinct_fingerprints(self, count):
        return [f"{index:064x}" for index in range(count)]

    def test_lru_eviction_by_entry_count(self, tmp_path, result):
        cache = ResultCache(tmp_path, max_entries=2)
        payload = result_payload(result)
        first, second, third = self._distinct_fingerprints(3)
        cache.put(first, payload)
        cache.put(second, payload)
        cache.get(first)  # refresh: first is now the most recent
        cache.put(third, payload)
        assert cache.get(second) is None  # LRU victim
        assert cache.get(first) == payload
        assert cache.get(third) == payload

    def test_eviction_by_byte_budget(self, tmp_path, result):
        payload = result_payload(result)
        size = len(
            json.dumps(
                {
                    "format": "x",
                    "version": 1,
                    "fingerprint": "0" * 64,
                    "payload": payload,
                    "sha256": "0" * 64,
                },
                sort_keys=True,
            )
        )
        cache = ResultCache(tmp_path, max_bytes=size + 10)
        first, second = self._distinct_fingerprints(2)
        cache.put(first, payload)
        cache.put(second, payload)
        assert cache.get(first) is None
        assert cache.get(second) == payload

    def test_tmp_droppings_are_swept_on_scan(self, tmp_path, result, fingerprint):
        cache = ResultCache(tmp_path)
        cache.put(fingerprint, result_payload(result))
        dropping = tmp_path / "entries" / "ab" / "torn.json.tmp"
        dropping.parent.mkdir(parents=True, exist_ok=True)
        dropping.write_text('{"half')
        reopened = ResultCache(tmp_path)
        assert not dropping.exists()
        assert reopened.quarantined_files == 0  # a dropping is not corruption
        assert reopened.get(fingerprint) == result_payload(result)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[: len(text) // 2],  # truncated JSON
            lambda text: text.replace('"ok"', '"OK"', 1),  # checksum mismatch
            lambda text: "",  # empty file
            lambda text: text.replace(
                "repro-result-cache-entry", "foreign-format", 1
            ),  # foreign tag
        ],
        ids=["truncated", "bitflip", "empty", "foreign-tag"],
    )
    def test_corruption_is_quarantined_on_reopen(
        self, tmp_path, result, fingerprint, corrupt
    ):
        cache = ResultCache(tmp_path)
        cache.put(fingerprint, result_payload(result))
        path = tmp_path / "entries" / fingerprint[:2] / f"{fingerprint}.json"
        path.write_text(corrupt(path.read_text()))
        perf = PerfCounters()
        reopened = ResultCache(tmp_path, perf=perf)
        assert reopened.get(fingerprint) is None
        assert reopened.quarantined_files == 1
        assert perf.result_cache_quarantines == 1
        assert not path.exists()
        assert list((tmp_path / "quarantine").iterdir())  # moved, not deleted

    def test_corruption_after_open_is_quarantined_at_read(
        self, tmp_path, result, fingerprint
    ):
        cache = ResultCache(tmp_path)
        cache.put(fingerprint, result_payload(result))
        path = tmp_path / "entries" / fingerprint[:2] / f"{fingerprint}.json"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cache.get(fingerprint) is None  # a miss, never an exception
        assert cache.quarantined_files == 1
        assert cache.get(fingerprint) is None  # and stays a plain miss

    def test_invalidate_drops_the_entry(self, tmp_path, result, fingerprint):
        cache = ResultCache(tmp_path)
        cache.put(fingerprint, result_payload(result))
        assert cache.invalidate(fingerprint)
        assert cache.get(fingerprint) is None
        assert not cache.invalidate(fingerprint)

    def test_counters_feed_perf(self, tmp_path, result, fingerprint):
        perf = PerfCounters()
        cache = ResultCache(tmp_path, perf=perf)
        cache.get(fingerprint)
        cache.put(fingerprint, result_payload(result))
        cache.get(fingerprint)
        assert perf.result_cache_misses == 1
        assert perf.result_cache_stores == 1
        assert perf.result_cache_hits == 1

    def test_stats_shape(self, tmp_path, result, fingerprint):
        cache = ResultCache(tmp_path)
        cache.put(fingerprint, result_payload(result))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined_files"] == 0


class TestOlderCacheLayout:
    """Directories written by daemons that still kept a warm-seed store."""

    @pytest.mark.parametrize(
        "seed_text",
        [
            lambda text: text,
            lambda text: text[: len(text) // 2],  # torn seed entry
            lambda text: "",  # empty seed entry
        ],
        ids=["valid", "truncated", "empty"],
    )
    def test_seeds_subtree_is_ignored_and_left_untouched(
        self, tmp_path, taskset, result, fingerprint, seed_text
    ):
        payload = result_payload(result)
        ResultCache(tmp_path).put(fingerprint, payload)
        entry = next((tmp_path / "entries").rglob("*.json"))
        entry_bytes = entry.read_bytes()
        # The layout the removed seed store wrote: its own entries/ and
        # quarantine/ under seeds/, one envelope per fingerprint.
        seed = {
            "response_times": {
                str(task.priority): bound
                for task, bound in result.response_times.items()
            },
            "outer_iterations": result.outer_iterations,
        }
        seed_file = (
            tmp_path / "seeds" / "entries" / fingerprint[:2]
            / f"{fingerprint}.json"
        )
        seed_file.parent.mkdir(parents=True)
        (tmp_path / "seeds" / "quarantine").mkdir()
        seed_file.write_text(seed_text(json.dumps({
            "format": "repro-warm-seed",
            "version": 1,
            "fingerprint": fingerprint,
            "payload": seed,
            "sha256": hashlib.sha256(
                canonical_json(seed).encode("utf-8")
            ).hexdigest(),
        }, sort_keys=True)))
        before = {
            path.relative_to(tmp_path): path.read_bytes()
            for path in (tmp_path / "seeds").rglob("*") if path.is_file()
        }

        cache = ResultCache(tmp_path)
        assert cache.quarantined_files == 0
        assert list(cache.fingerprints()) == [fingerprint]
        served = cache.get(fingerprint)
        assert served == payload
        assert result_from_payload(taskset, served) == result
        assert entry.read_bytes() == entry_bytes
        assert not any((tmp_path / "quarantine").iterdir())
        assert {
            path.relative_to(tmp_path): path.read_bytes()
            for path in (tmp_path / "seeds").rglob("*") if path.is_file()
        } == before
        assert sorted(
            path.relative_to(tmp_path).as_posix()
            for path in (tmp_path / "seeds").rglob("*") if path.is_dir()
        ) == ["seeds/entries", f"seeds/entries/{fingerprint[:2]}",
              "seeds/quarantine"]


class TestKillMidWrite:
    """The injected chaos fault, exercised in a real subprocess."""

    SCRIPT = """
import sys
from repro.resultcache import ResultCache
cache = ResultCache(sys.argv[1])
cache.put("{fp}", {{"status": "ok", "schedulable": True}})
print("survived")  # must never be reached under the fault
"""

    def _run(self, tmp_path, env_extra):
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path)
        )
        env.pop(CHAOS_FAULT_ENV, None)
        env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(fp="ab" * 32), str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_fault_kills_between_tmp_and_commit(self, tmp_path):
        completed = self._run(tmp_path, {CHAOS_FAULT_ENV: "kill-mid-write"})
        assert completed.returncode == CHAOS_KILL_STATUS
        assert "survived" not in completed.stdout
        entries = tmp_path / "entries"
        droppings = list(entries.rglob("*.tmp"))
        assert droppings, "the injected kill must leave a torn tmp dropping"
        committed = list(entries.rglob("*.json"))
        assert committed == [], "no partial entry may reach the final path"
        # Recovery: a fresh store sweeps the dropping and serves nothing.
        cache = ResultCache(tmp_path)
        assert not list(entries.rglob("*.tmp"))
        assert cache.quarantined_files == 0
        assert cache.get("ab" * 32) is None

    def test_without_the_env_var_the_store_commits(self, tmp_path):
        completed = self._run(tmp_path, {})
        assert completed.returncode == 0
        assert "survived" in completed.stdout
        assert ResultCache(tmp_path).get("ab" * 32) is not None


class TestSchedulabilityWithCache:
    def test_cached_verdict_is_bit_identical(self, tmp_path, taskset, platform):
        cache = ResultCache(tmp_path)
        perf = PerfCounters()
        cold = check_schedulability(
            taskset, platform, perf=perf, result_cache=cache
        )
        analyses_after_cold = perf.analyses
        assert perf.result_cache_stores == 1
        warm = check_schedulability(
            taskset, platform, perf=perf, result_cache=cache
        )
        assert perf.result_cache_hits == 1
        assert perf.analyses == analyses_after_cold  # no second analysis ran
        assert warm.schedulable == cold.schedulable
        assert warm.wcrt == cold.wcrt
        bare = check_schedulability(taskset, platform)
        assert bare.schedulable == warm.schedulable
        assert bare.wcrt == warm.wcrt

    def test_budget_abort_is_never_cached(self, tmp_path, platform):
        heavy = generate_taskset(random.Random(12), platform, 0.8)
        cache = ResultCache(tmp_path)
        with pytest.raises(BudgetExceeded):
            check_schedulability(
                heavy,
                platform,
                budget=Budget(max_iterations=1),
                result_cache=cache,
            )
        assert len(cache) == 0
        # The identical uncapped request computes, completes and stores.
        perf = PerfCounters()
        full = check_schedulability(
            heavy, platform, perf=perf, result_cache=cache
        )
        assert perf.result_cache_hits == 0
        assert perf.result_cache_stores == 1
        assert len(cache) == 1
        again = check_schedulability(heavy, platform, result_cache=cache)
        assert again.wcrt == full.wcrt
