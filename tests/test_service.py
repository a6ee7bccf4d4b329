"""Unit tests of the batch-analysis service core (no HTTP, no processes).

The daemon's heart — :class:`repro.service.AnalysisService` — is exercised
directly with stub worker pools, so every admission / breaker / drain path
runs in milliseconds and deterministically.  The end-to-end counterpart
against a real daemon process is ``scripts/service_smoke.py`` (CI's
``service-smoke`` job).
"""

import dataclasses
import json
import math
import pickle
import pickletools
import random
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from http.server import ThreadingHTTPServer

import pytest

from repro import serialization
from repro.errors import (
    AnalysisError,
    ChunkTimeoutError,
    ModelError,
    WorkerCrashError,
)
from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.model.blocks import BlockSet
from repro.model.task import Task
from repro.perf import PerfCounters
from repro.serialization import taskset_to_json
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    CircuitBreaker,
    PROTOCOL_VERSION,
    ServiceConfig,
    parse_request,
    read_request,
)
from repro.service import daemon as service_daemon
from repro.service import pool as service_pool
from repro.service.__main__ import main as service_main
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.daemon import REFUSALS, _Handler
from repro.service.pool import service_worker


@pytest.fixture(scope="module")
def envelope():
    platform = default_platform()
    taskset = generate_taskset(random.Random(5), platform, 0.3)
    return json.loads(taskset_to_json(taskset, platform))


def request_document(envelope, **extra):
    document = {"id": "req-1", "taskset": envelope}
    document.update(extra)
    return document


def shipped(request):
    """``request`` as a pool worker receives it: pickled and unpickled."""
    return pickle.loads(pickle.dumps(request))


def shipped_document(envelope, **extra):
    """A parsed request document as a pool worker receives it."""
    return shipped(parse_request(request_document(envelope, **extra)))


class TestProtocolValidation:
    def test_valid_request_parses(self, envelope):
        request = parse_request(
            request_document(
                envelope,
                config={"persistence": True},
                budget_seconds=2.5,
                max_iterations=100,
            )
        )
        assert isinstance(request, AnalysisRequest)
        assert request.request_id == "req-1"
        assert request.budget_seconds == 2.5
        assert request.max_iterations == 100
        assert request.config.persistence is True
        assert len(request.taskset) > 0

    def test_non_object_request_is_a_model_error(self):
        with pytest.raises(ModelError, match="JSON object"):
            parse_request(["not", "a", "request"])

    def test_missing_taskset_is_a_model_error(self):
        with pytest.raises(ModelError, match="taskset"):
            parse_request({"id": "x"})

    def test_wrong_format_tag_is_a_model_error(self, envelope):
        broken = dict(envelope, format="not-a-taskset")
        with pytest.raises(ModelError, match="format tag"):
            parse_request(request_document(broken))

    def test_empty_taskset_is_a_model_error(self, envelope):
        broken = dict(envelope, tasks=[])
        with pytest.raises(ModelError, match="no tasks"):
            parse_request(request_document(broken))

    def test_unknown_config_field_is_an_analysis_error(self, envelope):
        with pytest.raises(AnalysisError, match="unknown analysis config"):
            parse_request(
                request_document(envelope, config={"turbo_mode": True})
            )

    @pytest.mark.parametrize("value", [0, -1, "fast", True, float("inf")])
    def test_bad_budget_is_an_analysis_error(self, envelope, value):
        with pytest.raises(AnalysisError, match="budget_seconds"):
            parse_request(request_document(envelope, budget_seconds=value))

    @pytest.mark.parametrize("value", [0, -1, "soon", True, float("inf")])
    def test_bad_deadline_is_an_analysis_error(self, envelope, value):
        with pytest.raises(AnalysisError, match="deadline_ms"):
            parse_request(request_document(envelope, deadline_ms=value))

    @pytest.mark.parametrize("value", [0, -3, 1.5, True])
    def test_bad_iteration_ceiling_is_an_analysis_error(self, envelope, value):
        with pytest.raises(AnalysisError, match="max_iterations"):
            parse_request(request_document(envelope, max_iterations=value))

    def test_unknown_inject_kind_is_an_analysis_error(self, envelope):
        with pytest.raises(AnalysisError, match="inject"):
            parse_request(request_document(envelope, inject="segfault"))

    def test_read_request_leaves_the_task_records_unparsed(self, envelope):
        broken = json.loads(json.dumps(envelope))
        broken["tasks"][0]["pd"] = -1
        request = read_request(request_document(broken, budget_seconds=2.0))
        assert request.taskset is None
        assert request.envelope is broken
        assert request.budget_seconds == 2.0
        with pytest.raises(ModelError, match="pd must be"):
            parse_request(request)

    def test_parse_request_finishes_a_read_request(self, envelope):
        request = parse_request(read_request(request_document(envelope)))
        assert len(request.taskset) == len(envelope["tasks"])
        assert request.envelope is None
        # Already parsed: returned as is.
        assert parse_request(request) is request

    @pytest.mark.parametrize("tasks", [{"a": 1}, 7, [1], [["t"]]], ids=repr)
    def test_task_records_that_are_not_objects_are_model_errors(
        self, envelope, tasks
    ):
        with pytest.raises(ModelError):
            parse_request(request_document(dict(envelope, tasks=tasks)))


class TestServiceWorker:
    """The worker function itself, run in-process for speed."""

    def test_shipped_request_carries_block_sets_as_masks(self, envelope):
        # The daemon pickles the parsed request to the pool worker: each
        # block set crosses as its int mask, never as a frozenset.
        request = parse_request(request_document(envelope))
        payload = pickle.dumps(request)
        for opcode, argument, _ in pickletools.genops(payload):
            assert opcode.name != "FROZENSET"
            assert argument != "frozenset"
        clone = pickle.loads(payload)
        for mine, theirs in zip(request.taskset, clone.taskset):
            assert type(theirs.ecbs) is BlockSet
            assert (theirs.ecbs, theirs.ucbs, theirs.pcbs) == (
                mine.ecbs, mine.ucbs, mine.pcbs
            )

    def test_ok_response(self, envelope):
        response, perf = service_worker(shipped_document(envelope))
        assert response["status"] == "ok"
        assert response["version"] == PROTOCOL_VERSION
        assert response["id"] == "req-1"
        assert isinstance(response["schedulable"], bool)
        assert response["response_times"]
        assert isinstance(perf, PerfCounters)
        assert perf.analyses == 1

    def test_each_request_analyses_the_task_set_it_parsed(self, envelope):
        # The worker keeps no task sets between requests: a repeat is a
        # full cold analysis with a bit-identical body, never a replay.
        first, first_perf = service_worker(shipped_document(envelope))
        again, again_perf = service_worker(shipped_document(envelope))
        assert again == first
        for perf in (first_perf, again_perf):
            assert perf.analyses == 1
            assert perf.warm_starts == 0
            assert (perf.resident_table_hits, perf.resident_table_misses) == (0, 0)
        assert again_perf.inner_iterations == first_perf.inner_iterations

    @pytest.mark.parametrize(
        "limits",
        [{}, {"max_iterations": 10_000_000}, {"budget_seconds": 3600.0}],
        ids=["unbudgeted", "iteration-ceiling", "wall-clock"],
    )
    def test_a_degradable_request_runs_the_exact_analysis(
        self, envelope, limits
    ):
        # Degradability only matters to the daemon's brownout: in the
        # worker a degradable request is the exact analysis, bit-identical
        # to an unbudgeted plain one, and no degraded tier runs.
        plain, _perf = service_worker(shipped_document(envelope))
        body, perf = service_worker(
            shipped_document(envelope, degrade=True, **limits)
        )
        assert body == plain
        assert perf.brownout_runs == 0

    def test_budget_abort_response_carries_partials(self, envelope):
        response, perf = service_worker(
            shipped_document(envelope, max_iterations=2)
        )
        assert response["status"] == "budget-exceeded"
        assert response["iterations"] == 3
        assert response["partial_response_times"]
        assert perf.budget_aborts == 1

    def test_analysis_failure_is_data_not_an_exception(
        self, envelope, monkeypatch
    ):
        # An exception inside the analysis must come back as an error
        # *response*: the parent treats raised exceptions as worker deaths.
        def broken(*args, **kwargs):
            raise ModelError("analysis blew up")

        monkeypatch.setattr(service_pool, "analyze_taskset", broken)
        response, _perf = service_worker(shipped_document(envelope))
        assert response["status"] == "error"
        assert response["error"] == "ModelError"


class TestRequestValidation:
    """Validation through ``AnalysisService.handle``: the daemon parses
    every request it analyses, and the worker parses nothing."""

    def test_invalid_document_is_a_typed_error_response(self):
        status, response = make_service().handle(
            {"id": "bad", "taskset": {"format": "nope"}}
        )
        assert status == 400
        assert response["status"] == "error"
        assert response["error"] == "ModelError"

    @pytest.mark.parametrize(
        "ecbs",
        [[-1, 2], [1.5, 2], [256, 2], [2**70, 2], [1e20, 2], [math.inf, 2]],
        ids=repr,
    )
    def test_malformed_cache_set_index_is_one_typed_error(self, envelope, ecbs):
        # The reference kernel packs no masks, so only a check before
        # either kernel runs gives both the same answer.
        document = json.loads(json.dumps(envelope))
        document["tasks"][0].update(ecbs=ecbs, ucbs=[], pcbs=[])
        responses = [
            make_service().handle(request_document(document, config=config))
            for config in ({}, {"memoization": False})
        ]
        assert [status for status, _body in responses] == [400, 400]
        responses = [body for _status, body in responses]
        assert responses[0]["status"] == "error"
        assert responses[0]["error"] == "ModelError"
        assert responses[1] == responses[0]

    def test_duplicate_task_name_is_a_400_and_nothing_is_cached(
        self, tmp_path, envelope
    ):
        document = json.loads(json.dumps(envelope))
        document["tasks"][1]["name"] = document["tasks"][0]["name"]
        pool = StubPool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        status, body = service.handle(request_document(document))
        assert (status, body["status"], body["error"]) == (
            400, "error", "ModelError"
        )
        assert "share this name" in body["message"]
        assert service.stats.validation_errors == 1
        assert pool.calls == 0
        assert len(service.cache) == 0

    def test_task_on_a_missing_core_is_a_400_and_the_next_request_runs(
        self, envelope
    ):
        document = json.loads(json.dumps(envelope))
        document["tasks"][0]["core"] = 5
        pool = StubPool()
        service = make_service(pool=pool)
        status, body = service.handle(request_document(document))
        assert (status, body["status"], body["error"]) == (
            400, "error", "ModelError"
        )
        assert "core 5 is not one of the platform" in body["message"]
        assert pool.calls == 0
        status, body = service.handle(request_document(envelope, id="req-2"))
        assert (status, body["status"]) == (200, "ok")
        assert pool.calls == 1


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # consumes the single probe slot
        assert not breaker.allow()  # no more probes until a verdict
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_restarts_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.now = 9.0
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_seconds=0)

    def test_the_daemon_breaker_trips_at_three_and_cools_down_for_5s(self):
        breaker = make_service().breaker
        assert (breaker.failure_threshold, breaker.reset_seconds) == (3, 5.0)


class StubPool:
    """In-process stand-in for :class:`AnalysisPool`.

    Requests cross a pickle round trip, as they cross the process
    boundary to a real pool worker.
    """

    def __init__(self, outcome=None):
        #: Either a (response, perf) tuple, an exception to raise, or a
        #: callable(request) deciding per request.
        self.outcome = outcome
        self.calls = 0
        self.closed = False

    def run(self, request):
        self.calls += 1
        request = shipped(request)
        outcome = self.outcome
        if callable(outcome):
            outcome = outcome(request)
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None:
            return service_worker(request)
        return outcome

    def close(self):
        self.closed = True


def make_service(pool=None, breaker=None, clock=None, rng=None, **config):
    extra = {}
    if clock is not None:
        extra["clock"] = clock
    if rng is not None:
        extra["rng"] = rng
    return AnalysisService(
        ServiceConfig(**config), pool=pool or StubPool(), breaker=breaker, **extra
    )


class TestServiceConfig:
    def test_rejects_invalid_knobs(self):
        with pytest.raises(AnalysisError):
            ServiceConfig(port=-1)
        with pytest.raises(AnalysisError):
            ServiceConfig(workers=0)
        with pytest.raises(AnalysisError):
            ServiceConfig(max_in_flight=0)
        with pytest.raises(AnalysisError):
            ServiceConfig(default_budget=-2.0)

    def test_rejects_invalid_cache_knobs(self):
        with pytest.raises(AnalysisError):
            ServiceConfig(cache_max_entries=0)
        with pytest.raises(AnalysisError):
            ServiceConfig(cache_max_bytes=0)

    def test_holds_deployment_and_resource_settings_only(self):
        assert [field.name for field in dataclasses.fields(ServiceConfig)] == [
            "host", "port", "workers", "max_in_flight", "default_budget",
            "default_watchdog", "drain_grace_seconds", "cache_dir",
            "cache_max_entries", "cache_max_bytes",
        ]

    @pytest.mark.parametrize(
        "flag",
        ["--breaker-threshold", "--breaker-reset", "--deadline-safety-ms",
         "--min-budget", "--brownout-in-flight", "--batch-max-in-flight",
         "--retry-after-base", "--no-coalesce"],
    )
    def test_overload_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_main([flag, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "max_in_flight, batch_cap", [(1, 1), (3, 1), (4, 2), (9, 4)]
    )
    def test_overload_thresholds_derive_from_the_admission_cap(
        self, max_in_flight, batch_cap
    ):
        overload = make_service(max_in_flight=max_in_flight).stats_document()[
            "overload"
        ]
        assert overload == {
            "max_in_flight": max_in_flight,
            "batch_cap": batch_cap,
            "deadline_safety_ms": 25.0,
            "min_budget_seconds": 0.05,
        }


class TestServiceHandle:
    def test_ok_request_completes(self, envelope):
        service = make_service()
        status, body = service.handle(request_document(envelope))
        assert status == 200
        assert body["status"] == "ok"
        assert service.stats.completed == 1
        assert service.perf.analyses == 1

    def test_invalid_request_is_400_with_typed_body(self, envelope):
        service = make_service()
        status, body = service.handle({"id": "bad"})
        assert status == 400
        assert body["error"] == "ModelError"
        assert service.stats.validation_errors == 1

    def test_budget_abort_is_processed_and_quarantined(self, envelope):
        service = make_service()
        status, body = service.handle(
            request_document(envelope, max_iterations=1)
        )
        assert status == 200  # a typed outcome, not a transport failure
        assert body["status"] == "budget-exceeded"
        assert service.stats.budget_aborted == 1
        assert service.quarantined == [
            {"id": "req-1", "reason": "budget-exceeded"}
        ]

    def test_default_budget_applies_when_request_has_none(self, envelope):
        seen = {}

        def spy(request):
            seen.update(vars(request))
            return service_worker(request)

        service = make_service(pool=StubPool(spy), default_budget=7.5)
        service.handle(request_document(envelope))
        assert seen["budget_seconds"] == 7.5
        # An explicit budget wins over the default.
        service.handle(request_document(envelope, budget_seconds=1.0))
        assert seen["budget_seconds"] == 1.0

    def test_worker_crash_is_500_and_feeds_the_breaker(self, envelope):
        service = make_service(
            pool=StubPool(WorkerCrashError("worker died")),
            breaker=CircuitBreaker(failure_threshold=2),
        )
        status, body = service.handle(request_document(envelope))
        assert (status, body["error"]) == (500, "WorkerCrashError")
        status, _body = service.handle(request_document(envelope))
        assert status == 500
        assert service.breaker.state == OPEN
        # Tripped breaker: requests are refused before touching the pool.
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (503, "breaker-open")
        assert service.stats.rejected_breaker == 1
        assert service.readyz()[0] == 503

    def test_watchdog_kill_is_504_and_quarantined(self, envelope):
        service = make_service(pool=StubPool(ChunkTimeoutError("hung")))
        status, body = service.handle(request_document(envelope))
        assert (status, body["error"]) == (504, "ChunkTimeoutError")
        assert service.stats.watchdog_kills == 1
        assert service.quarantined == [
            {"id": "req-1", "reason": "watchdog-kill"}
        ]

    def test_admission_bound_gives_429(self, envelope):
        gate = threading.Event()
        release = threading.Event()

        def blocking(request):
            gate.set()
            release.wait(timeout=30)
            return service_worker(request)

        service = make_service(pool=StubPool(blocking), max_in_flight=1)
        results = {}
        worker = threading.Thread(
            target=lambda: results.update(
                first=service.handle(request_document(envelope))
            )
        )
        worker.start()
        try:
            assert gate.wait(timeout=30)
            status, body = service.handle(request_document(envelope))
            assert (status, body["status"]) == (429, "busy")
            # Load-derived, jittered: base 1.0 x (0.5 + load 1.0) x
            # jitter in [0.5, 1.5).
            assert 0.75 <= body["retry_after"] < 2.25
            assert service.stats.rejected_busy == 1
        finally:
            release.set()
            worker.join(timeout=30)
        assert results["first"][0] == 200

    def test_batch_processes_every_document(self, envelope):
        service = make_service()
        status, body = service.handle_batch(
            [request_document(envelope), {"id": "broken"}]
        )
        assert status == 200
        statuses = [entry["status"] for entry in body["responses"]]
        assert statuses == ["ok", "error"]

    def test_stats_document_shape(self, envelope):
        service = make_service()
        service.handle(request_document(envelope))
        document = service.stats_document()
        assert document["requests"]["completed"] == 1
        assert list(document["requests"]) == [
            "accepted",
            "completed",
            "budget_aborted",
            "analysis_errors",
            "validation_errors",
            "rejected_busy",
            "rejected_breaker",
            "rejected_draining",
            "worker_crashes",
            "watchdog_kills",
            "shed_expired",
            "shed_overload",
            "degraded",
        ]
        assert document["in_flight"] == 0
        assert document["breaker"]["state"] == CLOSED
        assert document["perf"]["analyses"] == 1
        json.dumps(document)  # must be wire-serialisable as-is


class TestResultCacheIntegration:
    """The durable-cache tier of the request path."""

    def make_cached_service(self, tmp_path, pool=None, **config):
        return make_service(pool=pool, cache_dir=str(tmp_path), **config)

    def test_identical_repeat_is_a_hit_with_its_own_id(self, tmp_path, envelope):
        pool = StubPool()
        service = self.make_cached_service(tmp_path, pool=pool)
        status, cold = service.handle(request_document(envelope))
        assert status == 200 and cold["status"] == "ok"
        status, warm = service.handle(request_document(envelope, id="req-2"))
        assert status == 200
        assert warm["cache"] == "hit"
        assert warm["id"] == "req-2"  # the hit answers *this* request
        assert pool.calls == 1  # no second computation
        stripped = lambda body: {  # noqa: E731 — tiny local comparator
            k: v for k, v in body.items() if k not in ("id", "cache")
        }
        assert stripped(cold) == stripped(warm)
        assert service.stats.completed == 2
        assert service.perf.result_cache_hits == 1
        assert service.perf.result_cache_stores == 1

    def test_entries_survive_a_service_restart(self, tmp_path, envelope):
        service = self.make_cached_service(tmp_path)
        service.handle(request_document(envelope))
        reborn_pool = StubPool()
        reborn = self.make_cached_service(tmp_path, pool=reborn_pool)
        status, body = reborn.handle(request_document(envelope))
        assert status == 200 and body["cache"] == "hit"
        assert reborn_pool.calls == 0

    def test_budget_abort_is_never_cached(self, tmp_path, envelope):
        # Satellite regression: a partial verdict must not poison the
        # durable cache for the identical future request.
        pool = StubPool()
        service = self.make_cached_service(tmp_path, pool=pool)
        status, body = service.handle(
            request_document(envelope, max_iterations=2)
        )
        assert status == 200 and body["status"] == "budget-exceeded"
        assert len(service.cache) == 0
        # The identical request without the ceiling computes and stores
        # (iteration ceilings are excluded from the fingerprint)...
        status, full = service.handle(request_document(envelope))
        assert status == 200 and full["status"] == "ok"
        assert "cache" not in full
        assert pool.calls == 2
        assert len(service.cache) == 1
        # ...and only then do repeats hit.
        status, warm = service.handle(request_document(envelope))
        assert warm["cache"] == "hit"
        assert pool.calls == 2

    def test_inject_requests_bypass_the_cache(self, tmp_path, envelope):
        ok_body = {
            "version": PROTOCOL_VERSION,
            "id": "req-1",
            "status": "ok",
            "schedulable": True,
            "outer_iterations": 1,
            "response_times": {},
        }
        pool = StubPool((ok_body, PerfCounters()))
        service = self.make_cached_service(tmp_path, pool=pool)
        for _ in range(2):
            status, body = service.handle(
                request_document(envelope, inject="crash")
            )
            assert status == 200 and "cache" not in body
        assert pool.calls == 2  # never served from disk
        assert len(service.cache) == 0  # and never stored

    def test_hits_bypass_an_open_breaker(self, tmp_path, envelope):
        service = self.make_cached_service(
            tmp_path, breaker=CircuitBreaker(failure_threshold=1)
        )
        service.handle(request_document(envelope))
        service.breaker.record_failure()
        assert service.breaker.state == OPEN
        # An uncached request is refused by the tripped breaker...
        platform = default_platform()
        fresh = json.loads(
            taskset_to_json(
                generate_taskset(random.Random(6), platform, 0.3), platform
            )
        )
        status, body = service.handle(request_document(fresh, id="fresh"))
        assert (status, body["status"]) == (503, "breaker-open")
        # ...while the cached fingerprint is still served.
        status, body = service.handle(request_document(envelope, id="warm"))
        assert status == 200 and body["cache"] == "hit"

    def test_recomputations_carry_no_warm_seed(self, tmp_path, envelope):
        requests = []

        def spy(request):
            requests.append(request)
            return service_worker(request)

        service = self.make_cached_service(tmp_path, pool=StubPool(spy))
        status, first = service.handle(request_document(envelope))
        assert status == 200 and first["status"] == "ok"
        # Recompute the same fingerprint after dropping its cache entry:
        # the pool gets the request as sent, with no converged map, and
        # the worker analyses the task set the daemon parsed from scratch.
        fingerprint = next(iter(service.cache.fingerprints()))
        service.cache.invalidate(fingerprint)
        status, again = service.handle(request_document(envelope, id="re-run"))
        assert status == 200 and "cache" not in again
        assert [request.request_id for request in requests] == [
            "req-1", "re-run"
        ]
        assert all(not hasattr(request, "warm_seed") for request in requests)
        assert service.perf.warm_starts == 0
        assert dict(again, id="req-1") == first
        assert not (tmp_path / "seeds").exists()

    def test_without_a_cache_dir_repeats_are_reanalysed(self, envelope):
        pool = StubPool()
        service = make_service(pool=pool)
        status, first = service.handle(request_document(envelope))
        assert status == 200 and first["status"] == "ok"
        status, again = service.handle(request_document(envelope, id="req-2"))
        assert status == 200 and "cache" not in again
        assert pool.calls == 2
        assert service.perf.analyses == 2
        assert service.perf.warm_starts == 0
        assert dict(again, id="req-1") == first

    def test_stats_document_reports_the_cache(self, tmp_path, envelope):
        service = self.make_cached_service(tmp_path)
        service.handle(request_document(envelope))
        cache = service.stats_document()["cache"]
        assert cache["enabled"]
        assert cache["entries"] == 1 and cache["bytes"] > 0
        assert "seeds" not in cache
        perf = service.stats_document()["perf"]
        assert "warm_seed_hits" not in perf and "warm_seed_stores" not in perf
        bare = make_service().stats_document()["cache"]
        assert not bare["enabled"]
        assert "entries" not in bare


def _one_index(envelope):
    """``(task position, ecbs position)`` of a cache set index equal to 1."""
    for position, record in enumerate(envelope["tasks"]):
        if 1 in record["ecbs"]:
            return position, record["ecbs"].index(1)
    raise AssertionError("no task of the envelope uses cache set 1")


def _index_one_as(value):
    def mutate(document):
        task, index = _one_index(document)
        document["tasks"][task]["ecbs"][index] = value
    return mutate


def _core_one_as(value):
    def mutate(document):
        record = next(r for r in document["tasks"] if r["core"] == 1)
        record["core"] = value
    return mutate


def _permute_indices(document):
    document["tasks"][0]["ecbs"].reverse()


def _duplicate_an_index(document):
    ecbs = document["tasks"][0]["ecbs"]
    ecbs.insert(0, ecbs[0])


def _drop_md_r(document):
    for record in document["tasks"]:
        del record["md_r"]


def _drop_core(document):
    for record in document["tasks"]:
        del record["core"]


class TestParseOnlyOnAMiss:
    """The request path hashes the request's records and builds the task
    model only when the result cache does not hold that key."""

    @pytest.fixture(scope="class")
    def indexed(self):
        """An envelope in which some task uses cache set 1."""
        platform = default_platform()
        for seed in range(100):
            envelope = json.loads(
                taskset_to_json(
                    generate_taskset(random.Random(seed), platform, 0.3),
                    platform,
                )
            )
            if any(1 in record["ecbs"] for record in envelope["tasks"]):
                return envelope
        raise AssertionError("no seed placed a task on cache set 1")

    @staticmethod
    def count_model_builds(monkeypatch):
        """Count ``Task`` constructions and ``task_from_dict`` calls."""
        counts = {"tasks": 0, "records": 0}
        post_init = Task.__post_init__
        from_dict = serialization.task_from_dict

        def counting_post_init(task):
            counts["tasks"] += 1
            post_init(task)

        def counting_from_dict(record, *args):
            counts["records"] += 1
            return from_dict(record, *args)

        monkeypatch.setattr(Task, "__post_init__", counting_post_init)
        monkeypatch.setattr(serialization, "task_from_dict", counting_from_dict)
        return counts

    def test_a_hit_builds_no_task(self, tmp_path, envelope, monkeypatch):
        pool = StubPool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        service.handle(request_document(envelope))
        counts = self.count_model_builds(monkeypatch)
        status, body = service.handle(request_document(envelope, id="again"))
        assert (status, body["cache"]) == (200, "hit")
        assert counts == {"tasks": 0, "records": 0}
        assert pool.calls == 1

    @pytest.mark.parametrize("cached", [False, True], ids=["bare", "cache"])
    def test_a_miss_parses_each_task_once(
        self, tmp_path, envelope, monkeypatch, cached
    ):
        # The stub pool runs the worker in this process, so a parse on
        # either side of the pool would be counted.
        pool = StubPool()
        service = make_service(
            pool=pool, cache_dir=str(tmp_path) if cached else None
        )
        counts = self.count_model_builds(monkeypatch)
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (200, "ok")
        assert "cache" not in body
        assert pool.calls == 1
        assert counts["records"] == len(envelope["tasks"])
        assert counts["tasks"] == len(envelope["tasks"])

    def test_the_pool_receives_the_parsed_request(self, envelope):
        received = []

        def spy(request):
            received.append(request)
            return service_worker(request)

        service = make_service(
            pool=StubPool(spy), default_budget=30.0, clock=FakeClock()
        )
        status, _body = service.handle(
            request_document(envelope, deadline_ms=10_000)
        )
        assert status == 200
        (request,) = received
        assert isinstance(request, AnalysisRequest)
        assert len(request.taskset) == len(envelope["tasks"])
        assert request.envelope is None  # no raw records cross the pool
        # The effective budget and the decremented deadline travel with it.
        assert request.budget_seconds == pytest.approx(9.975)
        assert request.deadline_ms == pytest.approx(9_975.0)

    @pytest.mark.parametrize(
        "mutate, status",
        [
            (_index_one_as(True), 400),
            (_index_one_as(1.0), 400),
            (_core_one_as(True), 200),
            (_core_one_as(1.0), 200),
            (_permute_indices, 200),
            (_duplicate_an_index, 200),
        ],
        ids=["index-true", "index-1.0", "core-true", "core-1.0",
             "permuted", "duplicated"],
    )
    def test_a_rewritten_envelope_never_gets_the_cached_body(
        self, tmp_path, indexed, mutate, status
    ):
        pool = StubPool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        _status, cached = service.handle(request_document(indexed))
        assert service.handle(request_document(indexed))[1]["cache"] == "hit"
        rewritten = json.loads(json.dumps(indexed))
        mutate(rewritten)
        got, body = service.handle(request_document(rewritten))
        assert got == status
        assert "cache" not in body
        if status == 200:
            # The same model gets its own key, analysed to the same verdict.
            assert pool.calls == 2
            assert body == cached
        else:
            assert body["error"] == "ModelError"
            assert pool.calls == 1

    @pytest.mark.parametrize(
        "drop, field, status",
        [(_drop_md_r, "md_r", 200), (_drop_core, "core", 400)],
        ids=["md_r", "core"],
    )
    def test_null_for_a_missing_field_never_gets_the_cached_body(
        self, tmp_path, envelope, drop, field, status
    ):
        pool = StubPool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        sparse = json.loads(json.dumps(envelope))
        drop(sparse)
        _status, cached = service.handle(request_document(sparse))
        assert service.handle(request_document(sparse))[1]["cache"] == "hit"
        nulled = json.loads(json.dumps(sparse))
        for record in nulled["tasks"]:
            record[field] = None
        got, body = service.handle(request_document(nulled))
        assert got == status
        assert "cache" not in body
        if status == 200:
            assert body == cached
        else:
            assert body["error"] == "ModelError"

    def test_an_entry_gone_before_the_read_is_parsed_and_analysed(
        self, tmp_path, envelope
    ):
        pool = StubPool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        _status, first = service.handle(request_document(envelope))
        (fingerprint,) = service.cache.fingerprints()
        get = service.cache.get

        def vanishing(key):
            service.cache.invalidate(key)  # evicted by a sibling process
            return get(key)

        service.cache.get = vanishing
        status, body = service.handle(request_document(envelope))
        assert (status, body) == (200, first)
        assert pool.calls == 2

    def test_an_invalid_request_fails_before_deadline_and_admission(
        self, tmp_path, envelope
    ):
        service = make_service(
            cache_dir=str(tmp_path), clock=FakeClock(), max_in_flight=1
        )
        broken = json.loads(json.dumps(envelope))
        broken["tasks"][0]["period"] = -5
        # Expired deadline: validation still answers first.
        status, body = service.handle(request_document(broken, deadline_ms=1))
        assert (status, body["error"]) == (400, "ModelError")
        # A cached request with an expired deadline is shed, not served.
        service.handle(request_document(envelope))
        status, body = service.handle(request_document(envelope, deadline_ms=1))
        assert (status, body["status"]) == (504, "deadline-expired")
        # A full admission queue: validation still answers first.
        service._active[-1] = "occupant"
        status, body = service.handle(request_document(broken))
        assert (status, body["error"]) == (400, "ModelError")
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (429, "busy")


class TestIdenticalConcurrentMisses:
    def test_identical_concurrent_misses_each_run(self, envelope):
        release = threading.Event()
        calls = threading.Semaphore(0)

        def counted(request):
            calls.release()
            assert release.wait(timeout=30)
            return service_worker(request)

        pool = StubPool(counted)
        service = make_service(pool=pool)
        results = {}

        def submit(name):
            results[name] = service.handle(request_document(envelope, id=name))

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for _ in range(2):  # both requests must reach the pool
            assert calls.acquire(timeout=30)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert pool.calls == 2
        assert [body["status"] for _s, body in results.values()] == ["ok", "ok"]

    @staticmethod
    def gated_pool(outcome=None):
        """A stub pool whose calls each signal ``arrived`` and then block
        until ``release``; ``outcome(request)`` answers, by default the
        real worker."""
        arrived, release = threading.Semaphore(0), threading.Event()

        def gated(request):
            arrived.release()
            assert release.wait(timeout=30)
            if outcome is None:
                return service_worker(request)
            return outcome(request)

        return StubPool(gated), arrived, release

    @staticmethod
    def run_together(service, envelope, arrived, release, requests):
        """Send ``requests`` (id -> extra fields) at once, release them
        only when every one is inside the pool; returns id -> reply."""
        results = {}

        def submit(name, extra):
            results[name] = service.handle(
                request_document(envelope, id=name, **extra)
            )

        threads = [
            threading.Thread(target=submit, args=item)
            for item in requests.items()
        ]
        for thread in threads:
            thread.start()
        for _ in threads:
            assert arrived.acquire(timeout=30)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        return results

    def test_a_worker_crash_is_not_shared(self, envelope):
        # Each crash is its own 500 and its own breaker failure.
        pool, arrived, release = self.gated_pool(
            lambda request: WorkerCrashError("boom")
        )
        service = make_service(
            pool=pool, breaker=CircuitBreaker(failure_threshold=2)
        )
        results = self.run_together(
            service, envelope, arrived, release, {"a": {}, "b": {}}
        )
        for status, body in results.values():
            assert (status, body["error"]) == (500, "WorkerCrashError")
        assert pool.calls == 2
        assert service.stats.worker_crashes == 2
        assert (service.breaker.state, service.breaker.trips) == (OPEN, 1)

    def test_a_non_degradable_request_gets_its_own_exact_answer(
        self, envelope
    ):
        # The degradable request's pool answer is a degraded body; the
        # identical non-degradable request in flight beside it gets its
        # own exact analysis.
        degraded = {
            "version": PROTOCOL_VERSION,
            "id": "lead",
            "status": "ok",
            "schedulable": True,
            "outer_iterations": 1,
            "response_times": {},
            "degraded": {
                "tier": "baseline",
                "soundness": "degraded-sound",
                "tiers_tried": ["exact", "baseline"],
            },
        }

        def answer(request):
            if request.degradable:
                return dict(degraded), PerfCounters()
            return service_worker(request)

        pool, arrived, release = self.gated_pool(answer)
        service = make_service(pool=pool)
        results = self.run_together(
            service,
            envelope,
            arrived,
            release,
            {"lead": {"degrade": True, "budget_seconds": 5}, "exact": {}},
        )
        status, body = results["exact"]
        assert (status, body["status"]) == (200, "ok")
        assert "degraded" not in body and "cache" not in body
        assert results["lead"][1]["degraded"]["tier"] == "baseline"
        assert pool.calls == 2
        assert service.stats.degraded == 1

    def test_an_unlimited_request_gets_its_own_verdict(self, envelope):
        # Iteration ceilings are not part of the cache key: the capped
        # request's partials stay its own.
        pool, arrived, release = self.gated_pool()
        service = make_service(pool=pool)
        results = self.run_together(
            service,
            envelope,
            arrived,
            release,
            {"capped": {"max_iterations": 2}, "unlimited": {}},
        )
        assert results["capped"][1]["status"] == "budget-exceeded"
        status, body = results["unlimited"]
        assert (status, body["status"]) == (200, "ok")
        assert "partial_response_times" not in body
        assert pool.calls == 2
        assert [entry["id"] for entry in service.quarantined] == ["capped"]

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"max_iterations": 2}, {"max_iterations": 2}),
            ({"max_iterations": 2}, {"max_iterations": 1}),
            (
                {"max_iterations": 2, "budget_seconds": 20},
                {"max_iterations": 2, "budget_seconds": 20},
            ),
        ],
        ids=["same-cap", "tighter-cap", "same-cap-and-budget"],
    )
    def test_each_capped_request_reports_its_own_abort(
        self, envelope, first, second
    ):
        pool, arrived, release = self.gated_pool()
        service = make_service(pool=pool)
        results = self.run_together(
            service, envelope, arrived, release, {"a": first, "b": second}
        )
        for name, (status, body) in results.items():
            assert (status, body["status"], body["id"]) == (
                200, "budget-exceeded", name
            )
            assert "cache" not in body
        assert pool.calls == 2
        assert sorted(entry["id"] for entry in service.quarantined) == [
            "a", "b"
        ]

    def test_with_the_cache_both_run_and_one_entry_is_kept(
        self, tmp_path, envelope
    ):
        # Both misses store the same key; the cache's atomic put keeps
        # one entry, which the next repeat hits.
        pool, arrived, release = self.gated_pool()
        service = make_service(pool=pool, cache_dir=str(tmp_path))
        results = self.run_together(
            service, envelope, arrived, release, {"a": {}, "b": {}}
        )
        bodies = [results[name][1] for name in "ab"]
        assert [body["status"] for body in bodies] == ["ok", "ok"]
        assert all("cache" not in body for body in bodies)
        assert dict(bodies[1], id="a") == bodies[0]
        assert pool.calls == 2
        assert len(service.cache) == 1
        status, warm = service.handle(request_document(envelope, id="c"))
        assert (status, warm["cache"]) == (200, "hit")
        assert dict(warm, id="a", cache=None) == dict(bodies[0], cache=None)
        assert pool.calls == 2

    def test_without_the_cache_nothing_is_fingerprinted(
        self, envelope, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("fingerprinted without a cache")

        monkeypatch.setattr(service_daemon, "request_fingerprint", forbidden)
        service = make_service()
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (200, "ok")


def _refused_service(status):
    """A service that refuses ``request_document(envelope)`` as ``status``,
    and the extra request fields that make it do so."""
    if status == "draining":
        service = make_service()
        service.begin_drain()
        return service, {}
    if status == "deadline-expired":
        # 10ms of deadline minus the 25ms safety margin is already gone.
        return make_service(clock=FakeClock()), {"deadline_ms": 10}
    if status == "breaker-open":
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        return make_service(breaker=breaker), {}
    # One slot taken: a batch request is shed at half of two slots, and
    # one slot of one is a full queue for everyone.
    service = make_service(max_in_flight=2 if status == "overload-shed" else 1)
    service._active[-1] = "occupant"
    return service, {"priority": "batch"} if status == "overload-shed" else {}


class TestRefusals:
    """Each refusal of the admission policy, from its one table."""

    @pytest.mark.parametrize(
        "status, code, shed, retry",
        [
            ("draining", 503, False, False),
            ("deadline-expired", 504, True, False),
            ("overload-shed", 429, True, True),
            ("busy", 429, False, True),
            ("breaker-open", 503, False, True),
        ],
    )
    def test_carries_id_version_and_its_table_row(
        self, envelope, status, code, shed, retry
    ):
        refusal = REFUSALS[status]
        assert (refusal.code, refusal.shed, refusal.retry is not None) == (
            code, shed, retry
        )
        pool = StubPool()
        service, extra = _refused_service(status)
        service.pool = pool
        got, body = service.handle(request_document(envelope, **extra))
        assert (got, body["status"]) == (code, status)
        assert body["id"] == "req-1"
        assert body["version"] == PROTOCOL_VERSION
        assert body["message"]
        assert body.get("shed", False) is shed
        assert ("retry_after" in body) is retry
        if retry:
            assert body["retry_after"] > 0
        assert getattr(service.stats, refusal.counter) == 1
        assert service.stats.accepted == (1 if status == "breaker-open" else 0)
        assert pool.calls == 0

    def test_table_covers_the_five_refusals(self):
        assert set(REFUSALS) == {
            "draining", "deadline-expired", "overload-shed", "busy",
            "breaker-open",
        }


class TestDrain:
    def test_draining_rejects_new_work(self, envelope):
        service = make_service()
        service.begin_drain()
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (503, "draining")
        assert service.readyz() == (503, {"status": "draining"})

    def test_drain_waits_for_in_flight_work(self, envelope):
        release = threading.Event()

        def slow(request):
            release.wait(timeout=30)
            return service_worker(request)

        service = make_service(pool=StubPool(slow))
        worker = threading.Thread(
            target=service.handle, args=(request_document(envelope),)
        )
        worker.start()
        time.sleep(0.1)  # let the request register as in flight
        threading.Timer(0.2, release.set).start()
        assert service.drain(grace_seconds=30) is True
        worker.join(timeout=30)
        assert service.quarantined == []

    def test_expired_drain_quarantines_stragglers(self, envelope):
        release = threading.Event()

        def stuck(request):
            release.wait(timeout=30)
            return service_worker(request)

        service = make_service(pool=StubPool(stuck))
        worker = threading.Thread(
            target=service.handle,
            args=(request_document(envelope, id="straggler"),),
        )
        worker.start()
        time.sleep(0.1)
        try:
            assert service.drain(grace_seconds=0.2) is False
            assert service.quarantined == [
                {"id": "straggler", "reason": "drain-timeout"}
            ]
        finally:
            release.set()
            worker.join(timeout=30)

    def test_close_releases_the_pool(self):
        pool = StubPool()
        service = make_service(pool=pool)
        service.close()
        assert pool.closed


class TestDeadlinePropagation:
    """End-to-end deadline handling at the daemon hop (injected clock)."""

    def test_expired_on_arrival_is_shed_before_the_pool(self, envelope):
        pool = StubPool()
        service = make_service(pool=pool, clock=FakeClock())
        # 10ms of deadline minus the 25ms safety margin is already gone.
        status, body = service.handle(
            request_document(envelope, deadline_ms=10)
        )
        assert status == 504
        assert body["status"] == "deadline-expired"
        assert body["shed"] is True
        assert pool.calls == 0  # shed without a pool round-trip
        assert service.stats_document()["requests"]["shed_expired"] == 1

    def test_near_zero_deadline_clamps_to_the_minimum_budget(self, envelope):
        seen = {}

        def spy(request):
            seen.update(vars(request))
            return service_worker(request)

        service = make_service(pool=StubPool(spy), clock=FakeClock())
        # 30ms deadline - 25ms safety = 5ms remaining: admitted, but the
        # derived budget is clamped up to min_budget_seconds so the
        # request can at least return its typed abort.
        status, _body = service.handle(
            request_document(envelope, deadline_ms=30)
        )
        assert status == 200
        assert seen["budget_seconds"] == pytest.approx(0.05)
        assert seen["deadline_ms"] == pytest.approx(5.0)

    def test_tighter_caller_budget_wins(self, envelope):
        seen = {}

        def spy(request):
            seen.update(vars(request))
            return service_worker(request)

        service = make_service(pool=StubPool(spy), clock=FakeClock())
        service.handle(
            request_document(envelope, deadline_ms=10_000, budget_seconds=1.0)
        )
        assert seen["budget_seconds"] == 1.0
        # The decremented deadline still travels with the request.
        assert seen["deadline_ms"] == pytest.approx(9_975.0)

    def test_deadline_derived_budget_applies_without_caller_budget(
        self, envelope
    ):
        seen = {}

        def spy(request):
            seen.update(vars(request))
            return service_worker(request)

        service = make_service(pool=StubPool(spy), clock=FakeClock())
        service.handle(request_document(envelope, deadline_ms=2_025))
        assert seen["budget_seconds"] == pytest.approx(2.0)


class TestOverloadControl:
    def test_batch_priority_is_shed_first(self, envelope):
        gate = threading.Event()
        release = threading.Event()
        lock = threading.Lock()
        blocked = []

        def blocking(request):
            # Only the two admitted requests block (``gate`` opens once
            # both are in the pool), so the interactive probe at the end
            # returns at once.
            with lock:
                block = len(blocked) < 2
                if block:
                    blocked.append(request)
                    if len(blocked) == 2:
                        gate.set()
            if block:
                release.wait(timeout=30)
            return service_worker(request)

        # batch_cap defaults to max_in_flight // 2 = 2.  Each admitted
        # request makes its own pool call, identical ones included.
        service = make_service(pool=StubPool(blocking), max_in_flight=4)
        results = {}
        workers = [
            threading.Thread(
                target=lambda key=key: results.update(
                    {key: service.handle(request_document(envelope))}
                )
            )
            for key in ("a", "b")
        ]
        for worker in workers:
            worker.start()
        try:
            assert gate.wait(timeout=30)
            deadline = time.monotonic() + 30
            while len(service._active) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            status, body = service.handle(
                request_document(envelope, priority="batch")
            )
            assert status == 429
            assert body["status"] == "overload-shed"
            assert body["shed"] is True
            assert body["retry_after"] > 0
            assert service.stats_document()["requests"]["shed_overload"] == 1
            # Interactive requests are still admitted at this load.
            status, body = service.handle(request_document(envelope))
            assert status == 200
        finally:
            release.set()
            for worker in workers:
                worker.join(timeout=30)

    def test_retry_after_is_deterministic_with_injected_rng(self, envelope):
        gate = threading.Event()
        release = threading.Event()

        def blocking(request):
            gate.set()
            release.wait(timeout=30)
            return service_worker(request)

        service = make_service(
            pool=StubPool(blocking), max_in_flight=1, rng=random.Random(0)
        )
        results = {}
        worker = threading.Thread(
            target=lambda: results.update(
                first=service.handle(request_document(envelope))
            )
        )
        worker.start()
        try:
            assert gate.wait(timeout=30)
            _status, body = service.handle(request_document(envelope))
            expected = round(
                1.0 * (0.5 + 1.0) * (0.5 + random.Random(0).random()), 3
            )
            assert body["retry_after"] == expected
        finally:
            release.set()
            worker.join(timeout=30)


class TestBrownout:
    def test_brownout_serves_the_coarse_tier_without_the_pool(self, envelope):
        pool = StubPool()
        # One admission slot: the very first admitted request takes the
        # last slot and browns out.
        service = make_service(pool=pool, max_in_flight=1)
        status, body = service.handle(
            request_document(envelope, degrade=True)
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["brownout"] is True
        assert body["degraded"]["tier"] == "coarse"
        assert body["degraded"]["soundness"] == "degraded-sound"
        assert pool.calls == 0
        assert service.stats_document()["requests"]["degraded"] == 1
        assert service.perf.brownout_runs == 1

    def test_open_breaker_browns_out_degradable_requests(self, envelope):
        pool = StubPool()
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        assert breaker.state == OPEN
        service = make_service(pool=pool, breaker=breaker)
        # Degradable request: served degraded instead of 503.
        status, body = service.handle(
            request_document(envelope, degrade=True)
        )
        assert (status, body["brownout"]) == (200, True)
        assert pool.calls == 0
        # Non-degradable request: the exact pre-pressure semantics.
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (503, "breaker-open")

    def test_degraded_answers_never_enter_the_cache(self, envelope, tmp_path):
        service = make_service(max_in_flight=1, cache_dir=str(tmp_path))
        first = service.handle(request_document(envelope, degrade=True))[1]
        assert first["brownout"] is True
        # A second identical request must not be served from the cache:
        # the degraded body was never stored under the exact fingerprint.
        second = service.handle(
            request_document(envelope, id="req-2", degrade=True)
        )[1]
        assert second.get("cache") != "hit"
        assert second["brownout"] is True

    def test_a_starved_brownout_is_a_typed_abort_of_unknown_soundness(
        self, envelope
    ):
        pool = StubPool()
        service = make_service(pool=pool, max_in_flight=1)
        status, body = service.handle(
            request_document(envelope, degrade=True, max_iterations=1)
        )
        assert (status, body["status"]) == (200, "budget-exceeded")
        assert body["brownout"] is True
        assert body["degraded"] == {
            "tier": None,
            "soundness": "unknown",
            "tiers_tried": ["coarse"],
        }
        assert pool.calls == 0
        assert service.stats.budget_aborted == 1
        assert service.stats_document()["requests"]["degraded"] == 0
        assert service.perf.brownout_runs == 1

    def test_a_generous_budget_leaves_the_brownout_unchanged(self, envelope):
        service = make_service(max_in_flight=1)
        _status, free = service.handle(
            request_document(envelope, id="f", degrade=True)
        )
        _status, budgeted = service.handle(
            request_document(
                envelope, id="b", degrade=True, max_iterations=10_000_000
            )
        )
        assert free["brownout"] is True
        assert dict(budgeted, id="f") == free

    def test_a_starved_degradable_request_is_a_typed_abort(self, envelope):
        # A degradable request that is not browned out runs the exact
        # analysis alone under its whole budget: starved, it gets the
        # typed abort with its partial estimates, like any other request.
        service = make_service(max_in_flight=4)
        status, body = service.handle(
            request_document(envelope, degrade=True, max_iterations=50)
        )
        assert (status, body["status"]) == (200, "budget-exceeded")
        assert body["partial_response_times"]
        assert "degraded" not in body
        assert service.stats.budget_aborted == 1
        assert service.stats.degraded == 0

    def test_a_degradable_request_gets_its_whole_budget(self, envelope):
        # An iteration ceiling of exactly the cold analysis's inner
        # iterations is enough for the exact answer, degradable or not.
        _body, perf = service_worker(shipped_document(envelope))
        ceiling = perf.inner_iterations
        service = make_service(max_in_flight=4)
        _status, degradable = service.handle(
            request_document(
                envelope, id="d", degrade=True, max_iterations=ceiling
            )
        )
        _status, exact = service.handle(
            request_document(envelope, id="e", max_iterations=ceiling)
        )
        assert exact["status"] == "ok" and "degraded" not in exact
        assert dict(degradable, id="e") == exact
        assert service.stats.completed == 2


@contextmanager
def serving(service):
    """``service`` behind the daemon's HTTP handler; yields its address."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpFraming:
    """The daemon's HTTP handler over a raw socket, with a stub pool."""

    @pytest.fixture
    def url(self):
        with serving(make_service()) as address:
            yield address

    @staticmethod
    def exchange(address, headers, body=b"", method="POST", path="/analyze"):
        """Raw ``METHOD PATH``, ``POST /analyze`` by default; returns
        ``(status, headers, body)`` within 5 s."""
        head = "".join(f"{name}: {value}\r\n" for name, value in headers)
        request = f"{method} {path} HTTP/1.0\r\n{head}\r\n".encode() + body
        with socket.create_connection(address, timeout=5) as connection:
            connection.sendall(request)
            reply = b""
            while chunk := connection.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines)
        return int(status_line.split()[1]), fields, json.loads(payload)

    @staticmethod
    def post(address, headers, body=b""):
        """Raw ``POST /analyze``; returns ``(status, body)`` within 5 s."""
        status, _fields, document = TestHttpFraming.exchange(
            address, headers, body
        )
        return status, document

    def test_negative_content_length_is_refused_before_reading(self, url):
        status, body = self.post(url, [("Content-Length", "-1")], b"{}")
        assert status == 400
        assert body["error"] == "ModelError"

    @pytest.mark.parametrize("deadline", ["inf", "abc"])
    def test_unusable_deadline_header_is_a_typed_400(
        self, url, envelope, deadline
    ):
        payload = json.dumps(request_document(envelope)).encode()
        status, body = self.post(
            url,
            [("Content-Length", str(len(payload))), ("X-Deadline-Ms", deadline)],
            payload,
        )
        assert status == 400
        assert body["error"] == "AnalysisError"
        assert "deadline" in body["message"].lower()

    @pytest.mark.parametrize(
        "status, seed, header",
        # Breaker: 5s cool-down x (0.5 + 0.844) = 6.722s -> 7.  Batch shed
        # at half load: 1s x (0.5 + 0.5) x (0.5 + 0.134) = 0.634s -> 1.
        [("breaker-open", 0, "7"), ("overload-shed", 1, "1")],
    )
    def test_retry_after_header_is_whole_seconds(
        self, envelope, status, seed, header
    ):
        breaker = CircuitBreaker(failure_threshold=1)
        if status == "breaker-open":
            breaker.record_failure()
        service = make_service(breaker=breaker, rng=random.Random(seed))
        extra = {}
        if status == "overload-shed":
            service._active.update({-1: "one", -2: "two"})
            extra = {"priority": "batch"}
        payload = json.dumps(request_document(envelope, **extra)).encode()
        with serving(service) as address:
            code, fields, body = self.exchange(
                address, [("Content-Length", str(len(payload)))], payload
            )
        assert (code, body["status"]) == (REFUSALS[status].code, status)
        assert fields["Retry-After"] == header
        seconds = max(1, math.ceil(body["retry_after"]))
        assert fields["Retry-After"] == str(seconds)
        # The body keeps the jittered float.
        assert body["retry_after"] != int(body["retry_after"])


class TestHttpEndpoints:
    """Each endpoint and header of the daemon's HTTP handler."""

    @pytest.fixture
    def url(self):
        with serving(make_service()) as address:
            yield address

    @staticmethod
    def get(address, path):
        return TestHttpFraming.exchange(address, [], method="GET", path=path)

    @staticmethod
    def post_json(address, document, headers=()):
        """``POST /analyze`` of ``document``; returns ``(status, body)``."""
        payload = json.dumps(document).encode()
        return TestHttpFraming.post(
            address, [("Content-Length", str(len(payload))), *headers], payload
        )

    @staticmethod
    def half_loaded():
        """A service with one of its two slots taken: batch-priority
        requests are shed, interactive ones admitted."""
        service = make_service(max_in_flight=2)
        service._active[-1] = "occupant"
        return service

    @staticmethod
    def spied():
        """A service on a stopped clock and the requests its pool ran."""
        seen = []

        def spy(request):
            seen.append(request)
            return service_worker(request)

        return make_service(pool=StubPool(spy), clock=FakeClock()), seen

    @pytest.mark.parametrize(
        "path, expected",
        [("/healthz", {"status": "ok"}), ("/readyz", {"status": "ready"})],
    )
    def test_probes_answer_json(self, url, path, expected):
        status, _fields, body = self.get(url, path)
        assert (status, body) == (200, expected)

    @pytest.mark.parametrize("reason", ["draining", "breaker-open"])
    def test_readyz_is_503_when_not_ready(self, reason):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        service = make_service(breaker=breaker)
        if reason == "draining":
            service.begin_drain()
        else:
            breaker.record_failure()
        with serving(service) as address:
            status, _fields, body = self.get(address, "/readyz")
            assert (status, body) == (503, {"status": reason})
            # Liveness does not depend on readiness.
            assert self.get(address, "/healthz")[0] == 200

    def test_stats_is_the_stats_document(self, envelope):
        service = make_service()
        service.handle(request_document(envelope))
        with serving(service) as address:
            status, _fields, body = self.get(address, "/stats")
        assert status == 200
        assert body == json.loads(json.dumps(service.stats_document()))
        assert body["requests"]["completed"] == 1

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/"), ("GET", "/analyze"), ("GET", "/stats/"),
         ("POST", "/"), ("POST", "/healthz"), ("POST", "/analyze/")],
    )
    def test_an_unknown_path_is_a_404(self, url, method, path):
        headers = [("Content-Length", "0")] if method == "POST" else []
        status, _fields, body = TestHttpFraming.exchange(
            url, headers, method=method, path=path
        )
        assert (status, body) == (404, {"status": "not-found", "path": path})

    @pytest.mark.parametrize(
        "payload",
        [b'{"id": "x"', b"not json", b'{"id": "\xff"}'],
        ids=["truncated", "not-json", "not-utf8"],
    )
    def test_an_undecodable_body_is_a_typed_400(self, url, payload):
        status, body = TestHttpFraming.post(
            url, [("Content-Length", str(len(payload)))], payload
        )
        assert (status, body["error"], body["id"]) == (400, "ModelError", "")
        assert body["message"].startswith("bad request body")

    def test_a_non_integer_content_length_is_a_typed_400(self, url):
        status, body = TestHttpFraming.post(url, [("Content-Length", "ten")])
        assert (status, body["error"]) == (400, "ModelError")
        assert body["message"].startswith("bad request body")

    def test_a_missing_body_is_a_typed_400(self, url):
        # No body reads as JSON null, which is not a request object.
        status, body = TestHttpFraming.post(url, [])
        assert (status, body["error"]) == (400, "ModelError")
        assert "JSON object" in body["message"]

    def test_replies_are_json_with_their_length(self, url, envelope):
        payload = json.dumps(request_document(envelope)).encode()
        status, fields, body = TestHttpFraming.exchange(
            url, [("Content-Length", str(len(payload)))], payload
        )
        assert (status, body["status"]) == (200, "ok")
        assert fields["Content-Type"] == "application/json"
        assert int(fields["Content-Length"]) == len(json.dumps(body).encode())
        assert "Retry-After" not in fields

    def test_an_answer_is_the_service_core_body(self, url, envelope):
        status, body = self.post_json(url, request_document(envelope))
        direct_status, direct = make_service().handle(request_document(envelope))
        assert status == direct_status == 200
        assert body == json.loads(json.dumps(direct))

    def test_a_batch_answers_every_document_in_order(self, url, envelope):
        documents = [
            request_document(envelope, id="one"),
            {"id": "bad"},
            request_document(envelope, id="two"),
        ]
        status, body = self.post_json(url, {"requests": documents})
        assert status == 200
        assert [(reply["id"], reply["status"]) for reply in body["responses"]] == [
            ("one", "ok"), ("bad", "error"), ("two", "ok")
        ]

    def test_batch_requests_must_be_an_array(self, url):
        status, body = self.post_json(url, {"requests": {"id": "x"}})
        assert (status, body["error"]) == (400, "ModelError")
        assert "array" in body["message"]

    def test_a_deadline_header_fills_a_missing_body_field(self, envelope):
        service, seen = self.spied()
        with serving(service) as address:
            status, body = self.post_json(
                address, request_document(envelope), [("X-Deadline-Ms", "2025")]
            )
        assert (status, body["status"]) == (200, "ok")
        assert seen[0].deadline_ms == pytest.approx(2_000.0)
        assert seen[0].budget_seconds == pytest.approx(2.0)

    def test_the_body_deadline_wins_over_the_header(self, envelope):
        service, seen = self.spied()
        with serving(service) as address:
            status, _body = self.post_json(
                address,
                request_document(envelope, deadline_ms=10_025),
                [("X-Deadline-Ms", "2025")],
            )
        assert status == 200
        assert seen[0].deadline_ms == pytest.approx(10_000.0)

    def test_a_priority_header_fills_a_missing_body_field(self, envelope):
        with serving(self.half_loaded()) as address:
            status, body = self.post_json(
                address, request_document(envelope), [("X-Priority", "batch")]
            )
        assert (status, body["status"]) == (429, "overload-shed")

    def test_the_body_priority_wins_over_the_header(self, envelope):
        with serving(self.half_loaded()) as address:
            status, body = self.post_json(
                address,
                request_document(envelope, priority="interactive"),
                [("X-Priority", "batch")],
            )
        assert (status, body["status"]) == (200, "ok")

    def test_an_unknown_priority_header_is_a_typed_400(self, url, envelope):
        status, body = self.post_json(
            url, request_document(envelope), [("X-Priority", "urgent")]
        )
        assert (status, body["error"]) == (400, "AnalysisError")
        assert "priority" in body["message"]

    def test_headers_do_not_reach_batched_documents(self, envelope):
        # Applied, either header would refuse the document: a batch
        # priority is shed at half load, and 1ms is expired on arrival.
        with serving(self.half_loaded()) as address:
            status, body = self.post_json(
                address,
                {"requests": [request_document(envelope)]},
                [("X-Priority", "batch"), ("X-Deadline-Ms", "1")],
            )
        assert status == 200
        assert [reply["status"] for reply in body["responses"]] == ["ok"]

    def test_a_refusal_without_retry_after_sends_no_header(self, envelope):
        service = make_service()
        service.begin_drain()
        payload = json.dumps(request_document(envelope)).encode()
        with serving(service) as address:
            status, fields, body = TestHttpFraming.exchange(
                address, [("Content-Length", str(len(payload)))], payload
            )
        assert (status, body["status"]) == (503, "draining")
        assert "retry_after" not in body and "Retry-After" not in fields

    def test_requests_write_no_access_line(self, url, envelope, capfd):
        capfd.readouterr()
        assert self.post_json(url, request_document(envelope))[0] == 200
        assert self.get(url, "/healthz")[0] == 200
        assert capfd.readouterr().err == ""


class FakeFuture:
    """A settled future: ``result`` returns or raises ``outcome``."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.timeouts = []

    def result(self, timeout=None):
        self.timeouts.append(timeout)
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


class FakeSpawnPool:
    """Process-free stand-in for :class:`repro.workers.SpawnPool`."""

    generation = 7

    def __init__(self, outcome=None, refuse=None):
        self.future = FakeFuture(outcome)
        #: Exception ``submit`` raises instead of accepting the call.
        self.refuse = refuse
        self.submitted = []
        self.respawns = []

    def submit(self, fn, *args):
        if self.refuse is not None:
            raise self.refuse
        self.submitted.append((fn, args))
        return self.generation, self.future

    def respawn(self, generation, kill):
        self.respawns.append((generation, kill))


class TestAnalysisPool:
    """:meth:`AnalysisPool.run`: the watchdog and the failure mapping."""

    @staticmethod
    def make_pool(monkeypatch, default_watchdog=None, **fake):
        spawn = FakeSpawnPool(**fake)
        monkeypatch.setattr(service_pool, "SpawnPool", lambda workers: spawn)
        return service_pool.AnalysisPool(default_watchdog=default_watchdog)

    @pytest.mark.parametrize(
        "budget, default_watchdog, allowance",
        [
            (2.0, 60.0, service_pool.watchdog_allowance(2.0)),
            (None, 60.0, 60.0),
            (None, None, None),
        ],
        ids=["budget", "default", "unbounded"],
    )
    def test_waits_the_watchdog_allowance(
        self, monkeypatch, envelope, budget, default_watchdog, allowance
    ):
        answer = ({"status": "ok"}, PerfCounters())
        pool = self.make_pool(monkeypatch, default_watchdog, outcome=answer)
        extra = {} if budget is None else {"budget_seconds": budget}
        request = parse_request(request_document(envelope, **extra))
        assert pool.run(request) is answer
        assert pool._pool.submitted == [(service_worker, (request,))]
        assert pool._pool.future.timeouts == [allowance]
        assert pool._pool.respawns == []

    def test_an_expired_watchdog_kills_and_respawns(self, monkeypatch, envelope):
        pool = self.make_pool(monkeypatch, outcome=FutureTimeout())
        request = parse_request(request_document(envelope, budget_seconds=1.0))
        with pytest.raises(ChunkTimeoutError, match="watchdog allowance"):
            pool.run(request)
        assert pool._pool.respawns == [(7, True)]

    def test_a_dead_worker_respawns_without_a_kill(self, monkeypatch, envelope):
        pool = self.make_pool(monkeypatch, outcome=BrokenProcessPool())
        with pytest.raises(WorkerCrashError, match="died"):
            pool.run(parse_request(request_document(envelope)))
        assert pool._pool.respawns == [(7, False)]

    @pytest.mark.parametrize(
        "error",
        [BrokenProcessPool("broken"), RuntimeError("shut down")],
        ids=["broken", "shut-down"],
    )
    def test_a_refused_submission_is_a_worker_crash(
        self, monkeypatch, envelope, error
    ):
        pool = self.make_pool(monkeypatch, refuse=error)
        with pytest.raises(WorkerCrashError, match="at submission"):
            pool.run(parse_request(request_document(envelope)))
        # The spawn pool's own submit respawns a refused generation.
        assert pool._pool.respawns == []


class TestHttpNonFiniteNumbers:
    """JSON's ``NaN``/``Infinity`` in a model field over real HTTP."""

    @pytest.fixture(params=[False, True], ids=["bare", "cache"])
    def url(self, request, tmp_path):
        cache_dir = str(tmp_path) if request.param else None
        with serving(make_service(cache_dir=cache_dir)) as address:
            yield address

    @pytest.mark.parametrize(
        "where, field, token",
        [("task", "pd", "NaN"), ("task", "period", "Infinity"),
         ("task", "deadline", "NaN"), ("platform", "d_mem", "Infinity"),
         ("platform", "slot_size", "NaN")],
    )
    def test_is_a_typed_400_and_the_next_request_is_served(
        self, url, envelope, where, field, token
    ):
        document = json.loads(json.dumps(envelope))
        record = document["tasks"][0] if where == "task" else document["platform"]
        record[field] = float(token.lower().replace("infinity", "inf"))
        payload = json.dumps(request_document(document)).encode()
        assert token.encode() in payload
        post = TestHttpFraming.post
        status, body = post(url, [("Content-Length", str(len(payload)))], payload)
        assert (status, body["error"]) == (400, "ModelError")
        assert "finite" in body["message"]
        payload = json.dumps(request_document(envelope)).encode()
        status, body = post(url, [("Content-Length", str(len(payload)))], payload)
        assert (status, body["status"]) == (200, "ok")
