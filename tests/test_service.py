"""Unit tests of the batch-analysis service core (no HTTP, no processes).

The daemon's heart — :class:`repro.service.AnalysisService` — is exercised
directly with stub worker pools, so every admission / breaker / drain path
runs in milliseconds and deterministically.  The end-to-end counterpart
against a real daemon process is ``scripts/service_smoke.py`` (CI's
``service-smoke`` job).
"""

import json
import random
import threading
import time

import pytest

from repro.errors import (
    AnalysisError,
    ChunkTimeoutError,
    ModelError,
    WorkerCrashError,
)
from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.perf import PerfCounters
from repro.serialization import taskset_to_json
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    CircuitBreaker,
    PROTOCOL_VERSION,
    ServiceConfig,
    parse_request,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
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

    @pytest.mark.parametrize("value", [0, -1, "fast", True])
    def test_bad_budget_is_an_analysis_error(self, envelope, value):
        with pytest.raises(AnalysisError, match="budget_seconds"):
            parse_request(request_document(envelope, budget_seconds=value))

    @pytest.mark.parametrize("value", [0, -3, 1.5, True])
    def test_bad_iteration_ceiling_is_an_analysis_error(self, envelope, value):
        with pytest.raises(AnalysisError, match="max_iterations"):
            parse_request(request_document(envelope, max_iterations=value))

    def test_unknown_inject_kind_is_an_analysis_error(self, envelope):
        with pytest.raises(AnalysisError, match="inject"):
            parse_request(request_document(envelope, inject="segfault"))


class TestServiceWorker:
    """The worker function itself, run in-process for speed."""

    def test_ok_response(self, envelope):
        response, perf = service_worker(request_document(envelope))
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
        first, first_perf = service_worker(request_document(envelope))
        again, again_perf = service_worker(request_document(envelope))
        assert again == first
        for perf in (first_perf, again_perf):
            assert perf.analyses == 1
            assert perf.warm_starts == 0
            assert (perf.resident_table_hits, perf.resident_table_misses) == (0, 0)
        assert again_perf.inner_iterations == first_perf.inner_iterations

    def test_budget_abort_response_carries_partials(self, envelope):
        response, perf = service_worker(
            request_document(envelope, max_iterations=2)
        )
        assert response["status"] == "budget-exceeded"
        assert response["iterations"] == 3
        assert response["partial_response_times"]
        assert perf.budget_aborts == 1

    def test_analysis_failure_is_data_not_an_exception(self, envelope):
        # Validation runs inside the worker too (the document crosses a
        # process boundary in production) — a bad document must come back
        # as an error *response*, never as a raised exception.
        response, _perf = service_worker(
            {"id": "bad", "taskset": {"format": "nope"}}
        )
        assert response["status"] == "error"
        assert response["error"] == "ModelError"


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
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


class StubPool:
    """In-process stand-in for :class:`AnalysisPool`."""

    def __init__(self, outcome=None):
        #: Either a (response, perf) tuple, an exception to raise, or a
        #: callable(document) deciding per request.
        self.outcome = outcome
        self.calls = 0
        self.closed = False

    def run(self, document):
        self.calls += 1
        outcome = self.outcome
        if callable(outcome):
            outcome = outcome(document)
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is None:
            return service_worker(document)
        return outcome

    def allowance_for(self, budget_seconds):
        # Coalesced waiters derive their wait from the leader's watchdog
        # allowance; the stub has no watchdog, so waiters wait forever.
        return None

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
        with pytest.raises(AnalysisError):
            ServiceConfig(breaker_reset_seconds=0)

    def test_rejects_invalid_cache_knobs(self):
        with pytest.raises(AnalysisError):
            ServiceConfig(cache_max_entries=0)
        with pytest.raises(AnalysisError):
            ServiceConfig(cache_max_bytes=0)


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

        def spy(document):
            seen.update(document)
            return service_worker(document)

        service = make_service(pool=StubPool(spy), default_budget=7.5)
        service.handle(request_document(envelope))
        assert seen["budget_seconds"] == 7.5
        # An explicit budget wins over the default.
        service.handle(request_document(envelope, budget_seconds=1.0))
        assert seen["budget_seconds"] == 1.0

    def test_worker_crash_is_500_and_feeds_the_breaker(self, envelope):
        service = make_service(
            pool=StubPool(WorkerCrashError("worker died")),
            breaker_threshold=2,
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

        def blocking(document):
            gate.set()
            release.wait(timeout=30)
            return service_worker(document)

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
        assert pool.calls == 2  # never coalesced, never served from disk
        assert len(service.cache) == 0  # and never stored

    def test_hits_bypass_an_open_breaker(self, tmp_path, envelope):
        service = self.make_cached_service(tmp_path, breaker_threshold=1)
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
        documents = []

        def spy(document):
            documents.append(dict(document))
            return service_worker(document)

        service = self.make_cached_service(tmp_path, pool=StubPool(spy))
        status, first = service.handle(request_document(envelope))
        assert status == 200 and first["status"] == "ok"
        # Recompute the same fingerprint after dropping its cache entry:
        # the pool gets the request as sent, with no converged map, and
        # the worker analyses the task set it parsed from scratch.
        fingerprint = next(iter(service.cache.fingerprints()))
        service.cache.invalidate(fingerprint)
        status, again = service.handle(request_document(envelope, id="re-run"))
        assert status == 200 and "cache" not in again
        assert [document["id"] for document in documents] == ["req-1", "re-run"]
        assert all("warm_seed" not in document for document in documents)
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
        assert cache["enabled"] and cache["coalesce"]
        assert cache["coalescing_flights"] == 0
        assert cache["entries"] == 1 and cache["bytes"] > 0
        assert "seeds" not in cache
        perf = service.stats_document()["perf"]
        assert "warm_seed_hits" not in perf and "warm_seed_stores" not in perf
        bare = make_service().stats_document()["cache"]
        assert not bare["enabled"]
        assert "entries" not in bare


class TestCoalescing:
    """The request-coalescing tier (works with or without the cache)."""

    def run_pair(self, service, envelope, entered, release):
        """Start a leader, then a waiter on the identical document."""
        results = {}

        def submit(name, request_id):
            results[name] = service.handle(
                request_document(envelope, id=request_id)
            )

        leader = threading.Thread(target=submit, args=("leader", "lead-1"))
        leader.start()
        assert entered.wait(timeout=30)  # the leader owns the flight
        waiter = threading.Thread(target=submit, args=("waiter", "wait-1"))
        waiter.start()
        deadline = time.monotonic() + 30
        while not service._flights and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # let the waiter reach flight.done.wait()
        release.set()
        leader.join(timeout=30)
        waiter.join(timeout=30)
        return results

    def blocking_pool(self, entered, release, after=None):
        def blocked(document):
            entered.set()
            assert release.wait(timeout=30)
            if isinstance(after, Exception):
                raise after
            return service_worker(document)

        return StubPool(blocked)

    def test_identical_concurrent_requests_share_one_computation(
        self, envelope
    ):
        entered, release = threading.Event(), threading.Event()
        pool = self.blocking_pool(entered, release)
        service = make_service(pool=pool)
        results = self.run_pair(service, envelope, entered, release)
        status, lead_body = results["leader"]
        assert status == 200 and lead_body["status"] == "ok"
        assert "cache" not in lead_body
        status, wait_body = results["waiter"]
        assert status == 200 and wait_body["cache"] == "coalesced"
        assert wait_body["id"] == "wait-1"
        assert pool.calls == 1
        assert service.perf.coalesced_requests == 1
        assert service.stats.completed == 2
        assert service._flights == {}  # the flight was cleaned up

    def test_leader_failure_is_shared_too(self, envelope):
        entered, release = threading.Event(), threading.Event()
        pool = self.blocking_pool(
            entered, release, after=WorkerCrashError("boom")
        )
        service = make_service(pool=pool)
        results = self.run_pair(service, envelope, entered, release)
        assert results["leader"][0] == 500
        status, body = results["waiter"]
        assert status == 500 and body["error"] == "WorkerCrashError"
        assert pool.calls == 1  # the waiter did not retry the crash

    def test_coalescing_can_be_disabled(self, envelope):
        entered, release = threading.Event(), threading.Event()
        calls = threading.Semaphore(0)

        def counted(document):
            calls.release()
            entered.set()
            assert release.wait(timeout=30)
            return service_worker(document)

        pool = StubPool(counted)
        service = make_service(pool=pool, coalesce=False)
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
        assert all(body["status"] == "ok" for _s, body in results.values())
        assert service.perf.coalesced_requests == 0


class TestDrain:
    def test_draining_rejects_new_work(self, envelope):
        service = make_service()
        service.begin_drain()
        status, body = service.handle(request_document(envelope))
        assert (status, body["status"]) == (503, "draining")
        assert service.readyz() == (503, {"status": "draining"})

    def test_drain_waits_for_in_flight_work(self, envelope):
        release = threading.Event()

        def slow(document):
            release.wait(timeout=30)
            return service_worker(document)

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

        def stuck(document):
            release.wait(timeout=30)
            return service_worker(document)

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
        assert service.stats.shed_expired == 1
        assert service.perf.shed_requests == 1
        assert service.perf.deadline_expired_rejects == 1

    def test_near_zero_deadline_clamps_to_the_minimum_budget(self, envelope):
        seen = {}

        def spy(document):
            seen.update(document)
            return service_worker(document)

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

        def spy(document):
            seen.update(document)
            return service_worker(document)

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

        def spy(document):
            seen.update(document)
            return service_worker(document)

        service = make_service(pool=StubPool(spy), clock=FakeClock())
        service.handle(request_document(envelope, deadline_ms=2_025))
        assert seen["budget_seconds"] == pytest.approx(2.0)


class TestOverloadControl:
    def test_batch_priority_is_shed_first(self, envelope):
        gate = threading.Event()
        release = threading.Event()
        lock = threading.Lock()
        blocked = []

        def blocking(document):
            # Only the two admitted requests block (``gate`` opens once
            # both are in the pool), so the interactive probe at the end
            # returns at once.
            with lock:
                block = len(blocked) < 2
                if block:
                    blocked.append(document)
                    if len(blocked) == 2:
                        gate.set()
            if block:
                release.wait(timeout=30)
            return service_worker(document)

        # batch_cap defaults to max_in_flight // 2 = 2.  Without coalescing
        # each admitted request makes its own pool call.
        service = make_service(
            pool=StubPool(blocking), max_in_flight=4, coalesce=False
        )
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
            assert service.stats.shed_overload == 1
            assert service.perf.shed_requests == 1
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

        def blocking(document):
            gate.set()
            release.wait(timeout=30)
            return service_worker(document)

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
        # brownout_in_flight=1: the very first admitted slot browns out.
        service = make_service(
            pool=pool, max_in_flight=4, brownout_in_flight=1
        )
        status, body = service.handle(
            request_document(envelope, degrade=True)
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["brownout"] is True
        assert body["degraded"]["tier"] == "coarse"
        assert body["degraded"]["soundness"] == "degraded-sound"
        assert pool.calls == 0
        assert service.stats.brownout_served == 1
        assert service.stats.degraded == 1
        assert service.perf.degraded_responses == 1
        assert service.perf.ladder_tier_runs == 1

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
        service = make_service(
            max_in_flight=4,
            brownout_in_flight=1,
            cache_dir=str(tmp_path),
        )
        first = service.handle(request_document(envelope, degrade=True))[1]
        assert first["brownout"] is True
        # A second identical request must not be served from the cache:
        # the degraded body was never stored under the exact fingerprint.
        second = service.handle(
            request_document(envelope, id="req-2", degrade=True)
        )[1]
        assert second.get("cache") != "hit"
        assert second["brownout"] is True

    def test_ladder_degrades_through_the_pool_path(self, envelope):
        # A starved iteration budget with degrade=True: the pool worker
        # runs the ladder and answers from a degraded tier instead of
        # aborting, and the daemon counts it.
        service = make_service(max_in_flight=4)
        status, body = service.handle(
            request_document(
                envelope, degrade=True, max_iterations=50
            )
        )
        assert status == 200
        if body["status"] == "ok":
            assert body["degraded"]["tier"] in ("baseline", "coarse")
            assert service.stats.degraded == 1
        else:
            # Even the coarse tier did not fit: typed abort with the
            # unknown-soundness marker.
            assert body["status"] == "budget-exceeded"
            assert body["degraded"]["soundness"] == "unknown"
