"""Unit tests of the fingerprint-sharded service router.

:class:`repro.service.router.ShardRouter` is HTTP-free and takes an
injectable transport, so these tests drive the full routing, retry,
failover and health logic with an in-memory fake — programmable per-shard
behaviour (serving, dead, refusing, not ready) plus recorded backoff
sleeps.  The same logic against real SIGKILLed/SIGSTOPped daemon
processes is exercised by ``scripts/chaos_smoke.py``.
"""

import json
import random

import pytest

from repro.errors import AnalysisError
from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.model.task import Task
from repro.resultcache import request_fingerprint
from repro.serialization import taskset_to_json
from repro.service.protocol import read_request
from repro.service.router import RouterConfig, ShardRouter


@pytest.fixture(scope="module")
def envelope():
    platform = default_platform()
    taskset = generate_taskset(random.Random(5), platform, 0.3)
    return json.loads(taskset_to_json(taskset, platform))


def request_document(envelope, **extra):
    document = {"id": "req-1", "taskset": envelope}
    document.update(extra)
    return document


def fingerprint_of(document):
    """The exact server-side fingerprint computation."""
    request = read_request(document)
    return request_fingerprint(
        request.envelope["tasks"], request.envelope["platform"], request.config
    )


class FakeTransport:
    """Programmable in-memory shard fleet.

    Per-shard ``modes``: ``"ok"`` serves, ``"dead"`` raises
    :class:`OSError` (connection refused / timeout), ``"refuse"`` returns
    a breaker-open 503, ``"notready"`` serves analyses but fails
    ``/readyz``.
    """

    def __init__(self, urls, modes=None):
        self.urls = list(urls)
        self.modes = dict(modes or {})
        self.calls = []

    def mode_of(self, url):
        base = next(base for base in self.urls if url.startswith(base))
        return base, self.modes.get(base, "ok")

    def __call__(self, method, url, document, timeout):
        self.calls.append((method, url, document, timeout))
        base, mode = self.mode_of(url)
        if mode == "dead":
            raise ConnectionRefusedError(f"{base} is down")
        if url.endswith("/readyz"):
            if mode == "notready":
                return 503, {"status": "draining"}
            return 200, {"status": "ready"}
        if mode == "refuse":
            return 503, {"status": "breaker-open", "retry_after": 1}
        if mode == "notready":
            mode = "ok"
        request_id = document.get("id", "") if isinstance(document, dict) else ""
        return 200, {"status": "ok", "id": request_id, "served_by": base}

    def analyze_urls(self):
        return [url for _m, url, _d, _t in self.calls if url.endswith("/analyze")]


def make_router(num_shards=3, modes=None, clock=None, **config):
    urls = tuple(f"http://shard{index}" for index in range(num_shards))
    transport = FakeTransport(urls, modes)
    sleeps = []
    extra = {} if clock is None else {"clock": clock}
    router = ShardRouter(
        RouterConfig(shards=urls, **config),
        transport=transport,
        sleep=sleeps.append,
        **extra,
    )
    return router, transport, sleeps


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRouterConfig:
    def test_requires_at_least_one_shard(self):
        with pytest.raises(AnalysisError):
            RouterConfig(shards=())

    @pytest.mark.parametrize(
        "bad",
        [
            {"port": 70000},
            {"health_interval_seconds": 0},
            {"forward_timeout": 0},
            {"health_timeout": -1},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_base": 2.0, "backoff_cap": 1.0},
        ],
    )
    def test_rejects_invalid_knobs(self, bad):
        with pytest.raises(AnalysisError):
            RouterConfig(shards=("http://a",), **bad)


class TestSharding:
    def test_shard_for_is_fingerprint_prefix_modulo(self):
        router, _transport, _sleeps = make_router(num_shards=3)
        fingerprint = "ab" * 32
        assert router.shard_for(fingerprint) == int(fingerprint[:16], 16) % 3

    def test_identical_requests_land_on_the_same_shard(self, envelope):
        router, transport, _sleeps = make_router(num_shards=4)
        document = request_document(envelope)
        first = router.forward(document)[1]["shard"]
        second = router.forward(dict(document, id="req-2"))[1]["shard"]
        assert first == second
        assert first == router.shard_for(fingerprint_of(document))
        assert len(set(transport.analyze_urls())) == 1

    def test_config_knobs_do_not_move_the_shard(self, envelope):
        # Invisible optimisation knobs are excluded from the fingerprint,
        # so toggling them cannot scatter a request across shards.
        router, _transport, _sleeps = make_router(num_shards=4)
        document = request_document(envelope)
        tuned = request_document(envelope, config={"memoization": False})
        assert router.forward(document)[1]["shard"] == (
            router.forward(tuned)[1]["shard"]
        )

    def test_invalid_documents_round_robin(self):
        router, _transport, _sleeps = make_router(num_shards=3)
        shards = [router.forward({"id": f"bad-{i}"})[1]["shard"] for i in range(3)]
        assert shards == [0, 1, 2]

    def test_unhashable_records_round_robin(self, envelope):
        # Canonical JSON has no NaN, so these records have no key.
        router, _transport, _sleeps = make_router(num_shards=3)
        odd = json.loads(json.dumps(envelope))
        odd["tasks"][0]["note"] = float("nan")
        shards = [
            router.forward(request_document(odd, id=f"odd-{i}"))[1]["shard"]
            for i in range(3)
        ]
        assert shards == [0, 1, 2]

    def test_sharding_builds_no_task(self, envelope, monkeypatch):
        built = []
        post_init = Task.__post_init__

        def counting(task):
            built.append(task.name)
            post_init(task)

        monkeypatch.setattr(Task, "__post_init__", counting)
        router, _transport, _sleeps = make_router(num_shards=4)
        document = request_document(envelope)
        shard = router.forward(document)[1]["shard"]
        assert shard == router.shard_for(fingerprint_of(document))
        assert built == []


class TestForwarding:
    def test_healthy_primary_serves_without_retries(self, envelope):
        router, transport, sleeps = make_router()
        document = request_document(envelope)
        status, body = router.forward(document)
        assert status == 200
        assert body["status"] == "ok"
        assert body["shard"] == router.shard_for(fingerprint_of(document))
        assert len(transport.analyze_urls()) == 1
        assert sleeps == []
        stats = router.stats_document()["router"]
        assert (stats["forwards"], stats["retries"], stats["failovers"]) == (
            1,
            0,
            0,
        )

    def test_dead_primary_fails_over_with_backoff(self, envelope):
        document = request_document(envelope)
        probe, _t, _s = make_router()
        primary = probe.shard_for(fingerprint_of(document))
        router, transport, sleeps = make_router(
            modes={f"http://shard{primary}": "dead"}, backoff_base=0.05
        )
        status, body = router.forward(document)
        assert status == 200
        assert body["shard"] == (primary + 1) % 3
        assert sleeps == [0.05]
        stats = router.stats_document()
        assert stats["router"]["retries"] == 1
        assert stats["router"]["failovers"] == 1
        assert not stats["shards"][primary]["healthy"]

    def test_refusing_primary_fails_over(self, envelope):
        document = request_document(envelope)
        probe, _t, _s = make_router()
        primary = probe.shard_for(fingerprint_of(document))
        router, _transport, _sleeps = make_router(
            modes={f"http://shard{primary}": "refuse"}
        )
        status, body = router.forward(document)
        assert status == 200 and body["status"] == "ok"
        assert body["shard"] != primary

    def test_last_candidate_refusal_is_returned_as_is(self, envelope):
        # Everyone refusing is not the same as everyone dead: the caller
        # gets the shards' own typed 503, tagged with the serving shard.
        router, _transport, _sleeps = make_router(
            modes={f"http://shard{i}": "refuse" for i in range(3)}
        )
        status, body = router.forward(request_document(envelope))
        assert status == 503
        assert body["status"] == "breaker-open"
        assert "shard" in body

    def test_all_dead_degrades_to_typed_503(self, envelope):
        router, transport, _sleeps = make_router(
            modes={f"http://shard{i}": "dead" for i in range(3)}
        )
        status, body = router.forward(request_document(envelope))
        assert status == 503
        assert body["status"] == "no-shards"
        assert body["retry_after"] == 1
        assert len(transport.analyze_urls()) == 3  # every shard was tried
        assert router.readyz()[0] == 503  # failures fed the health map

    def test_retry_budget_caps_the_attempts(self, envelope):
        router, transport, _sleeps = make_router(
            num_shards=5,
            modes={f"http://shard{i}": "dead" for i in range(5)},
            max_retries=2,
        )
        status, body = router.forward(request_document(envelope))
        assert status == 503 and body["status"] == "no-shards"
        assert len(transport.analyze_urls()) == 3  # primary + 2 retries

    def test_backoff_doubles_up_to_the_cap(self, envelope):
        router, _transport, sleeps = make_router(
            num_shards=5,
            modes={f"http://shard{i}": "dead" for i in range(5)},
            max_retries=4,
            backoff_base=0.05,
            backoff_cap=0.2,
        )
        router.forward(request_document(envelope))
        assert sleeps == [0.05, 0.1, 0.2, 0.2]

    def test_inject_requests_get_exactly_one_attempt(self, envelope):
        # Fault injections kill or hang a worker — a replay is not a
        # no-op, so a dead primary must NOT fail over.
        router, transport, sleeps = make_router(
            modes={"http://shard0": "dead", "http://shard1": "dead",
                   "http://shard2": "dead"}
        )
        document = request_document(envelope, inject="crash")
        status, body = router.forward(document)
        assert status == 503 and body["status"] == "no-shards"
        assert len(transport.analyze_urls()) == 1
        assert sleeps == []

    def test_unhealthy_shards_are_deprioritised_not_dropped(self, envelope):
        document = request_document(envelope)
        probe, _t, _s = make_router()
        primary = probe.shard_for(fingerprint_of(document))
        backup = (primary + 1) % 3
        # The ring successor is known-unhealthy; a dead primary should
        # skip it in favour of the healthy shard — but keep it as a last
        # resort (the health map is advisory).
        router, _transport, _sleeps = make_router(
            modes={
                f"http://shard{primary}": "dead",
                f"http://shard{backup}": "notready",
            }
        )
        router.probe_all()
        status, body = router.forward(document)
        assert status == 200
        assert body["shard"] == (primary + 2) % 3
        candidates = router._candidates(primary, idempotent=True)
        assert candidates[0] == primary  # primary always tried first
        assert candidates[-1] == backup  # unhealthy last, never dropped


class TestHealth:
    def test_probe_marks_shards(self):
        router, _transport, _sleeps = make_router(
            modes={"http://shard1": "notready", "http://shard2": "dead"}
        )
        assert router.probe_all() == 1
        stats = router.stats_document()["shards"]
        assert [shard["healthy"] for shard in stats] == [True, False, False]
        assert stats[0]["detail"] == "ready"
        assert "not ready" in stats[1]["detail"]
        assert "probe failed" in stats[2]["detail"]

    def test_readyz_needs_one_healthy_shard(self):
        router, _transport, _sleeps = make_router(
            modes={"http://shard1": "dead", "http://shard2": "dead"}
        )
        router.probe_all()
        status, body = router.readyz()
        assert status == 200 and body["shards_ready"] == 1
        router.transport.modes["http://shard0"] = "dead"
        router.probe_all()
        status, body = router.readyz()
        assert status == 503 and body["status"] == "no-shards"

    def test_recovery_is_observed_by_the_next_probe(self):
        router, transport, _sleeps = make_router(
            modes={"http://shard0": "dead"}
        )
        router.probe_all()
        assert not router.stats_document()["shards"][0]["healthy"]
        transport.modes["http://shard0"] = "ok"
        router.probe_all()
        assert router.stats_document()["shards"][0]["healthy"]


class TestBatch:
    def test_batch_splits_across_shards(self, envelope):
        router, _transport, _sleeps = make_router(num_shards=2)
        documents = [
            request_document(envelope, id="a"),
            {"id": "bad"},  # invalid — still gets a per-item response
        ]
        status, body = router.forward_batch(documents)
        assert status == 200
        assert [item["id"] for item in body["responses"]] == ["a", "bad"]
        assert body["responses"][0]["status"] == "ok"

    def test_batch_rejects_non_arrays(self):
        router, _transport, _sleeps = make_router()
        status, body = router.forward_batch({"not": "a list"})
        assert status == 400
        assert body["error"] == "ModelError"


class TestDeadlineAwareRetries:
    def test_retry_never_outlives_the_caller_deadline(self, envelope):
        # Every shard dead, 30ms of deadline: after the first failed
        # attempt the 50ms backoff alone would outlive the caller, so
        # the router stops with a typed 504 instead of retrying.
        router, transport, sleeps = make_router(
            modes={f"http://shard{i}": "dead" for i in range(3)},
            clock=FakeClock(),
            backoff_base=0.05,
        )
        status, body = router.forward(
            request_document(envelope, deadline_ms=30)
        )
        assert status == 504
        assert body["status"] == "deadline-expired"
        assert body["shed"] is True
        assert len(transport.analyze_urls()) == 1
        assert sleeps == []  # the backoff sleep never happened
        assert router.perf.shed_requests == 1
        assert router.perf.deadline_expired_rejects == 1

    def test_deadline_is_decremented_and_bounds_the_timeout(self, envelope):
        router, transport, _sleeps = make_router(clock=FakeClock())
        status, _body = router.forward(
            request_document(envelope, deadline_ms=1_000)
        )
        assert status == 200
        _method, _url, document, timeout = transport.calls[-1]
        # 1000ms minus the 25ms safety margin travels to the shard, and
        # the transport attempt cannot wait longer than that.
        assert document["deadline_ms"] == pytest.approx(975.0)
        assert timeout == pytest.approx(0.975)

    def test_expired_on_arrival_is_shed_without_any_attempt(self, envelope):
        router, transport, _sleeps = make_router(clock=FakeClock())
        status, body = router.forward(
            request_document(envelope, deadline_ms=10)
        )
        assert status == 504
        assert body["shed"] is True
        assert transport.analyze_urls() == []

    def test_infinite_deadline_derives_no_timeout(self, envelope):
        # ``json`` parses Infinity, and an infinite transport timeout would
        # overflow ``socket.settimeout``; the shard answers such a request
        # with its typed 400.
        router, transport, _sleeps = make_router(clock=FakeClock())
        document = request_document(envelope, deadline_ms=float("inf"))
        status, _body = router.forward(document)
        assert status == 200
        assert transport.calls[-1][2:] == (document, None)

    def test_no_deadline_keeps_the_old_retry_behaviour(self, envelope):
        router, transport, sleeps = make_router(
            modes={"http://shard0": "dead"}, clock=FakeClock()
        )
        document = request_document(envelope)
        status, _body = router.forward(document)
        assert status == 200
        assert transport.calls[-1][3] is None  # no timeout derived


class TestRetryAfterCooldown:
    def test_cooling_shard_sorts_to_the_back(self, envelope):
        clock = FakeClock()
        router, transport, _sleeps = make_router(clock=clock)
        document = request_document(envelope)
        primary = router.shard_for(fingerprint_of(document))
        transport.modes[f"http://shard{primary}"] = "refuse"
        # First forward: primary refuses with Retry-After 1, fails over.
        status, body = router.forward(document)
        assert status == 200
        assert body["shard"] != primary
        # Second forward inside the cooldown window: the primary is not
        # even attempted — its Retry-After is honoured.
        transport.calls.clear()
        status, body = router.forward(dict(document, id="req-2"))
        assert status == 200
        first_url = transport.analyze_urls()[0]
        assert f"shard{primary}" not in first_url
        # After the window the primary is preferred again.
        clock.now = 2.0
        transport.modes.pop(f"http://shard{primary}")
        transport.calls.clear()
        status, body = router.forward(dict(document, id="req-3"))
        assert body["shard"] == primary

    def test_cooldown_is_reported_in_stats(self, envelope):
        clock = FakeClock()
        router, transport, _sleeps = make_router(clock=clock)
        document = request_document(envelope)
        primary = router.shard_for(fingerprint_of(document))
        transport.modes[f"http://shard{primary}"] = "refuse"
        router.forward(document)
        stats = router.stats_document()
        assert stats["shards"][primary]["cooling_seconds"] == pytest.approx(
            1.0
        )


class TestPollerHygiene:
    def test_poller_thread_is_daemonized_and_joinable(self):
        router, _transport, _sleeps = make_router(
            health_interval_seconds=0.01
        )
        router.start_health_poller()
        poller = router._poller
        assert poller is not None
        assert poller.daemon  # a hung probe cannot wedge process exit
        router.stop_health_poller()
        assert router._poller is None
        assert not poller.is_alive()

    def test_stop_is_idempotent(self):
        router, _transport, _sleeps = make_router()
        router.stop_health_poller()  # never started: no-op
        router.start_health_poller()
        router.stop_health_poller()
        router.stop_health_poller()
