"""Service request-path benchmark: durable cache hit vs. cold compute.

One measured operation is one ``AnalysisService.handle()`` call — the
full admission / fingerprint / cache / breaker path — against an
in-process worker pool, so the numbers isolate the service core from
process-spawn and HTTP costs:

* **cold** — every round starts with the task set's result-cache entry
  invalidated.  The worker analyses the task set the daemon parsed from
  the request, so nothing else can replay the previous round: the
  request is fingerprinted, parsed, analysed from scratch (no warm
  start, asserted per round) and written back to disk;
* **warm** — the entry is primed once and every round is a durable cache
  hit: fingerprint, disk read, checksum re-validation, id rewrite, and
  no parse.

The warm median is gated by the bench-smoke job
(``benchmarks/thresholds.json``): the whole point of the result cache is
that a hit costs microseconds-to-milliseconds instead of a WCRT fixed
point, so a hit becoming as slow as a compute (a broken index, a
re-validation slip into re-analysis) is a genuine regression even though
all verdicts stay bit-identical.
"""

import json
import random

import pytest

from repro.experiments import default_platform
from repro.generation import generate_taskset
from repro.resultcache import request_fingerprint
from repro.serialization import taskset_to_json
from repro.service import AnalysisService, ServiceConfig
from repro.service.pool import service_worker
from repro.service.protocol import read_request


class InProcessPool:
    """Runs the worker function inline (no processes, no watchdog)."""

    def run(self, request):
        return service_worker(request)

    def close(self):
        pass


@pytest.fixture(scope="module")
def document():
    platform = default_platform()
    taskset = generate_taskset(random.Random(11), platform, 0.4)
    envelope = json.loads(taskset_to_json(taskset, platform))
    return {"id": "bench", "taskset": envelope}


@pytest.fixture()
def service(tmp_path):
    instance = AnalysisService(
        ServiceConfig(cache_dir=str(tmp_path)), pool=InProcessPool()
    )
    yield instance
    instance.close()


def _fingerprint(document):
    request = read_request(document)
    return request_fingerprint(
        request.envelope["tasks"], request.envelope["platform"], request.config
    )


def test_bench_service_cache_cold(benchmark, service, document):
    fingerprint = _fingerprint(document)
    warm = []

    def cold():
        before = service.perf.warm_starts
        status, body = service.handle(document)
        assert status == 200 and body["status"] == "ok"
        assert "cache" not in body  # every round really computed
        warm.append(service.perf.warm_starts - before)

    def forget():
        # Drop the previous round's result-cache entry, the only replay.
        # (pedantic setup must return None, not invalidate's bool)
        service.cache.invalidate(fingerprint)

    benchmark.pedantic(cold, setup=forget, rounds=10, iterations=1)
    # ``--benchmark-disable`` runs one round, not ten: every round that
    # ran must have been cold.
    assert warm and not any(warm)


def test_bench_service_cache_warm(benchmark, service, document):
    status, cold = service.handle(document)
    assert status == 200 and cold["status"] == "ok"

    def warm():
        status, body = service.handle(document)
        assert status == 200 and body.get("cache") == "hit"
        return body

    body = benchmark(warm)
    stripped = {k: v for k, v in body.items() if k != "cache"}
    assert stripped == {k: v for k, v in cold.items() if k != "cache"}
