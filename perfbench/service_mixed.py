"""The ``service-mixed`` workload: a real daemon under a closed-loop mix.

The request stream is generated and serialised before timing, from the
run's seed alone.  Each request repeats an already-sent task set with
probability 0.5 and is otherwise a fresh task set at utilisation 0.3, 0.4
or 0.5.  Two client threads send it in a closed loop — each waits for its
verdict before sending the next request, as callers of the service do —
so misses exercise parse, fingerprint, pool IPC, analysis and the cache
and seed *writes*, while hits exercise parse, fingerprint and the cache
*read* with its checksum, all on one cache.  The service (daemon and its
pool worker) is pinned to one CPU and the load generator to another.

Correctness: every response must be 200/``ok``; every body of a task set
(hit, coalesced or repeated miss) must equal its first miss body up to
``id``/``cache``; and every 50th miss must equal an in-harness analysis of
the same task set with every kernel layer switched off.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.metrics import (
    LAYER_MAP,
    REFERENCE_OFF,
    ROOT,
    SERVICE_SELF_LAYERS,
    WORK,
    child_env,
    percentile,
    tree_peak_rss_mb,
)
from perfbench.speed import SpeedMeter
from perfbench.tracing import Tracer, install_service_layers

#: Client threads of the closed loop (the machine this was sized on has
#: 2 CPUs; the daemon runs one pool worker).
CLIENTS = 2

#: Requests generated per second of measuring.  The loop serves about
#: 110-120 req/s with the service on one CPU of the machine it was sized
#: on; a program more than 1.7x faster runs out of stream early and
#: measures a shorter window.
REQUESTS_PER_SECOND = 200

#: Probability that a request repeats an already-sent task set.  No share
#: measured on real callers exists; an even mix weighs cache reads and
#: analysed misses alike.  Hits and misses form two latency modes, and
#: with half the requests in each the median falls between them, so the
#: gated metric is throughput, which moves smoothly with the mix.
REPEAT_PROBABILITY = 0.5

UTILIZATIONS = (0.3, 0.4, 0.5)

#: Every n-th miss is re-analysed in the harness.
CHECK_EVERY = 50

#: Distinct task sets after which the service's memory is read.  The pool
#: worker keeps state for every distinct task set it analysed, so a peak
#: read at the end of the loop would grow with the loop's speed, and one
#: read after a fixed number of requests with the seed's share of fresh
#: task sets.  This many take about 600 requests, which even a loop at
#: half its usual speed gets through in 16 s.
MEMORY_TASK_SETS = 300


def build_stream(seed: int, count: int):
    """``(task-set index, request bytes)`` pairs plus the task-set envelopes.

    Envelopes are kept as serialised ``repro-taskset`` JSON, each encoded
    once: generation and serialisation dominate the harness's own time.
    """
    from repro.experiments.config import default_platform
    from repro.generation import generate_taskset
    from repro.serialization import taskset_to_json

    rng = random.Random(seed)
    platform = default_platform()
    envelopes: List[bytes] = []
    stream: List[Tuple[int, bytes]] = []
    for index in range(count):
        if envelopes and rng.random() < REPEAT_PROBABILITY:
            key = rng.randrange(len(envelopes))
        else:
            taskset = generate_taskset(
                random.Random(rng.getrandbits(32)), platform,
                rng.choice(UTILIZATIONS),
            )
            envelopes.append(
                taskset_to_json(taskset, platform, indent=None).encode("utf-8")
            )
            key = len(envelopes) - 1
        body = b'{"id": "r%d", "taskset": %s}' % (index, envelopes[key])
        stream.append((key, body))
    return stream, envelopes


def _priming_request(seed: int) -> bytes:
    """A request outside the stream that makes a fresh service ready."""
    stream, _ = build_stream(seed ^ 0x5EED, 1)
    return stream[0][1]


def closed_loop(
    send: Callable[[bytes], Tuple[int, bytes]],
    stream,
    seconds: float,
    wrap: Optional[Callable] = None,
) -> Tuple[List[Tuple], Tuple[float, float]]:
    """Send ``stream`` from :data:`CLIENTS` threads until time or input ends.

    Returns one ``(key, start, end, status, body)`` record per request
    sent, in stream order, and the loop's ``(start, end)``, all read from
    ``time.monotonic()``.
    """
    lock = threading.Lock()
    cursor = [0]
    records: List[Optional[Tuple]] = [None] * len(stream)
    start = time.monotonic()
    deadline = start + seconds

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(stream) or time.monotonic() >= deadline:
                    return
                cursor[0] += 1
            key, payload = stream[index]
            begin = time.monotonic()
            try:
                if wrap is None:
                    status, body = send(payload)
                else:
                    with wrap():
                        status, body = send(payload)
            except Exception as error:  # noqa: BLE001 — counted as failed
                status, body = 0, repr(error).encode("utf-8")
            records[index] = (key, begin, time.monotonic(), status, body)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for record in records[: cursor[0]]], (start, time.monotonic())


# -- the HTTP daemon -----------------------------------------------------------


def cpus() -> Tuple[int, int]:
    """``(load-generator CPU, service CPU)``.

    The service (daemon and pool worker) runs pinned to one CPU and the
    load generator to another, so neither takes CPU time from the other
    and the scheduler cannot stack both on one CPU while the other idles.
    Placed freely, six runs of one seed ranged over 13% of throughput
    after speed normalization; pinned, four ranged over 2-5%.  With one
    usable CPU both share it.
    """
    usable = sorted(os.sched_getaffinity(0))
    return usable[0], usable[-1]


class Daemon:
    """A ``python -m repro.service`` child on an OS-picked port, and its
    pool worker, pinned to ``cpu``."""

    def __init__(self, cache_dir, cpu: int) -> None:
        self.log_path = cache_dir.with_suffix(".log")
        self.log = open(self.log_path, "w")
        # A child inherits the CPU mask of the thread that forks it.
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--workers", "1", "--cache-dir", str(cache_dir)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=self.log, text=True,
            )
        finally:
            os.sched_setaffinity(0, mask)
        self.port = None
        deadline = time.monotonic() + 120
        while self.port is None and time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if ready:
                line = self.process.stdout.readline()
                if "listening on" in line:
                    self.port = int(line.strip().rsplit(":", 1)[-1])
                elif not line:
                    break
        if self.port is None:
            self.stop()
            raise RuntimeError(
                f"service daemon did not start: {self.log_path.read_text()[-2000:]}"
            )

    def send(self, payload: bytes) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(
                "POST", "/analyze", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class InProcess:
    """``AnalysisService`` hosted in the harness with a real 1-worker pool.

    The harness does the JSON decode/encode the HTTP front end would.
    """

    def __init__(self, cache_dir) -> None:
        from repro.service import AnalysisService, ServiceConfig

        self.service = AnalysisService(
            ServiceConfig(cache_dir=str(cache_dir), workers=1)
        )

    def send(self, payload: bytes) -> Tuple[int, bytes]:
        status, body = self.service.handle(json.loads(payload))
        return status, json.dumps(body).encode("utf-8")

    def stop(self) -> None:
        self.service.close()


def _timed_start(factory: Callable, priming: bytes):
    """Start a service with ``factory()`` and send the priming request.

    Returns the service and the ``time.monotonic()`` span until it was ready.
    """
    start = time.monotonic()
    service = factory()
    try:
        status, body = service.send(priming)
        if status != 200 or json.loads(body).get("status") != "ok":
            raise RuntimeError(f"priming request failed: {status} {body[:200]!r}")
    except BaseException:
        service.stop()
        raise
    return service, (start, time.monotonic())


# -- correctness ---------------------------------------------------------------


def _check(records, envelopes) -> Tuple[int, List[str]]:
    """``(failed requests, errors)`` of one closed-loop phase."""
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.wcrt import analyze_taskset
    from repro.resultcache import result_payload
    from repro.service.protocol import parse_request

    failed = 0
    errors: List[str] = []
    first: Dict[int, Dict] = {}
    misses = 0
    reference = AnalysisConfig(**REFERENCE_OFF)
    for key, _begin, _end, status, raw in records:
        try:
            body = json.loads(raw)
        except ValueError:
            body = {}
        if status != 200 or body.get("status") != "ok":
            failed += 1
            continue
        marker = body.pop("cache", None)
        body.pop("id", None)
        if marker is None:
            misses += 1
            if misses % CHECK_EVERY == 1:
                request = parse_request({"taskset": json.loads(envelopes[key])})
                expected = result_payload(
                    analyze_taskset(request.taskset, request.platform, reference)
                )
                if body != expected:
                    errors.append(f"miss of task set {key} differs from the reference")
        if key not in first:
            first[key] = body
        elif body != first[key]:
            errors.append(f"task set {key}: {marker or 'miss'} body differs")
    return failed, errors


def _latencies(records) -> List[float]:
    return [end - begin for _k, begin, end, status, _b in records]


def _cache_marker(raw: bytes) -> Optional[str]:
    try:
        return json.loads(raw).get("cache")
    except ValueError:
        return None


# -- the run -------------------------------------------------------------------


def run(
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Optional[str] = None,
    setup_repeats: int = 3,
) -> Dict:
    """One run of ``service-mixed``; returns the run's result record."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"service-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True)
    counter = itertools.count()

    def fresh_dir():
        path = workdir / f"cache-{next(counter)}"
        path.mkdir()
        return path

    priming = _priming_request(seed)
    stream, envelopes = build_stream(seed, max(20, int(seconds * REQUESTS_PER_SECOND)))
    try:
        if not trace:
            return _run_untraced(stream, envelopes, seconds, priming,
                                 fresh_dir, setup_repeats)
        return _run_traced(stream, envelopes, seconds, priming, fresh_dir,
                           seed, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_untraced(stream, envelopes, seconds, priming, fresh_dir, repeats):
    """Set-ups and the closed loop under a :class:`SpeedMeter` on the
    service's CPU."""
    client_cpu, service_cpu = cpus()
    os.sched_setaffinity(0, {client_cpu})
    setup = []
    daemon = None
    with SpeedMeter([service_cpu]) as meter:
        try:
            for attempt in range(repeats):
                daemon, span = _timed_start(
                    lambda: Daemon(fresh_dir(), service_cpu), priming
                )
                setup.append(span)
                if attempt < repeats - 1:
                    daemon.stop()
                    daemon = None
            # One closed loop, paused to read memory once the service has
            # been sent MEMORY_TASK_SETS distinct task sets.
            cut = next(
                (index + 1 for index, (key, _body) in enumerate(stream)
                 if key == MEMORY_TASK_SETS - 1),
                len(stream),
            )
            records, first = closed_loop(daemon.send, stream[:cut], seconds)
            memory = tree_peak_rss_mb(daemon.process.pid)
            rest, second = closed_loop(
                daemon.send, stream[cut:], seconds - (first[1] - first[0])
            )
            records += rest
        finally:
            if daemon is not None:
                daemon.stop()
    failed, errors = _check(records, envelopes)
    ok = len(records) - failed
    loops = (first, second)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": len(records),
        "failed": len(records) if errors else failed,
        "raw": {
            "setup_s": statistics.median(end - start for start, end in setup),
            "throughput_per_s": ok / sum(end - start for start, end in loops),
        },
        "metrics": {
            "setup_s": statistics.median(meter.normalized(*span) for span in setup),
            "throughput_per_s": ok / sum(meter.normalized(*span) for span in loops),
            "peak_rss_mb": memory,
        },
    }


def _run_traced(stream, envelopes, seconds, priming, fresh_dir, seed, trace_out):
    """HTTP untraced, in-process untraced, in-process traced: a third each.

    The service runs on the service CPU throughout: in process, with the
    harness pinned there too.
    """
    phase = seconds / 3
    client_cpu, service_cpu = cpus()
    os.sched_setaffinity(0, {client_cpu})
    daemon, _ = _timed_start(lambda: Daemon(fresh_dir(), service_cpu), priming)
    try:
        http_records, _ = closed_loop(daemon.send, stream, phase)
    finally:
        daemon.stop()
    os.sched_setaffinity(0, {service_cpu})
    plain, _ = _timed_start(lambda: InProcess(fresh_dir()), priming)
    try:
        plain_records, _ = closed_loop(plain.send, stream, phase)
    finally:
        plain.stop()
    tracer = Tracer()
    traced_service, _ = _timed_start(lambda: InProcess(fresh_dir()), priming)
    try:
        with ExitStack() as stack:
            install_service_layers(tracer, stack)
            traced_records, _ = closed_loop(
                traced_service.send, stream, phase,
                wrap=lambda: tracer.region("request"),
            )
    finally:
        traced_service.stop()

    errors: List[str] = []
    failed = 0
    for records in (http_records, plain_records, traced_records):
        phase_failed, phase_errors = _check(records, envelopes)
        failed += phase_failed
        errors += phase_errors
    attempted = len(http_records) + len(plain_records) + len(traced_records)

    totals = tracer.totals()
    n = len(traced_records)
    metrics = {name: 0.0 for name in LAYER_MAP}
    for layer in SERVICE_SELF_LAYERS:
        metrics[f"{layer}_s"] = totals.get(layer, {}).get("self_s", 0.0) / n
    http_latency = _latencies(http_records)
    plain_latency = _latencies(plain_records)
    traced_latency = _latencies(traced_records)
    markers = [_cache_marker(raw) for *_rest, raw in traced_records]

    def of(latencies, records, marker):
        return [lat for lat, rec in zip(latencies, records)
                if _cache_marker(rec[4]) == marker]

    hits = of(http_latency, http_records, "hit")
    misses = of(http_latency, http_records, None)
    plain_hits = of(plain_latency, plain_records, "hit")
    p99 = percentile(http_latency, 99)
    metrics.update({
        # Over hits only: the median of all requests falls between the
        # hit and miss modes and moves with the hit share of each phase.
        "service.http_s": statistics.median(hits) - statistics.median(plain_hits)
        if hits and plain_hits else 0.0,
        "service.hit_p50_ms": statistics.median(hits) * 1e3 if hits else 0.0,
        "service.miss_p50_ms": statistics.median(misses) * 1e3 if misses else 0.0,
        "service.latency_p50_ms": statistics.median(http_latency) * 1e3,
        "service.latency_p90_ms": percentile(http_latency, 90) * 1e3,
        "service.latency_p99_ms": p99 * 1e3,
        "service.latency_p99_beyond": sum(1 for lat in http_latency if lat > p99),
        "service.cache_hits": markers.count("hit"),
        "service.cache_misses": markers.count(None),
        "service.coalesced": markers.count("coalesced"),
        "trace.unit_s": sum(traced_latency) / n,
        "runner.other_s": totals.get("request", {}).get("self_s", 0.0) / n,
        "trace.overhead_s": statistics.median(traced_latency)
        - statistics.median(plain_latency),
    })
    if trace_out:
        tracer.write_chrome(trace_out, {
            "workload": "service-mixed", "seed": seed, "metrics": metrics,
        })
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": attempted if errors else failed,
        "metrics": metrics,
    }
