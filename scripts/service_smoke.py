#!/usr/bin/env python3
"""End-to-end smoke test of the batch-analysis service daemon.

Drives a real ``python -m repro.service`` process over HTTP through the
guarantees ``docs/SERVICE.md`` promises (runnable locally and as the
``service-smoke`` CI job):

1. **Budget cancellation** — a batch containing one hang-poisoned request
   (cooperative spin) with a small deadline budget: the poisoned request
   must come back ``budget-exceeded`` and be quarantined while the healthy
   concurrent requests complete normally.
2. **Result cache** — an identical repeat request is served from the
   persistent content-addressed cache bit-identically, and ``/stats``
   reports the cache counters.  The cache key is over the
   request's own records: a ``NaN`` field and a cache set index of
   ``2**70`` are typed 400s that leave the daemon serving, an envelope
   with unsorted indices is analysed on
   first arrival and hits on repeat, and the same envelope with ``true``
   in place of a ``1`` gets its 400, never the cached body.
3. **Circuit breaker** — repeated ``inject: crash`` requests kill their
   workers until the breaker trips (503 + ``/readyz`` not ready); after
   the cool-down a healthy probe closes it again.
4. **Graceful drain** — SIGTERM: ``/readyz`` flips to 503, in-flight work
   finishes, and the daemon exits 0.

The deeper fault-injection proofs (kill mid-write, corruption
quarantine, overload and deadline storms) live in
``scripts/chaos_smoke.py``.

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import default_platform  # noqa: E402
from repro.generation import generate_taskset  # noqa: E402
from repro.serialization import taskset_to_json  # noqa: E402
from repro.service.breaker import RESET_SECONDS  # noqa: E402

ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"service-smoke: FAILED: {message}")
    print(f"  ok: {message}", flush=True)


def http(method, url, document=None, timeout=60):
    """One JSON request; returns (status, parsed body)."""
    data = json.dumps(document).encode("utf-8") if document is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def start_daemon(cache_dir=None):
    """Launch the daemon on an OS-picked port; returns (process, base URL)."""
    args = [
        sys.executable,
        "-m",
        "repro.service",
        "--port",
        "0",
        "--workers",
        "2",
        "--max-in-flight",
        "8",
        "--drain-grace",
        "60",
    ]
    if cache_dir is not None:
        args += ["--cache-dir", str(cache_dir)]
    print(f"$ {' '.join(args)}", flush=True)
    process = subprocess.Popen(
        args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            url = line.strip().rsplit(" ", 1)[-1]
            return process, url
        if process.poll() is not None:
            break
        time.sleep(0.05)
    out, err = process.communicate(timeout=10)
    raise SystemExit(f"service-smoke: daemon never came up:\n{out}\n{err}")


def taskset_envelope(seed=1, utilization=0.3):
    platform = default_platform()
    taskset = generate_taskset(random.Random(seed), platform, utilization)
    return json.loads(taskset_to_json(taskset, platform))


def budget_scenario(url, envelope):
    """One poisoned request in a concurrent batch; the rest must succeed."""
    results = {}

    def submit(name, document):
        results[name] = http("POST", f"{url}/analyze", document)

    threads = [
        threading.Thread(
            target=submit,
            args=(
                "poisoned",
                {
                    "id": "poisoned",
                    "taskset": envelope,
                    "budget_seconds": 1.0,
                    "inject": "hang",
                },
            ),
        )
    ]
    for index in range(3):
        # Distinct task sets: a repeat could be served from the result
        # cache (see cache_scenario), and this scenario wants three real
        # computations racing the poisoned one.
        threads.append(
            threading.Thread(
                target=submit,
                args=(
                    f"healthy-{index}",
                    {
                        "id": f"healthy-{index}",
                        "taskset": taskset_envelope(seed=2 + index),
                    },
                ),
            )
        )
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.monotonic() - started

    status, body = results["poisoned"]
    expect(
        status == 200 and body["status"] == "budget-exceeded",
        "poisoned request is cancelled by its deadline budget "
        f"(status={body.get('status')})",
    )
    expect(
        elapsed < 60,
        f"budget abort happened well before any watchdog ({elapsed:.1f}s)",
    )
    for index in range(3):
        status, body = results[f"healthy-{index}"]
        expect(
            status == 200 and body["status"] == "ok",
            f"concurrent healthy request {index} completed normally",
        )
    _status, stats = http("GET", f"{url}/stats")
    expect(
        {"id": "poisoned", "reason": "budget-exceeded"} in stats["quarantined"],
        "poisoned request is quarantined in /stats",
    )
    expect(
        stats["requests"]["completed"] >= 3,
        "stats count the healthy completions",
    )
    expect(
        stats["perf"]["analyses"] >= 3,
        "perf counters aggregate across worker processes",
    )


def breaker_scenario(url, envelope):
    """Crash workers until the breaker trips, then watch it recover."""
    saw_crash = saw_open = False
    for attempt in range(6):
        status, body = http(
            "POST",
            f"{url}/analyze",
            {"id": f"crash-{attempt}", "taskset": envelope, "inject": "crash"},
        )
        if status == 500 and body.get("error") == "WorkerCrashError":
            saw_crash = True
        if status == 503 and body.get("status") == "breaker-open":
            saw_open = True
            break
    expect(saw_crash, "injected crashes surface as WorkerCrashError")
    expect(saw_open, "repeated worker crashes trip the circuit breaker")
    status, body = http("GET", f"{url}/readyz")
    expect(
        status == 503 and body["status"] == "breaker-open",
        "/readyz reports not-ready while the breaker is open",
    )
    time.sleep(RESET_SECONDS + 0.5)  # the breaker's cool-down
    # A *fresh* task set: a cached fingerprint would be served without
    # touching the pool, and the half-open breaker only closes on a real
    # computation's success.
    status, body = http(
        "POST", f"{url}/analyze", {"id": "probe", "taskset": taskset_envelope(seed=7)}
    )
    expect(
        status == 200 and body["status"] == "ok",
        "half-open probe succeeds and closes the breaker",
    )
    status, body = http("GET", f"{url}/readyz")
    expect(status == 200, "/readyz is ready again after recovery")
    _status, stats = http("GET", f"{url}/stats")
    expect(stats["breaker"]["trips"] >= 1, "stats record the breaker trip")


def cache_scenario(url, envelope, cache_dir):
    """Repeat request hits the durable cache; /stats reports the counters."""
    status, cold = http(
        "POST", f"{url}/analyze", {"id": "cache-cold", "taskset": envelope}
    )
    expect(
        status == 200 and cold["status"] == "ok",
        "cacheable request completes",
    )
    status, warm = http(
        "POST", f"{url}/analyze", {"id": "cache-warm", "taskset": envelope}
    )
    expect(
        status == 200 and warm.get("cache") == "hit",
        "identical repeat request is served from the result cache",
    )
    stripped = lambda body: {  # noqa: E731 — tiny local comparator
        k: v for k, v in body.items() if k not in ("id", "cache")
    }
    expect(
        stripped(cold) == stripped(warm),
        "cache hit is bit-identical to the computed response",
    )
    _status, stats = http("GET", f"{url}/stats")
    expect(
        stats["perf"]["result_cache_hits"] >= 1,
        "perf counters record the cache hit",
    )
    expect(
        stats["perf"]["result_cache_stores"] >= 1,
        "perf counters record the cache store",
    )
    cache = stats["cache"]
    expect(cache["enabled"], "/stats reports the cache as enabled")
    expect(
        cache["entries"] >= 1 and cache["bytes"] > 0,
        f"/stats exposes entry and byte totals ({cache['entries']} entries)",
    )
    expect(
        "seeds" not in cache,
        "/stats reports no warm-seed store (the result cache is the only replay)",
    )
    expect(
        not os.path.exists(os.path.join(cache_dir, "seeds")),
        "the cache directory holds no seeds/ subtree",
    )


def records_scenario(url):
    """Keys over the request's records; invalid records are typed 400s."""
    envelope = next(
        candidate
        for candidate in map(taskset_envelope, range(1, 100))
        if any(1 in record["ecbs"] for record in candidate["tasks"])
    )
    poisoned = json.loads(json.dumps(envelope))
    poisoned["tasks"][0]["pd"] = float("nan")
    status, body = http(
        "POST", f"{url}/analyze", {"id": "nan", "taskset": poisoned}
    )
    expect(
        status == 400 and body.get("error") == "ModelError",
        f"a NaN pd is a typed 400 ({status} {body.get('error')})",
    )
    status, body = http(
        "POST", f"{url}/analyze",
        {"id": "after-nan", "taskset": taskset_envelope(seed=9)},
    )
    expect(
        status == 200 and body["status"] == "ok",
        "the daemon still serves the next request",
    )

    # An index far past the cache is refused where the records are
    # parsed, before it is packed into a mask bit.
    huge = json.loads(json.dumps(envelope))
    huge["tasks"][0].update(ecbs=[2**70, 2], ucbs=[2], pcbs=[])
    status, body = http("POST", f"{url}/analyze", {"id": "2**70", "taskset": huge})
    expect(
        status == 400 and body.get("error") == "ModelError"
        and "past the platform's" in body.get("message", ""),
        f"cache set index 2**70 is a typed 400 ({status} {body.get('error')})",
    )
    status, body = http(
        "POST", f"{url}/analyze",
        {"id": "after-2**70", "taskset": taskset_envelope(seed=10)},
    )
    expect(
        status == 200 and body["status"] == "ok",
        "the daemon still serves the request after the 2**70 index",
    )

    unsorted = json.loads(json.dumps(envelope))
    position = next(
        index for index, record in enumerate(unsorted["tasks"])
        if 1 in record["ecbs"]
    )
    unsorted["tasks"][position]["ecbs"].reverse()
    status, first = http(
        "POST", f"{url}/analyze", {"id": "unsorted-1", "taskset": unsorted}
    )
    expect(
        status == 200 and first["status"] == "ok" and "cache" not in first,
        "an envelope with unsorted indices is analysed on first arrival",
    )
    status, again = http(
        "POST", f"{url}/analyze", {"id": "unsorted-2", "taskset": unsorted}
    )
    expect(
        status == 200 and again.get("cache") == "hit",
        "the same unsorted envelope hits on repeat",
    )
    ecbs = unsorted["tasks"][position]["ecbs"]
    ecbs[ecbs.index(1)] = True
    status, body = http(
        "POST", f"{url}/analyze", {"id": "true-for-1", "taskset": unsorted}
    )
    expect(
        status == 400 and body.get("error") == "ModelError"
        and "cache" not in body,
        "true in place of a 1 gets its 400, not the cached body",
    )


def drain_scenario(process, url, envelope):
    """SIGTERM with a request in flight: clean drain, exit 0."""
    result = {}

    def submit():
        # Fresh task set so the request really occupies the pool (a cache
        # hit would finish before the SIGTERM lands).
        result["inflight"] = http(
            "POST",
            f"{url}/analyze",
            {"id": "inflight", "taskset": taskset_envelope(seed=8)},
        )

    thread = threading.Thread(target=submit)
    thread.start()
    time.sleep(0.3)  # let the request reach the pool
    print("  sending SIGTERM", flush=True)
    process.send_signal(signal.SIGTERM)
    thread.join(timeout=120)
    status, body = result.get("inflight", (None, {}))
    expect(
        status == 200 and body.get("status") == "ok",
        "in-flight request finished during the drain",
    )
    out, err = process.communicate(timeout=120)
    expect(
        process.returncode == 0,
        f"daemon exited 0 after the drain (got {process.returncode})",
    )
    expect("draining" in err, "daemon logged the drain")
    expect("drained, exiting" in out, "daemon reported a clean drain")


def main():
    envelope = taskset_envelope()
    cache_dir = tempfile.mkdtemp(prefix="repro-service-smoke-cache-")
    process, url = start_daemon(cache_dir=cache_dir)
    try:
        status, body = http("GET", f"{url}/healthz")
        expect(status == 200 and body["status"] == "ok", "daemon is live")
        budget_scenario(url, envelope)
        cache_scenario(url, envelope, cache_dir)
        records_scenario(url)
        breaker_scenario(url, envelope)
        drain_scenario(process, url, envelope)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
        shutil.rmtree(cache_dir, ignore_errors=True)
    print("service-smoke: all scenarios passed", flush=True)


if __name__ == "__main__":
    main()
