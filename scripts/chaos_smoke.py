#!/usr/bin/env python3
"""Chaos harness for the crash-safe cache and the daemon's overload policy.

Proves, against *real* processes with injected faults, the claims
``docs/CACHE.md`` makes (runnable locally and as the ``chaos-smoke`` CI
job):

1. **Differential cache oracle** — a cache hit is byte-identical to the
   cold compute, and entries survive a daemon restart (durability).
2. **Kill mid-write** — ``REPRO_CHAOS_FAULT=kill-mid-write`` makes the
   daemon die (exit 137) between writing the tmp file and committing an
   entry: committed state is untouched, the torn dropping is swept on
   restart, and the victim request recomputes bit-identically.
3. **Corruption quarantine** — truncated, bit-flipped and empty entry
   files are quarantined (moved aside, never deleted) on restart; the
   affected requests recompute, everything else still hits.
4. **Identical concurrent requests** — N identical concurrent requests
   all complete bit-identically, each analysed or served from the cache;
   a budget-aborted request never poisons the cache and an identical
   uncapped rerun computes, completes and caches.
5. **Overload storm** — a real daemon driven at over 3x its admission
   cap of 3 with mixed priority classes: every response is typed (no 5xx
   without a ``shed``/``degraded`` marker), batch requests are shed first
   with a jittered ``Retry-After``, admitted interactive requests answer
   within their propagated deadline (via the brownout coarse tier at the
   last admission slot), and ``/stats`` counts every shed and degraded
   outcome and echoes the thresholds derived from the cap.
6. **Deadline storm** — the HTTP-free service core under an injected
   clock: expired-on-arrival requests are shed before the pool, near-zero
   deadlines clamp to the minimum budget, and no admitted request ever
   carries a budget exceeding its propagated deadline.

Every server's descendant processes (spawn pool workers, the
multiprocessing resource tracker) are recorded from ``/proc`` before the
server is stopped or killed; the run ends by expecting all of them to
have exited within 10 s, so no scenario leaves an orphan behind.

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
import threading
import time
import urllib.error
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.experiments import default_platform  # noqa: E402
from repro.generation import generate_taskset  # noqa: E402
from repro.resultcache import (  # noqa: E402
    CHAOS_FAULT_ENV,
    CHAOS_KILL_STATUS,
    request_fingerprint,
)
from repro.serialization import taskset_to_json  # noqa: E402
from repro.service.protocol import read_request  # noqa: E402
from tests.proctree import alive, descendants  # noqa: E402

ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)
ENV.pop(CHAOS_FAULT_ENV, None)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"chaos-smoke: FAILED: {message}")
    print(f"  ok: {message}", flush=True)


def http(method, url, document=None, timeout=120):
    """One JSON request; returns (status, parsed body).

    Transport-level failures (connection refused/reset — e.g. the peer
    was deliberately killed mid-request) return ``(None, None)`` so
    scenarios can assert on them.
    """
    data = json.dumps(document).encode("utf-8") if document is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    except (urllib.error.URLError, ConnectionError, OSError):
        return None, None


def start_process(args, env=None, marker="listening on"):
    """Launch a repro server process; returns (process, scraped base URL)."""
    print(f"$ {' '.join(args)}", flush=True)
    process = subprocess.Popen(
        args, cwd=ROOT, env=env or ENV, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if marker in line:
            return process, line.strip().rsplit(" ", 1)[-1]
        if process.poll() is not None:
            break
        time.sleep(0.05)
    out, err = process.communicate(timeout=10)
    raise SystemExit(f"chaos-smoke: process never came up:\n{out}\n{err}")


def start_daemon(cache_dir, extra=(), env=None):
    args = [
        sys.executable, "-m", "repro.service",
        "--port", "0", "--workers", "2", "--max-in-flight", "8",
        "--cache-dir", str(cache_dir), *extra,
    ]
    return start_process(args, env=env)


#: ``(pid, start time)`` of every descendant of a server that was stopped
#: or killed (see :mod:`tests.proctree`).
DESCENDANTS = set()


def record_descendants(process):
    """Add every live descendant of ``process`` to :data:`DESCENDANTS`."""
    DESCENDANTS.update(descendants(process.pid))


def expect_no_orphans(timeout=10.0):
    """Every recorded descendant exits (or is a zombie) within ``timeout``."""

    def survivors():
        return sorted(pid for pid, _ in filter(alive, DESCENDANTS))

    deadline = time.monotonic() + timeout
    while survivors() and time.monotonic() < deadline:
        time.sleep(0.1)
    left = survivors()
    expect(
        not left,
        f"all {len(DESCENDANTS)} descendants of stopped or killed servers "
        f"exited within {timeout:.0f}s (alive: {left})",
    )


def stop(process, expect_code=None, sig=signal.SIGTERM):
    record_descendants(process)
    if process.poll() is None:
        process.send_signal(sig)
    try:
        process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate(timeout=10)
    if expect_code is not None:
        expect(
            process.returncode == expect_code,
            f"process exited {expect_code} (got {process.returncode})",
        )


def envelope_for(seed, utilization=0.3):
    platform = default_platform()
    taskset = generate_taskset(random.Random(seed), platform, utilization)
    return json.loads(taskset_to_json(taskset, platform))


def fingerprint_of(envelope):
    """Client-side fingerprint, computed exactly as the daemon computes it."""
    request = read_request({"id": "fp", "taskset": envelope})
    return request_fingerprint(
        request.envelope["tasks"], request.envelope["platform"], request.config
    )


def entry_path(cache_dir, fingerprint):
    return pathlib.Path(cache_dir) / "entries" / fingerprint[:2] / f"{fingerprint}.json"


def comparable(body):
    """Response body minus the cache marker and the caller id."""
    return {k: v for k, v in body.items() if k not in ("id", "cache")}


# -- scenario 1: differential cache oracle ------------------------------------


def cache_oracle_scenario(cache_dir):
    print("[1] differential cache oracle", flush=True)
    envelope = envelope_for(seed=11)
    process, url = start_daemon(cache_dir)
    try:
        status, cold = http("POST", f"{url}/analyze", {"id": "cold", "taskset": envelope})
        expect(status == 200 and cold["status"] == "ok", "cold compute completes")
        expect("cache" not in cold, "cold compute is not marked as a hit")
        status, warm = http("POST", f"{url}/analyze", {"id": "warm", "taskset": envelope})
        expect(status == 200 and warm.get("cache") == "hit", "second request hits the cache")
        expect(
            comparable(cold) == comparable(warm),
            "cache hit is bit-identical to the cold compute",
        )
        _status, stats = http("GET", f"{url}/stats")
        expect(stats["perf"]["result_cache_hits"] >= 1, "/stats counts the hit")
        expect(stats["cache"]["entries"] >= 1, "/stats exposes the entry count")
    finally:
        stop(process, expect_code=0)
    # Durability: a fresh process on the same directory still hits.
    process, url = start_daemon(cache_dir)
    try:
        status, after = http(
            "POST", f"{url}/analyze", {"id": "after-restart", "taskset": envelope}
        )
        expect(
            status == 200 and after.get("cache") == "hit",
            "entry survives a daemon restart",
        )
        expect(
            comparable(cold) == comparable(after),
            "post-restart hit is bit-identical to the original compute",
        )
    finally:
        stop(process, expect_code=0)
    return envelope, cold


# -- scenario 2: kill mid-write -----------------------------------------------


def kill_mid_write_scenario(cache_dir, committed_envelope, committed_body):
    print("[2] kill mid-write", flush=True)
    victim = envelope_for(seed=22)
    victim_fp = fingerprint_of(victim)
    chaos_env = dict(ENV)
    chaos_env[CHAOS_FAULT_ENV] = "kill-mid-write"
    process, url = start_daemon(cache_dir, env=chaos_env)
    reply = {}
    request = threading.Thread(
        target=lambda: reply.update(
            result=http("POST", f"{url}/analyze", {"id": "victim", "taskset": victim})
        )
    )
    request.start()
    # The daemon kills itself; record its pool while it still has one.
    while process.poll() is None and request.is_alive():
        record_descendants(process)
        time.sleep(0.05)
    request.join(timeout=60)
    status, body = reply.get("result", (None, None))
    expect(
        status is None or status >= 500,
        f"request died with the daemon (status={status})",
    )
    process.wait(timeout=60)
    expect(
        process.returncode == CHAOS_KILL_STATUS,
        f"daemon was killed mid-write (exit {process.returncode})",
    )
    droppings = list(pathlib.Path(cache_dir).rglob("*.tmp"))
    expect(droppings, f"torn tmp dropping left behind ({len(droppings)} file(s))")
    expect(
        not entry_path(cache_dir, victim_fp).exists(),
        "no partial entry was committed at the final path",
    )
    committed_fp = fingerprint_of(committed_envelope)
    expect(
        entry_path(cache_dir, committed_fp).exists(),
        "previously committed entry is untouched",
    )
    # Recovery: a clean daemon sweeps the dropping and recomputes.
    process, url = start_daemon(cache_dir)
    try:
        expect(
            not list(pathlib.Path(cache_dir).rglob("*.tmp")),
            "startup scan swept the torn dropping",
        )
        status, replay = http(
            "POST", f"{url}/analyze", {"id": "committed", "taskset": committed_envelope}
        )
        expect(
            status == 200 and replay.get("cache") == "hit"
            and comparable(replay) == comparable(committed_body),
            "committed entry still hits, bit-identical",
        )
        status, recomputed = http(
            "POST", f"{url}/analyze", {"id": "victim-retry", "taskset": victim}
        )
        expect(
            status == 200 and recomputed["status"] == "ok" and "cache" not in recomputed,
            "victim request recomputes cleanly",
        )
        expect(
            entry_path(cache_dir, victim_fp).exists(),
            "recomputed result is committed durably",
        )
        _status, stats = http("GET", f"{url}/stats")
        expect(
            stats["cache"]["quarantined_files"] == 0,
            "a swept dropping is not corruption (nothing quarantined)",
        )
        return recomputed
    finally:
        stop(process, expect_code=0)


# -- scenario 3: corruption quarantine ----------------------------------------


def corruption_scenario(cache_dir, probes):
    """``probes``: list of (envelope, known-good body) pairs to corrupt."""
    print("[3] corruption quarantine", flush=True)
    (env_a, body_a), (env_b, body_b) = probes
    path_a = entry_path(cache_dir, fingerprint_of(env_a))
    path_b = entry_path(cache_dir, fingerprint_of(env_b))
    # Truncate one entry, flip a payload bit in another, drop an empty file.
    text = path_a.read_text()
    path_a.write_text(text[: len(text) // 2])
    raw = bytearray(path_b.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path_b.write_bytes(bytes(raw))
    empty = path_a.with_name("0" * 64 + ".json")
    empty.write_text("")
    process, url = start_daemon(cache_dir)
    try:
        _status, stats = http("GET", f"{url}/stats")
        expect(
            stats["cache"]["quarantined_files"] >= 3,
            f"startup scan quarantined the corrupt files "
            f"({stats['cache']['quarantined_files']})",
        )
        quarantined = list((pathlib.Path(cache_dir) / "quarantine").iterdir())
        expect(
            len(quarantined) >= 3,
            f"corrupt files moved aside, never deleted ({len(quarantined)})",
        )
        for name, envelope, original in (("truncated", env_a, body_a), ("bit-flipped", env_b, body_b)):
            status, body = http(
                "POST", f"{url}/analyze", {"id": f"re-{name}", "taskset": envelope}
            )
            expect(
                status == 200 and body["status"] == "ok" and "cache" not in body,
                f"{name} entry misses and recomputes",
            )
            expect(
                comparable(body) == comparable(original),
                f"recompute after {name} corruption is bit-identical",
            )
    finally:
        stop(process, expect_code=0)


# -- scenario 4: identical concurrent requests and abort non-poisoning --------


def identical_requests_scenario(cache_dir):
    print("[4] identical concurrent requests", flush=True)
    envelope = envelope_for(seed=44, utilization=0.4)
    process, url = start_daemon(cache_dir)
    try:
        _status, before = http("GET", f"{url}/stats")
        results = [None] * 6
        def submit(index):
            results[index] = http(
                "POST", f"{url}/analyze", {"id": f"co-{index}", "taskset": envelope}
            )
        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        bodies = [body for _status, body in results]
        expect(
            all(s == 200 and b["status"] == "ok" for s, b in results),
            "all 6 identical concurrent requests completed",
        )
        expect(
            len({json.dumps(comparable(b), sort_keys=True) for b in bodies}) == 1,
            "all 6 responses are bit-identical",
        )
        _status, after = http("GET", f"{url}/stats")
        ran = after["perf"]["analyses"] - before["perf"]["analyses"]
        hits = (
            after["perf"]["result_cache_hits"] - before["perf"]["result_cache_hits"]
        )
        expect(
            ran + hits == 6,
            f"each request was analysed or hit ({ran} analysed, {hits} hits)",
        )

        # Budget aborts must never poison the cache: a capped request
        # aborts, an identical uncapped request *computes* (no hit) and
        # only then does the fingerprint become durable.
        heavy = envelope_for(seed=45, utilization=0.9)
        status, aborted = http(
            "POST",
            f"{url}/analyze",
            {"id": "capped", "taskset": heavy, "max_iterations": 2},
        )
        expect(
            status == 200 and aborted["status"] == "budget-exceeded",
            "capped request aborts on its iteration budget",
        )
        expect(
            not entry_path(cache_dir, fingerprint_of(heavy)).exists(),
            "aborted partial was not written to the cache",
        )
        status, full = http(
            "POST", f"{url}/analyze", {"id": "uncapped", "taskset": heavy}
        )
        expect(
            status == 200 and full["status"] == "ok" and "cache" not in full,
            "identical uncapped request recomputes from scratch",
        )
        status, again = http(
            "POST", f"{url}/analyze", {"id": "uncapped-2", "taskset": heavy}
        )
        expect(
            status == 200 and again.get("cache") == "hit"
            and comparable(again) == comparable(full),
            "completed result is cached and hits bit-identically",
        )
    finally:
        stop(process, expect_code=0)


# -- scenario 5: overload storm ------------------------------------------------


def overload_storm_scenario(workdir):
    """Drive a real daemon past its admission cap with mixed priorities.

    Two ``inject: hang`` blockers pin the (single) pool worker and take two
    of the three admission slots, then eight concurrent requests — four
    interactive with a propagated deadline, four batch — storm the daemon.
    With a cap of 3 the batch cap is 1 and brownout starts at slot 3, so
    every outcome must be typed: batch work sheds first with a jittered
    ``Retry-After``, admitted interactive work answers inside its deadline
    (via the brownout coarse tier while the pool is pinned), and nothing
    surfaces as an unmarked 5xx.
    """
    print("[5] overload storm", flush=True)
    daemon, url = start_process([
        sys.executable, "-m", "repro.service",
        "--port", "0", "--workers", "1", "--max-in-flight", "3",
        "--cache-dir", str(workdir / "overload-cache"),
    ])
    blockers = []
    try:
        # Pin the admission queue: cooperative hangs that self-abort via
        # their own budget, so the drain at the end stays clean.
        def block(index):
            http(
                "POST", f"{url}/analyze",
                {
                    "id": f"blocker-{index}",
                    "taskset": envelope_for(seed=70 + index),
                    "inject": "hang",
                    "budget_seconds": 6,
                },
            )

        blockers = [
            threading.Thread(target=block, args=(index,)) for index in range(2)
        ]
        for thread in blockers:
            thread.start()
        deadline = time.monotonic() + 15
        in_flight = 0
        while time.monotonic() < deadline and in_flight < 2:
            _status, stats = http("GET", f"{url}/stats")
            in_flight = (stats or {}).get("in_flight", 0)
            time.sleep(0.05)
        expect(in_flight >= 2, "blockers occupy the admission queue")

        results = {}

        def fire(name, priority, seed):
            begun = time.monotonic()
            status, body = http(
                "POST", f"{url}/analyze",
                {
                    "id": name,
                    "taskset": envelope_for(seed=seed),
                    "deadline_ms": 10_000,
                    "priority": priority,
                },
            )
            results[name] = (status, body, time.monotonic() - begun)

        storm = [
            threading.Thread(
                target=fire, args=(f"interactive-{index}", "interactive", 80 + index)
            )
            for index in range(4)
        ] + [
            threading.Thread(
                target=fire, args=(f"batch-{index}", "batch", 90 + index)
            )
            for index in range(4)
        ]
        for thread in storm:
            thread.start()
        for thread in storm:
            thread.join(timeout=60)

        expect(
            len(results) == 8 and all(
                status is not None for status, _body, _elapsed in results.values()
            ),
            "every storm request got an HTTP response",
        )
        brownouts = sheds = 0
        for name, (status, body, elapsed) in sorted(results.items()):
            expect(
                status < 500 or body.get("shed") is True,
                f"{name}: no untyped 5xx (got {status} {body.get('status')})",
            )
            if status == 200:
                if body.get("brownout"):
                    brownouts += 1
            elif status == 429:
                expect(
                    body.get("retry_after", 0) > 0,
                    f"{name}: 429 carries a jittered Retry-After",
                )
                if body.get("status") == "overload-shed":
                    expect(
                        body.get("shed") is True,
                        f"{name}: overload shed is a typed marker",
                    )
                    sheds += 1
            else:
                raise SystemExit(
                    f"chaos-smoke: FAILED: {name}: unexpected outcome "
                    f"{status} {body}"
                )
            if name.startswith("interactive") and status == 200:
                expect(
                    elapsed < 10.0,
                    f"{name}: admitted request answered inside its "
                    f"10s deadline ({elapsed:.3f}s)",
                )
        expect(
            brownouts >= 1,
            f"overloaded daemon served degraded brownout answers "
            f"({brownouts} of 8)",
        )
        expect(
            sheds >= 1,
            f"batch-priority requests were shed first ({sheds} of 4)",
        )
        for name, (status, body, _elapsed) in sorted(results.items()):
            if body and body.get("brownout"):
                degraded = body.get("degraded") or {}
                expect(
                    degraded.get("tier") == "coarse"
                    and degraded.get("soundness") in ("degraded-sound", "unknown"),
                    f"{name}: brownout answer carries the typed degradation "
                    f"marker ({degraded})",
                )
                break

        _status, stats = http("GET", f"{url}/stats")
        requests_stats = stats["requests"]
        perf = stats["perf"]
        expect(
            requests_stats["shed_overload"] >= sheds
            and requests_stats["degraded"] >= brownouts,
            f"/stats counts every shed and degraded outcome "
            f"({requests_stats})",
        )
        expect(
            perf["brownout_runs"] >= brownouts,
            f"perf counters track the brownout answers ({perf})",
        )
        expect(
            stats["overload"]["max_in_flight"] == 3
            and stats["overload"]["batch_cap"] == 1,
            "/stats echoes the thresholds derived from --max-in-flight 3",
        )
    finally:
        for thread in blockers:
            thread.join(timeout=30)
        stop(daemon, expect_code=0)


# -- scenario 6: deadline storm ------------------------------------------------


def deadline_storm_scenario():
    """The HTTP-free service core under an injected clock.

    Deterministic replay of the deadline admission ladder: expired-on-arrival
    requests are shed with a typed 504 before any pool round-trip, near-zero
    remainders clamp to the minimum budget, and no admitted request carries
    a budget exceeding its propagated deadline.
    """
    print("[6] deadline storm (injected clock)", flush=True)
    from repro.service.daemon import (
        MIN_BUDGET_SECONDS,
        AnalysisService,
        ServiceConfig,
    )
    from repro.service.pool import service_worker
    from repro.service.protocol import DEADLINE_SAFETY_MS

    class Clock:
        def __init__(self):
            self.now = 100.0

        def __call__(self):
            return self.now

    class SpyPool:
        """In-process pool recording every admitted request."""

        def __init__(self):
            self.requests = []

        def run(self, request):
            self.requests.append(request)
            return service_worker(request)

        def close(self):
            pass

    clock = Clock()
    pool = SpyPool()
    service = AnalysisService(
        ServiceConfig(max_in_flight=8),
        pool=pool,
        clock=clock,
        rng=random.Random(0),
    )
    safety_seconds = DEADLINE_SAFETY_MS / 1000.0
    floor = MIN_BUDGET_SECONDS
    try:
        envelope = envelope_for(seed=61)
        status, body = service.handle(
            {"id": "expired", "taskset": envelope, "deadline_ms": 20}
        )
        expect(
            status == 504
            and body.get("shed") is True
            and body["status"] == "deadline-expired",
            "expired-on-arrival request is shed with a typed 504",
        )
        expect(not pool.requests, "the shed request never reached the pool")

        status, body = service.handle(
            {"id": "tight", "taskset": envelope, "deadline_ms": 30}
        )
        expect(status == 200, "near-zero deadline request is admitted")
        expect(
            abs(pool.requests[-1].budget_seconds - floor) < 1e-9,
            f"near-zero deadline clamps to the {floor:g}s budget floor",
        )

        shed = served = 0
        for index, deadline_ms in enumerate((5, 10, 24, 26, 40, 100, 1_000, 10_000)):
            clock.now += 0.001
            admitted_before = len(pool.requests)
            status, body = service.handle(
                {
                    "id": f"storm-{index}",
                    "taskset": envelope_for(seed=62 + index),
                    "deadline_ms": deadline_ms,
                }
            )
            if status == 504:
                expect(
                    body.get("shed") is True,
                    f"deadline_ms={deadline_ms}: rejected deadline is a "
                    f"typed shed",
                )
                expect(
                    len(pool.requests) == admitted_before,
                    f"deadline_ms={deadline_ms}: shed without a pool "
                    f"round-trip",
                )
                shed += 1
            else:
                expect(
                    status == 200,
                    f"deadline_ms={deadline_ms}: admitted request completes "
                    f"typed (got {status})",
                )
                request = pool.requests[-1]
                allowed = max(deadline_ms / 1000.0 - safety_seconds, floor)
                expect(
                    request.budget_seconds <= allowed + 1e-9,
                    f"deadline_ms={deadline_ms}: budget "
                    f"{request.budget_seconds:.3f}s never exceeds the "
                    f"propagated deadline",
                )
                expect(
                    request.deadline_ms <= deadline_ms,
                    f"deadline_ms={deadline_ms}: forwarded deadline is "
                    f"decremented, never inflated",
                )
                served += 1
        expect(
            shed >= 2 and served >= 4,
            f"the storm exercised both ladder arms ({shed} shed, "
            f"{served} served)",
        )
        stats = service.stats_document()
        expect(
            stats["requests"]["shed_expired"] == shed + 1,
            "every expiry is counted exactly once",
        )
    finally:
        service.close()


def main():
    workdir = pathlib.Path("/tmp") / f"repro-chaos-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cache_dir = workdir / "cache"
    try:
        committed_envelope, committed_body = cache_oracle_scenario(cache_dir)
        victim_body = kill_mid_write_scenario(
            cache_dir, committed_envelope, committed_body
        )
        victim_envelope = envelope_for(seed=22)
        corruption_scenario(
            cache_dir,
            [(committed_envelope, committed_body), (victim_envelope, victim_body)],
        )
        identical_requests_scenario(cache_dir)
        overload_storm_scenario(workdir)
        deadline_storm_scenario()
        print("[7] no orphaned processes", flush=True)
        expect_no_orphans()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("chaos-smoke: all scenarios passed", flush=True)


if __name__ == "__main__":
    main()
