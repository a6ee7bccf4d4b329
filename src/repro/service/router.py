"""Health-checked sharded front end for a fleet of analysis daemons.

``python -m repro.service.router --shard URL --shard URL ...`` starts a
thin HTTP router that partitions requests across several
:mod:`repro.service` daemons by **result fingerprint**
(:func:`repro.resultcache.request_fingerprint`): identical requests
always land on the same shard, so each shard's persistent result cache
stays hot for its slice of the request space and no
fingerprint is ever computed twice by two shards at once.

Routing is resilience-first:

* A background poller probes every shard's ``/readyz`` each
  ``health_interval_seconds`` and keeps a liveness map; forwarding
  prefers healthy shards but will still try an unhealthy primary when it
  is the only candidate (health data is advisory, never authoritative).
* **Idempotent** requests — everything except the test-only ``inject``
  faults — fail over: when the primary shard is dead, refusing (503) or
  timing out, the router retries the remaining shards in ring order with
  capped exponential backoff.  Analysis requests are pure functions of
  their payload, so a replay on another shard returns the bit-identical
  body (see ``docs/CACHE.md``).
* Non-idempotent requests get exactly one attempt on their primary.
* With every shard down the router degrades to a typed 503
  (``status: "no-shards"``) instead of hanging, and its own ``/readyz``
  reports 503 so an outer balancer can drain it.

The core :class:`ShardRouter` is HTTP-free and takes an injectable
``transport`` callable, so unit tests drive the full retry/failover
logic with an in-memory fake (see ``tests/test_router.py``); the chaos
harness (``scripts/chaos_smoke.py``) exercises the real HTTP stack
against SIGKILLed and SIGSTOPped shard processes.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AnalysisError, ModelError
from repro.exitcodes import EXIT_USAGE
from repro.perf import PerfCounters
from repro.resultcache import request_fingerprint
from repro.service.protocol import (
    DEADLINE_SAFETY_MS,
    JsonHandler,
    error_response,
    read_request,
    refusal_response,
)

#: Transport signature: ``(method, url, document, timeout) -> (status, body)``.
#: Must raise :class:`OSError` (connection refused, socket timeout, reset)
#: for transport-level failures; HTTP error statuses are *returned*.
Transport = Callable[[str, str, Optional[Dict], Optional[float]], Tuple[int, Dict]]

#: Leading fingerprint hex digits hashed into a shard index.
_SHARD_DIGITS = 16


def http_transport(
    method: str, url: str, document: Optional[Dict], timeout: Optional[float]
) -> Tuple[int, Dict]:
    """Default stdlib transport used by the real router process."""
    data = json.dumps(document).encode("utf-8") if document is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.loads(error.read())
        except (ValueError, json.JSONDecodeError):
            return error.code, {"status": "error", "message": str(error)}


@dataclass(frozen=True)
class RouterConfig:
    """Operational knobs of the shard router, validated eagerly."""

    #: Base URLs of the backing analysis daemons (``http://host:port``).
    shards: Tuple[str, ...] = ()
    host: str = "127.0.0.1"
    port: int = 8420
    #: Period of the background ``/readyz`` health poller.
    health_interval_seconds: float = 1.0
    #: Per-attempt transport timeout (``None`` = wait forever).  A slow or
    #: SIGSTOPped shard surfaces as a timeout and triggers failover.
    forward_timeout: Optional[float] = None
    #: Health-probe timeout (kept tight so one hung shard cannot stall
    #: the poller for long).
    health_timeout: float = 2.0
    #: Extra attempts (beyond the first) an idempotent request may spend
    #: across the remaining shards.
    max_retries: int = 3
    #: First backoff sleep; doubles per retry up to :attr:`backoff_cap`.
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if not self.shards:
            raise AnalysisError("router needs at least one --shard URL")
        if not (0 <= self.port <= 65535):
            raise AnalysisError(f"port must be in [0, 65535], got {self.port}")
        if self.health_interval_seconds <= 0:
            raise AnalysisError(
                f"health_interval_seconds must be positive, "
                f"got {self.health_interval_seconds}"
            )
        if self.forward_timeout is not None and self.forward_timeout <= 0:
            raise AnalysisError(
                f"forward_timeout must be positive (or None), "
                f"got {self.forward_timeout}"
            )
        if self.health_timeout <= 0:
            raise AnalysisError(
                f"health_timeout must be positive, got {self.health_timeout}"
            )
        if self.max_retries < 0:
            raise AnalysisError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise AnalysisError(
                f"need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base} / {self.backoff_cap}"
            )


class ShardRouter:
    """Fingerprint-sharded request forwarder with health-aware failover."""

    def __init__(
        self,
        config: RouterConfig,
        transport: Transport = http_transport,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.transport = transport
        self.sleep = sleep
        #: Monotonic time source for deadlines and cooldowns; injectable
        #: for deterministic tests.
        self._clock = clock
        self.perf = PerfCounters()
        self._lock = threading.Lock()
        #: Advisory liveness map maintained by the poller and by forward
        #: failures; shards start optimistically healthy.
        self._healthy: List[bool] = [True] * len(config.shards)
        self._health_detail: List[str] = ["unpolled"] * len(config.shards)
        #: Monotonic instants before which each shard asked not to be
        #: retried (its 429/503 ``Retry-After``); cooling shards sort to
        #: the back of the candidate list but are never removed — like
        #: the health map, the hint is advisory.
        self._cooldown_until: List[float] = [0.0] * len(config.shards)
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._round_robin = 0

    # -- sharding -------------------------------------------------------------

    def shard_for(self, fingerprint: str) -> int:
        """Deterministic shard index of a request fingerprint."""
        return int(fingerprint[:_SHARD_DIGITS], 16) % len(self.config.shards)

    def _fingerprint_of(self, document) -> Optional[str]:
        """Fingerprint when the request is deterministic, else ``None``.

        The key is the daemon's: the records fingerprint of the request
        as :func:`~repro.service.protocol.read_request` checks it, so the
        router builds no task.  ``None`` covers the test-only ``inject``
        faults (non-idempotent — they kill or hang a worker, so a replay
        is not a no-op) and documents that fail that check or whose
        records cannot be hashed (any shard answers them alike, so they
        round-robin).
        """
        try:
            request = read_request(document)
        except (ModelError, AnalysisError):
            return None
        if request.inject is not None:
            return None
        try:
            return request_fingerprint(
                request.envelope["tasks"],
                request.envelope["platform"],
                request.config,
            )
        except ModelError:
            return None

    def _candidates(self, primary: int, idempotent: bool) -> List[int]:
        """Shard indices in try-order: primary first, then the ring.

        Healthy shards are preferred within each group, but unhealthy
        ones stay in the list — the health map is advisory and a stale
        "down" verdict must not make a reachable shard unreachable.
        Shards inside a ``Retry-After`` cooldown window sort behind
        everything else (including an unhealthy primary): they asked not
        to be contacted, so they are the last resort, not removed.
        """
        if not idempotent:
            return [primary]
        ring = [
            (primary + offset) % len(self.config.shards)
            for offset in range(len(self.config.shards))
        ]
        now = self._clock()
        with self._lock:
            healthy = list(self._healthy)
            cooling = [until > now for until in self._cooldown_until]
        return sorted(
            ring,
            key=lambda i: (cooling[i], ring.index(i) != 0, not healthy[i]),
        )

    def _cool_down(self, shard: int, retry_after) -> None:
        """Honour a shard's ``Retry-After`` hint on 429/503 replies."""
        if not isinstance(retry_after, (int, float)) or isinstance(
            retry_after, bool
        ) or retry_after <= 0:
            return
        until = self._clock() + float(retry_after)
        with self._lock:
            if until > self._cooldown_until[shard]:
                self._cooldown_until[shard] = until

    # -- forwarding -----------------------------------------------------------

    def _attempt(
        self, shard: int, document, remaining: Callable[[], Optional[float]]
    ) -> Tuple[Optional[Tuple[int, Dict]], Optional[str]]:
        """One transport attempt; returns ``((status, body)|None, error)``.

        Deadline propagation happens here: the forwarded copy carries the
        *decremented* ``deadline_ms`` (the caller's deadline minus this
        hop's elapsed time and the safety margin
        :data:`~repro.service.protocol.DEADLINE_SAFETY_MS`) and the
        transport timeout never exceeds what is left — a shard cannot be
        waited on past the point where its answer would be useless.
        """
        left = remaining()
        timeout = self.config.forward_timeout
        if left is not None:
            timeout = left if timeout is None else min(timeout, left)
            if isinstance(document, dict) and "deadline_ms" in document:
                document = dict(document, deadline_ms=left * 1000.0)
        url = self.config.shards[shard] + "/analyze"
        try:
            status, body = self.transport("POST", url, document, timeout)
        except OSError as error:
            self._mark(shard, False, f"forward failed: {error}")
            return None, (
                f"shard {shard} ({self.config.shards[shard]}): {error}"
            )
        if status in (429, 503) and isinstance(body, dict):
            self._cool_down(shard, body.get("retry_after"))
        if status != 503:
            # 503 = up but refusing (draining / breaker open); that is a
            # routing hint handled by the caller, not a health verdict.
            self._mark(shard, True, "ok")
        return (status, body), None

    def forward(self, document) -> Tuple[int, Dict]:
        """Route one request document to its shard; returns (status, body)."""
        started = self._clock()
        fingerprint = self._fingerprint_of(document)
        if fingerprint is not None:
            primary = self.shard_for(fingerprint)
            idempotent = True
        else:
            with self._lock:
                primary = self._round_robin % len(self.config.shards)
                self._round_robin += 1
            inject = document.get("inject") if isinstance(document, dict) else None
            idempotent = inject is None
        deadline_seconds: Optional[float] = None
        if isinstance(document, dict):
            raw = document.get("deadline_ms")
            # Finite only: an infinite deadline would reach the socket as
            # an infinite timeout, which ``settimeout`` refuses.
            if (
                isinstance(raw, (int, float))
                and not isinstance(raw, bool)
                and raw > 0
                and math.isfinite(raw)
            ):
                deadline_seconds = float(raw) / 1000.0

        def remaining() -> Optional[float]:
            """Caller-deadline seconds this hop may still spend."""
            if deadline_seconds is None:
                return None
            return (
                deadline_seconds
                - (self._clock() - started)
                - DEADLINE_SAFETY_MS / 1000.0
            )

        candidates = self._candidates(primary, idempotent)
        retries_left = self.config.max_retries
        backoff = self.config.backoff_base
        last_error: Optional[str] = None
        expired = False
        for index, shard in enumerate(candidates):
            if index:
                if retries_left <= 0:
                    break
                left = remaining()
                if left is not None and left - backoff <= 0:
                    # The retry budget is bounded by the caller's
                    # deadline, not just by max_retries: a retry whose
                    # backoff sleep alone outlives the deadline is wasted
                    # work for an answer nobody is waiting for.
                    expired = True
                    break
                retries_left -= 1
                with self._lock:
                    self.perf.router_retries += 1
                self.sleep(backoff)
                backoff = min(backoff * 2, self.config.backoff_cap)
            left = remaining()
            if left is not None and left <= 0:
                expired = True
                break
            outcome, error = self._attempt(shard, document, remaining)
            if outcome is None:
                last_error = error
                continue
            status, body = outcome
            if status == 503 and idempotent and index + 1 < len(candidates):
                # The shard is up but refusing (draining / breaker open);
                # another shard can serve the identical request.
                last_error = (
                    f"shard {shard} refused with 503 "
                    f"({body.get('status', 'unknown')})"
                )
                continue
            with self._lock:
                self.perf.router_forwards += 1
                if shard != primary:
                    self.perf.router_failovers += 1
            if isinstance(body, dict):
                body = dict(body, shard=shard)
            return status, body
        request_id = document.get("id", "") if isinstance(document, dict) else ""
        if expired:
            with self._lock:
                self.perf.shed_requests += 1
                self.perf.deadline_expired_rejects += 1
            return 504, refusal_response(
                request_id,
                "deadline-expired",
                f"caller deadline expired at the router after "
                f"{self._clock() - started:.3f}s "
                f"(last error: {last_error or 'no attempt failed'})",
                shed=True,
            )
        return 503, refusal_response(
            request_id,
            "no-shards",
            f"no shard could serve this request "
            f"(last error: {last_error or 'none tried'})",
            retry_after=1,
        )

    def forward_batch(self, documents) -> Tuple[int, Dict]:
        """Split a ``{"requests": [...]}`` batch across its shards."""
        if not isinstance(documents, list):
            return 400, error_response(
                "", ModelError("'requests' must be an array")
            )
        responses = []
        for document in documents:
            _status, body = self.forward(document)
            responses.append(body)
        return 200, {"responses": responses}

    # -- health ---------------------------------------------------------------

    def _mark(self, shard: int, healthy: bool, detail: str) -> None:
        with self._lock:
            self._healthy[shard] = healthy
            self._health_detail[shard] = detail

    def probe(self, shard: int) -> bool:
        """One synchronous ``/readyz`` probe of a shard."""
        url = self.config.shards[shard] + "/readyz"
        try:
            status, body = self.transport(
                "GET", url, None, self.config.health_timeout
            )
        except OSError as error:
            self._mark(shard, False, f"probe failed: {error}")
            return False
        healthy = status == 200
        detail = "ready" if healthy else f"not ready ({body.get('status')})"
        self._mark(shard, healthy, detail)
        return healthy

    def probe_all(self) -> int:
        """Probe every shard once; returns how many are ready."""
        return sum(self.probe(shard) for shard in range(len(self.config.shards)))

    def start_health_poller(self) -> None:
        """Launch the background ``/readyz`` poller (idempotent)."""
        if self._poller is not None:
            return
        self._stop.clear()

        def poll() -> None:
            while not self._stop.wait(self.config.health_interval_seconds):
                self.probe_all()

        self._poller = threading.Thread(
            target=poll, name="router-health", daemon=True
        )
        self._poller.start()

    def stop_health_poller(self) -> None:
        if self._poller is None:
            return
        self._stop.set()
        self._poller.join(timeout=5)
        self._poller = None

    # -- probes and stats -----------------------------------------------------

    def healthz(self) -> Tuple[int, Dict]:
        return 200, {"status": "ok"}

    def readyz(self) -> Tuple[int, Dict]:
        """Ready while at least one shard is believed reachable."""
        with self._lock:
            ready = sum(self._healthy)
        if ready:
            return 200, {"status": "ready", "shards_ready": ready}
        return 503, {"status": "no-shards", "shards_ready": 0}

    def stats_document(self) -> Dict:
        now = self._clock()
        with self._lock:
            shards = [
                {
                    "url": url,
                    "healthy": self._healthy[index],
                    "detail": self._health_detail[index],
                    "cooling_seconds": round(
                        max(0.0, self._cooldown_until[index] - now), 3
                    ),
                }
                for index, url in enumerate(self.config.shards)
            ]
            return {
                "shards": shards,
                "router": {
                    "forwards": self.perf.router_forwards,
                    "retries": self.perf.router_retries,
                    "failovers": self.perf.router_failovers,
                    "shed_requests": self.perf.shed_requests,
                    "deadline_expired_rejects": (
                        self.perf.deadline_expired_rejects
                    ),
                },
            }


# -- HTTP front end -----------------------------------------------------------


class _RouterHandler(JsonHandler):
    """Routes HTTP verbs onto one shared :class:`ShardRouter`."""

    router: ShardRouter  # injected by serve_router()

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        if self.path == "/healthz":
            self._send(*self.router.healthz())
        elif self.path == "/readyz":
            self._send(*self.router.readyz())
        elif self.path == "/stats":
            self._send(200, self.router.stats_document())
        else:
            self._send(404, {"status": "not-found", "path": self.path})

    def analyze(self, document) -> Tuple[int, Dict]:
        if isinstance(document, dict) and "requests" in document:
            return self.router.forward_batch(document["requests"])
        return self.router.forward(document)


def serve_router(
    config: RouterConfig, router: Optional[ShardRouter] = None
) -> int:
    """Run the router until interrupted; returns the process exit code.

    Prints ``repro-router: listening on http://HOST:PORT`` once bound so
    wrappers (the chaos harness) can scrape the address.
    """
    router = router or ShardRouter(config)
    router.probe_all()
    router.start_health_poller()
    handler = type("BoundRouterHandler", (_RouterHandler,), {"router": router})
    server = ThreadingHTTPServer((config.host, config.port), handler)
    server.daemon_threads = True

    def _on_signal(signum, _frame) -> None:
        name = signal.Signals(signum).name
        print(
            f"repro-router: {name} received, shutting down...",
            file=sys.stderr,
            flush=True,
        )
        # Shut down off the signal handler's thread: shutdown() deadlocks
        # when called from within serve_forever's own thread context.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    host, port = server.server_address[:2]
    print(f"repro-router: listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
        # The poller thread is a daemon and its join is bounded, so a
        # hung health probe cannot wedge the drain; the OS reaps it.
        router.stop_health_poller()
        server.server_close()
    print("repro-router: exiting", flush=True)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Fingerprint-sharded, health-checked router in front "
        "of several repro.service analysis daemons.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8420,
        help="TCP port (0 = let the OS pick; the chosen port is printed)",
    )
    parser.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="URL",
        help="backing daemon base URL (repeat once per shard)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="period of the background /readyz health poller",
    )
    parser.add_argument(
        "--forward-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt transport timeout (default: wait forever); a "
        "slow shard surfaces as a timeout and triggers failover",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="extra attempts an idempotent request may spend on other shards",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="first retry backoff; doubles per retry up to --backoff-cap",
    )
    parser.add_argument(
        "--backoff-cap",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="retry backoff ceiling",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RouterConfig(
            shards=tuple(args.shard),
            host=args.host,
            port=args.port,
            health_interval_seconds=args.health_interval,
            forward_timeout=args.forward_timeout,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
        )
    except AnalysisError as error:
        print(f"repro-router: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return serve_router(config)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
