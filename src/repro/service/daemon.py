"""The batch-analysis service core and its HTTP front end.

:class:`AnalysisService` is the HTTP-free heart — ``handle(document)``
implements validation, admission control, the circuit breaker, per-request
budgets and quarantine bookkeeping, and is directly unit-testable.  The
thin :func:`serve` wrapper exposes it over a stdlib
``ThreadingHTTPServer``:

===========  ======  ====================================================
endpoint     method  behaviour
===========  ======  ====================================================
/analyze     POST    one request object, or ``{"requests": [...]}`` for a
                     batch (processed sequentially per connection;
                     concurrency comes from concurrent connections)
/healthz     GET     liveness — 200 as long as the process serves
/readyz      GET     readiness — 503 while draining or the breaker is open
/stats       GET     counters, breaker state, quarantine log and the
                     aggregated :class:`~repro.perf.PerfCounters`
===========  ======  ====================================================

Status mapping: 200 processed (including typed ``budget-exceeded`` /
``cancelled`` outcomes — aborts are results, not transport failures), 400
invalid request, 404 unknown path, 429 admission queue full (with
``Retry-After``), 500 worker crash or internal analysis error, 503
draining or breaker open, 504 watchdog kill.

SIGTERM/SIGINT starts a graceful drain: readiness flips to 503 so load
balancers stop sending work, in-flight requests get
``drain_grace_seconds`` to finish, stragglers are quarantined (logged
with their request ids), and the process exits 0.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.ladder import SOUND_DEGRADED, TIER_COARSE, coarse_bound
from repro.budget import Budget
from repro.errors import (
    AnalysisAborted,
    AnalysisError,
    ChunkTimeoutError,
    ModelError,
    WorkerCrashError,
)
from repro.perf import PerfCounters
from repro.resultcache import ResultCache, request_fingerprint
from repro.service.breaker import CircuitBreaker, OPEN
from repro.service.pool import AnalysisPool
from repro.service.protocol import (
    AnalysisRequest,
    abort_response,
    degraded_response,
    error_response,
    parse_request,
    shed_response,
)

#: Extra wait a coalesced request grants the leading computation beyond
#: the leader's own watchdog allowance before giving up.
COALESCE_GRACE = 5.0


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the daemon, validated eagerly."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 1
    #: Bounded admission: requests beyond this many in flight are rejected
    #: with 429 instead of queueing unboundedly.
    max_in_flight: int = 4
    #: Budget applied to requests that do not carry their own.
    default_budget: Optional[float] = None
    #: Watchdog allowance for requests with no budget at all.
    default_watchdog: Optional[float] = None
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 5.0
    breaker_probes: int = 1
    #: How long a SIGTERM drain waits for in-flight requests.
    drain_grace_seconds: float = 30.0
    #: Root of the persistent content-addressed result cache
    #: (:mod:`repro.resultcache`); ``None`` disables durable caching.
    cache_dir: Optional[str] = None
    #: LRU entry cap of the result cache.
    cache_max_entries: int = 4096
    #: Optional byte budget of the result cache (``None`` = unbounded).
    cache_max_bytes: Optional[int] = None
    #: Coalesce identical concurrent requests onto one computation.
    coalesce: bool = True
    #: Safety margin (milliseconds) this hop subtracts from a request's
    #: remaining ``deadline_ms`` before handing it on, covering its own
    #: serialisation and scheduling overhead.
    deadline_safety_ms: float = 25.0
    #: Floor for the deadline-derived analysis budget: a request admitted
    #: with almost no deadline left still gets this many seconds (the
    #: alternative — a zero budget — could not even return its typed
    #: abort).  Requests whose deadline already expired are shed instead.
    min_budget_seconds: float = 0.05
    #: In-flight count at which brownout mode engages (cache hits and the
    #: coarse ladder tier only; the pool is left to drain).  ``None``
    #: defaults to ``max_in_flight`` — the last admission slot browns out.
    brownout_in_flight: Optional[int] = None
    #: Admission cap for ``"batch"``-priority requests; under load they
    #: are shed before any ``"interactive"`` request is.  ``None``
    #: defaults to half of ``max_in_flight`` (at least 1).
    batch_max_in_flight: Optional[int] = None
    #: Base of the jittered, load-derived ``Retry-After`` on 429 replies.
    retry_after_base: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise AnalysisError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise AnalysisError(f"workers must be >= 1, got {self.workers}")
        if self.max_in_flight < 1:
            raise AnalysisError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        for name in ("default_budget", "default_watchdog"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, (int, float))
                and math.isfinite(value)
                and value > 0
            ):
                raise AnalysisError(
                    f"{name} must be a positive number of seconds (or "
                    f"None), got {value!r}"
                )
        if self.breaker_threshold < 1:
            raise AnalysisError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_seconds <= 0:
            raise AnalysisError(
                f"breaker_reset_seconds must be positive, "
                f"got {self.breaker_reset_seconds}"
            )
        if self.drain_grace_seconds < 0:
            raise AnalysisError(
                f"drain_grace_seconds must be non-negative, "
                f"got {self.drain_grace_seconds}"
            )
        if self.cache_max_entries < 1:
            raise AnalysisError(
                f"cache_max_entries must be >= 1, got {self.cache_max_entries}"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise AnalysisError(
                f"cache_max_bytes must be >= 1 (or None for unbounded), "
                f"got {self.cache_max_bytes}"
            )
        if self.deadline_safety_ms < 0:
            raise AnalysisError(
                f"deadline_safety_ms must be non-negative, "
                f"got {self.deadline_safety_ms}"
            )
        if self.min_budget_seconds <= 0:
            raise AnalysisError(
                f"min_budget_seconds must be positive, "
                f"got {self.min_budget_seconds}"
            )
        if self.brownout_in_flight is not None and self.brownout_in_flight < 1:
            raise AnalysisError(
                f"brownout_in_flight must be >= 1 (or None for the "
                f"default), got {self.brownout_in_flight}"
            )
        if (
            self.batch_max_in_flight is not None
            and self.batch_max_in_flight < 1
        ):
            raise AnalysisError(
                f"batch_max_in_flight must be >= 1 (or None for the "
                f"default), got {self.batch_max_in_flight}"
            )
        if self.retry_after_base <= 0:
            raise AnalysisError(
                f"retry_after_base must be positive, "
                f"got {self.retry_after_base}"
            )

    @property
    def brownout_threshold(self) -> int:
        """Effective in-flight count at which brownout engages."""
        if self.brownout_in_flight is not None:
            return self.brownout_in_flight
        return self.max_in_flight

    @property
    def batch_cap(self) -> int:
        """Effective admission cap of ``"batch"``-priority requests."""
        if self.batch_max_in_flight is not None:
            return self.batch_max_in_flight
        return max(1, self.max_in_flight // 2)


@dataclass
class ServiceStats:
    """Request-level counters exposed through ``/stats``."""

    accepted: int = 0
    completed: int = 0
    budget_aborted: int = 0
    cancelled: int = 0
    analysis_errors: int = 0
    validation_errors: int = 0
    rejected_busy: int = 0
    rejected_breaker: int = 0
    rejected_draining: int = 0
    worker_crashes: int = 0
    watchdog_kills: int = 0
    #: Requests shed because their propagated deadline expired on arrival.
    shed_expired: int = 0
    #: ``batch``-priority requests shed by the overload policy.
    shed_overload: int = 0
    #: 200 answers produced by a degraded ladder tier (pool or brownout).
    degraded: int = 0
    #: Degraded answers served by the daemon-side brownout coarse tier.
    brownout_served: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _Flight:
    """One in-flight computation identical concurrent requests share."""

    __slots__ = ("done", "outcome")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome: Optional[Tuple[int, Dict]] = None


class AnalysisService:
    """HTTP-agnostic service core: validation, admission, cache, breaker.

    The request path is layered so every tier degrades independently:

    1. **Durable cache** — deterministic requests are fingerprinted
       (:func:`repro.resultcache.request_fingerprint`) and served from
       the persistent :class:`~repro.resultcache.ResultCache` when
       possible.  Hits bypass the breaker entirely: cached results stay
       available even while the worker pool is tripped.
    2. **Coalescing** — N identical concurrent requests run *one*
       analysis; the others wait on the leader's flight and share its
       outcome (including failures and budget aborts).
    3. **Pool** — the leader runs through the circuit breaker and worker
       pool as before.  Only completed ``"ok"`` results are written back
       to the cache; aborted partials never are.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        pool: Optional[AnalysisPool] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        #: Monotonic time source for deadline accounting; injectable so
        #: tests (and the chaos deadline-storm scenario) drive expiry
        #: deterministically.
        self._clock = clock
        #: Jitter source of the load-derived ``Retry-After``; injectable
        #: for deterministic tests.
        self._rng = rng or random.Random()
        self.pool = pool or AnalysisPool(
            workers=config.workers, default_watchdog=config.default_watchdog
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_seconds=config.breaker_reset_seconds,
            half_open_probes=config.breaker_probes,
        )
        self.stats = ServiceStats()
        self.perf = PerfCounters()
        self.cache: Optional[ResultCache] = None
        if config.cache_dir is not None:
            self.cache = ResultCache(
                Path(config.cache_dir),
                max_entries=config.cache_max_entries,
                max_bytes=config.cache_max_bytes,
                perf=self.perf,
            )
        self._lock = threading.Lock()
        self._tokens = itertools.count()
        self._active: Dict[int, str] = {}
        self._flights: Dict[str, _Flight] = {}
        self._draining = threading.Event()
        #: Requests that could not be completed normally: budget aborts,
        #: watchdog kills and drain stragglers, with their reasons.
        self.quarantined: List[Dict[str, str]] = []

    # -- request handling ----------------------------------------------------

    def _retry_after(self, load: float) -> float:
        """Jittered, load-derived Retry-After seconds (call under lock).

        Scales with the admission queue's fill ratio so a saturated
        daemon pushes clients further away, and jitters uniformly over
        [0.5, 1.5)x so synchronized clients do not stampede back in one
        wave.  Deterministic in tests via the injected ``rng``.
        """
        base = self.config.retry_after_base
        return round(base * (0.5 + load) * (0.5 + self._rng.random()), 3)

    def handle(self, document) -> Tuple[int, Dict]:
        """Process one raw request document; returns (HTTP status, body).

        Order of the admission ladder (each step is a typed, counted
        outcome — nothing is dropped silently):

        1. draining -> 503
        2. validation -> 400
        3. deadline expired on arrival -> 504 (shed before the pool)
        4. batch-priority overload shed -> 429 (lowest class first)
        5. admission queue full -> 429
        6. admitted: deadline-derived budget, optional brownout, pool
        """
        arrival = self._clock()
        if self._draining.is_set():
            with self._lock:
                self.stats.rejected_draining += 1
            return 503, {
                "status": "draining",
                "message": "service is shutting down; retry elsewhere",
            }
        try:
            request = parse_request(document)
        except (ModelError, AnalysisError) as error:
            with self._lock:
                self.stats.validation_errors += 1
            return 400, error_response(
                document.get("id", "") if isinstance(document, dict) else "",
                error,
            )
        effective = dict(document)
        if (
            request.budget_seconds is None
            and self.config.default_budget is not None
        ):
            effective["budget_seconds"] = self.config.default_budget
        safety = self.config.deadline_safety_ms / 1000.0
        if request.deadline_ms is not None:
            # This hop's elapsed time plus the safety margin comes off the
            # caller's remaining deadline; an already-expired request is
            # shed here, before it can touch the admission queue or pool.
            remaining = (
                request.deadline_ms / 1000.0
                - (self._clock() - arrival)
                - safety
            )
            if remaining <= 0:
                with self._lock:
                    self.stats.shed_expired += 1
                    self.perf.shed_requests += 1
                    self.perf.deadline_expired_rejects += 1
                return 504, shed_response(
                    request.request_id,
                    "deadline-expired",
                    f"deadline_ms={request.deadline_ms:g} already expired "
                    f"on arrival (safety margin "
                    f"{self.config.deadline_safety_ms:g}ms)",
                )
            # Near-zero remainders are clamped to the minimum budget: an
            # admitted request must at least be able to return its typed
            # abort.  The caller's own budget, if tighter, still wins.
            deadline_budget = max(remaining, self.config.min_budget_seconds)
            current = effective.get("budget_seconds")
            effective["budget_seconds"] = (
                deadline_budget
                if current is None
                else min(current, deadline_budget)
            )
            effective["deadline_ms"] = remaining * 1000.0
        with self._lock:
            in_flight = len(self._active)
            if (
                request.priority == "batch"
                and in_flight >= self.config.batch_cap
            ):
                self.stats.shed_overload += 1
                self.perf.shed_requests += 1
                return 429, shed_response(
                    request.request_id,
                    "overload-shed",
                    f"batch-priority admission cap reached "
                    f"({self.config.batch_cap} in flight); "
                    f"interactive requests are still admitted",
                    retry_after=self._retry_after(
                        in_flight / self.config.max_in_flight
                    ),
                )
            if in_flight >= self.config.max_in_flight:
                self.stats.rejected_busy += 1
                return 429, {
                    "status": "busy",
                    "id": request.request_id,
                    "message": (
                        f"admission queue full "
                        f"({self.config.max_in_flight} in flight)"
                    ),
                    "retry_after": self._retry_after(
                        in_flight / self.config.max_in_flight
                    ),
                }
            token = next(self._tokens)
            self._active[token] = request.request_id
            self.stats.accepted += 1
            # Brownout only applies to requests that accept degraded
            # answers (explicit ``degrade`` or a propagated deadline);
            # everything else keeps the exact pre-pressure semantics,
            # including the 503 a tripped breaker would return.
            degradable = (
                request.degrade
                if request.degrade is not None
                else request.deadline_ms is not None
            )
            brownout = (
                request.inject is None
                and degradable
                and (
                    len(self._active) >= self.config.brownout_threshold
                    or self.breaker.state == OPEN
                )
            )
        try:
            return self._execute(request, effective, brownout=brownout)
        finally:
            with self._lock:
                self._active.pop(token, None)

    def _execute(
        self,
        request: AnalysisRequest,
        document: Dict,
        brownout: bool = False,
    ) -> Tuple[int, Dict]:
        """Cache, coalesce and run one admitted request."""
        request_id = request.request_id
        fingerprint = None
        if request.inject is None and (
            self.cache is not None or self.config.coalesce
        ):
            # Deterministic requests only: the test-only inject faults are
            # the one nondeterministic input and must never share work.
            fingerprint = request_fingerprint(
                request.taskset, request.platform, request.config
            )
        if fingerprint is not None and self.cache is not None:
            payload = self.cache.get(fingerprint)
            if payload is not None:
                # Served without touching the breaker: cached results stay
                # available even while the worker pool is tripped open.
                with self._lock:
                    self.stats.completed += 1
                return 200, dict(payload, id=request_id, cache="hit")
        if brownout:
            # Overload (queue nearly full or breaker open): answer from
            # the coarse ladder tier on this thread instead of queueing
            # on the pool — cheap, sound, typed.  Cache hits above still
            # serve exact results; inject faults never get here.
            return self._brownout(request, document)
        flight: Optional[_Flight] = None
        if fingerprint is not None and self.config.coalesce:
            with self._lock:
                flight = self._flights.get(fingerprint)
                if flight is not None:
                    leader_flight = None
                else:
                    leader_flight = self._flights[fingerprint] = _Flight()
            if leader_flight is None:
                return self._await_flight(request_id, document, flight)
            flight = leader_flight
        status = 500
        body: Dict = error_response(
            request_id,
            WorkerCrashError("computation died before producing a response"),
        )
        try:
            status, body = self._run_pool(request_id, document)
            return status, body
        finally:
            if flight is not None:
                with self._lock:
                    self._flights.pop(fingerprint, None)
                flight.outcome = (status, body)
                flight.done.set()
            if (
                fingerprint is not None
                and self.cache is not None
                and status == 200
                and body.get("status") == "ok"
                and "degraded" not in body
            ):
                # Degraded bodies never enter the cache: the fingerprint
                # names the *exact* result, and a looser-but-sound bound
                # must not be replayed as it once the pressure is gone.
                # Only completed results are durable; the cache's own
                # validator additionally refuses anything else, so aborted
                # partials can never poison it.
                payload = {
                    key: value
                    for key, value in body.items()
                    if key not in ("id", "cache")
                }
                self.cache.put(fingerprint, payload)

    def _brownout(
        self, request: AnalysisRequest, document: Dict
    ) -> Tuple[int, Dict]:
        """Serve one admitted request from the coarse tier, pool-free.

        Brownout mode answers on the handler thread with the ladder's
        cheapest rung (one inner fixed point per task) instead of queueing
        on a saturated or breaker-tripped pool.  The answer is typed: a
        ``degraded`` marker naming the coarse tier plus ``brownout: true``
        so clients and the chaos harness can tell it from a pool answer.
        """
        request_id = request.request_id
        local = PerfCounters()
        budget: Optional[Budget] = None
        budget_seconds = document.get("budget_seconds")
        max_iterations = document.get("max_iterations")
        if budget_seconds is not None or max_iterations is not None:
            budget = Budget(
                wall_seconds=budget_seconds,
                max_iterations=max_iterations,
                clock=self._clock,
            )
        try:
            result = coarse_bound(
                request.taskset,
                request.platform,
                request.config,
                perf=local,
                budget=budget,
            )
        except AnalysisAborted as abort:
            body = abort_response(request_id, abort)
            body["degraded"] = {
                "tier": None,
                "soundness": "unknown",
                "tiers_tried": [TIER_COARSE],
            }
            body["brownout"] = True
            with self._lock:
                self.perf.merge(local)
                self.perf.ladder_tier_runs += 1
                self.stats.budget_aborted += 1
            self._quarantine(request_id, "budget-exceeded")
            return 200, body
        except Exception as error:  # noqa: BLE001 — typed 500, never a hang
            with self._lock:
                self.perf.merge(local)
                self.stats.analysis_errors += 1
            return 500, error_response(request_id, error)
        body = degraded_response(
            request_id, result, TIER_COARSE, SOUND_DEGRADED, (TIER_COARSE,)
        )
        body["brownout"] = True
        with self._lock:
            self.perf.merge(local)
            self.perf.ladder_tier_runs += 1
            self.perf.degraded_responses += 1
            self.stats.completed += 1
            self.stats.degraded += 1
            self.stats.brownout_served += 1
        return 200, body

    def _await_flight(
        self, request_id: str, document: Dict, flight: _Flight
    ) -> Tuple[int, Dict]:
        """Share the outcome of an identical in-flight computation."""
        allowance = self.pool.allowance_for(document.get("budget_seconds"))
        timeout = None if allowance is None else allowance + COALESCE_GRACE
        if not flight.done.wait(timeout):
            with self._lock:
                self.stats.analysis_errors += 1
            return 500, error_response(
                request_id,
                ChunkTimeoutError(
                    "coalesced request timed out waiting for the identical "
                    "in-flight computation"
                ),
            )
        status, shared = flight.outcome
        body = dict(shared, id=request_id, cache="coalesced")
        outcome = body.get("status")
        with self._lock:
            self.perf.coalesced_requests += 1
            if outcome == "ok":
                self.stats.completed += 1
            elif outcome == "budget-exceeded":
                self.stats.budget_aborted += 1
            elif outcome == "cancelled":
                self.stats.cancelled += 1
            elif outcome == "breaker-open":
                self.stats.rejected_breaker += 1
            else:
                self.stats.analysis_errors += 1
        if outcome in ("budget-exceeded", "cancelled"):
            self._quarantine(request_id, outcome)
        return status, body

    def _run_pool(self, request_id: str, document: Dict) -> Tuple[int, Dict]:
        """Run one leading request through the breaker and pool."""
        if not self.breaker.allow():
            with self._lock:
                self.stats.rejected_breaker += 1
                retry_after = round(
                    self.breaker.reset_seconds * (0.5 + self._rng.random()), 3
                )
            return 503, {
                "status": "breaker-open",
                "id": request_id,
                "message": (
                    "worker pool circuit breaker is open after repeated "
                    "crashes; retry after the cool-down"
                ),
                "retry_after": retry_after,
            }
        try:
            response, perf = self.pool.run(document)
        except WorkerCrashError as error:
            self.breaker.record_failure()
            with self._lock:
                self.stats.worker_crashes += 1
            return 500, error_response(request_id, error)
        except ChunkTimeoutError as error:
            self.breaker.record_failure()
            with self._lock:
                self.stats.watchdog_kills += 1
            self._quarantine(request_id, "watchdog-kill")
            return 504, error_response(request_id, error)
        self.breaker.record_success()
        with self._lock:
            self.perf.merge(perf)
            status = response.get("status")
            if status == "ok":
                self.stats.completed += 1
                if "degraded" in response:
                    self.stats.degraded += 1
            elif status == "budget-exceeded":
                self.stats.budget_aborted += 1
            elif status == "cancelled":
                self.stats.cancelled += 1
            else:
                self.stats.analysis_errors += 1
        if status in ("budget-exceeded", "cancelled"):
            self._quarantine(request_id, status)
            return 200, response
        if status == "error":
            return 500, response
        return 200, response

    def handle_batch(self, documents) -> Tuple[int, Dict]:
        """Process ``{"requests": [...]}`` sequentially; always 200."""
        if not isinstance(documents, list):
            return 400, error_response(
                "", ModelError("'requests' must be an array")
            )
        responses = []
        for document in documents:
            _status, body = self.handle(document)
            responses.append(body)
        return 200, {"responses": responses}

    def _quarantine(self, request_id: str, reason: str) -> None:
        entry = {"id": request_id, "reason": reason}
        with self._lock:
            self.quarantined.append(entry)
        print(
            f"repro-service: quarantined request {request_id!r} ({reason})",
            file=sys.stderr,
            flush=True,
        )

    # -- probes and stats ----------------------------------------------------

    def healthz(self) -> Tuple[int, Dict]:
        """Liveness: 200 while the process can answer at all."""
        return 200, {"status": "ok"}

    def readyz(self) -> Tuple[int, Dict]:
        """Readiness: 503 while draining or the breaker is open."""
        if self._draining.is_set():
            return 503, {"status": "draining"}
        if self.breaker.state == OPEN:
            return 503, {"status": "breaker-open"}
        return 200, {"status": "ready"}

    def stats_document(self) -> Dict:
        """The ``/stats`` body: counters, breaker, cache, quarantine, perf."""
        with self._lock:
            perf = {
                name: getattr(self.perf, name)
                for name in PerfCounters._INT_FIELDS
            }
            cache = {
                "enabled": self.cache is not None,
                "coalesce": self.config.coalesce,
                "coalescing_flights": len(self._flights),
            }
            if self.cache is not None:
                cache.update(self.cache.stats())
            return {
                "requests": self.stats.to_dict(),
                "in_flight": len(self._active),
                "draining": self._draining.is_set(),
                "overload": {
                    "max_in_flight": self.config.max_in_flight,
                    "brownout_threshold": self.config.brownout_threshold,
                    "batch_cap": self.config.batch_cap,
                    "deadline_safety_ms": self.config.deadline_safety_ms,
                    "min_budget_seconds": self.config.min_budget_seconds,
                },
                "breaker": {
                    "state": self.breaker.state,
                    "trips": self.breaker.trips,
                },
                "cache": cache,
                "quarantined": list(self.quarantined),
                "perf": perf,
            }

    # -- drain ----------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting work; readiness flips to 503 immediately."""
        self._draining.set()

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Wait for in-flight requests; quarantine stragglers.

        Returns ``True`` when everything finished within the grace period.
        """
        self.begin_drain()
        grace = (
            self.config.drain_grace_seconds
            if grace_seconds is None
            else grace_seconds
        )
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._lock:
                if not self._active:
                    return True
            time.sleep(0.05)
        with self._lock:
            stragglers = list(self._active.values())
        for request_id in stragglers:
            self._quarantine(request_id, "drain-timeout")
        return not stragglers

    def close(self) -> None:
        """Release the worker pool."""
        self.pool.close()


# -- HTTP front end -----------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto one shared :class:`AnalysisService`."""

    service: AnalysisService  # injected by serve()
    quiet = True

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(self, status: int, document: Dict) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        retry_after = document.get("retry_after")
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        if self.path == "/healthz":
            self._send(*self.service.healthz())
        elif self.path == "/readyz":
            self._send(*self.service.readyz())
        elif self.path == "/stats":
            self._send(200, self.service.stats_document())
        else:
            self._send(404, {"status": "not-found", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 — stdlib casing
        if self.path != "/analyze":
            self._send(404, {"status": "not-found", "path": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            document = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError) as error:
            self._send(400, error_response("", ModelError(f"bad JSON: {error}")))
            return
        if isinstance(document, dict) and "requests" not in document:
            # Transport-level deadline/priority: proxies that cannot edit
            # the body (or callers fronted by one) may send the end-to-end
            # deadline and priority class as headers; body fields win.
            deadline = self.headers.get("X-Deadline-Ms")
            if deadline is not None and "deadline_ms" not in document:
                try:
                    document["deadline_ms"] = float(deadline)
                except ValueError:
                    self._send(
                        400,
                        error_response(
                            document.get("id", ""),
                            AnalysisError(
                                f"X-Deadline-Ms must be a number of "
                                f"milliseconds, got {deadline!r}"
                            ),
                        ),
                    )
                    return
            priority = self.headers.get("X-Priority")
            if priority is not None and "priority" not in document:
                document["priority"] = priority
        if isinstance(document, dict) and "requests" in document:
            self._send(*self.service.handle_batch(document["requests"]))
        else:
            self._send(*self.service.handle(document))


def serve(
    config: ServiceConfig = ServiceConfig(),
    service: Optional[AnalysisService] = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the process exit code.

    Prints ``repro-service: listening on http://HOST:PORT`` once the
    socket is bound (with the real port when ``port=0`` asked the OS to
    pick one), so wrappers can scrape the address.
    """
    service = service or AnalysisService(config)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((config.host, config.port), handler)
    server.daemon_threads = True
    drained = threading.Event()

    def _shutdown() -> None:
        clean = service.drain()
        if not clean:
            print(
                "repro-service: drain grace expired; stragglers quarantined",
                file=sys.stderr,
                flush=True,
            )
        drained.set()
        server.shutdown()

    def _on_signal(signum, _frame) -> None:
        name = signal.Signals(signum).name
        print(
            f"repro-service: {name} received, draining...",
            file=sys.stderr,
            flush=True,
        )
        # Drain off the signal handler's thread: shutdown() would deadlock
        # if called from within serve_forever's own thread context.
        threading.Thread(target=_shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    host, port = server.server_address[:2]
    print(
        f"repro-service: listening on http://{host}:{port}",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
        server.server_close()
        service.close()
    print("repro-service: drained, exiting", flush=True)
    return 0
