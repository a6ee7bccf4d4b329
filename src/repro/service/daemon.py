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

Status mapping: 200 processed (including typed ``budget-exceeded``
outcomes — aborts are results, not transport failures), 400 invalid
request, 404 unknown path, 500 worker crash or internal analysis error,
504 watchdog kill, and the refusals of :data:`REFUSALS`: 429
``busy`` / ``overload-shed``, 503 ``draining`` / ``breaker-open``, 504
``deadline-expired``.

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
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.wcrt import coarse_bound
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
    DEADLINE_SAFETY_MS,
    AnalysisRequest,
    degraded_response,
    error_response,
    exhausted_response,
    parse_request,
    read_request,
    refusal_response,
)

#: Status of a cooperative abort: partial estimates, quarantined.
ABORTED = "budget-exceeded"

#: Floor for the deadline-derived analysis budget: a request admitted
#: with almost no deadline left still gets this many seconds (the
#: alternative — a zero budget — could not even return its typed abort).
#: Requests whose deadline already expired are shed instead.
MIN_BUDGET_SECONDS = 0.05

#: Base of the jittered, load-derived ``Retry-After`` of ``busy`` and
#: ``overload-shed`` refusals, in seconds.
RETRY_AFTER_BASE = 1.0


class Refusal(NamedTuple):
    """How the daemon answers one kind of refused request."""

    #: HTTP status of the reply.
    code: int
    #: Whether the body carries the ``"shed": true`` load-shedding marker.
    shed: bool
    #: The :class:`ServiceStats` counter the refusal bumps.
    counter: str
    #: :class:`~repro.perf.PerfCounters` fields it bumps too.
    perf: Tuple[str, ...] = ()
    #: What scales its jittered ``Retry-After``: ``"load"`` (the
    #: admission queue's fill ratio), ``"cool-down"`` (the breaker's) or
    #: ``None`` for no ``Retry-After``.
    retry: Optional[str] = None


#: Every refusal of the admission policy, by response ``status``, in the
#: order :meth:`AnalysisService.handle` checks them (``breaker-open`` is
#: decided last, just before the pool).
REFUSALS: Dict[str, Refusal] = {
    "draining": Refusal(503, False, "rejected_draining"),
    "deadline-expired": Refusal(
        504,
        True,
        "shed_expired",
        ("shed_requests", "deadline_expired_rejects"),
    ),
    "overload-shed": Refusal(
        429, True, "shed_overload", ("shed_requests",), "load"
    ),
    "busy": Refusal(429, False, "rejected_busy", retry="load"),
    "breaker-open": Refusal(503, False, "rejected_breaker", retry="cool-down"),
}

#: :class:`ServiceStats` counter of each finished outcome that is not a
#: refusal; any other status is an analysis error.
_OUTCOME_COUNTERS = {
    "ok": "completed",
    ABORTED: "budget_aborted",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment and resource settings of the daemon, validated eagerly.

    The admission policy has no settings of its own: its thresholds
    derive from ``max_in_flight`` and the rest is constant (see
    :meth:`AnalysisService.handle`).
    """

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
    #: How long a SIGTERM drain waits for in-flight requests.
    drain_grace_seconds: float = 30.0
    #: Root of the persistent content-addressed result cache
    #: (:mod:`repro.resultcache`); ``None`` disables durable caching.
    cache_dir: Optional[str] = None
    #: LRU entry cap of the result cache.
    cache_max_entries: int = 4096
    #: Optional byte budget of the result cache (``None`` = unbounded).
    cache_max_bytes: Optional[int] = None

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

    @property
    def batch_cap(self) -> int:
        """Admission cap of ``"batch"``-priority requests: half the slots."""
        return max(1, self.max_in_flight // 2)


@dataclass
class ServiceStats:
    """Request-level counters exposed through ``/stats``."""

    accepted: int = 0
    completed: int = 0
    budget_aborted: int = 0
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
    #: 200 answers served by the daemon-side brownout's coarse tier.
    degraded: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def _document_id(document) -> str:
    """The ``id`` of a raw request document, for replies made before or
    without reading it."""
    return document.get("id", "") if isinstance(document, dict) else ""


class AnalysisService:
    """HTTP-agnostic service core: validation, admission, cache, breaker.

    Every request takes one path: parse, fingerprint, cache, admission,
    breaker, pool.

    1. **Durable cache** — when the cache is on, deterministic requests
       are fingerprinted (:func:`repro.resultcache.request_fingerprint`)
       over the task and platform records they carry, before any task is
       built, and served from the persistent
       :class:`~repro.resultcache.ResultCache` when possible.  Only a
       request whose key is not cached is parsed into model objects.
       Hits bypass the breaker entirely: cached results stay available
       even while the worker pool is tripped.
    2. **Pool** — every admitted miss runs through the circuit breaker
       and worker pool, identical concurrent misses included; the
       cache's atomic put makes their racing writes safe.  Only completed
       ``"ok"`` results are written back to the cache; aborted partials
       never are.
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
        #: Jitter source of the ``Retry-After`` hints; injectable for
        #: deterministic tests.
        self._rng = rng or random.Random()
        self.pool = pool or AnalysisPool(
            workers=config.workers, default_watchdog=config.default_watchdog
        )
        self.breaker = breaker or CircuitBreaker()
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
        self._draining = threading.Event()
        #: Requests that could not be completed normally: budget aborts,
        #: watchdog kills and drain stragglers, with their reasons.
        self.quarantined: List[Dict[str, str]] = []

    # -- admission policy ----------------------------------------------------

    def _count(self, status: Optional[str]) -> None:
        """Bump the counters of one response ``status`` (call under lock).

        A refusal bumps what :data:`REFUSALS` names, a finished outcome
        its :data:`_OUTCOME_COUNTERS` entry, anything else
        ``analysis_errors``.
        """
        refusal = REFUSALS.get(status)
        if refusal is None:
            counter = _OUTCOME_COUNTERS.get(status, "analysis_errors")
            bumps = [(self.stats, counter)]
        else:
            bumps = [(self.stats, refusal.counter)]
            bumps += [(self.perf, name) for name in refusal.perf]
        for counters, name in bumps:
            setattr(counters, name, getattr(counters, name) + 1)

    def _refuse(
        self, status: str, request_id: str, message: str, load: float = 0.0
    ) -> Tuple[int, Dict]:
        """The reply to a request refused as ``status`` in :data:`REFUSALS`.

        ``load`` is the admission queue's fill ratio when the refusal
        was decided.  A ``Retry-After`` scales with it (or with the
        breaker's cool-down) and jitters uniformly over [0.5, 1.5)x, so a
        saturated daemon pushes clients further away and synchronized
        clients do not stampede back in one wave.
        """
        refusal = REFUSALS[status]
        retry_after = None
        with self._lock:
            self._count(status)
            if refusal.retry is not None:
                scale = (
                    RETRY_AFTER_BASE * (0.5 + load)
                    if refusal.retry == "load"
                    else self.breaker.reset_seconds
                )
                retry_after = round(scale * (0.5 + self._rng.random()), 3)
        return refusal.code, refusal_response(
            request_id, status, message, refusal.shed, retry_after
        )

    def _settle(self, body: Dict) -> None:
        """Count one finished body and quarantine it if it aborted.

        The one mapping from a body to :class:`ServiceStats`, shared by
        cache hits, pool answers and brownout.
        """
        status = body.get("status")
        with self._lock:
            self._count(status)
            if status == "ok" and "degraded" in body:
                self.stats.degraded += 1
        if status == ABORTED:
            self._quarantine(body["id"], status)

    # -- request handling ----------------------------------------------------

    def handle(self, document) -> Tuple[int, Dict]:
        """Process one raw request document; returns (HTTP status, body).

        The admission policy, in order (each step is a typed, counted
        outcome — nothing is dropped silently):

        1. draining -> 503 ``draining``
        2. validation -> 400
        3. deadline expired on arrival, after this hop's
           :data:`~repro.service.protocol.DEADLINE_SAFETY_MS` -> 504
           ``deadline-expired`` (shed before the pool)
        4. ``batch`` priority with half the slots
           (:attr:`ServiceConfig.batch_cap`) taken -> 429
           ``overload-shed``
        5. every one of ``max_in_flight`` slots taken -> 429 ``busy``
        6. admitted, under a deadline-derived budget of at least
           :data:`MIN_BUDGET_SECONDS`.  A degradable request that takes
           the last slot, or meets an open breaker, browns out; any other
           request that reaches the pool while the breaker is open gets
           503 ``breaker-open``.

        Validation reads every field but the task records first, then
        fingerprints the records and builds the tasks only when the
        result cache does not hold that key.  A cached key needs no
        parse: the cache holds only verdicts of requests that parsed and
        finished their analysis, and equal canonical records parse to
        equal models.  So an invalid request always misses and fails
        validation here, before admission, whether the cache is on or not.
        """
        arrival = self._clock()
        if self._draining.is_set():
            return self._refuse(
                "draining",
                _document_id(document),
                "service is shutting down; retry elsewhere",
            )
        try:
            request = read_request(document)
            fingerprint = self._fingerprint(request)
            cached = fingerprint is not None and fingerprint in self.cache
            if not cached:
                request = parse_request(request)
        except (ModelError, AnalysisError) as error:
            with self._lock:
                self.stats.validation_errors += 1
            return 400, error_response(_document_id(document), error)
        budget_seconds = request.budget_seconds
        if budget_seconds is None:
            budget_seconds = self.config.default_budget
        deadline_ms = None
        if request.deadline_ms is not None:
            # This hop's elapsed time plus the safety margin comes off the
            # caller's remaining deadline; an already-expired request is
            # shed here, before it can touch the admission queue or pool.
            remaining = (
                request.deadline_ms / 1000.0
                - (self._clock() - arrival)
                - DEADLINE_SAFETY_MS / 1000.0
            )
            if remaining <= 0:
                return self._refuse(
                    "deadline-expired",
                    request.request_id,
                    f"deadline_ms={request.deadline_ms:g} already expired "
                    f"on arrival (safety margin {DEADLINE_SAFETY_MS:g}ms)",
                )
            # Near-zero remainders are clamped to the minimum budget: an
            # admitted request must at least be able to return its typed
            # abort.  The caller's own budget, if tighter, still wins.
            deadline_budget = max(remaining, MIN_BUDGET_SECONDS)
            budget_seconds = (
                deadline_budget
                if budget_seconds is None
                else min(budget_seconds, deadline_budget)
            )
            deadline_ms = remaining * 1000.0
        # The request as the pool runs it: this hop's effective budget
        # and remaining deadline replace the caller's.
        effective = replace(
            request, budget_seconds=budget_seconds, deadline_ms=deadline_ms
        )
        cap = self.config.max_in_flight
        batch_cap = self.config.batch_cap
        with self._lock:
            in_flight = len(self._active)
            if request.priority == "batch" and in_flight >= batch_cap:
                refused = (
                    "overload-shed",
                    f"batch-priority admission cap reached ({batch_cap} in "
                    f"flight); interactive requests are still admitted",
                )
            elif in_flight >= cap:
                refused = ("busy", f"admission queue full ({cap} in flight)")
            else:
                refused = None
                token = next(self._tokens)
                self._active[token] = request.request_id
                self.stats.accepted += 1
                # Only degradable requests brown out; everything else
                # keeps the exact pre-pressure semantics, including the
                # 503 a tripped breaker would return.
                brownout = (
                    request.inject is None
                    and request.degradable
                    and (
                        len(self._active) >= cap
                        or self.breaker.state == OPEN
                    )
                )
        if refused is not None:
            status, message = refused
            return self._refuse(
                status, request.request_id, message, in_flight / cap
            )
        try:
            return self._execute(effective, fingerprint, brownout=brownout)
        finally:
            with self._lock:
                self._active.pop(token, None)

    def _fingerprint(self, request: AnalysisRequest) -> Optional[str]:
        """Cache key of a read request, or ``None``.

        ``None`` when the cache is off, for the test-only inject faults
        (the one nondeterministic input, which must never be replayed),
        and for records canonical JSON cannot encode, such as a ``NaN``
        (those are analysed uncached, if they parse at all).
        """
        if request.inject is not None or self.cache is None:
            return None
        envelope = request.envelope
        try:
            return request_fingerprint(
                envelope["tasks"], envelope["platform"], request.config
            )
        except ModelError:
            return None

    def _execute(
        self,
        request: AnalysisRequest,
        fingerprint: Optional[str],
        brownout: bool = False,
    ) -> Tuple[int, Dict]:
        """Serve one admitted request from the cache, brownout or pool."""
        request_id = request.request_id
        if fingerprint is not None:
            payload = self.cache.get(fingerprint)
            if payload is not None:
                # Served without touching the breaker: cached results stay
                # available even while the worker pool is tripped open.
                body = dict(payload, id=request_id, cache="hit")
                self._settle(body)
                return 200, body
        if request.taskset is None:
            # The key was cached when handle() looked but the entry went
            # away before this read (evicted or quarantined): parse now.
            try:
                request = parse_request(request)
            except (ModelError, AnalysisError) as error:
                with self._lock:
                    self.stats.validation_errors += 1
                return 400, error_response(request_id, error)
        if brownout:
            # Overload (last slot taken or breaker open): answer from the
            # coarse bound on this thread instead of queueing on the
            # pool — cheap, sound, typed.  Cache hits above still serve
            # exact results; inject faults never get here.
            return self._brownout(request)
        status, body = self._run_pool(request)
        if (
            fingerprint is not None
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
        return status, body

    def _brownout(self, request: AnalysisRequest) -> Tuple[int, Dict]:
        """Serve one admitted request from the coarse tier, pool-free.

        Brownout mode answers on the handler thread with
        :func:`~repro.analysis.wcrt.coarse_bound` (one inner fixed point
        per task) instead of queueing on a saturated or breaker-tripped
        pool.  The answer is typed: a ``degraded`` marker naming the
        coarse tier plus ``brownout: true`` so clients and the chaos
        harness can tell it from a pool answer.
        """
        request_id = request.request_id
        local = PerfCounters()
        budget: Optional[Budget] = None
        budget_seconds = request.budget_seconds
        max_iterations = request.max_iterations
        if budget_seconds is not None or max_iterations is not None:
            budget = Budget(
                wall_seconds=budget_seconds,
                max_iterations=max_iterations,
                clock=self._clock,
            )
        status = 200
        try:
            result = coarse_bound(
                request.taskset,
                request.platform,
                request.config,
                perf=local,
                budget=budget,
            )
        except AnalysisAborted as abort:
            body = exhausted_response(request_id, abort)
            local.brownout_runs += 1
        except Exception as error:  # noqa: BLE001 — typed 500, never a hang
            status, body = 500, error_response(request_id, error)
        else:
            body = degraded_response(request_id, result)
            local.brownout_runs += 1
            local.degraded_responses += 1
        with self._lock:
            self.perf.merge(local)
        self._settle(body)
        return status, body

    def _run_pool(self, request: AnalysisRequest) -> Tuple[int, Dict]:
        """Run one request through the breaker and pool."""
        request_id = request.request_id
        if not self.breaker.allow():
            return self._refuse(
                "breaker-open",
                request_id,
                "worker pool circuit breaker is open after repeated "
                "crashes; retry after the cool-down",
            )
        try:
            response, perf = self.pool.run(request)
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
        self._settle(response)
        return (500 if response.get("status") == "error" else 200), response

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
            cache = {"enabled": self.cache is not None}
            if self.cache is not None:
                cache.update(self.cache.stats())
            return {
                "requests": self.stats.to_dict(),
                "in_flight": len(self._active),
                "draining": self._draining.is_set(),
                "overload": {
                    "max_in_flight": self.config.max_in_flight,
                    "batch_cap": self.config.batch_cap,
                    "deadline_safety_ms": DEADLINE_SAFETY_MS,
                    "min_budget_seconds": MIN_BUDGET_SECONDS,
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
    """Routes HTTP verbs onto one shared :class:`AnalysisService`.

    ``POST /analyze`` reads the JSON body and answers with
    :meth:`analyze`; any other POST path is a 404.
    """

    service: AnalysisService  # injected by serve()

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        """Write no per-request access line to stderr."""

    def _send(self, status: int, document: Dict) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        retry_after = document.get("retry_after")
        if retry_after is not None:
            # The header takes whole seconds (RFC 9110 delay-seconds); the
            # body keeps the jittered float.
            seconds = max(1, math.ceil(retry_after))
            self.send_header("Retry-After", str(seconds))
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
            # ``rfile.read(-1)`` would block this thread until the client
            # hangs up, so a negative length is refused before the read.
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            document = json.loads(self.rfile.read(length) or b"null")
        except ValueError as error:  # JSONDecodeError is a ValueError
            self._send(
                400, error_response("", ModelError(f"bad request body: {error}"))
            )
            return
        self._send(*self.analyze(document))

    def analyze(self, document) -> Tuple[int, Dict]:
        if isinstance(document, dict) and "requests" in document:
            return self.service.handle_batch(document["requests"])
        if isinstance(document, dict):
            # Transport-level deadline/priority: proxies that cannot edit
            # the body (or callers fronted by one) may send the end-to-end
            # deadline and priority class as headers; body fields win.
            deadline = self.headers.get("X-Deadline-Ms")
            if deadline is not None and "deadline_ms" not in document:
                try:
                    document["deadline_ms"] = float(deadline)
                except ValueError:
                    return 400, error_response(
                        document.get("id", ""),
                        AnalysisError(
                            f"X-Deadline-Ms must be a number of "
                            f"milliseconds, got {deadline!r}"
                        ),
                    )
            priority = self.headers.get("X-Priority")
            if priority is not None and "priority" not in document:
                document["priority"] = priority
        return self.service.handle(document)


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
