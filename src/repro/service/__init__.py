"""Long-running batch-analysis service (``python -m repro.service``).

A small, dependency-free daemon that accepts JSON analysis requests over
HTTP, executes them in a supervised worker pool with per-request deadline
budgets (see :mod:`repro.budget`), and degrades gracefully under every
failure mode the resilience layer knows about:

* request validation mapped onto the :class:`~repro.errors.ModelError` /
  :class:`~repro.errors.AnalysisError` taxonomy (HTTP 400),
* bounded admission with backpressure (HTTP 429 + ``Retry-After``),
* a circuit breaker around the worker pool that trips on repeated
  :class:`~repro.errors.WorkerCrashError` and recovers through half-open
  probes (HTTP 503 while open),
* ``/healthz`` / ``/readyz`` / ``/stats`` endpoints wired to
  :class:`~repro.perf.PerfCounters`,
* SIGTERM graceful drain that finishes or quarantines in-flight requests
  before exiting 0,
* end-to-end deadline propagation (``deadline_ms`` in the body or the
  ``X-Deadline-Ms`` header): each hop subtracts its elapsed time plus a
  safety margin, expired requests are shed with a typed 504 before they
  touch the pool, and admitted ones run under a deadline-derived budget,
* a graceful-degradation ladder (:mod:`repro.analysis.ladder`) behind
  ``degrade``/``deadline_ms``: exact -> baseline -> coarse, each tier on
  a slice of the request budget, plus a daemon-side brownout mode that
  answers from the coarse tier when the queue or breaker indicates
  overload, and priority classes (``interactive``/``batch``) shed
  lowest-first at admission,
* an optional persistent content-addressed result cache
  (:mod:`repro.resultcache`), the service's only replay of earlier
  verdicts, and coalescing of identical concurrent requests onto one
  computation,
* a fingerprint-sharded, health-checked router
  (``python -m repro.service.router``) that spreads requests across
  several daemons and fails idempotent work over to surviving shards.

See ``docs/SERVICE.md`` for the protocol and operational guide,
``docs/CACHE.md`` for the durable cache and ``scripts/chaos_smoke.py``
for the fault-injection proof of the crash-safety claims.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.daemon import AnalysisService, ServiceConfig, serve
from repro.service.pool import AnalysisPool, service_worker
from repro.service.protocol import (
    AnalysisRequest,
    PRIORITIES,
    PROTOCOL_VERSION,
    degraded_response,
    error_response,
    parse_request,
    shed_response,
)
from repro.service.router import RouterConfig, ShardRouter, serve_router

__all__ = [
    "AnalysisPool",
    "AnalysisRequest",
    "AnalysisService",
    "CircuitBreaker",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "RouterConfig",
    "ServiceConfig",
    "ShardRouter",
    "degraded_response",
    "error_response",
    "parse_request",
    "shed_response",
    "serve",
    "serve_router",
    "service_worker",
]
