"""Long-running batch-analysis service (``python -m repro.service``).

A small, dependency-free daemon that accepts JSON analysis requests over
HTTP, executes them in a supervised worker pool with per-request deadline
budgets (see :mod:`repro.budget`), and degrades gracefully under every
failure mode the resilience layer knows about.  One daemon is the whole
service (``--workers N`` is its only scale), and every request takes one
path: parse, fingerprint, cache, admission, breaker, pool.  The pool is a
one-request client of :class:`repro.workers.SpawnPool`, the spawn
substrate the sweep supervisor runs on too, so the service loads nothing
from :mod:`repro.experiments`:

* request validation mapped onto the :class:`~repro.errors.ModelError` /
  :class:`~repro.errors.AnalysisError` taxonomy (HTTP 400),
* one admission policy (:data:`repro.service.daemon.REFUSALS`): every
  refusal — ``draining`` 503, ``deadline-expired`` 504, ``overload-shed``
  and ``busy`` 429, ``breaker-open`` 503 — comes from one table that
  names its HTTP code, ``shed`` marker, counters and ``Retry-After``,
  and every overload threshold derives from ``--max-in-flight``,
* bounded admission with backpressure (HTTP 429 + ``Retry-After``),
* a circuit breaker around the worker pool that trips after 3 consecutive
  :class:`~repro.errors.WorkerCrashError` or watchdog kills and recovers
  through one half-open probe after a 5 s cool-down (HTTP 503 while open),
* ``/healthz`` / ``/readyz`` / ``/stats`` endpoints wired to
  :class:`~repro.perf.PerfCounters`,
* SIGTERM graceful drain that finishes or quarantines in-flight requests
  before exiting 0,
* end-to-end deadline propagation (``deadline_ms`` in the body or the
  ``X-Deadline-Ms`` header): the daemon subtracts its elapsed time plus
  a 25 ms safety margin, expired requests are shed with a typed 504
  before they touch the pool, and admitted ones run under a
  deadline-derived budget of at least 50 ms,
* every request the pool runs gets the exact analysis under its whole
  budget; the one degraded answer is a daemon-side brownout that serves
  a degradable request (``degrade``, or implicitly ``deadline_ms``) from
  :func:`~repro.analysis.wcrt.coarse_bound` when it takes the last
  admission slot or the breaker is open, and priority classes
  (``interactive``/``batch``) shed lowest-first at admission (``batch``
  once half the slots are taken),
* an optional persistent content-addressed result cache
  (:mod:`repro.resultcache`), the service's only replay of earlier
  verdicts.

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
    read_request,
    refusal_response,
)

__all__ = [
    "AnalysisPool",
    "AnalysisRequest",
    "AnalysisService",
    "CircuitBreaker",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "ServiceConfig",
    "degraded_response",
    "error_response",
    "parse_request",
    "read_request",
    "refusal_response",
    "serve",
    "service_worker",
]
