"""Worker pool executing one analysis request per submission.

Requests run in the spawn workers of a :class:`~repro.workers.SpawnPool`,
the substrate the sweep supervisor uses too.  Two protection layers wrap
every execution:

1. The request's own :class:`~repro.budget.Budget` (deadline seconds
   and/or iteration ceiling) aborts the analysis *cooperatively* at the
   next iteration boundary — the worker survives and returns a typed
   ``budget-exceeded`` / ``cancelled`` response.
2. A watchdog **fallback** derived from that budget
   (:func:`~repro.workers.watchdog_allowance`) kills and respawns the
   pool if a worker hangs between budget checkpoints, surfacing as
   :class:`~repro.errors.ChunkTimeoutError`.  A worker that dies outright
   surfaces as :class:`~repro.errors.WorkerCrashError`.  Both feed the
   daemon's circuit breaker.

The pool is shared by the daemon's request-handler threads; the spawn
pool's generation counter makes concurrent failures respawn it once, not
once per waiter.
"""

from __future__ import annotations

import os
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Tuple

from repro.analysis.ladder import (
    SOUND_UNKNOWN,
    TIER_EXACT,
    run_ladder,
)
from repro.analysis.wcrt import analyze_taskset
from repro.budget import Budget
from repro.errors import (
    AnalysisAborted,
    BudgetExceeded,
    ChunkTimeoutError,
    WorkerCrashError,
)
from repro.perf import PerfCounters
from repro.service.protocol import (
    AnalysisRequest,
    abort_response,
    degraded_response,
    error_response,
    exhausted_response,
    ok_response,
)
from repro.workers import SpawnPool, watchdog_allowance

#: Exit status of the test-only "crash" injection (mirrors SIGABRT deaths).
CRASH_EXIT_STATUS = 134


def service_worker(request: AnalysisRequest) -> Tuple[Dict, PerfCounters]:
    """Execute one parsed request (worker side).

    Top-level so it pickles by reference into spawn workers.  The daemon
    validated and parsed the request and set its effective budget and
    deadline; it arrives pickled, its task set rebuilt around the
    unpickled tasks, so the worker parses nothing.  Each request analyses
    its own task set: repeats are served by the daemon's result cache,
    never by state kept in the worker.  Returns ``(response document,
    perf counters)`` — analysis failures of every kind are *data* in the
    response, never exceptions, so the only exceptional outcomes the
    parent sees are real worker deaths.
    """
    perf = PerfCounters()
    budget: Optional[Budget] = None
    if request.budget_seconds is not None or request.max_iterations is not None:
        budget = Budget(
            wall_seconds=request.budget_seconds,
            max_iterations=request.max_iterations,
        )
    if request.inject == "crash":
        # TEST ONLY: die like a segfaulting worker would.
        os._exit(CRASH_EXIT_STATUS)
    try:
        if request.inject == "hang":
            # TEST ONLY: a *cooperative* hang — spins forever but keeps
            # ticking its budget, so a budgeted request aborts cleanly
            # while an unbudgeted one exercises the watchdog fallback.
            if budget is not None:
                budget.start()
            while True:
                if budget is not None:
                    budget.tick()
        # The degradation ladder engages when the daemon (or the caller)
        # asked for it and there is a budget to degrade under; without
        # pressure the exact path runs exactly as before, bit for bit.
        if budget is not None and request.degradable:
            outcome = run_ladder(
                request.taskset,
                request.platform,
                request.config,
                budget=budget,
                perf=perf,
            )
            if outcome.soundness != SOUND_UNKNOWN:
                if outcome.tier == TIER_EXACT:
                    return ok_response(request.request_id, outcome.result), perf
                perf.degraded_responses += 1
                return (
                    degraded_response(
                        request.request_id,
                        outcome.result,
                        outcome.tier,
                        outcome.soundness,
                        outcome.tiers_tried,
                    ),
                    perf,
                )
            abort = outcome.abort
            if abort is None:  # pragma: no cover - defensive
                abort = BudgetExceeded(
                    "analysis budget exhausted before any ladder tier "
                    "completed"
                )
                abort.iterations = budget.iterations
                abort.elapsed = budget.elapsed()
            return (
                exhausted_response(
                    request.request_id, abort, outcome.tiers_tried
                ),
                perf,
            )
        result = analyze_taskset(
            request.taskset,
            request.platform,
            request.config,
            perf=perf,
            budget=budget,
        )
        return ok_response(request.request_id, result), perf
    except AnalysisAborted as abort:
        return abort_response(request.request_id, abort), perf
    except Exception as error:  # noqa: BLE001 — isolate analysis failures
        return error_response(request.request_id, error), perf


class AnalysisPool:
    """One-request client of a :class:`~repro.workers.SpawnPool`."""

    def __init__(
        self, workers: int = 1, default_watchdog: Optional[float] = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        #: Watchdog allowance for requests with no budget of their own
        #: (``None`` = wait forever — only their cooperative budget, if
        #: any, bounds them).
        self.default_watchdog = default_watchdog
        self._pool = SpawnPool(workers)

    def run(self, request: AnalysisRequest) -> Tuple[Dict, PerfCounters]:
        """Execute one parsed request, enforcing the watchdog.

        Raises :class:`~repro.errors.WorkerCrashError` when the worker
        process died and :class:`~repro.errors.ChunkTimeoutError` when the
        watchdog allowance expired (the pool is killed and respawned —
        a hung worker cannot be cancelled any other way).
        """
        allowance = (
            self.default_watchdog
            if request.budget_seconds is None
            else watchdog_allowance(request.budget_seconds)
        )
        try:
            generation, future = self._pool.submit(service_worker, request)
        except (BrokenProcessPool, RuntimeError) as error:
            raise WorkerCrashError(
                f"worker pool was broken at submission: {error}"
            ) from None
        try:
            return future.result(timeout=allowance)
        except FutureTimeout:
            self._pool.respawn(generation, kill=True)
            raise ChunkTimeoutError(
                f"request exceeded its {allowance:.1f}s watchdog allowance "
                f"(cooperative budget checkpoints never fired)"
            ) from None
        except BrokenProcessPool:
            self._pool.respawn(generation, kill=False)
            raise WorkerCrashError(
                "worker process died while executing this request"
            ) from None

    def close(self) -> None:
        """Terminate the pool (used on daemon shutdown)."""
        self._pool.close()
