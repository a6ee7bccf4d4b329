"""Supervised worker pool executing one analysis request per submission.

Requests run in **spawn** worker processes (same rationale as the sweep
supervisor: identical semantics on Linux/macOS, no inherited state).  Two
protection layers wrap every execution:

1. The request's own :class:`~repro.budget.Budget` (deadline seconds
   and/or iteration ceiling) aborts the analysis *cooperatively* at the
   next iteration boundary — the worker survives and returns a typed
   ``budget-exceeded`` / ``cancelled`` response.
2. A watchdog **fallback** derived from that budget
   (``budget x`` :data:`WATCHDOG_FACTOR` ``+`` :data:`WATCHDOG_GRACE`)
   kills and respawns the pool if a worker hangs between budget
   checkpoints, surfacing as
   :class:`~repro.errors.ChunkTimeoutError`.  A worker that dies outright
   surfaces as :class:`~repro.errors.WorkerCrashError`.  Both feed the
   daemon's circuit breaker.

The pool is shared by the daemon's request-handler threads; respawning
after a kill is serialised through a generation counter so concurrent
failures respawn the pool once, not once per waiter.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
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
from repro.experiments.supervisor import exit_with_parent
from repro.perf import PerfCounters
from repro.service.protocol import (
    abort_response,
    degraded_response,
    error_response,
    ok_response,
    parse_request,
)

#: Watchdog allowance = budget seconds x factor + grace (see module doc).
WATCHDOG_FACTOR = 4.0

#: Constant watchdog slack absorbing worker spawn and import time.
WATCHDOG_GRACE = 10.0

#: Exit status of the test-only "crash" injection (mirrors SIGABRT deaths).
CRASH_EXIT_STATUS = 134


def service_worker(document: Dict) -> Tuple[Dict, PerfCounters]:
    """Execute one raw request document (worker side).

    Top-level so it pickles by reference into spawn workers.  The document
    was already validated by the daemon; it is re-parsed here because the
    worker is a separate process and the model objects do not travel.
    Each request analyses the task set it parsed: repeats are served by
    the daemon's result cache, never by state kept in the worker.
    Returns ``(response document, perf counters)`` — analysis failures of
    every kind are *data* in the response, never exceptions, so the only
    exceptional outcomes the parent sees are real worker deaths.
    """
    perf = PerfCounters()
    try:
        request = parse_request(document)
    except Exception as error:  # noqa: BLE001 — isolate validation failures
        request_id = document.get("id", "") if isinstance(document, dict) else ""
        return error_response(request_id, error), perf
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
        use_ladder = (
            budget is not None
            and (
                request.degrade
                if request.degrade is not None
                else request.deadline_ms is not None
            )
        )
        if use_ladder:
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
            body = abort_response(request.request_id, abort)
            body["degraded"] = {
                "tier": None,
                "soundness": SOUND_UNKNOWN,
                "tiers_tried": list(outcome.tiers_tried),
            }
            return body, perf
        result = analyze_taskset(
            request.taskset,
            request.platform,
            request.config,
            perf=perf,
            budget=budget,
        )
    except AnalysisAborted as abort:
        return abort_response(request.request_id, abort), perf
    except Exception as error:  # noqa: BLE001 — isolate analysis failures
        return error_response(request.request_id, error), perf
    return ok_response(request.request_id, result), perf


class AnalysisPool:
    """Spawn-based worker pool with a per-request watchdog fallback."""

    def __init__(
        self,
        workers: int = 1,
        watchdog_factor: float = WATCHDOG_FACTOR,
        watchdog_grace: float = WATCHDOG_GRACE,
        default_watchdog: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.watchdog_factor = watchdog_factor
        self.watchdog_grace = watchdog_grace
        #: Watchdog allowance for requests with no budget of their own
        #: (``None`` = wait forever — only their cooperative budget, if
        #: any, bounds them).
        self.default_watchdog = default_watchdog
        self._lock = threading.Lock()
        self._generation = 0
        self._executor = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=exit_with_parent,
        )

    def allowance_for(self, budget_seconds: Optional[float]) -> Optional[float]:
        """Watchdog seconds for a request with the given budget."""
        if budget_seconds is None:
            return self.default_watchdog
        return budget_seconds * self.watchdog_factor + self.watchdog_grace

    def run(self, document: Dict) -> Tuple[Dict, PerfCounters]:
        """Execute one validated request document, enforcing the watchdog.

        Raises :class:`~repro.errors.WorkerCrashError` when the worker
        process died and :class:`~repro.errors.ChunkTimeoutError` when the
        watchdog allowance expired (the pool is killed and respawned —
        a hung worker cannot be cancelled any other way).
        """
        allowance = self.allowance_for(document.get("budget_seconds"))
        with self._lock:
            generation = self._generation
            executor = self._executor
        try:
            future = executor.submit(service_worker, document)
        except (BrokenProcessPool, RuntimeError) as error:
            self._respawn(generation, kill=False)
            raise WorkerCrashError(
                f"worker pool was broken at submission: {error}"
            ) from None
        try:
            return future.result(timeout=allowance)
        except FutureTimeout:
            self._respawn(generation, kill=True)
            raise ChunkTimeoutError(
                f"request exceeded its {allowance:.1f}s watchdog allowance "
                f"(cooperative budget checkpoints never fired)"
            ) from None
        except BrokenProcessPool:
            self._respawn(generation, kill=False)
            raise WorkerCrashError(
                "worker process died while executing this request"
            ) from None

    def _respawn(self, generation: int, kill: bool) -> None:
        """Replace the executor once per failure generation."""
        with self._lock:
            if self._generation != generation:
                return  # another thread already respawned it
            self._generation += 1
            old = self._executor
            self._executor = self._new_executor()
        self._shutdown(old, kill=kill)

    @staticmethod
    def _shutdown(executor: ProcessPoolExecutor, kill: bool) -> None:
        if kill:
            processes = getattr(executor, "_processes", None)
            if processes:
                for process in list(processes.values()):
                    process.terminate()
        executor.shutdown(wait=kill, cancel_futures=True)

    def close(self) -> None:
        """Terminate the pool (used on daemon shutdown)."""
        with self._lock:
            executor = self._executor
        self._shutdown(executor, kill=True)
