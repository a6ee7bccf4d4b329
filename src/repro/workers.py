"""The spawn worker pool shared by sweeps and the analysis service.

Sweeps (:class:`repro.experiments.supervisor.SweepSupervisor`) and the
daemon (:class:`repro.service.pool.AnalysisPool`) run their analyses in
worker processes created with the explicit **spawn** start method, so
worker behaviour is identical on Linux and macOS and no worker inherits
the parent's signal handlers, fault flags, journal handles or derived
tables, as ``fork`` would.  This module owns the lifecycle of those
processes:

* :func:`exit_with_parent` — every worker ends once its parent dies;
* :class:`SpawnPool` — one executor at a time, replaced by a
  generation-counted :meth:`SpawnPool.respawn` after a crash or a
  watchdog kill, so concurrent failures respawn it once;
* :func:`watchdog_allowance` — the one budget-derived watchdog formula.

What a failure means — which chunk is guilty, what a client is told —
stays with the callers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, Tuple

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_SECONDS = 0.5

#: Watchdog multiplier on the cooperative budget: work whose budget
#: checkpoints should long have fired is declared hung once it exceeds
#: ``budget x items x factor + grace`` seconds.
WATCHDOG_FACTOR = 4.0

#: Constant watchdog slack absorbing worker spawn and import time.
WATCHDOG_GRACE = 10.0


def exit_with_parent() -> None:
    """Start a daemon thread that ends this pool worker once its parent dies.

    A spawn worker holds both ends of its pool's call-queue pipe, so after
    its parent is SIGKILLed it waits for work forever, and the
    multiprocessing resource tracker, whose pipe it also holds, lives on
    with it.  The thread exits the process as soon as ``os.getppid()`` no
    longer names the parent that spawned the worker.  Every
    :class:`SpawnPool` worker runs it before its own initializer.
    """
    spawner = multiprocessing.parent_process()
    parent = spawner.pid if spawner is not None else os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def watchdog_allowance(budget_seconds: float, items: int = 1) -> float:
    """Wall-clock seconds ``items`` budgeted units may take before a kill.

    Sized so it fires only when cooperative budget aborts have failed (a
    hang between budget checkpoints), never on work its budgets bound.
    """
    return budget_seconds * items * WATCHDOG_FACTOR + WATCHDOG_GRACE


def _init_worker(initializer: Optional[Callable], initargs: Tuple) -> None:
    exit_with_parent()
    if initializer is not None:
        initializer(*initargs)


def _shutdown(executor: ProcessPoolExecutor, kill: bool) -> None:
    """Stop ``executor``; with ``kill``, terminate its workers and wait.

    ``shutdown`` alone never returns while a worker is hung; there is no
    public kill switch, so this reaches for the internal process map
    (stable across CPython 3.9-3.13) with a guard.
    """
    if kill:
        processes = getattr(executor, "_processes", None)
        if processes:
            for process in list(processes.values()):
                process.terminate()
    executor.shutdown(wait=kill, cancel_futures=True)


class SpawnPool:
    """A spawn ``ProcessPoolExecutor`` that is replaced, not repaired.

    Safe to share between threads.  :meth:`submit` reports the generation
    of the executor it used, and :meth:`respawn` replaces the executor only
    while that generation is current, so N threads that saw the same
    failure replace it once.  ``initializer(*initargs)`` runs in every
    worker after :func:`exit_with_parent`.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable] = None,
        initargs: Sequence = (),
    ) -> None:
        self.workers = workers
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._lock = threading.Lock()
        #: Number of respawns so far; names the current executor.
        self.generation = 0
        self._executor = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(self._initializer, self._initargs),
        )

    def submit(self, fn: Callable, *args) -> Tuple[int, Future]:
        """Submit ``fn(*args)``; returns ``(generation, future)``.

        When the executor refuses the call (broken, or shut down by a
        concurrent respawn) this respawns its generation without a kill,
        since its workers are gone, and re-raises the error.
        """
        with self._lock:
            generation, executor = self.generation, self._executor
        try:
            return generation, executor.submit(fn, *args)
        except (BrokenProcessPool, RuntimeError):
            self.respawn(generation, kill=False)
            raise

    def respawn(self, generation: int, kill: bool) -> None:
        """Replace the executor of ``generation``; no-op once it is replaced.

        ``kill`` terminates the old workers and waits for them, the only
        way to stop a hung one.  Without it the old executor is shut down
        without waiting: after a crash its workers are already gone.
        """
        with self._lock:
            if generation != self.generation:
                return  # another caller already respawned it
            self.generation += 1
            old, self._executor = self._executor, self._new_executor()
        _shutdown(old, kill)

    def close(self) -> None:
        """Terminate the current workers and wait for them."""
        with self._lock:
            executor = self._executor
        _shutdown(executor, kill=True)
