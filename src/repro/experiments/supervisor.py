"""Fault-tolerant execution of flattened sweep work items.

``ProcessPoolExecutor.map`` — what the sweep engine used before this module
existed — has all-or-nothing semantics: one segfaulting worker, one hung
fixed point or one Ctrl-C surfaces as ``BrokenProcessPool`` and throws away
every completed chunk.  The supervisor replaces it with three recovery
layers, ordered from cheapest to most drastic:

1. **Per-sample isolation.**  Workers catch ordinary exceptions around
   each sample and return them as data (exception class, message,
   traceback digest) instead of letting them abort the chunk.  The
   supervisor retries such samples with capped exponential backoff and
   quarantines them as :class:`SampleFailure` records once the retry
   budget is exhausted.  A failure's ``seed`` is a complete reproducer:
   :func:`repro.experiments.runner.evaluate_sample` with the same
   platform/generation parameters deterministically rebuilds the failing
   task set, which makes quarantine records direct feed for the
   :mod:`repro.verify` corpus.
2. **Hang watchdog.**  With ``settings.timeout`` set, a chunk that
   exceeds its wall-clock budget causes the whole pool to be terminated
   (a hung worker cannot be cancelled any other way).  Guilty chunks go
   through the recovery rule below; innocent in-flight chunks are simply
   resubmitted.
0. **In-process budgets.**  With ``settings.sample_budget`` set, every
   sample's analyses carry a :class:`~repro.budget.Budget` and abort
   *cooperatively* at the next iteration boundary once the per-sample
   wall-clock allowance runs out, surfacing as a typed
   :class:`~repro.errors.BudgetExceeded` instead of hanging until the
   watchdog kills the whole pool.  Budget aborts are deterministic
   properties of the sample (modulo machine speed), so they are
   quarantined immediately with kind ``"budget"`` — no retries — while
   every other sample in the chunk completes normally.  The watchdog
   remains as a *fallback* for non-cooperative hangs (e.g. a bug looping
   between budget checkpoints): when only ``sample_budget`` is set, each
   chunk gets the derived allowance
   :func:`~repro.workers.watchdog_allowance` ``(sample_budget, chunk
   size)`` before the pool is killed.

3. **Crash recovery.**  ``BrokenProcessPool`` (worker died: segfault,
   ``os._exit``, OOM kill) triggers a pool respawn.  The executor cannot
   say *which* worker died, so retry budget is charged only when guilt
   is unambiguous — exactly one in-flight chunk was lost to the death.
   When several chunks were lost together, all of them become
   *suspects* and are re-executed one at a time in a fresh pool, so the
   next death names its culprit.  A guilty multi-sample chunk is then
   *bisected*: split in half and both halves re-run in isolation, so
   the poison sample is cornered in O(log chunk) pool respawns while
   every innocent sample completes normally.  A single-sample chunk
   that keeps killing workers is quarantined.

The supervisor is deliberately generic: it executes a picklable
``evaluate`` callable over :class:`WorkItem`\\ s and neither imports nor
knows about the per-figure modules.  With ``jobs >= 2`` chunks run in the
spawn workers of a :class:`~repro.workers.SpawnPool`, the substrate the
analysis service uses too.  With ``jobs == 1`` the same supervision loop
runs each chunk in this process at submission: its result is ready before
the loop waits on it, so the watchdog and crash recovery never fire, and
SIGINT/SIGTERM are honoured between chunks.

Completed items are checkpointed to an optional
:class:`~repro.experiments.journal.RunJournal` the moment their chunk
returns, and SIGINT/SIGTERM are converted into a clean
:class:`~repro.errors.SweepInterrupted` after the journal is flushed, so
an interrupted campaign resumes bit-identically.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import signal
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.budget import Budget
from repro.errors import AnalysisAborted, SweepInterrupted
from repro.experiments.config import SweepSettings
from repro.experiments.faults import SweepFault, trigger_sweep_fault
from repro.experiments.journal import RunJournal
from repro.perf import PerfCounters, merge_global
from repro.workers import SpawnPool, watchdog_allowance

#: Journal/result key of one work item: ``(point_index, sample_index)``.
ItemKey = Tuple[int, int]

#: ``(weight, per-variant verdicts)`` — the raw payload of one outcome.
ItemResult = Tuple[float, Tuple[bool, ...]]

#: First backoff sleep before a retry, seconds; doubles per attempt.
BACKOFF_BASE = 0.05

#: Upper bound on any single backoff sleep, seconds.
BACKOFF_CAP = 2.0

#: Poll granularity of the supervision loop, seconds.  Bounds both the
#: watchdog's detection latency and the reaction time to SIGINT/SIGTERM.
_WAIT_TICK = 0.2


@dataclass(frozen=True)
class WorkItem:
    """One flattened ``(point, sample)`` unit of sweep work."""

    point: int
    sample: int
    utilization: float
    seed: int

    @property
    def key(self) -> ItemKey:
        """Journal/result key of this item."""
        return (self.point, self.sample)


@dataclass(frozen=True)
class SampleFailure:
    """A quarantined work item and everything needed to reproduce it.

    ``kind`` is the failure taxonomy used throughout the resilience layer:
    ``"exception"`` (the analysis raised), ``"crash"`` (the worker process
    died), ``"hang"`` (the chunk exceeded the watchdog's wall-clock
    allowance) or ``"budget"`` (the sample's in-process
    :class:`~repro.budget.Budget` ran out and the analysis aborted
    cooperatively — never retried).  The
    ``seed`` is a complete reproducer — re-running
    ``evaluate_sample(platform, utilization, variants, generation, seed)``
    deterministically rebuilds the poison task set.
    """

    point: int
    sample: int
    utilization: float
    seed: int
    kind: str
    exception: str
    message: str
    traceback_digest: str
    attempts: int

    def to_record(self) -> Dict:
        """Plain-dict form for the run journal."""
        return {
            "point": self.point,
            "sample": self.sample,
            "utilization": self.utilization,
            "seed": self.seed,
            "failure": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
        }

    @classmethod
    def from_record(cls, record: Dict) -> "SampleFailure":
        """Inverse of :meth:`to_record` (used on journal resume)."""
        return cls(
            point=int(record["point"]),
            sample=int(record["sample"]),
            utilization=float(record["utilization"]),
            seed=int(record["seed"]),
            kind=str(record.get("failure", "exception")),
            exception=str(record.get("exception", "")),
            message=str(record.get("message", "")),
            traceback_digest=str(record.get("traceback_digest", "")),
            attempts=int(record.get("attempts", 0)),
        )

    def describe(self) -> str:
        """One-line human-readable summary with the reproducer seed."""
        detail = f": {self.message}" if self.message else ""
        return (
            f"{self.kind} at point {self.point} sample {self.sample} "
            f"(utilization {self.utilization}, reproducer seed {self.seed}, "
            f"{self.attempts} attempt(s)) — {self.exception}{detail}"
        )


def _digest(text: str) -> str:
    """Short stable digest used to correlate identical tracebacks."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_chunk(state: Tuple, chunk) -> Tuple[List[Tuple], PerfCounters]:
    """Evaluate one chunk of ``(item, attempt)`` pairs.

    ``state`` is the sweep's shared ``(evaluate, platform, variants,
    generation, fault, sample_budget)``.  Ordinary exceptions are
    captured per sample — this function is the per-sample isolation
    boundary — while crashes and hangs by their nature escape it and are
    handled by the supervisor.  With a per-sample budget each item gets a
    fresh :class:`~repro.budget.Budget`; a cooperative abort is reported
    as a ``"budget"`` record so the supervisor can quarantine it without
    charging retries.  Returns the result list plus the chunk's perf
    counters for the parent to merge.
    """
    evaluate, platform, variants, generation, fault, sample_budget = state
    perf = PerfCounters()
    results: List[Tuple] = []
    for item, attempt in chunk:
        budget = (
            Budget(wall_seconds=sample_budget)
            if sample_budget is not None
            else None
        )
        try:
            trigger_sweep_fault(fault, item.point, item.sample, attempt)
            weight, verdicts = evaluate(
                platform, item.utilization, variants, generation, item.seed,
                perf, budget,
            )
            results.append(("ok", item.key, weight, tuple(verdicts)))
        except AnalysisAborted as abort:
            results.append(
                (
                    "budget",
                    item.key,
                    type(abort).__name__,
                    str(abort),
                    _digest(traceback.format_exc()),
                )
            )
        except Exception as error:  # noqa: BLE001 — the isolation boundary
            results.append(
                (
                    "err",
                    item.key,
                    type(error).__name__,
                    str(error),
                    _digest(traceback.format_exc()),
                )
            )
    return results, perf


#: Worker-resident sweep state, installed once per worker process by
#: :func:`_worker_init` so per-chunk submissions carry only the chunk
#: payload instead of re-pickling the shared state with every chunk.
_WORKER_STATE: Optional[Tuple] = None


def _worker_init(state: Tuple) -> None:
    """Pool initializer: park the sweep's shared state in the worker."""
    global _WORKER_STATE
    _WORKER_STATE = state


def run_resident_chunk(payload):
    """Worker-side chunk entry using the resident state of :func:`_worker_init`.

    Together with the process-global
    :func:`~repro.experiments.stateplane.resident_plane` the worker keeps
    between chunks (task sets, compiled interference tables, warm-start
    seeds), this makes workers stateful across chunks while leaving
    every recovery path untouched: a respawned pool simply re-runs
    :func:`_worker_init` and starts with an empty plane.
    """
    return run_chunk(_WORKER_STATE, payload)


class _InProcessPool:
    """The ``jobs == 1`` stand-in for a :class:`~repro.workers.SpawnPool`.

    ``submit`` runs the call here and now and hands back a finished
    future, so the supervision loop absorbs it before any watchdog or
    crash check; an exception the call raises propagates to the caller.
    """

    generation = 0

    @staticmethod
    def submit(fn: Callable, *args) -> Tuple[int, Future]:
        future: Future = Future()
        future.set_result(fn(*args))
        return 0, future

    @staticmethod
    def close() -> None:
        """Nothing to release."""


def chunked(
    items: Sequence[WorkItem], jobs: int
) -> List[Tuple[WorkItem, ...]]:
    """Split the flat item list into contiguous, load-balancing chunks.

    Chunk sizes are *guided*: within each point the leading chunks are
    large (``remaining / (2 x jobs)``) and later ones shrink towards a
    floor, so the leading chunks amortise each submission and counter
    merge over many samples while the tail stays fine-grained enough for
    the work-stealing split in
    :meth:`SweepSupervisor._run_supervised` to even out stragglers.
    Chunks never span sweep points: each point's samples are split on
    their own, the chunk shape the ``fig2-jobs2`` perfbench workload
    measures.  Chunk boundaries are not part of the journal
    fingerprint — per-sample seeds make any partitioning (including the
    adaptive sizes and any stealing splits) bit-identical and any journal
    resumable under a different ``jobs`` value.
    """
    jobs = max(jobs, 1)
    chunks: List[Tuple[WorkItem, ...]] = []
    for _point, group in itertools.groupby(items, key=lambda item: item.point):
        point_items = tuple(group)
        floor = max(1, -(-len(point_items) // (jobs * 8)))
        start = 0
        while start < len(point_items):
            remaining = len(point_items) - start
            size = max(floor, remaining // (jobs * 2))
            chunks.append(point_items[start : start + size])
            start += size
    return chunks


class SweepSupervisor:
    """Resilient executor for one sweep's work items.

    Parameters mirror the worker contract: ``evaluate`` must be a
    module-level (picklable) callable with the signature
    ``evaluate(platform, utilization, variants, generation, seed, perf,
    budget) -> (weight, verdicts)`` where ``budget`` is the item's
    :class:`~repro.budget.Budget` or ``None`` when
    ``settings.sample_budget`` is unset.  ``journal`` (optional)
    receives every completed or quarantined item as it happens;
    ``fault`` (optional) carries a deterministic
    :class:`~repro.experiments.faults.SweepFault` into the workers for
    recovery-path testing.
    """

    def __init__(
        self,
        evaluate: Callable,
        platform,
        variants,
        generation,
        settings: SweepSettings,
        journal: Optional[RunJournal] = None,
        fault: Optional[SweepFault] = None,
    ) -> None:
        self.evaluate = evaluate
        self.platform = platform
        self.variants = tuple(variants)
        self.generation = generation
        self.settings = settings
        self.journal = journal
        self.fault = fault
        self._stop_signal: Optional[int] = None

    # -- public entry point --------------------------------------------------

    def run(
        self, items: Sequence[WorkItem]
    ) -> Tuple[Dict[ItemKey, ItemResult], List[SampleFailure]]:
        """Execute ``items``, returning completed results and quarantines.

        Completed results map ``(point, sample)`` to ``(weight,
        verdicts)``; the failure list holds one :class:`SampleFailure` per
        quarantined item.  Raises
        :class:`~repro.errors.SweepInterrupted` on SIGINT/SIGTERM after
        flushing the journal.
        """
        if not items:
            return {}, []
        with self._interruptible():
            return self._run_supervised(items)

    # -- supervised execution -------------------------------------------------

    def _run_supervised(
        self, items: Sequence[WorkItem]
    ) -> Tuple[Dict[ItemKey, ItemResult], List[SampleFailure]]:
        state = (
            self.evaluate, self.platform, self.variants, self.generation,
            self.fault, self.settings.sample_budget,
        )
        if self.settings.jobs == 1:
            pool, task = _InProcessPool(), functools.partial(run_chunk, state)
        else:
            # The initializer parks the shared state in each worker (see
            # _worker_init) so chunk submissions ship only item payloads.
            pool = SpawnPool(self.settings.jobs, _worker_init, (state,))
            task = run_resident_chunk
        # Generation of the executor every in-flight chunk was submitted to.
        generation = pool.generation
        completed: Dict[ItemKey, ItemResult] = {}
        failures: List[SampleFailure] = []
        attempts: Dict[ItemKey, int] = {item.key: 0 for item in items}
        by_key: Dict[ItemKey, WorkItem] = {item.key: item for item in items}
        supervisor_perf = PerfCounters()
        ready: Deque[Tuple[WorkItem, ...]] = deque(chunked(items, self.settings.jobs))
        # Chunks implicated in an ambiguous pool death: re-run one at a
        # time (nothing else in flight) so the next death names its culprit.
        suspects: Deque[Tuple[WorkItem, ...]] = deque()
        delayed: List[Tuple[float, int, Tuple[WorkItem, ...]]] = []
        tiebreak = itertools.count()
        futures: Dict = {}
        try:
            while ready or suspects or delayed or futures:
                self._check_interrupt()
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, chunk = heapq.heappop(delayed)
                    ready.append(chunk)
                broken = False
                broken_chunks: List[Tuple[WorkItem, ...]] = []
                # Keep at most ``jobs`` chunks in flight so a submitted
                # chunk starts running immediately and the watchdog clock
                # (measured from submission) reflects actual run time.
                while len(futures) < self.settings.jobs:
                    solo = bool(suspects)
                    if solo:
                        if futures:
                            break  # drain the pool before isolating one
                        chunk = suspects.popleft()
                    elif ready:
                        chunk = ready.popleft()
                        # Tail work stealing: when fewer queued chunks
                        # remain than idle workers, split this chunk so a
                        # straggler's samples spread over the idle slots.
                        # Splits stay inside the chunk's sweep point and
                        # per-sample seeds make any partitioning
                        # bit-identical, so journals and --resume are
                        # unaffected.
                        idle_after = self.settings.jobs - len(futures) - 1
                        if idle_after > len(ready) and len(chunk) > 1:
                            mid = len(chunk) // 2
                            ready.append(chunk[mid:])
                            chunk = chunk[:mid]
                            supervisor_perf.chunks_stolen += 1
                    else:
                        break
                    payload = tuple(
                        (item, attempts[item.key]) for item in chunk
                    )
                    try:
                        generation, future = pool.submit(task, payload)
                    except BrokenProcessPool:
                        (suspects if solo else ready).appendleft(chunk)
                        broken = True
                        break
                    futures[future] = (chunk, time.monotonic())
                    if solo:
                        break  # exactly one suspect in flight
                if not broken and not futures:
                    # Everything is waiting out a backoff delay.
                    pause = max(0.0, delayed[0][0] - time.monotonic())
                    time.sleep(min(pause, _WAIT_TICK))
                    continue
                if not broken:
                    done, _ = wait(
                        set(futures),
                        timeout=_WAIT_TICK,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        chunk, _submitted = futures.pop(future)
                        broken |= not self._absorb_future(
                            future,
                            chunk,
                            completed,
                            failures,
                            attempts,
                            by_key,
                            delayed,
                            tiebreak,
                            broken_chunks,
                        )
                if broken:
                    self._recover_broken_pool(
                        pool,
                        generation,
                        futures,
                        broken_chunks,
                        completed,
                        failures,
                        attempts,
                        by_key,
                        suspects,
                        delayed,
                        tiebreak,
                    )
                    continue
                if (
                    self.settings.timeout is not None
                    or self.settings.sample_budget is not None
                ):
                    self._enforce_timeout(
                        pool,
                        generation,
                        futures,
                        completed,
                        failures,
                        attempts,
                        by_key,
                        ready,
                        delayed,
                        tiebreak,
                    )
        finally:
            pool.close()
        merge_global(supervisor_perf)
        return completed, failures

    # -- helpers -------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff before the ``attempt``-th retry."""
        return min(BACKOFF_BASE * (2 ** (attempt - 1)), BACKOFF_CAP)

    def _chunk_allowance(self, chunk: Tuple[WorkItem, ...]) -> Optional[float]:
        """Wall-clock seconds this chunk may run before the watchdog fires.

        ``settings.timeout`` wins when set (explicit per-chunk budget);
        otherwise a generous fallback is derived from the in-process
        sample budget, sized so it can only fire when cooperative aborts
        have failed (a hang between budget checkpoints).  ``None``
        disables the watchdog for this chunk.
        """
        if self.settings.timeout is not None:
            return self.settings.timeout
        if self.settings.sample_budget is not None:
            return watchdog_allowance(self.settings.sample_budget, len(chunk))
        return None

    def _complete(
        self,
        key: ItemKey,
        weight: float,
        verdicts: Tuple[bool, ...],
        completed: Dict[ItemKey, ItemResult],
    ) -> None:
        completed[key] = (weight, verdicts)
        if self.journal is not None:
            self.journal.record_sample(key[0], key[1], weight, verdicts)

    def _quarantine(
        self,
        item: WorkItem,
        kind: str,
        exception: str,
        message: str,
        digest: str,
        attempts: int,
        failures: List[SampleFailure],
    ) -> None:
        failure = SampleFailure(
            point=item.point,
            sample=item.sample,
            utilization=item.utilization,
            seed=item.seed,
            kind=kind,
            exception=exception,
            message=message,
            traceback_digest=digest,
            attempts=attempts,
        )
        failures.append(failure)
        if self.journal is not None:
            self.journal.record_failure(failure.to_record())
        print(
            f"repro-experiments: warning: quarantined {failure.describe()}",
            file=sys.stderr,
        )

    def _retry_or_quarantine(
        self,
        item: WorkItem,
        kind: str,
        exception: str,
        message: str,
        digest: str,
        attempts: Dict[ItemKey, int],
        failures: List[SampleFailure],
        delayed: List,
        tiebreak,
    ) -> None:
        """Account one failed execution of ``item`` and decide its fate."""
        attempts[item.key] += 1
        if attempts[item.key] > self.settings.retries:
            self._quarantine(
                item, kind, exception, message, digest, attempts[item.key], failures
            )
        else:
            not_before = time.monotonic() + self._backoff_delay(attempts[item.key])
            heapq.heappush(delayed, (not_before, next(tiebreak), (item,)))

    def _absorb_future(
        self,
        future,
        chunk: Tuple[WorkItem, ...],
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        delayed: List,
        tiebreak,
        broken_chunks: List[Tuple[WorkItem, ...]],
    ) -> bool:
        """Fold one finished future into the run state.

        Returns ``False`` when the future died with the pool — its chunk
        is parked in ``broken_chunks`` for the caller's crash recovery,
        which decides guilt from how many chunks died together.  Returns
        ``True`` otherwise.
        """
        try:
            results, perf = future.result()
        except BrokenProcessPool:
            broken_chunks.append(chunk)
            return False
        except Exception as error:  # noqa: BLE001 — infrastructure failure
            # Not a pool death (e.g. the chunk payload failed to pickle):
            # the pool is still alive, so recover just this chunk.
            self._recover_chunk(
                chunk, "crash", attempts, failures, None, delayed, tiebreak,
                message=f"{type(error).__name__}: {error}",
            )
            return True
        merge_global(perf)
        for result in results:
            if result[0] == "ok":
                _, key, weight, verdicts = result
                self._complete(key, weight, verdicts, completed)
            elif result[0] == "budget":
                # Deterministic in-process abort: quarantine immediately,
                # retries would only re-spend the same budget.
                _, key, exception, message, digest = result
                attempts[key] += 1
                self._quarantine(
                    by_key[key], "budget", exception, message, digest,
                    attempts[key], failures,
                )
            else:
                _, key, exception, message, digest = result
                self._retry_or_quarantine(
                    by_key[key],
                    "exception",
                    exception,
                    message,
                    digest,
                    attempts,
                    failures,
                    delayed,
                    tiebreak,
                )
        return True

    def _recover_chunk(
        self,
        chunk: Tuple[WorkItem, ...],
        kind: str,
        attempts: Dict[ItemKey, int],
        failures: List[SampleFailure],
        target: Optional[Deque],
        delayed: List,
        tiebreak,
        message: str = "",
    ) -> None:
        """Bisect-or-quarantine rule for a chunk guilty of a crash or hang.

        A multi-item chunk is split in half (no retry budget consumed —
        innocent samples must not be punished for sharing a chunk with a
        poison one) and both halves go to ``target`` (the suspects queue
        for crashes, so they re-run in isolation; the ready queue for
        hangs, where per-future deadlines keep guilt unambiguous); a
        single-item chunk consumes one retry and is eventually
        quarantined with ``kind``.
        """
        if len(chunk) > 1:
            mid = len(chunk) // 2
            for half in (chunk[:mid], chunk[mid:]):
                if target is not None:
                    target.append(half)
                else:
                    heapq.heappush(
                        delayed, (time.monotonic(), next(tiebreak), half)
                    )
            return
        exception = "WorkerCrashError" if kind == "crash" else "ChunkTimeoutError"
        if kind == "crash":
            default_message = "worker process died while evaluating this sample"
        else:
            allowance = self._chunk_allowance(chunk)
            default_message = (
                f"chunk exceeded its {allowance}s wall-clock allowance"
            )
        self._retry_or_quarantine(
            chunk[0],
            kind,
            exception,
            message or default_message,
            "",
            attempts,
            failures,
            delayed,
            tiebreak,
        )

    def _recover_broken_pool(
        self,
        pool: SpawnPool,
        generation: int,
        futures: Dict,
        broken_chunks: List[Tuple[WorkItem, ...]],
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        suspects: Deque,
        delayed: List,
        tiebreak,
    ) -> None:
        """Drain a broken pool, attribute guilt, and respawn it.

        Chunks that still completed are absorbed normally.  If exactly
        one chunk was lost to the death, guilt is unambiguous and it goes
        through the bisect-or-quarantine rule; if several were lost
        together, the executor cannot say which worker died, so all of
        them become suspects — re-executed one at a time, uncharged, so
        innocent samples are never punished for sharing a pool with a
        poison one.
        """
        for future, (chunk, _submitted) in list(futures.items()):
            self._absorb_future(
                future, chunk, completed, failures, attempts, by_key,
                delayed, tiebreak, broken_chunks,
            )
        futures.clear()
        pool.respawn(generation, kill=False)
        if len(broken_chunks) == 1:
            self._recover_chunk(
                broken_chunks[0], "crash", attempts, failures, suspects,
                delayed, tiebreak,
            )
        else:
            suspects.extend(broken_chunks)
        broken_chunks.clear()

    def _enforce_timeout(
        self,
        pool: SpawnPool,
        generation: int,
        futures: Dict,
        completed: Dict[ItemKey, ItemResult],
        failures: List[SampleFailure],
        attempts: Dict[ItemKey, int],
        by_key: Dict[ItemKey, WorkItem],
        ready: Deque,
        delayed: List,
        tiebreak,
    ) -> None:
        """Kill the pool if any in-flight chunk exceeded its allowance."""
        now = time.monotonic()
        overdue = set()
        for future, (chunk, submitted) in futures.items():
            allowance = self._chunk_allowance(chunk)
            if allowance is not None and now - submitted > allowance:
                overdue.add(future)
        if not overdue:
            return
        pool.respawn(generation, kill=True)
        for future, (chunk, _submitted) in list(futures.items()):
            if future in overdue:
                self._recover_chunk(
                    chunk, "hang", attempts, failures, ready, delayed, tiebreak
                )
            elif future.done() and future.exception() is None:
                # Completed in the window between the wait and the kill.
                self._absorb_future(
                    future, chunk, completed, failures, attempts, by_key,
                    delayed, tiebreak, [],
                )
            else:
                # Innocent collateral of the pool kill: resubmit as-is.
                ready.append(chunk)
        futures.clear()

    # -- interrupt handling ---------------------------------------------------

    @contextmanager
    def _interruptible(self) -> Iterator[None]:
        """Convert SIGINT/SIGTERM into a polled stop flag for the run.

        Only possible from the main thread; elsewhere the default signal
        behaviour is left untouched.
        """
        self._stop_signal = None
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def _handler(signum, _frame):
            self._stop_signal = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _check_interrupt(self) -> None:
        if self._stop_signal is None:
            return
        name = signal.Signals(self._stop_signal).name
        if self.journal is not None:
            hint = (
                f"journal flushed to {self.journal.path}; "
                f"re-run with --resume to continue"
            )
        else:
            hint = "partial results discarded (no --journal directory was given)"
        raise SweepInterrupted(f"sweep interrupted by {name}; {hint}")
