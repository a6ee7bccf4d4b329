"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """An entity of the system model (task, task set, platform) is invalid."""


class AnalysisError(ReproError):
    """A schedulability analysis was configured or invoked incorrectly."""


class ConvergenceError(AnalysisError):
    """A fixed-point iteration exceeded its iteration budget.

    Failing to converge within the configured bound almost always means
    the task set is wildly over-utilised; the analyses treat that as
    "unschedulable" rather than raising, and this error is reserved for
    misconfiguration (e.g. a zero iteration limit).
    """


class AnalysisAborted(AnalysisError):
    """An analysis stopped cooperatively at an iteration boundary.

    Base class of :class:`BudgetExceeded`.  The abort is *typed data*,
    not a crash: :attr:`partial` carries the estimates reached so far (a
    ``WcrtResult`` with ``schedulable=False`` when the abort happened
    inside the WCRT kernel, ``None`` for aborts in budget-only layers
    such as the simulator), :attr:`iterations` the budget ticks spent and
    :attr:`elapsed` the wall-clock seconds consumed.  All shared caches
    (derived interference tables, calculator caches, warm-start seeds)
    are left in a state where a rerun is bit-identical to a cold run —
    see :mod:`repro.budget`.
    """

    def __init__(self, message: str = "") -> None:
        super().__init__(message)
        #: Partial ``WcrtResult`` reached when the abort fired (if any).
        self.partial = None
        #: Budget ticks consumed when the abort fired.
        self.iterations = 0
        #: Wall-clock seconds consumed when the abort fired.
        self.elapsed = 0.0


class BudgetExceeded(AnalysisAborted):
    """The analysis ran out of its wall-clock or iteration budget."""


class ProgramError(ReproError):
    """A synthetic program model (CFG) is structurally invalid."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class GenerationError(ReproError):
    """Random task-set generation received unsatisfiable parameters."""


class ExecutionError(ReproError):
    """The resilient sweep-execution layer failed outside of the analysis.

    Base class for errors of :mod:`repro.experiments.supervisor` and
    :mod:`repro.experiments.journal`: worker-pool management, checkpoint
    journals and interrupt handling.  Per-sample *analysis* failures are
    not raised at all — they are quarantined as
    :class:`repro.experiments.supervisor.SampleFailure` records.
    """


class WorkerCrashError(ExecutionError):
    """A worker process died abruptly (segfault, ``os._exit``, OOM kill).

    The supervisor recovers by respawning the pool and bisecting the failed
    chunk; this error only reaches the caller when recovery itself is
    impossible (e.g. the pool cannot be respawned).
    """


class ChunkTimeoutError(ExecutionError):
    """A worker chunk exceeded its per-chunk wall-clock budget (hang)."""


class JournalError(ExecutionError):
    """A run journal is malformed or belongs to a different sweep."""


class CacheError(ExecutionError):
    """The persistent result cache was misused by a caller.

    Raised only for programmer errors (malformed fingerprints, invalid
    store configuration).  *Corrupt entries never raise*: the
    corruption-tolerant loader of :mod:`repro.resultcache` quarantines
    them and reports a miss, so on-disk damage degrades throughput, not
    availability.
    """


class SweepInterrupted(ExecutionError):
    """The sweep was stopped by SIGINT/SIGTERM after flushing its journal.

    Carries a human-readable hint on how to resume; the CLI turns it into a
    clean non-zero exit instead of a traceback.
    """
