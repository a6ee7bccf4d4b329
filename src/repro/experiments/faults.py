"""Deterministic sweep-execution faults (crash / hang / flaky workers).

These faults break the *execution substrate*, not a bound, so the
supervisor's recovery paths (chunk bisection, hang timeouts, transient
retries — see :mod:`repro.experiments.supervisor`) are tested, not just
written.  A sweep fault must fire inside spawned worker processes, which
re-import the library from scratch; it is therefore plain *data* — a
picklable spec carried in the worker arguments — rather than mutable
module state.  The CLI's ``--inject`` flag builds one with
:func:`parse_sweep_fault`; nothing sets a fault outside of tests and that
flag.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import AnalysisError, ExecutionError

#: Registered sweep-fault kinds -> description.  ``attempt`` is the
#: supervisor's per-item retry counter (0 on first execution).
SWEEP_FAULT_KINDS = {
    "crash-sample": (
        "the targeted sample kills its worker process with os._exit on "
        "every attempt — deterministic poison; the supervisor must bisect "
        "the chunk and quarantine exactly this sample"
    ),
    "hang-sample": (
        "the targeted sample sleeps past any reasonable chunk timeout on "
        "its first attempt only — the supervisor must kill the pool and "
        "the retry then succeeds"
    ),
    "flaky-sample": (
        "the targeted sample raises a transient error on its first "
        "attempt only — the supervisor must retry it with backoff"
    ),
}

#: How long a hung sample sleeps.  Long enough that any sane chunk timeout
#: fires first, short enough that a supervisor bug cannot wedge CI forever.
HANG_SECONDS = 60.0

#: Exit status used by the crash injector (mirrors an abort/SIGABRT death).
CRASH_EXIT_STATUS = 134


class TransientWorkerFault(ExecutionError):
    """Raised by the flaky-sample injector on an item's first attempt."""


@dataclass(frozen=True)
class SweepFault:
    """A deterministic execution fault targeting one ``(point, sample)``.

    ``point``/``sample`` are curve-local indices (the same keys the run
    journal uses), so the target is independent of chunking, parallelism
    and resume state.
    """

    kind: str
    point: int = 0
    sample: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_FAULT_KINDS:
            known = ", ".join(sorted(SWEEP_FAULT_KINDS))
            raise AnalysisError(
                f"unknown sweep fault {self.kind!r}; known kinds: {known}"
            )

    def matches(self, point: int, sample: int) -> bool:
        """Whether this fault targets the given work item."""
        return self.point == point and self.sample == sample


def sweep_fault_kinds() -> Tuple[str, ...]:
    """Kinds accepted by :class:`SweepFault` and the CLI's ``--inject``."""
    return tuple(sorted(SWEEP_FAULT_KINDS))


def parse_sweep_fault(text: str) -> SweepFault:
    """Parse ``"crash-sample"`` or ``"crash-sample:POINT,SAMPLE"``.

    Without an explicit target the fault hits ``(point 0, sample 0)``.
    """
    kind, _, target = text.strip().partition(":")
    point = sample = 0
    if target:
        pieces = target.split(",")
        if len(pieces) != 2:
            raise AnalysisError(
                f"malformed sweep-fault target {target!r}; "
                f"expected 'POINT,SAMPLE'"
            )
        try:
            point, sample = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise AnalysisError(
                f"sweep-fault target indices must be integers, got {target!r}"
            ) from None
    return SweepFault(kind=kind, point=point, sample=sample)


def trigger_sweep_fault(
    fault: Optional[SweepFault], point: int, sample: int, attempt: int
) -> None:
    """Fire ``fault`` if it targets this item (called inside workers).

    ``crash-sample`` never returns (the process dies); ``hang-sample``
    blocks on attempt 0; ``flaky-sample`` raises
    :class:`TransientWorkerFault` on attempt 0.  No-op for ``None`` or a
    non-matching item.
    """
    if fault is None or not fault.matches(point, sample):
        return
    if fault.kind == "crash-sample":
        # A real poison sample (segfault, OOM kill) dies without unwinding;
        # os._exit skips all cleanup the same way.
        os._exit(CRASH_EXIT_STATUS)
    if fault.kind == "hang-sample" and attempt == 0:
        time.sleep(HANG_SECONDS)
    if fault.kind == "flaky-sample" and attempt == 0:
        raise TransientWorkerFault(
            f"injected transient fault at point {point} sample {sample} "
            f"(attempt {attempt})"
        )
