"""Request/response protocol of the batch-analysis service.

One request analyses one task set::

    {
      "id": "job-17",                      # caller-chosen correlation id
      "taskset": { ... },                  # "repro-taskset" envelope
                                           # (see repro.serialization)
      "config": {"persistence": true},     # optional AnalysisConfig fields
      "budget_seconds": 2.0,               # optional per-request deadline
      "max_iterations": 100000,            # optional iteration ceiling
      "deadline_ms": 1500,                 # optional end-to-end deadline:
                                           # remaining milliseconds the
                                           # caller will still wait
      "priority": "interactive",           # "interactive" (default) or
                                           # "batch"; batch sheds first
      "degrade": true                      # opt in/out of the degradation
                                           # ladder (default: on iff a
                                           # deadline_ms is present)
    }

Validation maps onto the library's error taxonomy: structurally malformed
documents (bad JSON shape, unknown format tag, broken task records) raise
:class:`~repro.errors.ModelError`; semantically invalid knobs (negative
budgets, unknown config fields or injection kinds) raise
:class:`~repro.errors.AnalysisError`.  The daemon converts both into
HTTP 400 with a typed body.

Responses always carry ``id``, ``status`` and the protocol ``version``.
``status`` is one of ``"ok"`` (with the WCRT verdict),
``"budget-exceeded"`` / ``"cancelled"`` (with the partial estimates,
iterations spent and elapsed seconds), ``"error"`` (with the error class
and message), or one of the typed shed markers ``"deadline-expired"`` /
``"overload-shed"`` (with ``"shed": true``).  An ``"ok"`` answer produced
by a degraded ladder tier additionally carries a ``"degraded"`` object
naming the tier, its soundness class and the tiers tried — see
:mod:`repro.analysis.ladder` and :func:`degraded_response`.

The test-only ``inject`` field (``"hang"`` spins cooperatively inside the
request's budget; ``"crash"`` kills the worker process) exists so the
recovery paths can be demonstrated end-to-end — see
``scripts/service_smoke.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.config import AnalysisConfig
from repro.crpd.approaches import CrpdApproach
from repro.errors import AnalysisAborted, AnalysisError, Cancelled, ModelError
from repro.model.platform import Platform
from repro.model.task import TaskSet
from repro.persistence.cpro import CproApproach
from repro.resultcache import result_payload
from repro.serialization import (
    FORMAT_VERSION,
    platform_from_dict,
    task_from_dict,
)

#: Version stamped into every response document.
PROTOCOL_VERSION = 1

#: Test-only fault injections a request may carry.
INJECT_KINDS = ("hang", "crash")

#: Priority classes, highest first.  Under overload the daemon sheds the
#: lowest class first at admission.
PRIORITIES = ("interactive", "batch")

_TASKSET_TAG = "repro-taskset"

#: AnalysisConfig fields settable through the wire protocol, with their
#: converters.  Iteration ceilings are deliberately absent: the service's
#: own budget/deadline layer owns resource limits.
_CONFIG_FIELDS = {
    "persistence": bool,
    "persistence_in_low": bool,
    "tdma_slot_alignment": bool,
    "memoization": bool,
    "bitset_kernel": bool,
    "warm_start": bool,
    "crpd_approach": CrpdApproach,
    "cpro_approach": CproApproach,
}


@dataclass(frozen=True)
class AnalysisRequest:
    """One validated analysis request."""

    request_id: str
    taskset: TaskSet
    platform: Platform
    config: AnalysisConfig
    budget_seconds: Optional[float] = None
    max_iterations: Optional[int] = None
    inject: Optional[str] = None
    #: Remaining end-to-end deadline in milliseconds, as seen by the hop
    #: that sent the request (each hop forwards it minus its own elapsed
    #: time and a safety margin).
    deadline_ms: Optional[float] = None
    #: Priority class; ``"batch"`` is shed first under overload.
    priority: str = "interactive"
    #: Explicit degradation-ladder opt in/out; ``None`` = derived
    #: (on iff the request carries a deadline).
    degrade: Optional[bool] = None


def _parse_taskset(document) -> Tuple[TaskSet, Platform]:
    """Parse the embedded ``repro-taskset`` envelope (dict form)."""
    if not isinstance(document, dict):
        raise ModelError(
            f"'taskset' must be a repro-taskset object, "
            f"got {type(document).__name__}"
        )
    if document.get("format") != _TASKSET_TAG:
        raise ModelError(
            f"unexpected taskset format tag {document.get('format')!r}; "
            f"expected {_TASKSET_TAG!r}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported taskset format version {document.get('version')!r}"
        )
    platform = platform_from_dict(document.get("platform", {}))
    tasks = [task_from_dict(record) for record in document.get("tasks", [])]
    if not tasks:
        raise ModelError("taskset holds no tasks")
    return TaskSet(tasks), platform


def _parse_config(document) -> AnalysisConfig:
    """Build an :class:`AnalysisConfig` from the request's config dict."""
    if document is None:
        return AnalysisConfig()
    if not isinstance(document, dict):
        raise AnalysisError(
            f"'config' must be an object, got {type(document).__name__}"
        )
    kwargs = {}
    for key, value in document.items():
        converter = _CONFIG_FIELDS.get(key)
        if converter is None:
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise AnalysisError(
                f"unknown analysis config field {key!r}; known: {known}"
            )
        try:
            kwargs[key] = converter(value)
        except ValueError as error:
            raise AnalysisError(
                f"invalid value for config field {key!r}: {error}"
            ) from None
    return AnalysisConfig(**kwargs)


def parse_request(document) -> AnalysisRequest:
    """Validate a raw request document into an :class:`AnalysisRequest`.

    Raises :class:`~repro.errors.ModelError` for structural problems and
    :class:`~repro.errors.AnalysisError` for invalid parameter values, so
    the daemon (and any other front end) can map validation failures onto
    the library's taxonomy without string matching.
    """
    if not isinstance(document, dict):
        raise ModelError(
            f"request must be a JSON object, got {type(document).__name__}"
        )
    request_id = document.get("id", "")
    if not isinstance(request_id, str):
        raise ModelError(f"'id' must be a string, got {request_id!r}")
    if "taskset" not in document:
        raise ModelError("request is missing the 'taskset' envelope")
    taskset, platform = _parse_taskset(document["taskset"])
    config = _parse_config(document.get("config"))
    budget_seconds = document.get("budget_seconds")
    if budget_seconds is not None:
        if not isinstance(budget_seconds, (int, float)) or isinstance(
            budget_seconds, bool
        ) or not budget_seconds > 0:
            raise AnalysisError(
                f"'budget_seconds' must be a positive number, "
                f"got {budget_seconds!r}"
            )
        budget_seconds = float(budget_seconds)
    max_iterations = document.get("max_iterations")
    if max_iterations is not None:
        if not isinstance(max_iterations, int) or isinstance(
            max_iterations, bool
        ) or max_iterations <= 0:
            raise AnalysisError(
                f"'max_iterations' must be a positive integer, "
                f"got {max_iterations!r}"
            )
    inject = document.get("inject")
    if inject is not None and inject not in INJECT_KINDS:
        raise AnalysisError(
            f"unknown inject kind {inject!r}; known: {', '.join(INJECT_KINDS)}"
        )
    deadline_ms = document.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ) or not deadline_ms > 0:
            raise AnalysisError(
                f"'deadline_ms' must be a positive number of milliseconds, "
                f"got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    priority = document.get("priority", "interactive")
    if priority not in PRIORITIES:
        raise AnalysisError(
            f"unknown priority {priority!r}; known: {', '.join(PRIORITIES)}"
        )
    degrade = document.get("degrade")
    if degrade is not None and not isinstance(degrade, bool):
        raise AnalysisError(
            f"'degrade' must be a boolean, got {degrade!r}"
        )
    return AnalysisRequest(
        request_id=request_id,
        taskset=taskset,
        platform=platform,
        config=config,
        budget_seconds=budget_seconds,
        max_iterations=max_iterations,
        inject=inject,
        deadline_ms=deadline_ms,
        priority=priority,
        degrade=degrade,
    )


def ok_response(request_id: str, result) -> Dict:
    """Success response carrying the WCRT verdict.

    Built on :func:`repro.resultcache.result_payload` so the body (minus
    the caller-chosen ``id``) is byte-identical to what the persistent
    result cache stores — a cache hit and a cold compute therefore
    differ only in ``id`` and the ``cache`` marker.
    """
    return dict(result_payload(result), id=request_id)


def degraded_response(
    request_id: str,
    result,
    tier: str,
    soundness: str,
    tiers_tried,
) -> Dict:
    """An ``"ok"`` answer produced by a degraded ladder tier.

    The body is the normal :func:`ok_response` plus a typed ``degraded``
    marker; the marker keeps degraded answers out of the result cache
    (their bounds are sound but not the exact fingerprinted result) and
    lets clients and the chaos harness tell a
    weaker-but-sound verdict from an exact one.
    """
    body = ok_response(request_id, result)
    body["degraded"] = {
        "tier": tier,
        "soundness": soundness,
        "tiers_tried": list(tiers_tried),
    }
    return body


def shed_response(
    request_id: str,
    status: str,
    message: str,
    retry_after: Optional[float] = None,
) -> Dict:
    """Typed load-shedding response (``deadline-expired`` / ``overload-shed``).

    ``"shed": true`` is the machine-readable marker the overload-storm
    chaos scenario asserts on: no request may be dropped without it.
    """
    body = {
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": status,
        "shed": True,
        "message": message,
    }
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body


def abort_response(request_id: str, abort: AnalysisAborted) -> Dict:
    """Typed partial result of a budget-exceeded or cancelled analysis."""
    partial = abort.partial
    return {
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "cancelled" if isinstance(abort, Cancelled) else "budget-exceeded",
        "message": str(abort),
        "iterations": abort.iterations,
        "elapsed_seconds": abort.elapsed,
        "partial_response_times": (
            {task.name: bound for task, bound in partial.response_times.items()}
            if partial is not None
            else {}
        ),
    }


def error_response(request_id: str, error: Exception) -> Dict:
    """Failure response naming the error class for typed client handling."""
    return {
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "error",
        "error": type(error).__name__,
        "message": str(error),
    }
