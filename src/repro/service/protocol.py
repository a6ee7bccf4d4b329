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
      "degrade": true                      # opt in/out of a brownout
                                           # answer under overload
                                           # (default: on iff a
                                           # deadline_ms is present)
    }

Validation maps onto the library's error taxonomy: structurally malformed
documents (bad JSON shape, unknown format tag, broken task records) raise
:class:`~repro.errors.ModelError`; semantically invalid knobs (negative
budgets, unknown config fields or injection kinds) raise
:class:`~repro.errors.AnalysisError`.  The daemon converts both into
HTTP 400 with a typed body.

Validation runs in two steps.  :func:`read_request` checks every field
but the task records, which is cheap, and keeps the decoded envelope;
:func:`parse_request` then builds the :class:`~repro.model.task.Task`
objects.  The daemon fingerprints the envelope's records between the two
steps and skips the second one when the result cache already holds that
key (see :mod:`repro.resultcache`).

Responses always carry ``id``, ``status`` and the protocol ``version``.
``status`` is one of ``"ok"`` (with the WCRT verdict),
``"budget-exceeded"`` (with the partial estimates, iterations spent and
elapsed seconds), ``"error"`` (with the error class and message), or a
refusal built by :func:`refusal_response`: the daemon's ``"draining"``,
``"busy"`` and ``"breaker-open"``, and the load sheds
``"deadline-expired"`` / ``"overload-shed"`` (with ``"shed": true``).
Every request the worker pool runs gets the exact analysis under its
whole budget.  The one degraded answer is the daemon's brownout, from
:func:`~repro.analysis.wcrt.coarse_bound`; its body carries
``"brownout": true`` and a ``"degraded"`` object naming the tier, its
soundness class and the tiers tried — see :func:`degraded_response` and
:func:`exhausted_response`.

The test-only ``inject`` field (``"hang"`` spins cooperatively inside the
request's budget; ``"crash"`` kills the worker process) exists so the
recovery paths can be demonstrated end-to-end — see
``scripts/service_smoke.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.analysis.config import AnalysisConfig
from repro.crpd.approaches import CrpdApproach
from repro.errors import AnalysisAborted, AnalysisError, ModelError
from repro.model.platform import Platform
from repro.model.task import TaskSet
from repro.persistence.cpro import CproApproach
from repro.resultcache import result_payload
from repro.serialization import taskset_envelope, tasks_from_dicts

#: Version stamped into every response document.
PROTOCOL_VERSION = 1

#: Test-only fault injections a request may carry.
INJECT_KINDS = ("hang", "crash")

#: Priority classes, highest first.  Under overload the daemon sheds the
#: lowest class first at admission.
PRIORITIES = ("interactive", "batch")

#: Safety margin (milliseconds) the daemon subtracts from a request's
#: remaining ``deadline_ms`` before handing it to the pool, covering its
#: own serialisation and scheduling overhead.
DEADLINE_SAFETY_MS = 25.0

#: The tier of a brownout answer (:func:`~repro.analysis.wcrt.coarse_bound`).
TIER_COARSE = "coarse"

#: Soundness of a ``degraded`` marker: a completed brownout's bounds are
#: sound over-approximations; an aborted one's partials are unknown.
SOUND_DEGRADED = "degraded-sound"
SOUND_UNKNOWN = "unknown"

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
    """One validated analysis request.

    A request :func:`read_request` returned has no ``taskset`` yet; its
    ``envelope`` holds the decoded ``repro-taskset`` envelope, whose
    ``platform`` and ``tasks`` records the daemon fingerprints.
    :func:`parse_request` builds the task set and drops the envelope, so
    a parsed request pickles as its model objects alone.
    """

    request_id: str
    taskset: Optional[TaskSet]
    platform: Platform
    config: AnalysisConfig
    budget_seconds: Optional[float] = None
    max_iterations: Optional[int] = None
    inject: Optional[str] = None
    #: Remaining end-to-end deadline in milliseconds, as the caller sent
    #: it (the daemon hands it to the pool minus its own elapsed time and
    #: a safety margin).
    deadline_ms: Optional[float] = None
    #: Priority class; ``"batch"`` is shed first under overload.
    priority: str = "interactive"
    #: Explicit brownout opt in/out; ``None`` = derived (on iff the
    #: request carries a deadline).
    degrade: Optional[bool] = None
    #: The decoded ``repro-taskset`` envelope until the task set is built.
    envelope: Optional[Dict] = None

    @property
    def degradable(self) -> bool:
        """Whether the request accepts a brownout answer under overload.

        Its explicit ``degrade`` when set, else whether it carries a
        deadline.  Everything else keeps the exact pre-pressure semantics.
        """
        if self.degrade is not None:
            return self.degrade
        return self.deadline_ms is not None


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


def _positive_finite(document: Dict, key: str, what: str) -> Optional[float]:
    """``document[key]`` as a positive finite float, ``None`` when absent.

    ``json`` accepts ``Infinity``, and an infinite budget or deadline
    would reach a timed wait that cannot take it.
    """
    value = document.get(key)
    if value is None:
        return None
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not (value > 0 and math.isfinite(value))
    ):
        raise AnalysisError(f"{key!r} must be {what}, got {value!r}")
    return float(value)


def read_request(document) -> AnalysisRequest:
    """Validate every field of a raw request document but its task records.

    The returned request has no ``taskset``; its ``envelope`` holds the
    decoded ``repro-taskset`` envelope, whose platform has been parsed and
    whose ``tasks`` is a non-empty array.  :func:`parse_request` finishes
    the validation.  Raises like :func:`parse_request`.
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
    envelope = document["taskset"]
    platform = taskset_envelope(envelope)
    config = _parse_config(document.get("config"))
    budget_seconds = _positive_finite(
        document, "budget_seconds", "a positive finite number"
    )
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
    deadline_ms = _positive_finite(
        document, "deadline_ms", "a positive finite number of milliseconds"
    )
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
        taskset=None,
        platform=platform,
        config=config,
        budget_seconds=budget_seconds,
        max_iterations=max_iterations,
        inject=inject,
        deadline_ms=deadline_ms,
        priority=priority,
        degrade=degrade,
        envelope=envelope,
    )


def parse_request(document) -> AnalysisRequest:
    """Validate a raw request document into an :class:`AnalysisRequest`.

    ``document`` may also be a request :func:`read_request` returned, in
    which case only its task records are still checked.  Raises
    :class:`~repro.errors.ModelError` for structural problems and
    :class:`~repro.errors.AnalysisError` for invalid parameter values, so
    the daemon (and any other front end) can map validation failures onto
    the library's taxonomy without string matching.
    """
    if isinstance(document, AnalysisRequest):
        request = document
    else:
        request = read_request(document)
    if request.taskset is not None:
        return request
    tasks = tasks_from_dicts(request.envelope["tasks"], request.platform)
    return replace(request, taskset=TaskSet(tasks), envelope=None)


def ok_response(request_id: str, result) -> Dict:
    """Success response carrying the WCRT verdict.

    Built on :func:`repro.resultcache.result_payload` so the body (minus
    the caller-chosen ``id``) is byte-identical to what the persistent
    result cache stores — a cache hit and a cold compute therefore
    differ only in ``id`` and the ``cache`` marker.
    """
    return dict(result_payload(result), id=request_id)


def degraded_response(request_id: str, result) -> Dict:
    """A brownout's ``"ok"`` answer, from its coarse bound's ``result``.

    The body is the normal :func:`ok_response` plus a typed ``degraded``
    marker and ``"brownout": true``; the marker keeps degraded answers
    out of the result cache (their bounds are sound but not the exact
    fingerprinted result) and lets clients and the chaos harness tell a
    weaker-but-sound verdict from an exact one.
    """
    body = ok_response(request_id, result)
    body["degraded"] = {
        "tier": TIER_COARSE,
        "soundness": SOUND_DEGRADED,
        "tiers_tried": [TIER_COARSE],
    }
    body["brownout"] = True
    return body


def refusal_response(
    request_id: str,
    status: str,
    message: str,
    shed: bool = False,
    retry_after: Optional[float] = None,
) -> Dict:
    """A request refused before (or instead of) its analysis.

    ``"shed": true`` marks load shedding (``deadline-expired`` /
    ``overload-shed``), the machine-readable marker the overload-storm
    chaos scenario asserts on: no request may be dropped without it.
    ``retry_after`` (seconds) tells the caller when to come back.
    """
    body = {"version": PROTOCOL_VERSION, "id": request_id, "status": status}
    if shed:
        body["shed"] = True
    body["message"] = message
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body


def abort_response(request_id: str, abort: AnalysisAborted) -> Dict:
    """Typed partial result of a budget-exceeded analysis."""
    partial = abort.partial
    return {
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "budget-exceeded",
        "message": str(abort),
        "iterations": abort.iterations,
        "elapsed_seconds": abort.elapsed,
        "partial_response_times": (
            {task.name: bound for task, bound in partial.response_times.items()}
            if partial is not None
            else {}
        ),
    }


def exhausted_response(request_id: str, abort: AnalysisAborted) -> Dict:
    """Typed abort of a brownout whose coarse bound ran out of budget.

    The :func:`abort_response` partials plus a ``degraded`` marker of
    ``unknown`` soundness and ``"brownout": true``.
    """
    body = abort_response(request_id, abort)
    body["degraded"] = {
        "tier": None,
        "soundness": SOUND_UNKNOWN,
        "tiers_tried": [TIER_COARSE],
    }
    body["brownout"] = True
    return body


def error_response(request_id: str, error: Exception) -> Dict:
    """Failure response naming the error class for typed client handling."""
    return {
        "version": PROTOCOL_VERSION,
        "id": request_id,
        "status": "error",
        "error": type(error).__name__,
        "message": str(error),
    }
