"""JSON (de)serialisation of the core model and analysis results.

Lets users archive generated task sets, exchange scenarios between tools,
and store experiment outputs.  The format is plain JSON with an explicit
``format`` tag and version so files stay readable as the library evolves:

.. code-block:: json

    {
      "format": "repro-taskset",
      "version": 1,
      "platform": {"num_cores": 4, "d_mem": 10, ...},
      "tasks": [{"name": "fdct#c0t1", "pd": 6550, ...}, ...]
    }

Round-trip fidelity is exact: every field of :class:`~repro.model.task.Task`
and :class:`~repro.model.platform.Platform` survives, with cache-set sets
stored as ascending lists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.atomicio import atomic_write_text
from repro.errors import ModelError
from repro.model.platform import BusPolicy, CacheGeometry, Platform
from repro.model.task import Task, TaskSet

#: Current on-disk format version.
FORMAT_VERSION = 1

_TASKSET_TAG = "repro-taskset"
_WCRT_TAG = "repro-wcrt-result"

PathLike = Union[str, Path]


def canonical_json(document) -> str:
    """Canonical JSON text of a plain document: one line, sorted keys.

    The byte sequence is a pure function of the document's *value* —
    independent of dict insertion order and Python version — so it is safe
    to hash for content addressing and run fingerprints (see
    :func:`repro.experiments.journal.sweep_fingerprint`).  ``NaN`` and
    infinities are rejected: they would not round-trip through strict JSON
    parsers and a fingerprint must never be ambiguous.  So is a value that
    is not JSON data at all, such as a set.
    """
    try:
        return json.dumps(
            document, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise ModelError(
            f"document is not canonically serialisable: {error}"
        ) from error


def check_tagged(document, tag: str, version: int = FORMAT_VERSION) -> Dict:
    """``document``, checked to be a JSON object tagged ``tag`` at ``version``.

    The one check of every tagged document the package reads, so a
    document of the wrong JSON type is a :class:`~repro.errors.ModelError`
    like a wrong tag or version.
    """
    if not isinstance(document, dict):
        raise ModelError(
            f"a {tag!r} document must be a JSON object, "
            f"got {type(document).__name__}"
        )
    if document.get("format") != tag:
        raise ModelError(
            f"unexpected format tag {document.get('format')!r}; "
            f"expected {tag!r}"
        )
    if document.get("version") != version:
        raise ModelError(
            f"unsupported {tag!r} version {document.get('version')!r}"
        )
    return document


def decode_json(text: str):
    """The document JSON ``text`` holds; invalid JSON is a ``ModelError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ModelError(f"not valid JSON: {error}") from error


def platform_to_dict(platform: Platform) -> Dict:
    """Plain-dict form of a platform."""
    return {
        "num_cores": platform.num_cores,
        "cache": {
            "num_sets": platform.cache.num_sets,
            "block_size": platform.cache.block_size,
        },
        "d_mem": platform.d_mem,
        "bus_policy": platform.bus_policy.value,
        "slot_size": platform.slot_size,
    }


def platform_from_dict(data: Dict) -> Platform:
    """Inverse of :func:`platform_to_dict`."""
    try:
        cache = CacheGeometry(
            num_sets=data["cache"]["num_sets"],
            block_size=data["cache"]["block_size"],
        )
        return Platform(
            num_cores=data["num_cores"],
            cache=cache,
            d_mem=data["d_mem"],
            bus_policy=BusPolicy(data["bus_policy"]),
            slot_size=data["slot_size"],
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ModelError(f"malformed platform record: {error}") from error


def task_to_dict(task: Task) -> Dict:
    """Plain-dict form of a task, its block sets as ascending index lists.

    A UCB or PCB set that is the ECB set itself (see
    :func:`task_from_dict`) reuses the ECB list.
    """
    ecbs = list(task.ecbs)
    return {
        "name": task.name,
        "pd": task.pd,
        "md": task.md,
        "md_r": task.md_r,
        "period": task.period,
        "deadline": task.deadline,
        "priority": task.priority,
        "core": task.core,
        "ecbs": ecbs,
        "ucbs": ecbs if task.ucbs is task.ecbs else list(task.ucbs),
        "pcbs": ecbs if task.pcbs is task.ecbs else list(task.pcbs),
    }


def _cache_sets(
    data: Dict,
    key: str,
    num_sets: Optional[int],
    ecbs: Optional[List[int]] = None,
) -> List[int]:
    """``data[key]``, a list of cache set indices, checked against the cache.

    Given the platform's ``num_sets``, an index at or past the cache is a
    :class:`~repro.errors.ModelError` here, before
    :class:`~repro.model.task.Task` packs the list into a mask as large
    as its largest index.  ``max`` runs on the members as they were
    decoded: numbers it orders, and members it cannot order make the
    list malformed.  ``Task`` then rejects any other member that is not
    an ``int`` (a ``float``, a ``bool``) and a negative index, so both
    kernels see the same error and each list is scanned for its types
    once.  A list of exactly the checked ``ecbs`` list's ``int`` indices
    is that list (``1.0 == 1``, so equal lists may differ in type).
    """
    raw = data.get(key, ())
    if ecbs is not None and raw == ecbs and {int}.issuperset(map(type, raw)):
        return ecbs
    try:
        past = bool(raw) and num_sets is not None and max(raw) >= num_sets
    except TypeError:
        past = None
    if past is None or not isinstance(raw, (list, tuple)):
        raise ModelError(
            f"malformed task record {data.get('name')!r}: {key!r} must be a "
            f"list of integer cache set indices"
        )
    if past:
        raise ModelError(
            f"{data['name']}: a cache set index is past the platform's "
            f"{num_sets} sets"
        )
    return raw


def task_from_dict(data: Dict, num_sets: Optional[int] = None) -> Task:
    """Inverse of :func:`task_to_dict`.

    Given ``num_sets``, every cache set index must name one of that many
    cache sets (see :func:`tasks_from_dicts`).  A UCB or PCB list equal
    to the ECB list is handed over as the ECB list, so the task packs it
    once and holds the ECB set, as the generator's whole-run sets are.  A
    record that is not an object, a name that is not a string and a
    field of a type the task's checks cannot compare raise
    :class:`~repro.errors.ModelError` too.
    """
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise ModelError(
            f"malformed task record: expected an object with a string "
            f"'name', got {data!r:.80}"
        )
    try:
        ecbs = _cache_sets(data, "ecbs", num_sets)
        return Task(
            name=data["name"],
            pd=data["pd"],
            md=data["md"],
            md_r=data.get("md_r"),
            period=data["period"],
            deadline=data["deadline"],
            priority=data["priority"],
            core=data.get("core", 0),
            ecbs=ecbs,
            ucbs=_cache_sets(data, "ucbs", num_sets, ecbs),
            pcbs=_cache_sets(data, "pcbs", num_sets, ecbs),
        )
    except KeyError as error:
        raise ModelError(f"malformed task record: missing {error}") from error
    except TypeError as error:
        raise ModelError(
            f"malformed task record {data['name']!r}: {error}"
        ) from error


def tasks_from_dicts(records, platform: Platform) -> List[Task]:
    """:func:`task_from_dict` of each record, on ``platform``.

    Every cache set index must name one of the platform's
    ``cache.num_sets`` sets, checked before the index is packed into a
    mask bit: an index past the cache would make the task's masks as
    large as the index.  No two tasks may share a name: verdicts report
    response times by task name, so one of them would vanish.  Every task
    must sit on one of the platform's ``num_cores`` cores (see
    :func:`repro.analysis.wcrt.check_task_cores`).
    """
    num_sets = platform.cache.num_sets
    tasks = [task_from_dict(record, num_sets) for record in records]
    names = set()
    for task in tasks:
        if task.name in names:
            raise ModelError(f"{task.name}: two tasks share this name")
        if task.core >= platform.num_cores:
            raise ModelError(
                f"{task.name}: core {task.core} is not one of the "
                f"platform's {platform.num_cores} cores"
            )
        names.add(task.name)
    return tasks


def taskset_to_json(
    taskset: TaskSet, platform: Platform, indent: int = 2
) -> str:
    """Serialise a task set plus its platform to a JSON string."""
    document = {
        "format": _TASKSET_TAG,
        "version": FORMAT_VERSION,
        "platform": platform_to_dict(platform),
        "tasks": [task_to_dict(task) for task in taskset],
    }
    return json.dumps(document, indent=indent)


def taskset_envelope(document) -> Platform:
    """Check a ``repro-taskset`` envelope but its task records.

    The envelope must pass :func:`check_tagged` and hold a platform
    record and a non-empty ``tasks`` array.  Returns the parsed platform;
    :func:`tasks_from_dicts` checks the records.
    """
    check_tagged(document, _TASKSET_TAG)
    platform = platform_from_dict(document.get("platform", {}))
    tasks = document.get("tasks", [])
    if not isinstance(tasks, (list, tuple)):
        raise ModelError(
            f"'tasks' must be an array of task records, "
            f"got {type(tasks).__name__}"
        )
    if not tasks:
        raise ModelError("taskset holds no tasks")
    return platform


def taskset_from_json(text: str) -> Tuple[TaskSet, Platform]:
    """Inverse of :func:`taskset_to_json`."""
    document = decode_json(text)
    platform = taskset_envelope(document)
    return TaskSet(tasks_from_dicts(document["tasks"], platform)), platform


def wcrt_result_to_dict(result) -> Dict:
    """Plain-dict form of a :class:`~repro.analysis.wcrt.WcrtResult`.

    Tasks are referenced by name (unique within any serialised task set);
    perf counters are deliberately not archived — they describe a run, not
    a result.
    """
    return {
        "format": _WCRT_TAG,
        "version": FORMAT_VERSION,
        "schedulable": result.schedulable,
        "outer_iterations": result.outer_iterations,
        "failed_task": result.failed_task.name if result.failed_task else None,
        "response_times": {
            task.name: bound for task, bound in result.response_times.items()
        },
    }


def wcrt_result_to_json(result) -> str:
    """Canonical JSON form of a WCRT result.

    Keys are sorted, so the bytes are a pure function of the result —
    independent of dict insertion order, Python version, or the task
    iteration order of the analysis.
    """
    return json.dumps(wcrt_result_to_dict(result), indent=2, sort_keys=True)


def wcrt_result_from_json(text: str) -> Dict:
    """Parse a serialised WCRT result back into its plain-dict form.

    Task objects cannot be reconstructed from a result alone (it stores
    names, not parameters), so the dict form is the archival surface:
    ``response_times`` maps task names to bounds.
    """
    return check_tagged(decode_json(text), _WCRT_TAG)


def save_taskset(
    taskset: TaskSet, platform: Platform, path: PathLike
) -> None:
    """Write a task set (and platform) to ``path`` as JSON.

    The write is atomic (tmp file + fsync + rename): a crash mid-write
    cannot leave a truncated, unloadable task set behind.
    """
    atomic_write_text(path, taskset_to_json(taskset, platform))


def load_taskset(path: PathLike) -> Tuple[TaskSet, Platform]:
    """Read a task set (and platform) previously saved with
    :func:`save_taskset`."""
    return taskset_from_json(Path(path).read_text())
