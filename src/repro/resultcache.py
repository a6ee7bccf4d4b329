"""Persistent, content-addressed cache of analysis results.

The WCRT bounds are *deterministic* functions of the analysed
``(task set, platform, config)`` triple: the production and reference
kernels and warm starts are pinned bit-identical by the differential
oracles, and a completed budgeted run equals an uncapped one.  That
determinism makes durable memoization sound — the same canonical-JSON
fingerprinting the sweep journal relies on for
bit-identical ``--resume`` (see :mod:`repro.experiments.journal`) keys the
analysis daemon's persistent result cache.  Sweeps do not read it: their
one durable replay is the run journal.

* :func:`request_fingerprint` hashes the canonical JSON of the task and
  platform *records* — the plain dicts of a ``repro-taskset`` envelope —
  and the *outcome-determining* analysis knobs.  The service hashes the
  records it decoded from the request, before it builds any model
  object; a caller holding a model passes its
  :func:`~repro.serialization.task_to_dict` and
  :func:`~repro.serialization.platform_to_dict` records.  Because
  :func:`~repro.serialization.taskset_to_json` writes exactly those
  records, a model and its serialised envelope share one key.  An
  envelope that writes the same model differently (unsorted or duplicate
  indices, ``1.0`` for ``1``, a missing ``md_r``) gets a key of its own.
  That costs a recompute, never a wrong answer: equal canonical records
  parse to equal models.  Invisible optimisation knobs
  (``memoization``, ``bitset_kernel``, ``array_kernel``, ``warm_start``)
  and iteration ceilings are excluded, exactly as the journal excludes
  execution parameters: an entry computed under any kernel serves every
  kernel.
* :class:`ResultCache` stores one JSON file per fingerprint under
  ``entries/``, written via :func:`repro.atomicio.atomic_write_text`
  (tmp + fsync + rename) so a crash mid-write can never leave a partial
  entry at the final path.  Every entry carries a SHA-256 checksum of its
  payload; the loader *quarantines* (moves aside) and skips anything
  corrupt — truncated JSON, flipped bits, empty files, foreign
  fingerprints — instead of failing the daemon.  An in-memory LRU index
  (seeded from file mtimes, refreshed via ``os.utime`` on hit so recency
  survives restarts) enforces ``max_entries`` / ``max_bytes`` eviction.
  A stored verdict is the only replay the service has: a miss runs a
  cold analysis of the parsed request.

Only completed results are cacheable.  ``budget-exceeded`` partials are
*rejected at the store layer* (:meth:`ResultCache.put` refuses any
payload whose status is not ``"ok"``), so an aborted request can never
poison the cache — the caller-side discipline is backed by an enforced
invariant.

Fault injection (TEST ONLY): when the environment variable
:data:`CHAOS_FAULT_ENV` is ``"kill-mid-write"``, the next store leaves a
torn ``*.chaos.tmp`` dropping next to the target and kills the process —
``scripts/chaos_smoke.py`` uses this to prove that a kill mid-write
leaves a loadable cache (the committed entries are untouched and the
dropping is swept on the next :meth:`~ResultCache.scan`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import WcrtResult
from repro.atomicio import atomic_write_text
from repro.errors import CacheError
from repro.perf import PerfCounters
from repro.serialization import canonical_json

PathLike = Union[str, Path]

#: Format tag of a result-cache entry file.
CACHE_TAG = "repro-result-cache-entry"

#: Format tag of the fingerprinted request description.
REQUEST_TAG = "repro-analysis-request"

#: Current on-disk entry format version.
CACHE_VERSION = 1

#: Environment variable carrying the injectable chaos fault (TEST ONLY).
CHAOS_FAULT_ENV = "REPRO_CHAOS_FAULT"

#: Exit status of the injected kill-mid-write fault (mirrors SIGKILL).
CHAOS_KILL_STATUS = 137

#: AnalysisConfig fields that determine analysis *outcomes*.  The
#: invisible-optimisation knobs and the iteration ceilings are excluded
#: from fingerprints — see the module docstring.
FINGERPRINT_CONFIG_FIELDS = (
    "persistence",
    "persistence_in_low",
    "tdma_slot_alignment",
    "crpd_approach",
    "cpro_approach",
)

_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")

#: How many leading hex digits fan entries out into subdirectories.
_FANOUT_DIGITS = 2


# -- fingerprinting -----------------------------------------------------------


def request_description(
    tasks: Sequence[Dict], platform: Dict, config: AnalysisConfig
) -> Dict:
    """The plain-JSON document a request fingerprint is computed over."""
    return {
        "format": REQUEST_TAG,
        "version": CACHE_VERSION,
        "platform": platform,
        "tasks": tasks,
        "config": {
            name: getattr(
                getattr(config, name), "value", getattr(config, name)
            )
            for name in FINGERPRINT_CONFIG_FIELDS
        },
    }


def request_fingerprint(
    tasks: Sequence[Dict], platform: Dict, config: AnalysisConfig
) -> str:
    """Hex SHA-256 identifying one analysis request's outcome.

    ``tasks`` and ``platform`` are the task and platform records of a
    ``repro-taskset`` envelope (see the module docstring).  Two requests
    share a fingerprint only when the analysis bounds are guaranteed
    bit-identical, so a cached result may serve either.  Raises
    :class:`~repro.errors.ModelError` when the records hold a value
    canonical JSON cannot encode, such as ``NaN``.
    """
    text = canonical_json(request_description(tasks, platform, config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- payload conversion -------------------------------------------------------


def result_payload(result: WcrtResult) -> Dict:
    """The cacheable plain-JSON form of a completed analysis result.

    This is exactly the service's ``"ok"`` response body minus the
    caller-chosen ``id`` (see :func:`repro.service.protocol.ok_response`,
    which builds on this function), so a stored entry serves a later
    request byte-for-byte.
    """
    return {
        "version": CACHE_VERSION,
        "status": "ok",
        "schedulable": result.schedulable,
        "outer_iterations": result.outer_iterations,
        "failed_task": result.failed_task.name if result.failed_task else None,
        "response_times": {
            task.name: bound for task, bound in result.response_times.items()
        },
    }


# -- fault injection (TEST ONLY) ----------------------------------------------


def _chaos_kill_mid_write(path: Path, text: str) -> None:
    """Injected crash: leave a torn tmp dropping, then die like SIGKILL.

    TEST ONLY — armed by ``CHAOS_FAULT_ENV=kill-mid-write``.  The torn
    file deliberately uses the ``.tmp`` suffix the scanner sweeps, and
    the *committed* entry path is never touched, mirroring exactly what a
    real kill between ``write`` and ``os.replace`` leaves behind.
    """
    if os.environ.get(CHAOS_FAULT_ENV) != "kill-mid-write":
        return
    dropping = path.with_name(path.name + ".chaos.tmp")
    dropping.parent.mkdir(parents=True, exist_ok=True)
    with open(dropping, "w", encoding="utf-8") as handle:
        handle.write(text[: max(1, len(text) // 2)])
    os._exit(CHAOS_KILL_STATUS)


class _BadEntry(Exception):
    """Internal: an entry file failed validation (reason in ``args[0]``)."""


@dataclass
class _IndexEntry:
    path: Path
    size: int


def _ok_payload(payload: Dict) -> bool:
    """Cacheability predicate: only completed ``"ok"`` results qualify."""
    return isinstance(payload, dict) and payload.get("status") == "ok"


class ResultCache:
    """Content-addressed, crash-safe store of completed analysis results.

    Layout under ``root``::

        entries/<fp[:2]>/<fp>.json   one checksummed entry per fingerprint
        quarantine/                  corrupt files moved aside, never deleted

    The scan walks ``entries/`` only, so anything else under ``root`` —
    such as the ``seeds/`` subtree older daemons wrote — is left alone.

    ``put`` refuses any payload whose ``status`` is not ``"ok"`` — see the
    module docstring for why aborted partials must never land here.

    Thread-safe (one re-entrant lock per cache).  Multiple *processes*
    may safely share a cache directory: every write is atomic, identical
    fingerprints produce identical bytes, and readers treat a file that
    vanished under them (evicted by a sibling) as a plain miss.
    """

    def __init__(
        self,
        root: PathLike,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        if max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(
                f"max_bytes must be >= 1 (or None for unbounded), "
                f"got {max_bytes}"
            )
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.entries_dir = self.root / "entries"
        self.quarantine_dir = self.root / "quarantine"
        self._perf = perf
        self._lock = threading.RLock()
        #: fingerprint -> entry, ordered least- to most-recently used.
        self._index: "OrderedDict[str, _IndexEntry]" = OrderedDict()
        #: Files quarantined since this cache was opened.
        self.quarantined_files = 0
        self.scan()

    # -- counters ------------------------------------------------------------

    def _count(self, name: str) -> None:
        """Add one to counter ``name`` of the cache's perf, if it has one."""
        if self._perf is not None:
            setattr(self._perf, name, getattr(self._perf, name) + 1)

    # -- layout --------------------------------------------------------------

    def _path_for(self, fingerprint: str) -> Path:
        return (
            self.entries_dir
            / fingerprint[:_FANOUT_DIGITS]
            / f"{fingerprint}.json"
        )

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> str:
        if not (
            isinstance(fingerprint, str)
            and _FINGERPRINT_RE.fullmatch(fingerprint)
        ):
            raise CacheError(
                f"fingerprint must be 64 lowercase hex digits, "
                f"got {fingerprint!r}"
            )
        return fingerprint

    # -- scanning and validation ---------------------------------------------

    def scan(self) -> None:
        """(Re)build the index from disk, sweeping droppings and corruption.

        Leftover ``*.tmp`` files (a kill between write and rename) are
        deleted; every committed entry is fully validated and corrupt
        ones are quarantined.  The LRU order is seeded from file mtimes,
        which :meth:`get` refreshes on every hit, so recency survives
        restarts.
        """
        with self._lock:
            self._index.clear()
            self.entries_dir.mkdir(parents=True, exist_ok=True)
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            found = []
            for path in sorted(self.entries_dir.rglob("*")):
                if not path.is_file():
                    continue
                if path.name.endswith(".tmp"):
                    path.unlink(missing_ok=True)
                    continue
                try:
                    fingerprint, _payload = self._load_file(path)
                except _BadEntry as bad:
                    self._quarantine(path, bad.args[0])
                    continue
                stat = path.stat()
                found.append((stat.st_mtime, fingerprint, path, stat.st_size))
            for _mtime, fingerprint, path, size in sorted(found):
                self._index[fingerprint] = _IndexEntry(path=path, size=size)
            self._evict_if_needed()

    def _load_file(self, path: Path) -> tuple:
        """Validate one entry file; raises :class:`_BadEntry` with a reason."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise _BadEntry(f"unreadable: {error}") from error
        if not text.strip():
            raise _BadEntry("empty-file")
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            raise _BadEntry("truncated-or-invalid-json") from None
        if not isinstance(document, dict) or document.get("format") != CACHE_TAG:
            raise _BadEntry("bad-envelope")
        if document.get("version") != CACHE_VERSION:
            raise _BadEntry("unsupported-version")
        fingerprint = document.get("fingerprint")
        if (
            not isinstance(fingerprint, str)
            or not _FINGERPRINT_RE.fullmatch(fingerprint)
            or path.name != f"{fingerprint}.json"
        ):
            raise _BadEntry("fingerprint-mismatch")
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise _BadEntry("missing-payload")
        digest = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        if document.get("sha256") != digest:
            raise _BadEntry("checksum-mismatch")
        if not _ok_payload(payload):
            raise _BadEntry("invalid-payload")
        return fingerprint, payload

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt file aside (never delete evidence) and count it."""
        destination = self.quarantine_dir / f"{path.name}.{reason}"
        try:
            os.replace(path, destination)
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined_files += 1
        self._count("result_cache_quarantines")

    # -- the cache interface -------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict]:
        """Payload stored for ``fingerprint``, or ``None``.

        Reads the entry file afresh on every hit (so callers may mutate
        the returned document freely) and re-validates it — corruption
        that happened *after* the scan is quarantined here, reported as a
        miss, and never crashes the caller.
        """
        self._check_fingerprint(fingerprint)
        with self._lock:
            entry = self._index.get(fingerprint)
            if entry is None:
                self._count("result_cache_misses")
                return None
            try:
                _fingerprint, payload = self._load_file(entry.path)
            except _BadEntry as bad:
                self._index.pop(fingerprint, None)
                self._quarantine(entry.path, bad.args[0])
                self._count("result_cache_misses")
                return None
            self._index.move_to_end(fingerprint)
            try:
                os.utime(entry.path)
            except OSError:
                pass  # recency refresh is best-effort
            self._count("result_cache_hits")
            return payload

    def put(self, fingerprint: str, payload: Dict) -> bool:
        """Store ``payload`` under ``fingerprint``; ``False`` if refused.

        Refusal (rather than an exception) is the contract for payloads
        that are not completed ``"ok"`` results — e.g. a
        ``budget-exceeded`` partial — so callers cannot poison the cache
        even by mistake.
        """
        self._check_fingerprint(fingerprint)
        if not _ok_payload(payload):
            return False
        entry = {
            "format": CACHE_TAG,
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "payload": payload,
            "sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
        }
        text = json.dumps(entry, sort_keys=True)
        with self._lock:
            path = self._path_for(fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            _chaos_kill_mid_write(path, text)
            atomic_write_text(path, text)
            self._index[fingerprint] = _IndexEntry(
                path=path, size=len(text.encode("utf-8"))
            )
            self._index.move_to_end(fingerprint)
            self._count("result_cache_stores")
            self._evict_if_needed()
        return True

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry by fingerprint; ``True`` if it existed."""
        self._check_fingerprint(fingerprint)
        with self._lock:
            entry = self._index.pop(fingerprint, None)
            path = entry.path if entry is not None else self._path_for(fingerprint)
            existed = path.exists()
            path.unlink(missing_ok=True)
            return existed or entry is not None

    def _evict_if_needed(self) -> None:
        while len(self._index) > self.max_entries or (
            self.max_bytes is not None
            and sum(entry.size for entry in self._index.values())
            > self.max_bytes
            and len(self._index) > 1
        ):
            _fingerprint, entry = self._index.popitem(last=False)
            entry.path.unlink(missing_ok=True)
            self._count("result_cache_evictions")

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._index

    def fingerprints(self) -> Iterable[str]:
        with self._lock:
            return tuple(self._index)

    def stats(self) -> Dict:
        """Entry count, byte total and session quarantine count."""
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes": sum(entry.size for entry in self._index.values()),
                "quarantined_files": self.quarantined_files,
                "root": str(self.root),
            }


class WarmSeedStore:
    """Empty stand-in for the removed warm-seed store.

    The result cache is the service's only replay, so nothing constructs
    this class or calls :meth:`put`; ``perfbench/tracing.py`` still wraps
    ``put`` by name.
    """

    def put(self, fingerprint: str, payload: Dict) -> bool:
        return False
