"""Append-only run journal for checkpointed, resumable sweeps.

A long campaign (the paper uses 1000 samples x 20 utilisation points x 7
variants per figure) must survive crashes, pre-emption and Ctrl-C without
throwing away completed work.  The journal is the persistence half of that
story (the supervisor in :mod:`repro.experiments.supervisor` is the
recovery half):

* **One file per sweep**, named by the sweep *fingerprint* — a SHA-256 of
  the canonical-JSON description of everything that determines the
  outcomes: platform, variants (policy + analysis configuration),
  samples, seed, utilisation grid, generation config and point offset.
  Execution parameters that cannot change results (``jobs``, ``profile``,
  ``timeout``, ``retries``) are deliberately excluded, so a run
  interrupted at ``--jobs 8`` can resume at ``--jobs 2``.
* **JSONL records, appended and flushed one at a time.**  The first line
  is a header carrying the fingerprint; every further line checkpoints one
  completed ``(point, sample)`` item — either a ``sample`` record with its
  weight and verdicts or a ``failure`` record quarantining a poison
  sample with its reproducer seed.  Because a kill can only truncate the
  *last* line mid-write, the loader drops whatever follows the last
  newline — cutting it from the file before anything is appended, and
  writing a fresh header when no line survived — and rejects any other
  corruption as :class:`~repro.errors.JournalError`.
* **Bit-identical resume.**  Weights are floats serialised via
  ``repr``-round-tripping JSON and verdicts are booleans, so an outcome
  read back from the journal compares equal to the freshly computed one;
  ``--resume`` therefore yields byte-identical reports to an
  uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import JournalError
from repro.experiments.config import SweepSettings, Variant
from repro.model.platform import Platform
from repro.serialization import canonical_json, platform_to_dict

#: Format tag of the journal header record.
JOURNAL_TAG = "repro-run-journal"

#: Current journal format version.
JOURNAL_VERSION = 1

#: How many hex digits of the fingerprint name the journal file.
_FILENAME_DIGITS = 16

PathLike = Union[str, Path]

#: Journal key of one work item: ``(point_index, sample_index)``.
ItemKey = Tuple[int, int]


def _jsonable(value):
    """Recursively convert dataclasses/enums/tuples into plain JSON values."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


def sweep_description(
    platform: Platform,
    variants: Sequence[Variant],
    settings: SweepSettings,
    point_offset: int = 0,
) -> Dict:
    """The plain-JSON document the fingerprint is computed over.

    Contains exactly the outcome-determining parameters and nothing else;
    see the module docstring for what is excluded and why.
    """
    descriptions = []
    for variant in variants:
        analysis = _jsonable(variant.analysis)
        # The fused evaluator is an invisible optimisation (bit-identical
        # results) and ``lockstep_kernel`` is read by nothing; keep both
        # out of the fingerprint so journals written before the knobs
        # existed stay resumable.
        analysis.pop("array_kernel", None)
        analysis.pop("lockstep_kernel", None)
        descriptions.append(
            {
                "label": variant.label,
                "policy": variant.policy.value,
                "analysis": analysis,
            }
        )
    return {
        "format": JOURNAL_TAG,
        "version": JOURNAL_VERSION,
        "platform": platform_to_dict(platform),
        "variants": descriptions,
        "samples": settings.samples,
        "seed": settings.seed,
        "utilizations": list(settings.utilizations),
        "generation": _jsonable(settings.generation),
        "point_offset": point_offset,
    }


def sweep_fingerprint(
    platform: Platform,
    variants: Sequence[Variant],
    settings: SweepSettings,
    point_offset: int = 0,
) -> str:
    """Hex SHA-256 identifying a sweep's outcome-determining parameters."""
    text = canonical_json(sweep_description(platform, variants, settings, point_offset))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunJournal:
    """One sweep's append-only checkpoint file inside a journal directory.

    Open with :meth:`open`, feed it completed items via
    :meth:`record_sample` / :meth:`record_failure` (each call appends one
    flushed line, so even SIGKILL loses at most the in-flight chunk), and
    read back prior progress from :attr:`completed` / :attr:`failures`.
    """

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        completed: Dict[ItemKey, Tuple[float, Tuple[bool, ...]]],
        failures: Dict[ItemKey, Dict],
        handle,
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        #: ``(point, sample) -> (weight, verdicts)`` read from prior runs.
        self.completed = completed
        #: ``(point, sample) -> failure record`` quarantined by prior runs.
        self.failures = failures
        self._handle = handle

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: PathLike,
        fingerprint: str,
        description: Optional[Dict] = None,
    ) -> "RunJournal":
        """Open (creating if needed) the journal for ``fingerprint``.

        An existing file is validated and its records loaded so the caller
        can skip completed items.  A torn final line is cut off so the
        next record starts a line of its own, and a file without a whole
        header line (new, empty or torn inside the header) gets a header
        line first.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{fingerprint[:_FILENAME_DIGITS]}.jsonl"
        completed: Dict[ItemKey, Tuple[float, Tuple[bool, ...]]] = {}
        failures: Dict[ItemKey, Dict] = {}
        intact = 0
        if path.exists():
            completed, failures, intact = cls._load(path, fingerprint)
            os.truncate(path, intact)
        handle = path.open("a", encoding="utf-8")
        if not intact:
            header = {
                "kind": "header",
                "format": JOURNAL_TAG,
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
            if description is not None:
                header["sweep"] = description
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
        return cls(path, fingerprint, completed, failures, handle)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appending ----------------------------------------------------------

    def _append(self, record: Dict) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record_sample(
        self, point: int, sample: int, weight: float, verdicts: Sequence[bool]
    ) -> None:
        """Checkpoint one healthy completed item."""
        self._append(
            {
                "kind": "sample",
                "point": point,
                "sample": sample,
                "weight": weight,
                "verdicts": [bool(v) for v in verdicts],
            }
        )
        self.completed[(point, sample)] = (weight, tuple(bool(v) for v in verdicts))

    def record_failure(self, record: Dict) -> None:
        """Checkpoint one quarantined item (see ``SampleFailure.to_record``)."""
        self._append(dict(record, kind="failure"))
        self.failures[(record["point"], record["sample"])] = dict(record)

    # -- loading ------------------------------------------------------------

    @staticmethod
    def _load(
        path: Path, fingerprint: str
    ) -> Tuple[
        Dict[ItemKey, Tuple[float, Tuple[bool, ...]]], Dict[ItemKey, Dict], int
    ]:
        """Records of ``path`` and the byte length of its whole lines.

        Every record is written with its newline, so bytes after the last
        newline are an append a kill cut short: they are not loaded, and
        that item simply re-runs on resume.
        """
        data = path.read_bytes()
        intact = data.rfind(b"\n") + 1
        records: List[Dict] = []
        for number, line in enumerate(data[:intact].split(b"\n")[:-1]):
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise JournalError(
                    f"journal {path} line {number + 1} is corrupt: {error}"
                ) from error
            if not isinstance(record, dict):
                raise JournalError(
                    f"journal {path} line {number + 1} is not a record"
                )
            records.append(record)
        if not records:
            # Header lost to truncation: treat as a fresh (empty) journal.
            return {}, {}, 0
        header = records[0]
        if header.get("kind") != "header" or header.get("format") != JOURNAL_TAG:
            raise JournalError(f"journal {path} has no valid header line")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has unsupported version "
                f"{header.get('version')!r}"
            )
        if header.get("fingerprint") != fingerprint:
            raise JournalError(
                f"journal {path} belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r}, "
                f"expected {fingerprint!r})"
            )
        completed: Dict[ItemKey, Tuple[float, Tuple[bool, ...]]] = {}
        failures: Dict[ItemKey, Dict] = {}
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "sample":
                try:
                    key = (int(record["point"]), int(record["sample"]))
                    weight = float(record["weight"])
                    verdicts = tuple(bool(v) for v in record["verdicts"])
                except (KeyError, TypeError, ValueError) as error:
                    raise JournalError(
                        f"journal {path} has a malformed sample record: "
                        f"{error}"
                    ) from error
                completed[key] = (weight, verdicts)
            elif kind == "failure":
                try:
                    key = (int(record["point"]), int(record["sample"]))
                except (KeyError, TypeError, ValueError) as error:
                    raise JournalError(
                        f"journal {path} has a malformed failure record: "
                        f"{error}"
                    ) from error
                failures[key] = record
            elif kind != "header":
                raise JournalError(
                    f"journal {path} has a record of unknown kind {kind!r}"
                )
        return completed, failures, intact
