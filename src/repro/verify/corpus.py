"""Versioned seed corpus: serialised reproducers replayed on every test run.

The corpus (checked in under ``tests/corpus/``) holds two sorts of entries,
both in the ``repro-verify-corpus`` v1 envelope around a serialised case:

* *reproducers* written by the fuzzer when an oracle fired — after the bug
  is fixed they stay in the corpus forever as regression tests;
* *seed cases* curated from passing fuzz runs — interesting boundary
  inputs (each case kind, each bus policy, near-unschedulable sets) that
  pin today's behaviour down cheaply.

Replaying an entry means running its recorded oracles and requiring zero
violations; a corpus entry that fires is always a regression.  File names
are content-addressed (kind + first oracle + payload hash), so identical
reproducers dedupe and names stay stable across regeneration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text
from repro.serialization import check_tagged, decode_json
from repro.verify.cases import case_from_dict, case_to_dict
from repro.verify.oracles import always_replay_oracles, run_oracles

#: Format tag and version of corpus entries.
CORPUS_TAG = "repro-verify-corpus"
CORPUS_VERSION = 1

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS = Path("tests") / "corpus"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus file: a case plus the oracles it must satisfy."""

    case: object
    oracles: Tuple[str, ...]
    note: str = ""

    def to_json(self) -> str:
        document = {
            "format": CORPUS_TAG,
            "version": CORPUS_VERSION,
            "oracles": list(self.oracles),
            "note": self.note,
            "case": case_to_dict(self.case),
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"


def entry_from_json(text: str) -> CorpusEntry:
    """Parse one corpus entry.

    Raises :class:`~repro.errors.ModelError` when it is malformed.
    """
    document = check_tagged(decode_json(text), CORPUS_TAG, CORPUS_VERSION)
    case = case_from_dict(document.get("case", {}))
    return CorpusEntry(
        case=case,
        oracles=tuple(document.get("oracles", ())),
        note=document.get("note", ""),
    )


def entry_name(entry: CorpusEntry) -> str:
    """Deterministic content-addressed file name for ``entry``."""
    payload = json.dumps(case_to_dict(entry.case), sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]
    lead = entry.oracles[0] if entry.oracles else "all"
    return f"{entry.case.kind}-{lead}-{digest}.json"


def save_entry(entry: CorpusEntry, corpus_dir: PathLike) -> Path:
    """Write ``entry`` into ``corpus_dir`` (created if missing)."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry_name(entry)
    atomic_write_text(path, entry.to_json())
    return path


def load_corpus(corpus_dir: PathLike) -> List[Tuple[Path, CorpusEntry]]:
    """Load every ``*.json`` entry of a corpus directory, sorted by name."""
    directory = Path(corpus_dir)
    entries: List[Tuple[Path, CorpusEntry]] = []
    for path in sorted(directory.glob("*.json")):
        entries.append((path, entry_from_json(path.read_text())))
    return entries


@dataclass
class ReplayReport:
    """Aggregate outcome of replaying a corpus."""

    entries: int = 0
    checks: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"corpus replay: {verdict} — {self.entries} entries, "
            f"{self.checks} oracle checks, {len(self.failures)} regressions"
        ]
        lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)


def replay_entry(entry: CorpusEntry) -> Dict[str, List[str]]:
    """Run the entry's recorded oracles (all applicable when unset).

    Oracles flagged ``always_replay`` (the kernel/warm-start identity
    checks) are additionally run on every entry of an applicable kind, so
    the historical corpus exercises them even though the checked-in files
    predate their registration.
    """
    names: Optional[Sequence[str]] = entry.oracles or None
    if names is not None:
        extra = [
            oracle.name
            for oracle in always_replay_oracles(entry.case.kind)
            if oracle.name not in names
        ]
        if extra:
            names = list(names) + extra
    return run_oracles(entry.case, names=names)


def replay_corpus(
    corpus_dir: PathLike = DEFAULT_CORPUS,
    paths: Optional[Sequence[PathLike]] = None,
) -> ReplayReport:
    """Replay every entry of a corpus (or just ``paths``) and report.

    A missing corpus directory yields an empty passing report, so fresh
    clones without a corpus stay green.
    """
    report = ReplayReport()
    if paths is not None:
        loaded = [
            (Path(p), entry_from_json(Path(p).read_text())) for p in paths
        ]
    elif Path(corpus_dir).is_dir():
        loaded = load_corpus(corpus_dir)
    else:
        loaded = []
    for path, entry in loaded:
        report.entries += 1
        outcome = replay_entry(entry)
        report.checks += len(outcome)
        for oracle, messages in outcome.items():
            for message in messages:
                report.failures.append(f"{path.name}: {oracle}: {message}")
    return report
