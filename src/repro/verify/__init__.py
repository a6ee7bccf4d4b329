"""Soundness fuzzing and metamorphic verification (``repro.verify``).

An always-on verification subsystem that hunts for unsoundness in the
analytical bounds: random adversarial cases are generated, checked against
a registry of provable oracles (kernel identity, simulation-vs-bound
soundness, Eq. 10 ground truth, dominance and monotonicity relations),
and any violation is delta-debugged to a minimal reproducer and persisted
into a replayable corpus.  See ``docs/VERIFY.md`` for the workflow and
``python -m repro.verify --help`` for the CLI.
"""

from repro.verify.cases import (
    CASE_KINDS,
    DemandCase,
    ScenarioCase,
    TasksetCase,
    case_from_json,
    case_to_json,
)
from repro.verify.corpus import (
    DEFAULT_CORPUS,
    CorpusEntry,
    ReplayReport,
    replay_corpus,
)
from repro.verify.engine import FuzzReport, Violation, collect_seed_corpus, fuzz
from repro.verify.faults import fault_names, inject_fault
from repro.verify.oracles import (
    Oracle,
    applicable_oracles,
    get_oracle,
    oracle_names,
    run_oracles,
)
from repro.verify.shrink import ShrinkResult, shrink_case

__all__ = [
    "CASE_KINDS",
    "DEFAULT_CORPUS",
    "CorpusEntry",
    "DemandCase",
    "FuzzReport",
    "Oracle",
    "ReplayReport",
    "ScenarioCase",
    "ShrinkResult",
    "TasksetCase",
    "Violation",
    "applicable_oracles",
    "case_from_json",
    "case_to_json",
    "collect_seed_corpus",
    "fault_names",
    "fuzz",
    "get_oracle",
    "inject_fault",
    "oracle_names",
    "replay_corpus",
    "run_oracles",
    "shrink_case",
]
