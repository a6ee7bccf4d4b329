"""Fuzz-case model and its versioned JSON serialisation.

A *case* is one self-contained input the oracle registry can be evaluated
on.  Three kinds exist, mirroring the three ways the library's bounds can
be exercised:

* :class:`TasksetCase` — a synthetic task set plus platform and analysis
  configuration; target of the purely analytical oracles (kernel
  identity, persistence/perfect dominance, metamorphic monotonicity).
* :class:`ScenarioCase` — benchmark programs placed on cores, analysed
  *and* executed by the discrete-event simulator; target of the
  analysis-versus-simulation oracle.
* :class:`DemandCase` — a single benchmark replayed for ``n_jobs``
  consecutive jobs through the exact cache simulator; target of the Eq. 10
  multi-job-demand oracle.

Cases serialise to plain JSON with an explicit format tag and version
(``repro-verify-case`` v1) so corpus reproducers stay replayable as the
library evolves.  Serialisation is canonical — keys sorted, sets stored as
sorted lists — making file contents byte-stable and content-addressable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.analysis.config import AnalysisConfig
from repro.crpd.approaches import CrpdApproach
from repro.errors import ModelError
from repro.model.platform import Platform
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import CproApproach
from repro.serialization import (
    check_tagged,
    decode_json,
    platform_from_dict,
    platform_to_dict,
    task_to_dict,
    tasks_from_dicts,
)
from repro.sim.scenario import ScenarioSpec

#: Format tag and version of serialised fuzz cases / corpus reproducers.
CASE_TAG = "repro-verify-case"
CASE_VERSION = 1


def config_to_dict(config: AnalysisConfig) -> Dict:
    """Plain-dict form of an :class:`AnalysisConfig` (JSON-safe)."""
    return {
        "persistence": config.persistence,
        "crpd_approach": config.crpd_approach.value,
        "cpro_approach": config.cpro_approach.value,
        "persistence_in_low": config.persistence_in_low,
        "tdma_slot_alignment": config.tdma_slot_alignment,
        "memoization": config.memoization,
        "bitset_kernel": config.bitset_kernel,
        "array_kernel": config.array_kernel,
        "warm_start": config.warm_start,
    }


def config_from_dict(data: Dict) -> AnalysisConfig:
    """Inverse of :func:`config_to_dict` (absent keys keep defaults)."""
    if not isinstance(data, dict):
        raise ModelError(
            f"malformed analysis config record: expected an object, "
            f"got {type(data).__name__}"
        )
    defaults = AnalysisConfig()
    try:
        return AnalysisConfig(
            persistence=data.get("persistence", defaults.persistence),
            crpd_approach=CrpdApproach(
                data.get("crpd_approach", defaults.crpd_approach.value)
            ),
            cpro_approach=CproApproach(
                data.get("cpro_approach", defaults.cpro_approach.value)
            ),
            persistence_in_low=data.get(
                "persistence_in_low", defaults.persistence_in_low
            ),
            tdma_slot_alignment=data.get(
                "tdma_slot_alignment", defaults.tdma_slot_alignment
            ),
            memoization=data.get("memoization", defaults.memoization),
            bitset_kernel=data.get("bitset_kernel", defaults.bitset_kernel),
            array_kernel=data.get("array_kernel", defaults.array_kernel),
            warm_start=data.get("warm_start", defaults.warm_start),
        )
    except ValueError as error:
        raise ModelError(f"malformed analysis config record: {error}") from error


@dataclass(frozen=True)
class TasksetCase:
    """A synthetic task set under a given platform and analysis config."""

    platform: Platform
    tasks: Tuple[Task, ...]
    config: AnalysisConfig = AnalysisConfig()

    kind = "taskset"

    def taskset(self) -> TaskSet:
        """Materialise the (view-caching) task-set container."""
        return TaskSet(self.tasks)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def with_tasks(self, tasks: Tuple[Task, ...]) -> "TasksetCase":
        return replace(self, tasks=tuple(tasks))

    def payload(self) -> Dict:
        return {
            "platform": platform_to_dict(self.platform),
            "config": config_to_dict(self.config),
            "tasks": [task_to_dict(task) for task in self.tasks],
        }


@dataclass(frozen=True)
class ScenarioCase:
    """Benchmark programs on cores, analysed and simulated side by side."""

    platform: Platform
    specs: Tuple[ScenarioSpec, ...]
    layout_seed: int = 0
    hyperperiods: int = 8
    config: AnalysisConfig = AnalysisConfig(
        persistence=True, tdma_slot_alignment=True
    )

    kind = "scenario"

    @property
    def task_count(self) -> int:
        return len(self.specs)

    def payload(self) -> Dict:
        return {
            "platform": platform_to_dict(self.platform),
            "config": config_to_dict(self.config),
            "layout_seed": self.layout_seed,
            "hyperperiods": self.hyperperiods,
            "specs": [
                {
                    "benchmark": spec.benchmark,
                    "core": spec.core,
                    "period_factor": spec.period_factor,
                    "scale": spec.scale,
                }
                for spec in self.specs
            ],
        }


@dataclass(frozen=True)
class DemandCase:
    """One benchmark replayed for ``n_jobs`` jobs (Eq. 10 ground truth)."""

    benchmark: str
    n_jobs: int
    num_sets: int = 256
    scale: float = 1.0

    kind = "demand"

    #: A demand case always concerns exactly one task.
    task_count = 1

    def payload(self) -> Dict:
        return {
            "benchmark": self.benchmark,
            "n_jobs": self.n_jobs,
            "num_sets": self.num_sets,
            "scale": self.scale,
        }


Case = object  # TasksetCase | ScenarioCase | DemandCase (py39-compatible alias)


def case_to_dict(case) -> Dict:
    """Versioned plain-dict form of any case kind."""
    document = {
        "format": CASE_TAG,
        "version": CASE_VERSION,
        "kind": case.kind,
    }
    document.update(case.payload())
    return document


def case_to_json(case) -> str:
    """Canonical (sorted-keys) JSON form of a case — byte-stable."""
    return json.dumps(case_to_dict(case), indent=2, sort_keys=True) + "\n"


def case_from_dict(document: Dict):
    """Inverse of :func:`case_to_dict`.

    A malformed record — a missing field, a record of the wrong JSON type
    where an object belongs, or a demand or scenario field of the wrong
    scalar type — raises :class:`~repro.errors.ModelError`.
    """
    check_tagged(document, CASE_TAG, CASE_VERSION)
    try:
        return _case_from_checked(document)
    except KeyError as error:
        raise ModelError(f"malformed case record: missing {error}") from error
    except TypeError as error:
        raise ModelError(f"malformed case record: {error}") from error


_REQUIRED = object()

#: What each kind of scalar field of a demand or scenario case must be.
_SCALARS = {
    "a string": lambda value: isinstance(value, str),
    "an integer": lambda value: (
        isinstance(value, int) and not isinstance(value, bool)
    ),
    "a finite number": lambda value: not isinstance(value, bool) and (
        isinstance(value, int)
        or (isinstance(value, float) and math.isfinite(value))
    ),
}


def _scalar(record: Dict, name: str, kind: str, default=_REQUIRED):
    """``record[name]`` (``default`` when absent), checked to be ``kind``."""
    value = record[name] if default is _REQUIRED or name in record else default
    if not _SCALARS[kind](value):
        raise ModelError(
            f"malformed case record: {name!r} must be {kind}, "
            f"got {type(value).__name__}"
        )
    return value


def _case_from_checked(document: Dict):
    kind = document.get("kind")
    if kind == "taskset":
        platform = platform_from_dict(document["platform"])
        return TasksetCase(
            platform=platform,
            tasks=tuple(tasks_from_dicts(document["tasks"], platform)),
            config=config_from_dict(document.get("config", {})),
        )
    if kind == "scenario":
        return ScenarioCase(
            platform=platform_from_dict(document["platform"]),
            specs=tuple(
                ScenarioSpec(
                    benchmark=_scalar(record, "benchmark", "a string"),
                    core=_scalar(record, "core", "an integer"),
                    period_factor=_scalar(
                        record, "period_factor", "a finite number", 6.0
                    ),
                    scale=_scalar(record, "scale", "a finite number", 1.0),
                )
                for record in document["specs"]
            ),
            layout_seed=_scalar(document, "layout_seed", "an integer", 0),
            hyperperiods=_scalar(document, "hyperperiods", "an integer", 8),
            config=config_from_dict(document.get("config", {})),
        )
    if kind == "demand":
        return DemandCase(
            benchmark=_scalar(document, "benchmark", "a string"),
            n_jobs=_scalar(document, "n_jobs", "an integer"),
            num_sets=_scalar(document, "num_sets", "an integer", 256),
            scale=_scalar(document, "scale", "a finite number", 1.0),
        )
    raise ModelError(f"unknown case kind {kind!r}")


def case_from_json(text: str):
    """Inverse of :func:`case_to_json`."""
    return case_from_dict(decode_json(text))


#: Kinds accepted by the generators / CLI, in default generation order.
CASE_KINDS: Tuple[str, ...] = ("taskset", "demand", "scenario")
