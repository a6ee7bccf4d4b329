"""Experiment defaults and the analysis-variant catalogue (Sec. V).

The paper's default setup: 4 cores, 8 tasks per core, a 256-set x 32-byte
private L1 instruction cache per core, ``d_mem`` = 5 us and RR/TDMA slot
size 2.  Seven analysis variants appear across the figures:

=============  ==========================================================
``FP-P``       FP bus, persistence-aware (Lemmas 1-2)
``FP``         FP bus, baseline (Davis et al.)
``RR-P``       RR bus, persistence-aware
``RR``         RR bus, baseline
``TDMA-P``     TDMA bus, persistence-aware
``TDMA``       TDMA bus, baseline
``Perfect``    contention-free bus, upper bound on achievable results
=============  ==========================================================
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.analysis.config import AnalysisConfig, BASELINE, PERSISTENCE_AWARE
from repro.errors import AnalysisError
from repro.generation.taskset_gen import GenerationConfig
from repro.model.platform import BusPolicy, CacheGeometry, Platform, microseconds_to_cycles

#: Environment variable overriding the per-point sample count.
SAMPLES_ENV_VAR = "REPRO_SAMPLES"

#: Environment variable overriding the worker process count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Per-point sample count used by the paper (1000 task sets per point).
PAPER_SAMPLES = 1000

#: Default per-point sample count for interactive runs; override with
#: ``REPRO_SAMPLES`` or the CLI ``--samples`` flag for paper-scale runs.
DEFAULT_SAMPLES = 100

#: The paper's core-utilisation grid: 0.05 to 1.0 in steps of 0.05.
PAPER_UTILIZATIONS: Tuple[float, ...] = tuple(
    round(0.05 * step, 2) for step in range(1, 21)
)

#: Coarser grid used inside weighted-schedulability sweeps to keep the
#: 2-parameter experiments tractable at interactive sample counts.
WEIGHTED_UTILIZATIONS: Tuple[float, ...] = tuple(
    round(0.1 * step, 2) for step in range(1, 10)
)


@dataclass(frozen=True)
class Variant:
    """One curve of a figure: a bus policy plus an analysis configuration."""

    label: str
    policy: BusPolicy
    analysis: AnalysisConfig


def standard_variants(include_perfect: bool = True) -> Tuple[Variant, ...]:
    """The six persistence/baseline curves, optionally plus the perfect bus."""
    variants = [
        Variant("FP-P", BusPolicy.FP, PERSISTENCE_AWARE),
        Variant("FP", BusPolicy.FP, BASELINE),
        Variant("RR-P", BusPolicy.RR, PERSISTENCE_AWARE),
        Variant("RR", BusPolicy.RR, BASELINE),
        Variant("TDMA-P", BusPolicy.TDMA, PERSISTENCE_AWARE),
        Variant("TDMA", BusPolicy.TDMA, BASELINE),
    ]
    if include_perfect:
        variants.append(Variant("Perfect", BusPolicy.PERFECT, PERSISTENCE_AWARE))
    return tuple(variants)


def slot_variants() -> Tuple[Variant, ...]:
    """The four slot-sensitive curves of the slot-size sweep (Fig. 3d)."""
    return tuple(v for v in standard_variants(False) if v.policy is not BusPolicy.FP)


def default_platform() -> Platform:
    """The paper's default platform (bus policy is set per variant)."""
    return Platform(
        num_cores=4,
        cache=CacheGeometry(num_sets=256, block_size=32),
        d_mem=microseconds_to_cycles(5),
        bus_policy=BusPolicy.FP,
        slot_size=2,
    )


@dataclass(frozen=True)
class SweepSettings:
    """Sampling parameters shared by every experiment driver.

    ``jobs = 0`` requests automatic parallelism: it is resolved to the
    machine's CPU count at construction time, so every consumer sees the
    concrete worker count.  Negative values are rejected.  ``profile``
    asks the CLI to print the kernel's perf counters after each
    experiment (see :mod:`repro.perf`).

    The resilience knobs drive the supervised execution layer
    (:mod:`repro.experiments.supervisor`): ``sample_budget`` is the
    per-sample *in-process* wall-clock budget in seconds — each sample's
    analyses carry a :class:`~repro.budget.Budget` and abort cooperatively
    at the next iteration boundary when it runs out (quarantined with kind
    ``"budget"``, no retries: the abort is a property of the sample, not a
    transient).  ``timeout`` is the per-chunk wall-clock budget of the
    process-kill watchdog (``None`` disables it, the default — legitimate
    chunks near the schedulability cliff can be arbitrarily slow); when
    only ``sample_budget`` is set, a generous watchdog allowance is derived
    from it as a fallback for non-cooperative hangs (see the supervisor).
    ``retries`` is the per-sample retry budget for transient failures
    (spaced by the supervisor's capped exponential backoff).

    Every parameter is validated eagerly at construction with a typed
    :class:`~repro.errors.ReproError` subclass, so misconfiguration
    surfaces here — at the call site — rather than as an opaque failure
    deep inside a worker process.
    """

    samples: int = DEFAULT_SAMPLES
    seed: int = 2020
    utilizations: Tuple[float, ...] = PAPER_UTILIZATIONS
    jobs: int = 1
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    profile: bool = False
    timeout: Optional[float] = None
    sample_budget: Optional[float] = None
    retries: int = 2

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise AnalysisError(f"samples must be >= 1, got {self.samples}")
        if self.jobs < 0:
            raise AnalysisError(
                f"jobs must be positive (or 0 for auto-detection), "
                f"got {self.jobs}"
            )
        if self.jobs == 0:
            # Frozen dataclass: resolve the auto value in place so the rest
            # of the machinery never sees the 0 sentinel.
            object.__setattr__(self, "jobs", os.cpu_count() or 1)
        if not self.utilizations:
            raise AnalysisError("at least one utilisation point is required")
        for utilization in self.utilizations:
            if not math.isfinite(utilization) or utilization <= 0:
                raise AnalysisError(
                    f"utilisation points must be finite and positive, "
                    f"got {utilization}"
                )
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise AnalysisError(
                f"timeout must be a positive number of seconds (or None "
                f"to disable the watchdog), got {self.timeout}"
            )
        if self.sample_budget is not None and not (
            math.isfinite(self.sample_budget) and self.sample_budget > 0
        ):
            raise AnalysisError(
                f"sample budget must be a positive number of seconds (or "
                f"None to disable in-process budgets), got {self.sample_budget}"
            )
        if self.retries < 0:
            raise AnalysisError(
                f"retries must be non-negative, got {self.retries}"
            )


def _environment_int(name: str) -> int:
    """Parse an integer environment override with a helpful error."""
    raw = os.environ[name]
    try:
        return int(raw)
    except ValueError:
        raise AnalysisError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def settings_from_environment(**overrides) -> SweepSettings:
    """Build :class:`SweepSettings` honouring the environment overrides.

    ``REPRO_SAMPLES`` and ``REPRO_JOBS`` apply when the corresponding
    keyword is absent; ``REPRO_JOBS=0`` selects automatic parallelism
    (one worker per CPU).  Non-integer values raise
    :class:`~repro.errors.AnalysisError` naming the offending variable.
    """
    kwargs = dict(overrides)
    if "samples" not in kwargs and SAMPLES_ENV_VAR in os.environ:
        kwargs["samples"] = _environment_int(SAMPLES_ENV_VAR)
    if "jobs" not in kwargs and JOBS_ENV_VAR in os.environ:
        kwargs["jobs"] = _environment_int(JOBS_ENV_VAR)
    return SweepSettings(**kwargs)
