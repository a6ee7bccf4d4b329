"""Random task-set generation following the paper's recipe (Sec. V).

For every experiment the paper draws task sets as follows:

* 8 tasks per core (default task-set size 32 on 4 cores);
* each task takes the parameters of a random Mälardalen benchmark;
* per-task utilisations from UUnifast with equal per-core targets;
* periods/deadlines ``T_i = D_i = (PD_i + MD_i * d_mem) / U_i`` (implicit
  deadlines relative to the isolated WCET — see the units discussion in
  ``DESIGN.md``);
* unique deadline-monotonic priorities.

The published table gives footprint *sizes*; to evaluate the set-based CRPD
and CPRO bounds the generator must also decide *where* each task's ECBs sit
in the cache.  Following the standard methodology of the CRPD literature,
each task occupies a run of consecutive cache sets; the run's start is
either always set 0 (maximum inter-task overlap) or uniformly random
(moderate overlap, the default).  UCB and PCB placements are random subsets
of the task's ECB run.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from math import ceil as _ceil, log as _log
from typing import List, Optional, Sequence, Tuple

from repro.cacheanalysis.extraction import extract_parameters_cached
from repro.data.benchmarks import BenchmarkSpec, benchmark_table
from repro.errors import GenerationError
from repro.generation.uunifast import uunifast
from repro.model.blocks import BlockSet
from repro.model.platform import Platform
from repro.model.task import Task, TaskSet
from repro.program.malardalen import benchmark_program, reference_geometry

#: Utilisations below this are clamped to keep generated periods finite.
_MIN_TASK_UTILIZATION = 1e-4


class PlacementPolicy(enum.Enum):
    """How a task's ECB run is positioned in the cache."""

    RANDOM_START = "random-start"
    ZERO_START = "zero-start"


class ParameterSource(enum.Enum):
    """Where per-benchmark cache parameters come from.

    ``TABLE`` uses the canonical row set (published Table I values plus
    reconstructions) — independent of the platform's cache size, matching
    the paper's default experiments.  ``MODELS`` re-extracts every benchmark
    from its synthetic program at the platform's actual cache geometry.
    ``HYBRID`` — the recommended source for the cache-size sweep (Fig. 3c,
    where the original authors re-ran Heptane per size) — takes the
    footprint sets from the models at the actual geometry but re-scales the
    canonical ``MD``/``MDr`` by the models' relative demand and PCB-count
    changes, so that at the reference geometry it coincides with ``TABLE``
    and across sizes the absolute schedulability levels stay comparable to
    the other experiments.
    """

    TABLE = "table"
    MODELS = "models"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters of the random task-set generator."""

    tasks_per_core: int = 8
    placement: PlacementPolicy = PlacementPolicy.RANDOM_START
    parameter_source: ParameterSource = ParameterSource.TABLE
    benchmarks: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.tasks_per_core <= 0:
            raise GenerationError(
                f"tasks_per_core must be positive, got {self.tasks_per_core}"
            )


def _spec_pool(
    config: GenerationConfig, platform: Platform
) -> Sequence[BenchmarkSpec]:
    rows = benchmark_table()
    if config.benchmarks is not None:
        chosen = set(config.benchmarks)
        rows = tuple(row for row in rows if row.name in chosen)
        if len(rows) != len(chosen):
            missing = chosen - {row.name for row in rows}
            raise GenerationError(f"unknown benchmarks requested: {sorted(missing)}")
    if config.parameter_source is ParameterSource.TABLE:
        return rows
    if config.parameter_source is ParameterSource.MODELS:
        return tuple(_model_spec(row, platform) for row in rows)
    return tuple(_hybrid_spec(row, platform) for row in rows)


def _model_spec(row: BenchmarkSpec, platform: Platform) -> BenchmarkSpec:
    params = extract_parameters_cached(benchmark_program(row.name), platform.cache)
    return BenchmarkSpec(
        name=row.name,
        pd=params.pd,
        md=params.md,
        md_r=params.md_r,
        n_ecb=len(params.ecbs),
        n_ucb=len(params.ucbs),
        n_pcb=len(params.pcbs),
        source=f"model-extracted@{platform.cache.num_sets}",
    )


def _hybrid_spec(row: BenchmarkSpec, platform: Platform) -> BenchmarkSpec:
    """Canonical demand re-scaled by the model's cache-size sensitivity.

    ``MD`` scales with the model's demand ratio between the actual and the
    reference geometry (conflict misses appear as the cache shrinks); the
    persistence saving ``MD - MDr`` scales with the model's PCB-count ratio
    (persistence erodes as mappings collide).  At the reference geometry
    both ratios are 1 and the row is returned unchanged.
    """
    program = benchmark_program(row.name)
    at_size = extract_parameters_cached(program, platform.cache)
    at_ref = extract_parameters_cached(program, reference_geometry())
    demand_ratio = at_size.md / at_ref.md if at_ref.md else 1.0
    md = max(1, int(round(row.md * demand_ratio)))
    savings_ref = row.md - row.md_r
    if at_ref.pcbs:
        pcb_ratio = len(at_size.pcbs) / len(at_ref.pcbs)
    else:
        pcb_ratio = 0.0
    savings = int(round(savings_ref * pcb_ratio))
    md_r = min(md, max(0, md - savings))
    return BenchmarkSpec(
        name=row.name,
        pd=row.pd,
        md=md,
        md_r=md_r,
        n_ecb=len(at_size.ecbs),
        n_ucb=len(at_size.ucbs),
        n_pcb=len(at_size.pcbs),
        source=f"hybrid@{platform.cache.num_sets}",
    )


def _sample(getrandbits, population: Sequence[int], k: int) -> List[int]:
    """``random.Random.sample(population, k)``, transcribed.

    Makes the same picks in the same order and leaves the generator in the
    same state as CPython's ``sample`` (identical on 3.10-3.12), with
    ``_randbelow`` inlined as a ``getrandbits`` rejection loop; callers
    pass ``0 <= k <= len(population)``.  Task sets therefore stay those
    that ``rng.sample`` drew, at about half the cost per call.
    """
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** _ceil(_log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    selected = set()
    bits = n.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(population[j])
    return result


def _skip_sample(getrandbits, n: int) -> None:
    """Advance the generator as ``_sample(getrandbits, run, n)`` would.

    Drawing all ``n`` members of a run always takes ``sample``'s pool
    branch, one bounded draw below each of ``n, n - 1, ..., 1``; the
    result is the run itself, so only the draws are needed.
    """
    for m in range(n, 0, -1):
        bits = m.bit_length()
        while getrandbits(bits) >= m:
            pass


def _subset(
    getrandbits, ecbs: BlockSet, n: int, head: int, start: int, count: int
) -> BlockSet:
    """``count`` random sets of the ECB run ``ecbs`` of ``n`` sets.

    Draws exactly as ``sample(run, count)`` over the run's sets in
    ascending order would: the picks are positions in that order, the
    ``head`` sets wrapped to the front (``0 .. head - 1``) first, then
    the sets from ``start`` on.  A subset that is the whole run is
    ``ecbs`` itself.
    """
    if count >= n:
        _skip_sample(getrandbits, n)
        return ecbs
    picks = 0
    for position in _sample(getrandbits, range(n), count):
        picks |= 1 << position
    wrapped = picks & ((1 << head) - 1)
    return BlockSet.from_mask(wrapped | (picks ^ wrapped) >> head << start)


def _place_sets(
    rng: random.Random,
    spec: BenchmarkSpec,
    num_sets: int,
    placement: PlacementPolicy,
) -> Tuple[BlockSet, BlockSet, BlockSet]:
    """Materialise concrete (ecbs, ucbs, pcbs) cache-set placements.

    The ECB run is ``n_ecb`` consecutive sets from ``start``, wrapping
    past the last set to set 0, packed by shifts; a UCB or PCB set that
    is the whole run is the ECB set itself.
    """
    if placement is PlacementPolicy.ZERO_START:
        start = 0
    else:
        start = rng.randrange(num_sets)
    n_ecb = min(spec.n_ecb, num_sets)
    run = ((1 << n_ecb) - 1) << start
    ecbs = BlockSet.from_mask((run | run >> num_sets) & ((1 << num_sets) - 1))
    head = max(start + n_ecb - num_sets, 0)
    getrandbits = rng.getrandbits
    ucbs = _subset(getrandbits, ecbs, n_ecb, head, start, spec.n_ucb)
    pcbs = _subset(getrandbits, ecbs, n_ecb, head, start, spec.n_pcb)
    return ecbs, ucbs, pcbs


def generate_taskset(
    rng: random.Random,
    platform: Platform,
    core_utilization: float,
    config: GenerationConfig = GenerationConfig(),
) -> TaskSet:
    """Draw one random task set for ``platform``.

    Args:
        rng: seeded random source; identical seeds reproduce the task set.
        platform: target platform (supplies core count, ``d_mem`` and the
            cache geometry used by the ``MODELS`` parameter source).
        core_utilization: UUnifast target for *every* core (the paper uses
            equal per-core utilisation).
        config: generation knobs.
    """
    if core_utilization <= 0:
        raise GenerationError(
            f"core_utilization must be positive, got {core_utilization}"
        )
    pool = _spec_pool(config, platform)
    if not pool:
        raise GenerationError("benchmark pool is empty")
    num_sets = platform.cache.num_sets
    d_mem = platform.d_mem
    drawn = []
    for core in platform.cores:
        utilizations = uunifast(rng, config.tasks_per_core, core_utilization)
        for index, utilization in enumerate(utilizations):
            utilization = max(utilization, _MIN_TASK_UTILIZATION)
            spec = rng.choice(pool)
            sets = _place_sets(rng, spec, num_sets, config.placement)
            wcet = spec.pd + spec.md * d_mem
            period = max(int(round(wcet / utilization)), wcet)
            drawn.append((period, core, index, spec, sets))
    # Deadline-monotonic priorities with ties broken by draw order (as
    # assign_deadline_monotonic_priorities does), ranked before any task
    # is built so each one is constructed once with its final priority.
    ranked = sorted(range(len(drawn)), key=lambda n: (drawn[n][0], n))
    tasks: List[Task] = []
    for priority, n in enumerate(ranked, 1):
        period, core, index, spec, (ecbs, ucbs, pcbs) = drawn[n]
        tasks.append(
            Task(
                name=f"{spec.name}#c{core}t{index}",
                pd=spec.pd,
                md=spec.md,
                md_r=spec.md_r,
                period=period,
                deadline=period,
                priority=priority,
                core=core,
                ecbs=ecbs,
                ucbs=ucbs,
                pcbs=pcbs,
            )
        )
    return TaskSet(tasks)
