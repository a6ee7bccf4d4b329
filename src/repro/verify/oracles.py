"""The oracle registry: every property the fuzzer checks on a case.

Each oracle encodes a *provable* property of the analysis — soundness
against ground truth, dominance between configurations, or a metamorphic
monotonicity relation — so any reported violation is a genuine bug, never
fuzz noise:

``kernel-identity``
    The production kernel (fused rows of the packed-bitmask
    :class:`~repro.model.interference.InterferenceTable`) and the reference
    kernel (per-term evaluation over calculators with ``frozenset`` views,
    :attr:`~repro.analysis.config.AnalysisConfig.reference`) return
    bit-identical :class:`~repro.analysis.wcrt.WcrtResult`\\ s.  Flagged
    ``always_replay``: corpus replay runs it on every task-set entry,
    including entries recorded before it existed.
``warm-start-identity``
    Re-analysing the same (task set, platform, config) with warm starts
    enabled returns a result bit-identical to the cold analysis, and the
    warm shortcut actually engages for schedulable sets.  Also
    ``always_replay``.
``persistence-tightens``
    The persistence-aware bounds of Lemmas 1-2 never exceed the baseline
    bounds of Davis et al., and never flip a baseline-schedulable set to
    unschedulable.
``perfect-dominance``
    The contention-free perfect bus lower-bounds every real arbiter.
``mono-period-shrink``
    Shrinking one task's period (and deadline) adds interference: on the
    perfect bus every bound weakly increases, and an unschedulable set
    stays unschedulable.
``mono-mdr-raise``
    Raising a task's residual demand ``MDr`` weakens persistence: on the
    perfect bus every bound weakly increases.  (Both monotonicity claims
    are provable only there — see :func:`_metamorphic_compare`.)
``fixed-point-sanity``
    Schedulable verdicts are internally consistent (every bound between
    the isolated WCET and the deadline).
``eq10-demand``
    The Eq. 10 multi-job demand bounds the *exact* miss count of ``n``
    consecutive jobs replayed through the trace-driven cache simulator.
``sim-vs-wcrt``
    Observed response times and per-job bus accesses in the discrete-event
    simulator never exceed the analytical WCRT bound / ``MD``.

Dominance and monotonicity comparisons are skipped when either analysis
exhausted its outer-iteration budget (verdict "unschedulable" with no
failing task): that verdict is conservative, not a fixed point, so ordering
arguments do not apply to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import WcrtResult, analyze_taskset, coarse_bound
from repro.cacheanalysis.extraction import extract_parameters_cached
from repro.cacheanalysis.simulator import simulate_trace
from repro.model.platform import BusPolicy, CacheGeometry
from repro.model.task import Task, TaskSet
from repro.persistence.demand import multi_job_demand
from repro.program.malardalen import benchmark_program
from repro.program.trace import worst_case_trace
from repro.sim.engine import simulate
from repro.sim.scenario import build_scenario
from repro.sim.workload import workload_from_programs
from repro.verify.cases import DemandCase, ScenarioCase, TasksetCase


@dataclass(frozen=True)
class Oracle:
    """One checkable property: a name, the case kinds it applies to, and a
    check function returning violation messages (empty = pass).

    ``always_replay`` marks oracles that corpus replay runs on *every*
    entry of an applicable kind, even entries whose recorded oracle list
    predates the oracle's existence.  Identity oracles (kernel and warm
    start vs their reference paths) use it so the whole historical corpus
    keeps exercising them without rewriting the checked-in files.
    """

    name: str
    kinds: Tuple[str, ...]
    description: str
    check: Callable[[object], List[str]]
    always_replay: bool = False


_REGISTRY: Dict[str, Oracle] = {}


def register(
    name: str,
    kinds: Tuple[str, ...],
    description: str,
    always_replay: bool = False,
):
    """Class-body decorator adding a check function to the registry."""

    def wrap(check: Callable[[object], List[str]]) -> Callable:
        _REGISTRY[name] = Oracle(name, kinds, description, check, always_replay)
        return check

    return wrap


def oracle_names() -> Tuple[str, ...]:
    """All registered oracle names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_oracle(name: str) -> Oracle:
    """Look up one oracle by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; known: {', '.join(oracle_names())}"
        ) from None


def applicable_oracles(kind: str) -> Tuple[Oracle, ...]:
    """Oracles applicable to a case kind, in registration order."""
    return tuple(o for o in _REGISTRY.values() if kind in o.kinds)


def always_replay_oracles(kind: str) -> Tuple[Oracle, ...]:
    """Applicable oracles flagged to run on every corpus entry."""
    return tuple(
        o for o in _REGISTRY.values() if o.always_replay and kind in o.kinds
    )


def run_oracles(
    case, names: Optional[Sequence[str]] = None
) -> Dict[str, List[str]]:
    """Run the named (default: all applicable) oracles on ``case``.

    Returns a mapping oracle name -> violation messages; an oracle that
    passed maps to an empty list.
    """
    if names is None:
        oracles: Sequence[Oracle] = applicable_oracles(case.kind)
    else:
        oracles = [get_oracle(name) for name in names]
        for oracle in oracles:
            if case.kind not in oracle.kinds:
                raise ValueError(
                    f"oracle {oracle.name!r} does not apply to "
                    f"{case.kind!r} cases"
                )
    return {oracle.name: oracle.check(case) for oracle in oracles}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _exhausted(result: WcrtResult) -> bool:
    """Unschedulable only because the outer-iteration budget ran out."""
    return not result.schedulable and result.failed_task is None


def _by_priority(result: WcrtResult) -> Dict[int, int]:
    return {task.priority: r for task, r in result.response_times.items()}


def _compare_pointwise(
    label: str,
    lower: WcrtResult,
    upper: WcrtResult,
    messages: List[str],
) -> None:
    """Append a violation for every task where ``lower`` exceeds ``upper``."""
    upper_by_priority = _by_priority(upper)
    for task, bound in lower.response_times.items():
        other = upper_by_priority.get(task.priority)
        if other is not None and bound > other:
            messages.append(
                f"{label}: task {task.name!r} bound {bound} > {other}"
            )


# ---------------------------------------------------------------------------
# Analytical oracles (taskset cases)
# ---------------------------------------------------------------------------


@register(
    "kernel-identity",
    ("taskset",),
    "production kernel == reference kernel, bit for bit",
    always_replay=True,
)
def _check_kernel_identity(case: TasksetCase) -> List[str]:
    taskset = case.taskset()
    production = analyze_taskset(
        taskset,
        case.platform,
        replace(
            case.config, memoization=True, bitset_kernel=True, array_kernel=True
        ),
    )
    reference = analyze_taskset(
        taskset, case.platform, replace(case.config, bitset_kernel=False)
    )
    if production != reference:
        by_priority = _by_priority(reference)
        diffs = [
            f"{task.name!r}: {bound} vs {by_priority.get(task.priority)}"
            for task, bound in production.response_times.items()
            if by_priority.get(task.priority) != bound
        ]
        return [
            "production kernel differs from the reference: "
            f"schedulable {production.schedulable} vs {reference.schedulable}, "
            f"outer {production.outer_iterations} vs "
            f"{reference.outer_iterations}"
            + (f", bounds: {'; '.join(diffs)}" if diffs else "")
        ]
    return []


@register(
    "warm-start-identity",
    ("taskset",),
    "warm-started re-analysis == cold analysis, bit for bit",
    always_replay=True,
)
def _check_warm_start_identity(case: TasksetCase) -> List[str]:
    taskset = case.taskset()
    config = replace(case.config, warm_start=True)
    cold = analyze_taskset(taskset, case.platform, config)
    warm = analyze_taskset(taskset, case.platform, config)
    messages: List[str] = []
    if warm != cold:
        messages.append(
            "warm-started replay differs from cold analysis: "
            f"schedulable {warm.schedulable} vs {cold.schedulable}, "
            f"outer {warm.outer_iterations} vs {cold.outer_iterations}, "
            f"response times equal: "
            f"{warm.response_times == cold.response_times}"
        )
    if cold.schedulable and warm.perf is not None and warm.perf.warm_starts != 1:
        messages.append(
            "warm start did not engage on a schedulable replay "
            f"(warm_starts = {warm.perf.warm_starts}): the seed failed "
            "re-verification on identical inputs"
        )
    return messages


@register(
    "ladder-dominance",
    ("taskset",),
    "the baseline and the brownout's coarse bound over-approximate the "
    "exact analysis, and their 'schedulable' verdicts agree with it",
    always_replay=True,
)
def _check_ladder_dominance(case: TasksetCase) -> List[str]:
    taskset = case.taskset()
    exact = analyze_taskset(taskset, case.platform, case.config)
    messages: List[str] = []

    degraded = []
    if case.config.persistence:
        degraded.append(
            (
                "baseline",
                analyze_taskset(
                    taskset,
                    case.platform,
                    replace(case.config, persistence=False),
                ),
            )
        )
    coarse = coarse_bound(taskset, case.platform, case.config)
    degraded.append(("coarse", coarse))

    if coarse.failed_task is not None and exact.schedulable:
        messages.append(
            f"coarse tier reports task {coarse.failed_task.name!r} "
            "trivially infeasible but the exact analysis is schedulable"
        )
    for label, tier in degraded:
        if _exhausted(exact) or _exhausted(tier):
            # Conservative exhausted verdicts are not fixed points;
            # ordering arguments do not apply to them.
            continue
        if tier.schedulable and not exact.schedulable:
            messages.append(
                f"{label} tier claims schedulable but the exact analysis "
                f"rejects the set (failed task "
                f"{exact.failed_task and exact.failed_task.name!r})"
            )
        if tier.schedulable and exact.schedulable:
            _compare_pointwise(f"exact > {label}", exact, tier, messages)
    return messages


@register(
    "persistence-tightens",
    ("taskset",),
    "persistence-aware bounds never exceed the persistence-oblivious baseline",
)
def _check_persistence_tightens(case: TasksetCase) -> List[str]:
    taskset = case.taskset()
    aware = analyze_taskset(
        taskset, case.platform, replace(case.config, persistence=True)
    )
    baseline = analyze_taskset(
        taskset, case.platform, replace(case.config, persistence=False)
    )
    if _exhausted(aware) or _exhausted(baseline):
        return []
    messages: List[str] = []
    if baseline.schedulable and not aware.schedulable:
        messages.append(
            "persistence-aware analysis rejects a baseline-schedulable set "
            f"(failed task {aware.failed_task and aware.failed_task.name!r})"
        )
    if baseline.schedulable and aware.schedulable:
        _compare_pointwise(
            "persistence-aware > baseline", aware, baseline, messages
        )
    return messages


@register(
    "perfect-dominance",
    ("taskset",),
    "the contention-free perfect bus lower-bounds every real arbiter",
)
def _check_perfect_dominance(case: TasksetCase) -> List[str]:
    if case.platform.bus_policy is BusPolicy.PERFECT:
        return []
    taskset = case.taskset()
    contended = analyze_taskset(taskset, case.platform, case.config)
    perfect = analyze_taskset(
        taskset,
        case.platform.with_bus_policy(BusPolicy.PERFECT),
        case.config,
    )
    if _exhausted(contended) or _exhausted(perfect):
        return []
    messages: List[str] = []
    if contended.schedulable and not perfect.schedulable:
        messages.append(
            f"perfect bus rejects a set schedulable under "
            f"{case.platform.bus_policy.value}"
        )
    if contended.schedulable and perfect.schedulable:
        _compare_pointwise(
            f"perfect > {case.platform.bus_policy.value}",
            perfect,
            contended,
            messages,
        )
    return messages


def _metamorphic_compare(
    label: str,
    base_tasks: Tuple[Task, ...],
    mutated_tasks: Tuple[Task, ...],
    case: TasksetCase,
) -> List[str]:
    """Check that the mutation moved every bound weakly *up*.

    Compared on the PERFECT bus, where the claim is provable: the bound is
    pure BAS (Eq. 1/16), which charges all ``n`` same-core jobs through the
    monotone ``min(n*MD, n*MDr + |PCB|)``, so the iteration function of the
    mutated system dominates the base one pointwise and least fixed points
    weakly increase.  Under any arbiter with remote windows the claim is
    *false*: Eq. 4/5 + Lemma 2 charge full remote jobs at ``MDr`` but the
    carry-out job at up to ``MD``, so a parameter change that pushes a
    carry-out job across a period boundary into being a full job can
    soundly *lower* another task's bound (found by fuzzing, seed 2020).
    """
    platform = replace(case.platform, bus_policy=BusPolicy.PERFECT)
    base = analyze_taskset(TaskSet(base_tasks), platform, case.config)
    mutated = analyze_taskset(TaskSet(mutated_tasks), platform, case.config)
    if _exhausted(base) or _exhausted(mutated):
        return []
    messages: List[str] = []
    if not base.schedulable and mutated.schedulable:
        messages.append(f"{label}: unschedulable set became schedulable")
    if base.schedulable and mutated.schedulable:
        _compare_pointwise(f"{label}: base > mutated", base, mutated, messages)
    return messages


@register(
    "mono-period-shrink",
    ("taskset",),
    "shrinking one task's period/deadline weakly increases every bound (perfect bus)",
)
def _check_mono_period_shrink(case: TasksetCase) -> List[str]:
    target = max(case.tasks, key=lambda t: (t.period, t.priority))
    new_period = int(target.period * 3 // 4)
    new_deadline = min(int(target.deadline * 3 // 4), new_period)
    if new_period < 1 or new_deadline < 1:
        return []
    mutated = tuple(
        t.with_timing(new_period, new_deadline) if t is target else t
        for t in case.tasks
    )
    return _metamorphic_compare(
        f"period of {target.name!r} {target.period} -> {new_period}",
        case.tasks,
        mutated,
        case,
    )


@register(
    "mono-mdr-raise",
    ("taskset",),
    "raising a task's residual demand MDr weakly increases every bound (perfect bus)",
)
def _check_mono_mdr_raise(case: TasksetCase) -> List[str]:
    target = max(case.tasks, key=lambda t: (t.md - t.md_r, t.priority))
    if target.md == target.md_r:
        return []
    mutated = tuple(
        replace(t, md_r=t.md) if t is target else t for t in case.tasks
    )
    return _metamorphic_compare(
        f"md_r of {target.name!r} {target.md_r} -> {target.md}",
        case.tasks,
        mutated,
        case,
    )


@register(
    "fixed-point-sanity",
    ("taskset",),
    "schedulable bounds lie between the isolated WCET and the deadline",
)
def _check_fixed_point_sanity(case: TasksetCase) -> List[str]:
    result = analyze_taskset(case.taskset(), case.platform, case.config)
    if not result.schedulable:
        return []
    d_mem = case.platform.d_mem
    messages: List[str] = []
    for task, bound in result.response_times.items():
        isolated = int(task.pd) + task.md * d_mem
        if bound < isolated:
            messages.append(
                f"task {task.name!r}: bound {bound} below isolated "
                f"WCET {isolated}"
            )
        if bound > task.deadline:
            messages.append(
                f"task {task.name!r}: schedulable verdict but bound {bound} "
                f"> deadline {int(task.deadline)}"
            )
    return messages


# ---------------------------------------------------------------------------
# Ground-truth oracles (demand / scenario cases)
# ---------------------------------------------------------------------------


@register(
    "eq10-demand",
    ("demand",),
    "Eq. 10 bounds the exact miss count of n consecutive jobs",
)
def _check_eq10_demand(case: DemandCase) -> List[str]:
    geometry = CacheGeometry(num_sets=case.num_sets)
    program = benchmark_program(case.benchmark)
    if case.scale != 1.0:
        program = program.scaled(case.scale)
    params = extract_parameters_cached(program, geometry)
    task = Task(
        name=case.benchmark,
        pd=params.pd,
        md=params.md,
        md_r=params.md_r,
        period=1,
        deadline=1,
        priority=1,
        ecbs=params.ecbs,
        ucbs=params.ucbs,
        pcbs=params.pcbs,
    )
    trace = worst_case_trace(program, geometry)
    blocks = [step.block for step in trace if step.block is not None]
    uncached = sum(1 for step in trace if step.uncached)
    state = None
    observed = 0
    messages: List[str] = []
    for n in range(1, case.n_jobs + 1):
        result = simulate_trace(blocks, geometry, initial=state)
        state = result.final_state
        observed += result.misses + uncached
        bound = multi_job_demand(task, n)
        if observed > bound:
            messages.append(
                f"{case.benchmark}@{case.num_sets} sets: exact demand of "
                f"{n} jobs is {observed} > Eq. 10 bound {bound} "
                f"(md={params.md}, md_r={params.md_r}, |PCB|={len(params.pcbs)})"
            )
    return messages


@register(
    "sim-vs-wcrt",
    ("scenario",),
    "simulated response times and bus accesses never exceed the bounds",
)
def _check_sim_vs_wcrt(case: ScenarioCase) -> List[str]:
    config = replace(case.config, tdma_slot_alignment=True)
    scenario = build_scenario(
        case.specs, case.platform, rng=random.Random(case.layout_seed)
    )
    analysis = analyze_taskset(scenario.taskset, case.platform, config)
    if not analysis.schedulable:
        return []
    workload = workload_from_programs(
        scenario.taskset, case.platform, scenario.programs
    )
    duration = int(max(t.period for t in scenario.taskset)) * case.hyperperiods
    observed = simulate(workload, case.platform, duration=duration)
    policy = case.platform.bus_policy.value
    messages: List[str] = []
    for task in scenario.taskset:
        stats = observed.of(task)
        bound = analysis.response_time(task)
        peak = stats.max_response_time
        if peak is not None and peak > bound:
            messages.append(
                f"{policy}:{task.name}: observed response {peak} "
                f"> analytical bound {bound}"
            )
        # MD bounds the accesses of an *unpreempted* job; a preempted job
        # additionally reloads evicted blocks (charged to gamma by the
        # analysis), so the per-job check only applies to tasks with no
        # same-core higher-priority task.
        preemptible = any(
            other.core == task.core and other.priority < task.priority
            for other in scenario.taskset
        )
        if not preemptible and stats.max_job_bus_accesses > task.md:
            messages.append(
                f"{policy}:{task.name}: per-job accesses "
                f"{stats.max_job_bus_accesses} > MD {task.md}"
            )
    return messages
