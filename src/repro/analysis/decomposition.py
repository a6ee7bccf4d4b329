"""Decomposition of a task's WCRT bound into its interference sources.

The fixed point of Eq. (19) hides *why* a task's response time is what it
is.  For debugging analyses, explaining schedulability verdicts and
building intuition (which term dominates? how much does persistence save?),
this module re-evaluates every component of the bound at the task's final
response time and reports them separately:

=====================  ====================================================
``processing``         the task's own processing demand ``PD_i``
``core_interference``  same-core higher-priority processing time
``own_demand``         the task's own memory demand ``MD_i`` (time)
``same_core_memory``   same-core higher-priority memory demand (time),
                       after the persistence ``min`` of Lemma 1
``same_core_crpd``     CRPD reloads charged on the task's core (time)
``remote_memory``      higher/equal-priority remote-core demand (time),
                       after the persistence ``min`` of Lemma 2, including
                       carry-out jobs
``remote_crpd``        CRPD reloads charged to remote jobs (time)
``arbitration``        policy-specific extra delay: FP lower-priority
                       blocking, RR slot passes beyond counted demand,
                       TDMA wait slots, plus the ``+1`` blocking access
=====================  ====================================================

The components are exact in the sense that they sum to the recurrence's
right-hand side evaluated at the reported response time.  That sum can be
*strictly below* the stored WCRT bound: the persistence-aware remote bound
(Lemma 2) is not monotone at carry-out boundaries (a new full job enters
the persistence ``min`` while the — persistence-oblivious — carry-out term
resets), and the fixed-point iteration conservatively keeps the larger
value when the recurrence dips.  ``total <= response_time`` always holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.wcrt import WcrtResult, analyze_taskset
from repro.budget import Budget
from repro.businterference.arbiters import total_bus_accesses
from repro.businterference.context import AnalysisContext
from repro.businterference.requests import bao, bas, jobs_in_window, pair_terms
from repro.crpd.approaches import CrpdCalculator
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy, Platform
from repro.model.task import Task, TaskSet
from repro.persistence.cpro import CproCalculator


@dataclass(frozen=True)
class WcrtBreakdown:
    """All components of one task's WCRT bound, in cycles."""

    task: Task
    response_time: int
    processing: int
    core_interference: int
    own_demand: int
    same_core_memory: int
    same_core_crpd: int
    remote_memory: int
    remote_crpd: int
    arbitration: int

    @property
    def total(self) -> int:
        """Sum of all components: the recurrence value at ``response_time``.

        Equals ``response_time`` when the stored bound is an exact fixed
        point and is strictly smaller when the outer loop kept a
        conservative value (see the module docstring).
        """
        return (
            self.processing
            + self.core_interference
            + self.own_demand
            + self.same_core_memory
            + self.same_core_crpd
            + self.remote_memory
            + self.remote_crpd
            + self.arbitration
        )

    def shares(self) -> Dict[str, float]:
        """Each component as a fraction of the response time."""
        denominator = max(self.response_time, 1)
        return {
            "processing": self.processing / denominator,
            "core_interference": self.core_interference / denominator,
            "own_demand": self.own_demand / denominator,
            "same_core_memory": self.same_core_memory / denominator,
            "same_core_crpd": self.same_core_crpd / denominator,
            "remote_memory": self.remote_memory / denominator,
            "remote_crpd": self.remote_crpd / denominator,
            "arbitration": self.arbitration / denominator,
        }

    def render(self) -> str:
        """One-task text report."""
        lines = [
            f"WCRT breakdown for {self.task.name!r} "
            f"(R = {self.response_time} cycles)",
        ]
        for label, share in self.shares().items():
            value = getattr(self, label)
            lines.append(f"  {label:<18} {value:>12}  ({share:6.1%})")
        return "\n".join(lines)


def decompose(
    ctx: AnalysisContext, task: Task, response_time: int
) -> WcrtBreakdown:
    """Split the right-hand side of Eq. (19) at window ``response_time``.

    Honours ``ctx.budget`` (one check per task): a breakdown of a huge
    task set under a tight deadline aborts between tasks rather than
    running to completion.
    """
    if ctx.budget is not None:
        ctx.budget.check()
    d_mem = ctx.platform.d_mem
    t = response_time
    core_processing = same_memory = same_crpd = 0
    for task_j in ctx.taskset.hp_on_core(task, task.core):
        core_processing += jobs_in_window(t, int(task_j.period)) * int(task_j.pd)
        memory, crpd, _ = pair_terms(
            ctx, task, task_j, t, remote=False, persistence=ctx.persistence
        )
        same_memory += memory
        same_crpd += crpd
    # The remote jobs bao counts on every remote core; the carry-out job
    # is remote memory demand.
    remote_memory = remote_crpd = 0
    for core in ctx.remote_cores(task.core):
        for task_l in ctx.taskset.hep_on_core(task, core):
            memory, crpd, carry_out = pair_terms(
                ctx, task, task_l, t, remote=True, persistence=ctx.persistence
            )
            remote_memory += memory + carry_out
            remote_crpd += crpd

    total_accesses = total_bus_accesses(ctx, task, t)
    counted = task.md + same_memory + same_crpd
    policy = ctx.platform.bus_policy
    if policy is BusPolicy.FP or policy is BusPolicy.RR:
        counted += remote_memory + remote_crpd
    if policy is BusPolicy.TDMA or policy is BusPolicy.PERFECT:
        # TDMA/perfect never count remote demand; their remote share is 0.
        remote_memory = 0
        remote_crpd = 0
    if policy is BusPolicy.RR:
        # The slot cap may truncate the remote demand: recompute exactly.
        own = bas(ctx, task, t)
        lowest = ctx.taskset.lowest_priority_task
        capped_remote = sum(
            min(bao(ctx, core, lowest, t), ctx.platform.slot_size * own)
            for core in ctx.platform.cores
            if core != task.core
        )
        counted = own + capped_remote
        remote_memory = capped_remote
        remote_crpd = 0  # folded into the capped remote term
    arbitration_accesses = total_accesses - counted
    if arbitration_accesses < 0:
        raise AnalysisError(
            f"decomposition mismatch for {task.name!r}: "
            f"counted {counted} > total {total_accesses}"
        )
    return WcrtBreakdown(
        task=task,
        response_time=response_time,
        processing=int(task.pd),
        core_interference=core_processing,
        own_demand=task.md * d_mem,
        same_core_memory=same_memory * d_mem,
        same_core_crpd=same_crpd * d_mem,
        remote_memory=remote_memory * d_mem,
        remote_crpd=remote_crpd * d_mem,
        arbitration=arbitration_accesses * d_mem,
    )


def decompose_taskset(
    taskset: TaskSet,
    platform: Platform,
    config: AnalysisConfig = AnalysisConfig(),
    result: Optional[WcrtResult] = None,
    budget: Optional[Budget] = None,
) -> List[WcrtBreakdown]:
    """Breakdowns for every task, running the analysis if needed.

    For unschedulable sets, tasks analysed before the failure are included
    with their final estimates; the failing task appears with its
    over-deadline estimate.  ``budget`` covers the implied analysis (if
    any) *and* the per-task decomposition passes under one allowance.
    """
    if budget is not None:
        budget.start()
    if result is None:
        result = analyze_taskset(taskset, platform, config, budget=budget)
    # The total of each breakdown comes from the analysis run's kernel; the
    # per-term split always from the reference functions.
    ctx = AnalysisContext(
        taskset=taskset,
        platform=platform,
        persistence=config.persistence,
        crpd=CrpdCalculator.shared(taskset, config.crpd_approach),
        cpro=CproCalculator.shared(taskset, config.cpro_approach),
        persistence_in_low=config.persistence_in_low,
        tdma_slot_alignment=config.tdma_slot_alignment,
        reference=config.reference,
        budget=budget,
    )
    for task, estimate in result.response_times.items():
        ctx.set_response_time(task, estimate)
    breakdowns = []
    for task in taskset:
        estimate = result.response_times.get(task)
        if estimate is None:
            continue
        breakdowns.append(decompose(ctx, task, estimate))
    return breakdowns
