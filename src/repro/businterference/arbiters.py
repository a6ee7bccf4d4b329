"""Per-arbiter total bus-access bounds :math:`BAT^x_i(t)` (Eq. 7-9).

Given the same-core bound :math:`BAS` and the remote-core bounds
:math:`BAO`, the total number of bus accesses that may delay one job of
:math:`\\tau_i` in a window of length ``t`` depends on the bus arbitration
policy:

* **FP** (Eq. 7): all same-or-higher priority accesses from every core,
  plus at most one blocking lower-priority access per access of the task's
  own demand stream.
* **RR** (Eq. 8): each remote core contributes at most ``s`` accesses per
  access of the analysed stream (slot bound) but never more than the demand
  it actually has.
* **TDMA** (Eq. 9): non-work-conserving — each own access may wait for the
  other :math:`(L-1)` cores' ``s`` slots regardless of actual demand.
* **PERFECT**: an idealised contention-free bus; accesses still cost
  ``d_mem`` but never queue.

The trailing ``+1`` of Eq. (7)-(9) accounts for the single in-service,
non-preemptable bus transaction of a same-core lower-priority task; the
paper drops it when the analysed task is the lowest-priority task on its
core (see the discussion below Eq. 12), which :func:`blocking_accesses`
reproduces.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

from repro.businterference.context import AnalysisContext
from repro.businterference.requests import (
    _bas_fast_b,
    _bas_fast_p,
    _bas_multiset_b,
    _bas_multiset_p,
    _w_sum_fast_b,
    _w_sum_fast_p,
    _w_sum_multiset_p,
    bao,
    bao_low,
    bas,
)
from repro.crpd.approaches import CrpdApproach
from repro.errors import AnalysisError
from repro.model.platform import BusPolicy
from repro.model.task import Task
from repro.persistence.demand import FAULTS


def blocking_accesses(ctx: AnalysisContext, task_i: Task) -> int:
    """The ``+1`` blocking term of Eq. (7)-(9).

    One access of a same-core lower-priority task may already occupy the
    (non-preemptable) bus when a job of ``task_i`` arrives; if no such task
    exists the term vanishes, as in the paper's worked example (Eq. 12).
    """
    return 1 if ctx.taskset.lp_on_core(task_i, task_i.core) else 0


def _remote_cores(ctx: AnalysisContext, task_i: Task):
    return ctx.remote_cores(task_i.core)


def _bat_fp(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """Fixed-priority bus (Eq. 7)."""
    own = bas(ctx, task_i, t)
    higher = 0
    lower = 0
    for core in _remote_cores(ctx, task_i):
        higher += bao(ctx, core, task_i, t)
        lower += bao_low(ctx, core, task_i, t)
    return own + higher + blocking_accesses(ctx, task_i) + min(own, lower)


def _bat_rr(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """Round-robin bus (Eq. 8)."""
    own = bas(ctx, task_i, t)
    slot_cap = ctx.platform.slot_size * own
    lowest = ctx.taskset.lowest_priority_task
    remote = 0
    for core in _remote_cores(ctx, task_i):
        demand = bao(ctx, core, lowest, t)
        remote += min(demand, slot_cap)
    return own + remote + blocking_accesses(ctx, task_i)


def _bat_tdma(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """TDMA bus (Eq. 9): cycle length ``L * s`` with ``L`` = core count.

    With ``ctx.tdma_slot_alignment`` every access is charged one extra
    slot, making the bound safe against window-interior request arrivals
    (see :class:`repro.analysis.config.AnalysisConfig`).
    """
    own = bas(ctx, task_i, t)
    wait_slots = (ctx.platform.num_cores - 1) * ctx.platform.slot_size
    if ctx.tdma_slot_alignment:
        wait_slots += 1
    return own + wait_slots * own + blocking_accesses(ctx, task_i)


def _bat_perfect(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """Idealised contention-free bus: only the task's own core demand."""
    return bas(ctx, task_i, t)


# -- fused evaluation (production kernel) ------------------------------------
#
# The per-term functions above are the reference: one call per term and
# per remote task, each reading the CRPD/CPRO calculators.  Production
# contexts evaluate a whole BAT instead with tight loops over flat integer
# rows, sliced per task from the interference table's rows at the task's
# priority cuts.  Both evaluate the same exact integer arithmetic, so
# every value — and thus every analysis result — is bit-identical; the
# ``kernel-identity`` oracle and the differential grid check it.


def _bat_plan(ctx: AnalysisContext, task_i: Task) -> tuple:
    """Row slices of ``task_i``'s fused BAT evaluation.

    ``(bas, higher, lower, per_core, blocking)``: each of the first four
    is a ``(persistence_rows, baseline_rows)`` pair cut from ``ctx._rows``
    (see :meth:`~repro.model.interference.InterferenceTable.rows`) at
    ``task_i``'s cut of each core — ``bas`` the members before it on its
    own core; for the FP bus ``higher`` / ``lower`` every remote core's
    members before / from the cut, concatenated; for the RR bus
    ``per_core`` every remote core whole (the lowest-priority task's
    cut), one tuple per core.  Members a policy does not read stay empty.
    The slices share the table's row objects; plans are cached per task
    set, approach pair and platform (``ctx._bat_plans``), and tunables a
    caller may flip on a live context (persistence flags, TDMA slot
    alignment) are read by :func:`make_bat`, never baked into a plan.
    """
    plan = ctx._bat_plans.get(task_i.priority)
    if plan is not None:
        return plan
    rows = ctx._rows
    cut = ctx._cut[task_i.priority]
    own = rows[task_i.core]
    k = cut[task_i.core]
    bas = (own[k][0][: k - 1], own[k][1][: k - 1])
    remote = [core for core in ctx.remote_cores(task_i.core) if core in rows]
    higher = lower = per_core = ((), ())
    policy = ctx.platform.bus_policy
    if policy is BusPolicy.FP:
        at_cuts = [(rows[core][cut[core]], cut[core]) for core in remote]
        higher = tuple(
            tuple(chain.from_iterable(at[form][:j] for at, j in at_cuts))
            for form in (0, 1)
        )
        lower = tuple(
            tuple(chain.from_iterable(at[form][j:] for at, j in at_cuts))
            for form in (0, 1)
        )
    elif policy is BusPolicy.RR:
        per_core = tuple(
            tuple(rows[core][-1][form] for core in remote) for form in (0, 1)
        )
    # blocking_accesses: a lower-priority task shares the core iff the
    # task's cut of its own core leaves members out.
    blocking = 1 if k < len(own) - 1 else 0
    plan = ctx._bat_plans[task_i.priority] = (bas, higher, lower, per_core, blocking)
    return plan


def make_bat(ctx: AnalysisContext, task_i: Task):
    """Specialised ``bat(t)`` evaluator for one task's fixed point.

    Hoists everything a :math:`BAT^x_i(t)` evaluation needs besides the
    window length — the row slices of :func:`_bat_plan`, the policy
    dispatch, the persistence flavour, ``d_mem`` and the estimate slot
    list — out of the per-iteration path, so the inner fixed point pays
    one closure call per iteration.  Tunables are bound at *creation*
    time: the WCRT loops create a fresh evaluator per task, so flag flips
    between analyses are honoured, and callers must pass ``t >= 0`` (the
    ascent never goes negative; the guarded entry point is
    :func:`total_bus_accesses`).  On a reference context it returns a
    plain :func:`total_bus_accesses` wrapper, which evaluates the per-term
    functions.

    A pair with a multiset side reads the extended persistence rows: the
    same-core sum folds their multiset CRPD entries and CPRO overlap rows,
    the persistence-aware remote sums their CPRO overlap rows with
    carry-in.  Baseline remote sums read no multiset data and keep the
    baseline rows.
    """
    if ctx.reference:
        return lambda t: total_bus_accesses(ctx, task_i, t)
    policy = ctx.platform.bus_policy
    bas, higher, lower, per_core, blocking = _bat_plan(ctx, task_i)
    persistence = ctx.persistence
    drop_pcb = FAULTS.drop_pcb_term
    form = 0 if persistence else 1
    est = ctx._est
    # Only a multiset side makes an approach pair window aware.
    multiset = not ctx.window_oblivious
    own_sum, own_form = (_bas_fast_p, 0) if persistence else (_bas_fast_b, 1)
    if multiset and persistence:
        own_sum = partial(_bas_multiset_p, est.__getitem__)
    elif multiset and ctx.crpd.approach is CrpdApproach.ECB_UNION_MULTISET:
        own_sum, own_form = partial(_bas_multiset_b, est.__getitem__), 0
    bas_rows = bas[own_form]
    md_i = task_i.md
    if policy is BusPolicy.PERFECT:
        return lambda t: own_sum(bas_rows, t, md_i, drop_pcb)
    if policy is BusPolicy.TDMA:
        wait_slots = (ctx.platform.num_cores - 1) * ctx.platform.slot_size
        if ctx.tdma_slot_alignment:
            wait_slots += 1
        # own + wait_slots * own == own * (1 + wait_slots), exactly.
        factor = 1 + wait_slots
        return lambda t: own_sum(bas_rows, t, md_i, drop_pcb) * factor + blocking
    d_mem = ctx.platform.d_mem
    aware_sum = _w_sum_multiset_p if multiset else _w_sum_fast_p
    w_sum = aware_sum if persistence else _w_sum_fast_b
    if policy is BusPolicy.RR:
        slot_size = ctx.platform.slot_size
        core_rows = per_core[form]

        def bat(t: int) -> int:
            own = own_sum(bas_rows, t, md_i, drop_pcb)
            cap = slot_size * own
            remote = 0
            for rows in core_rows:
                demand = w_sum(est, rows, t, d_mem, drop_pcb)
                remote += demand if demand < cap else cap
            return own + remote + blocking

        return bat
    # FP: the lower-priority term stays persistence oblivious unless
    # ``persistence_in_low`` extends it (see ``bao_low``).
    low_aware = persistence and ctx.persistence_in_low
    low_sum = aware_sum if low_aware else _w_sum_fast_b
    higher_rows = higher[form]
    lower_rows = lower[0 if low_aware else 1]

    def bat(t: int) -> int:
        own = own_sum(bas_rows, t, md_i, drop_pcb)
        low = low_sum(est, lower_rows, t, d_mem, drop_pcb)
        return (
            own
            + w_sum(est, higher_rows, t, d_mem, drop_pcb)
            + blocking
            + (own if own < low else low)
        )

    return bat


def total_bus_accesses(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """Dispatch :math:`BAT^x_i(t)` on the platform's bus policy."""
    if not ctx.reference and t >= 0:
        return make_bat(ctx, task_i)(t)
    policy = ctx.platform.bus_policy
    if policy is BusPolicy.FP:
        return _bat_fp(ctx, task_i, t)
    if policy is BusPolicy.RR:
        return _bat_rr(ctx, task_i, t)
    if policy is BusPolicy.TDMA:
        return _bat_tdma(ctx, task_i, t)
    if policy is BusPolicy.PERFECT:
        return _bat_perfect(ctx, task_i, t)
    raise AnalysisError(f"unsupported bus policy: {policy!r}")
