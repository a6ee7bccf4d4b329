"""Bus-access request bounds: Eq. (1), (3)-(6) and Lemmas 1-2 (Eq. 16-18).

Two families of bounds are implemented:

* :func:`bas` — bus accesses generated **on the analysed task's own core**
  by the task itself and its same-core higher-priority tasks within a window
  of length ``t``:  Eq. (1) (baseline) or Lemma 1 / Eq. (16)
  (persistence aware).

* :func:`bao` — bus accesses generated **on a remote core** by tasks of a
  given priority level or higher within a window of length ``t``:  Eq. (3)
  (baseline) or Lemma 2 / Eq. (17)-(18) (persistence aware).
  :func:`bao_low` is the lower-priority variant needed by the FP bus
  (Eq. 7).

All functions return *numbers of bus accesses*; multiply by ``d_mem`` for
time.  Window lengths and all task parameters are integers (cycles /
request counts) so every bound is exact — no floating-point ceil/floor
pitfalls.

Memoization: within one run of the outer loop of Sec. IV the response-time
estimates a remote-core term reads are frozen, so :func:`bao`,
:func:`bao_low` (each a fused sum of the per-pair :math:`W` terms over one
remote core) and the window-level multiset CRPD term are cached on
``(inputs, epoch-of-the-core-they-read)`` — see
:class:`~repro.businterference.context.AnalysisContext`.  A cache hit
replays a computation with identical inputs, so results are bit-identical
to the un-memoized reference path (``ctx.memoize = False``).
"""

from __future__ import annotations

from repro.businterference.context import AnalysisContext
from repro.crpd.approaches import CrpdApproach
from repro.crpd.multiset import multiset_window_from_pairs
from repro.errors import AnalysisError
from repro.model.task import Task
from repro.persistence.cpro import overlap_groups_window
from repro.persistence.demand import FAULTS, multi_job_demand


def _ceil_div(numerator: int, denominator: int) -> int:
    """Exact ceiling division for (possibly negative) integers."""
    return -((-numerator) // denominator)


def jobs_in_window(t: int, period: int) -> int:
    """:math:`E_j(t) = \\lceil t / T_j \\rceil` — releases in a window.

    The maximum number of jobs a sporadic task with minimum inter-arrival
    time ``period`` can release inside a half-open window of length ``t``.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    if period <= 0:
        raise AnalysisError(f"period must be positive, got {period}")
    return _ceil_div(t, period)


# ---------------------------------------------------------------------------
# Same-core bound: BAS (Eq. 1) and persistence-aware B^AS (Lemma 1, Eq. 16)
# ---------------------------------------------------------------------------


def crpd_multiset_window(ctx: AnalysisContext, task_i: Task, task_j: Task, t: int) -> int:
    """Window-level multiset CRPD term of :math:`BAS`, memoized per epoch.

    The term reads the response-time estimates of the affected tasks on
    ``task_j``'s core, so cached values are keyed by that core's epoch.
    """
    if not ctx.memoize:
        return ctx.crpd.multiset_window(
            task_i, task_j, t, ctx.response_time, budget=ctx.budget
        )
    key = (task_i.priority, task_j.priority, t)
    epoch = ctx.core_epoch(task_j.core)
    cached = ctx._crpd_window_cache.get(key)
    if cached is not None and cached[0] == epoch:
        ctx.perf.crpd_window_hits += 1
        return cached[1]
    ctx.perf.crpd_window_misses += 1
    value = ctx.crpd.multiset_window(
        task_i, task_j, t, ctx.response_time, budget=ctx.budget
    )
    ctx._crpd_window_cache[key] = (epoch, value)
    return value


def _bas_rows(ctx: AnalysisContext, task_i: Task) -> tuple:
    """Prefetched static parameters of ``task_i``'s same-core BAS loop.

    One row per same-core higher-priority task ``task_j``:
    ``(task_j, period, md, md_r, |PCB|, gamma(i, j), evictable_pcbs(j, i))``.
    Every entry is constant for the lifetime of the context, so the BAS
    evaluation in the fixed point reduces to integer arithmetic over rows —
    the closed-form demand below mirrors
    :func:`repro.persistence.demand.multi_job_demand_from_params`.  The
    ``gamma`` / ``evictable`` entries come from whichever cache-set kernel
    (bitmask or ``frozenset`` reference) the context's calculators run, so
    the backing store is keyed by the kernel flags (see
    :class:`~repro.businterference.context.AnalysisContext`).
    """
    rows = ctx._bas_rows.get(task_i.priority)
    if rows is None:
        rows = tuple(
            (
                task_j,
                int(task_j.period),
                task_j.md,
                task_j.md_r,
                len(task_j.pcbs),
                ctx.crpd.gamma(task_i, task_j),
                ctx.cpro.eviction_count(task_j, task_i),
            )
            for task_j in ctx.taskset.hp_on_core(task_i, task_i.core)
        )
        ctx._bas_rows[task_i.priority] = rows
    return rows


def _bas_fast_p(rows: tuple, t: int, md_i: int, drop_pcb: bool) -> int:
    """Fused persistence-aware :func:`bas` body (fast-demand only).

    ``rows`` are the same-core higher-priority tasks' persistence rows of
    :meth:`~repro.model.interference.InterferenceTable.rows`, read at the
    analysed task's own cut.  Row-for-row the same arithmetic as the
    ``fast`` branch of :func:`bas`; exact integer operations make the two
    evaluation orders literally identical, which the differential tests
    and oracles pin down.
    """
    total = md_i
    for _, gamma, period, md, md_r, pcbs, evictable, _, _ in rows:
        n_jobs = -((-t) // period)
        isolated = n_jobs * md
        persistent = n_jobs * md_r + (0 if drop_pcb else pcbs)
        if persistent > isolated:
            persistent = isolated
        if n_jobs > 1:
            persistent += (n_jobs - 1) * evictable
        total += (persistent if persistent < isolated else isolated) + n_jobs * gamma
    return total


def _bas_fast_b(rows: tuple, t: int, md_i: int, drop_pcb: bool = False) -> int:
    """Fused baseline :func:`bas` body: ``md_i + sum ceil(t/T) * (md + gamma)``.

    Reads baseline rows; ``drop_pcb`` only mirrors :func:`_bas_fast_p`'s
    signature (the baseline has no PCB term).
    """
    total = md_i
    for _, period, job_demand, _ in rows:
        total += -((-t) // period) * job_demand
    return total


def _bas_multiset_p(
    estimate, rows: tuple, t: int, md_i: int, drop_pcb: bool
) -> int:
    """Fused persistence-aware :func:`bas` body for a multiset pair.

    ``rows`` are the extended persistence rows of
    :meth:`~repro.model.interference.InterferenceTable.rows`: a member
    with grouped overlap rows charges the multiset CPRO of
    :func:`~repro.persistence.cpro.overlap_groups_window` instead of
    ``(n - 1) * evictable``, one with multiset entries the greedy CRPD of
    :func:`~repro.crpd.multiset.multiset_window_from_pairs` instead of
    ``n * gamma``, reading each :math:`R_g` through ``estimate`` (the
    estimate list's ``__getitem__``).  Otherwise the arithmetic of
    :func:`_bas_fast_p`; both folds are the per-term path's, so values
    are bit-identical.
    """
    total = md_i
    for _, gamma, period, md, md_r, pcbs, evictable, _, _, overlaps, entries in rows:
        n_jobs = -((-t) // period)
        isolated = n_jobs * md
        persistent = n_jobs * md_r + (0 if drop_pcb else pcbs)
        if persistent > isolated:
            persistent = isolated
        if n_jobs > 1:
            # n_jobs > 1 implies t > 0, the multiset fold's window guard.
            if overlaps is None:
                persistent += (n_jobs - 1) * evictable
            else:
                persistent += overlap_groups_window(overlaps, n_jobs - 1, t, 0)
        total += persistent if persistent < isolated else isolated
        if entries is None:
            total += n_jobs * gamma
        elif entries:
            total += multiset_window_from_pairs(entries, period, t, estimate)
    return total


def _bas_multiset_b(
    estimate, rows: tuple, t: int, md_i: int, drop_pcb: bool = False
) -> int:
    """Fused baseline :func:`bas` body under the multiset CRPD approach.

    ``md_i + sum(ceil(t/T) * md + multiset CRPD)`` over extended
    persistence rows (their multiset entries are never ``None`` here);
    ``drop_pcb`` only mirrors :func:`_bas_multiset_p`'s signature.
    """
    total = md_i
    for _, _, period, md, _, _, _, _, _, _, entries in rows:
        total += -((-t) // period) * md
        if entries:
            total += multiset_window_from_pairs(entries, period, t, estimate)
    return total


def bas(ctx: AnalysisContext, task_i: Task, t: int) -> int:
    """Bus accesses from ``task_i``'s core that delay one job of ``task_i``.

    Covers one job of ``task_i`` plus every job of its same-core
    higher-priority tasks released in a window of length ``t``, including
    CRPD reloads.  Persistence-aware (Eq. 16) when ``ctx.persistence`` is
    set, otherwise the baseline Eq. (1); the persistence-aware value never
    exceeds the baseline thanks to the per-task ``min``.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    multiset_crpd = ctx.crpd.approach is CrpdApproach.ECB_UNION_MULTISET
    persistence = ctx.persistence
    fast = ctx.fast_demand
    drop_pcb = FAULTS.drop_pcb_term
    total = task_i.md
    for task_j, period, md, md_r, pcbs, gamma, evictable in _bas_rows(ctx, task_i):
        n_jobs = -((-t) // period)
        isolated = n_jobs * md
        if persistence:
            if fast:
                # multi_job_demand + rho in closed form (Eq. 10 + Eq. 14).
                persistent = min(
                    isolated, n_jobs * md_r + (0 if drop_pcb else pcbs)
                )
                if n_jobs > 1:
                    persistent += (n_jobs - 1) * evictable
            else:
                persistent = multi_job_demand(task_j, n_jobs) + ctx.cpro.rho_window(
                    task_j, task_i, n_jobs, t, budget=ctx.budget
                )
            demand = persistent if persistent < isolated else isolated
        else:
            demand = isolated
        if multiset_crpd:
            crpd = crpd_multiset_window(ctx, task_i, task_j, t)
        else:
            crpd = n_jobs * gamma
        total += demand + crpd
    return total


# ---------------------------------------------------------------------------
# Remote-core bound: BAO (Eq. 3-6) and persistence-aware B^AO (Lemma 2)
# ---------------------------------------------------------------------------


def full_jobs_in_window(
    ctx: AnalysisContext, task_k: Task, task_l: Task, t: int
) -> int:
    """:math:`N^y_{k,l}(t)` of Eq. (6) — fully-executed remote jobs.

    Upper bound on the number of jobs of remote task ``task_l`` that both
    start and finish inside a window of length ``t``, assuming the first job
    finishes as late as possible (just before its WCRT :math:`R_l`) and
    later jobs run as early as possible.  Clamped at zero for short windows.
    """
    gamma = ctx.crpd.gamma(task_k, task_l)
    r_l = ctx.response_time(task_l)
    numerator = t + r_l - (task_l.md + gamma) * ctx.platform.d_mem
    if numerator < 0:
        return 0
    return numerator // int(task_l.period)


def carried_out_accesses(
    ctx: AnalysisContext, task_k: Task, task_l: Task, t: int, n_full: int
) -> int:
    """:math:`W^y_{k,l,cout}(t)` of Eq. (5) — carry-out job accesses.

    Accesses of the final, partially-overlapping job of ``task_l``: bounded
    both by how much of the job fits in the remainder of the window (first
    term) and by the job's total demand including CRPD (second term).
    """
    gamma = ctx.crpd.gamma(task_k, task_l)
    demand = task_l.md + gamma
    r_l = ctx.response_time(task_l)
    d_mem = ctx.platform.d_mem
    remainder = t + r_l - demand * d_mem - n_full * int(task_l.period)
    if remainder <= 0:
        return 0
    return min(_ceil_div(remainder, d_mem), demand)


def _w_rows(ctx: AnalysisContext, task_k: Task, core_y: int, lower: bool) -> tuple:
    """Prefetched static parameters of one remote-core :math:`W` sum.

    One row per task ``task_l`` on ``core_y`` with priority at least
    (``lower=False``) or below (``lower=True``) ``task_k``'s:
    ``(task_l, gamma(k, l), period, md, md_r, |PCB|, evictable_pcbs(l, k),
    md + gamma, isolated_wcrt)``.  The last entry is the estimate the outer
    loop starts every task from, so the hot loop can resolve :math:`R_l`
    with a plain dict probe.  Rows are pure functions of the task set, the
    approach enums, the cache-set kernel flags and ``d_mem``, so they are
    shared across contexts via :meth:`~repro.model.task.TaskSet.derived`
    (one table per kernel — see the ``bitset-identity`` oracle).
    """
    key = (core_y, task_k.priority, lower)
    rows = ctx._w_rows.get(key)
    if rows is None:
        members = (
            ctx.taskset.lp_on_core(task_k, core_y)
            if lower
            else ctx.taskset.hep_on_core(task_k, core_y)
        )
        d_mem = ctx.platform.d_mem
        rows = tuple(
            (
                task_l,
                gamma := ctx.crpd.gamma(task_k, task_l),
                int(task_l.period),
                task_l.md,
                task_l.md_r,
                len(task_l.pcbs),
                ctx.cpro.eviction_count(task_l, task_k),
                task_l.md + gamma,
                int(task_l.pd + task_l.md * d_mem),
            )
            for task_l in members
        )
        ctx._w_rows[key] = rows
    return rows


def _w_sum(
    ctx: AnalysisContext,
    task_k: Task,
    rows: tuple,
    t: int,
    persistence: bool,
) -> int:
    """Fused evaluation of :math:`\\sum_l W` over one remote core.

    Each row is Eq. (4)/(18) plus carry-out (Eq. 5) — semantically
    ``full_jobs_in_window`` + demand + ``carried_out_accesses`` — evaluated
    in a single pass over the prefetched parameters of :func:`_w_rows`.
    """
    d_mem = ctx.platform.d_mem
    fast = ctx.fast_demand
    drop_pcb = FAULTS.drop_pcb_term
    estimates = ctx.response_times
    total = 0
    for task_l, gamma, period_l, md_l, md_r_l, pcbs_l, evictable, job_demand, iso in rows:
        r_l = estimates.get(task_l)
        if r_l is None:
            r_l = iso
        numerator = t + r_l - job_demand * d_mem
        if numerator < 0:
            continue
        n_full = numerator // period_l
        isolated = n_full * md_l
        if persistence:
            if fast:
                # multi_job_demand + rho in closed form (Eq. 10 + Eq. 14).
                persistent = n_full * md_r_l + (0 if drop_pcb else pcbs_l)
                if persistent > isolated:
                    persistent = isolated
                if n_full > 1:
                    persistent += (n_full - 1) * evictable
            else:
                persistent = multi_job_demand(task_l, n_full) + ctx.cpro.rho_window(
                    task_l, task_k, n_full, t, carry_in=True, budget=ctx.budget
                )
            demand = persistent if persistent < isolated else isolated
        else:
            demand = isolated
        total += demand + n_full * gamma
        remainder = numerator - n_full * period_l
        if remainder > 0:
            carry_out = -((-remainder) // d_mem)
            total += carry_out if carry_out < job_demand else job_demand
    return total


def _w_sum_fast_p(est: list, rows: tuple, t: int, d_mem: int, drop_pcb: bool) -> int:
    """Fused persistence-aware :func:`_w_sum` body (fast-demand only).

    ``rows`` are persistence rows of
    :meth:`~repro.model.interference.InterferenceTable.rows`.  Same
    arithmetic and integer operations as the ``fast`` branch of
    :func:`_w_sum`; the only differences are mechanical — the estimate
    comes from a slot list instead of a ``Task``-keyed dict and
    ``job_demand * d_mem`` is a precomputed row constant — so values are
    bit-identical by construction.
    """
    total = 0
    for slot, gamma, period, md, md_r, pcbs, evictable, jd, jdd in rows:
        numerator = t + est[slot] - jdd
        if numerator < 0:
            continue
        n_full = numerator // period
        isolated = n_full * md
        persistent = n_full * md_r + (0 if drop_pcb else pcbs)
        if persistent > isolated:
            persistent = isolated
        if n_full > 1:
            persistent += (n_full - 1) * evictable
        total += (persistent if persistent < isolated else isolated) + n_full * gamma
        remainder = numerator - n_full * period
        if remainder > 0:
            carry_out = -((-remainder) // d_mem)
            total += carry_out if carry_out < jd else jd
    return total


def _w_sum_fast_b(
    est: list, rows: tuple, t: int, d_mem: int, drop_pcb: bool = False
) -> int:
    """Fused baseline :func:`_w_sum` body over baseline rows.

    The baseline per-full-job charge is ``md + gamma = job_demand``, so
    the row needs only the window parameters; ``drop_pcb`` only mirrors
    :func:`_w_sum_fast_p`'s signature.
    """
    total = 0
    for slot, period, jd, jdd in rows:
        numerator = t + est[slot] - jdd
        if numerator < 0:
            continue
        n_full = numerator // period
        total += n_full * jd
        remainder = numerator - n_full * period
        if remainder > 0:
            carry_out = -((-remainder) // d_mem)
            total += carry_out if carry_out < jd else jd
    return total


def _w_sum_multiset_p(
    est: list, rows: tuple, t: int, d_mem: int, drop_pcb: bool
) -> int:
    """Fused persistence-aware :func:`_w_sum` body for a multiset pair.

    :func:`_w_sum_fast_p` over extended persistence rows, with a member's
    grouped overlap rows, where present, charging the carry-in multiset
    CPRO of :func:`~repro.persistence.cpro.overlap_groups_window` in
    place of ``(n - 1) * evictable``.  The CRPD stays per-job ECB-union
    (``gamma``), as on the per-term path.
    """
    total = 0
    for slot, gamma, period, md, md_r, pcbs, evictable, jd, jdd, overlaps, _ in rows:
        numerator = t + est[slot] - jdd
        if numerator < 0:
            continue
        n_full = numerator // period
        isolated = n_full * md
        persistent = n_full * md_r + (0 if drop_pcb else pcbs)
        if persistent > isolated:
            persistent = isolated
        if n_full > 1:
            if overlaps is None:
                persistent += (n_full - 1) * evictable
            elif t > 0:
                persistent += overlap_groups_window(overlaps, n_full - 1, t, 1)
        total += (persistent if persistent < isolated else isolated) + n_full * gamma
        remainder = numerator - n_full * period
        if remainder > 0:
            carry_out = -((-remainder) // d_mem)
            total += carry_out if carry_out < jd else jd
    return total


def bao(ctx: AnalysisContext, core_y: int, task_k: Task, t: int) -> int:
    """Remote-core accesses of priority ``task_k`` or higher (Eq. 3/17).

    Total bus accesses generated in a window of length ``t`` by the tasks of
    core ``core_y`` whose priority is at least that of ``task_k``.
    Persistence-aware (Lemma 2) when ``ctx.persistence`` is set.  Memoized
    per ``(core, priority, t)`` and the epoch of ``core_y`` — the sum only
    reads estimates of tasks on that core.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    if not ctx.memoize:
        rows = _w_rows(ctx, task_k, core_y, lower=False)
        return _w_sum(ctx, task_k, rows, t, ctx.persistence)
    key = (core_y, task_k.priority, t)
    epoch = ctx.core_epoch(core_y)
    cached = ctx._bao_cache.get(key)
    if cached is not None and cached[0] == epoch:
        ctx.perf.bao_hits += 1
        return cached[1]
    ctx.perf.bao_misses += 1
    rows = _w_rows(ctx, task_k, core_y, lower=False)
    value = _w_sum(ctx, task_k, rows, t, ctx.persistence)
    ctx._bao_cache[key] = (epoch, value)
    return value


def bao_low(ctx: AnalysisContext, core_y: int, task_k: Task, t: int) -> int:
    """Remote-core accesses of priority lower than ``task_k`` (Eq. 7).

    Needed by the FP bus: lower-priority accesses can each block at most one
    higher-priority access.  The paper keeps this term persistence oblivious
    (plain :math:`W`); set ``ctx.persistence_in_low`` to apply the — equally
    sound, slightly tighter — persistence-aware :math:`\\hat{W}` instead.
    Memoized like :func:`bao`.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    persistence = ctx.persistence and ctx.persistence_in_low
    if not ctx.memoize:
        rows = _w_rows(ctx, task_k, core_y, lower=True)
        return _w_sum(ctx, task_k, rows, t, persistence)
    key = (core_y, task_k.priority, t)
    epoch = ctx.core_epoch(core_y)
    cached = ctx._bao_low_cache.get(key)
    if cached is not None and cached[0] == epoch:
        ctx.perf.bao_low_hits += 1
        return cached[1]
    ctx.perf.bao_low_misses += 1
    rows = _w_rows(ctx, task_k, core_y, lower=True)
    value = _w_sum(ctx, task_k, rows, t, persistence)
    ctx._bao_low_cache[key] = (epoch, value)
    return value
