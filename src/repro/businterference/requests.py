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

Two evaluations of the same equations live here.  :func:`bas`,
:func:`bao` and :func:`bao_low` are the reference: sums of
:func:`pair_terms`, a term-by-term transcription over the ``frozenset``
CRPD/CPRO calculators that evaluates Eq. (10) + (14) through
:func:`~repro.persistence.demand.multi_job_demand` and ``rho_window``.
The ``_bas_*`` / ``_w_sum_*`` bodies are the production kernel's fused
sums over the integer rows of
:meth:`~repro.model.interference.InterferenceTable.rows`, which
:func:`~repro.businterference.arbiters.make_bat` slices per task.  The
``kernel-identity`` oracle checks that both give the same value.
"""

from __future__ import annotations

from typing import Tuple

from repro.businterference.context import AnalysisContext
from repro.crpd.approaches import CrpdApproach
from repro.crpd.multiset import multiset_window_from_pairs
from repro.errors import AnalysisError
from repro.model.task import Task
from repro.persistence.cpro import overlap_groups_window
from repro.persistence.demand import multi_job_demand


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


def _bas_fast_p(rows: tuple, t: int, md_i: int, drop_pcb: bool) -> int:
    """Fused persistence-aware :func:`bas` body (window-oblivious pairs).

    ``rows`` are the same-core higher-priority tasks' persistence rows of
    :meth:`~repro.model.interference.InterferenceTable.rows`, read at the
    analysed task's own cut.  :func:`bas` with :math:`\\hat{MD}(n)`
    (Eq. 10) and :math:`\\hat{\\rho}(n)` (Eq. 14) in closed form over each
    row's parameters, for ``n = ceil(t / T)`` jobs.
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
    :func:`_bas_fast_p`.
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
    persistence = ctx.persistence
    return task_i.md + sum(
        sum(pair_terms(ctx, task_i, task_j, t, remote=False, persistence=persistence))
        for task_j in ctx.taskset.hp_on_core(task_i, task_i.core)
    )


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


def pair_terms(
    ctx: AnalysisContext,
    task_i: Task,
    task_j: Task,
    t: int,
    *,
    remote: bool,
    persistence: bool,
) -> Tuple[int, int, int]:
    """``(memory demand, CRPD, carry-out)`` accesses of ``task_j``'s jobs.

    The jobs of ``task_j`` that delay ``task_i`` in a window of length
    ``t``.  Same-core (``remote=False``): the :math:`\\lceil t/T_j \\rceil`
    jobs of Eq. (1)/(16), with the per-job :math:`\\gamma` or the
    window-level multiset CRPD, and no carry-out.  Remote: the
    :math:`N^y` full jobs of Eq. (6) with their CRPD, as in Eq. (4)/(18),
    plus the carry-out job of Eq. (5).  With ``persistence`` the jobs are
    charged :math:`\\min(n \\cdot MD, \\hat{MD}(n) + \\hat{\\rho}(n))`
    (Eq. 10 + 14), with carry-in CPRO for remote jobs, since no release
    synchronisation holds across cores.
    """
    if remote:
        n_jobs = full_jobs_in_window(ctx, task_i, task_j, t)
    else:
        n_jobs = jobs_in_window(t, int(task_j.period))
    demand = n_jobs * task_j.md
    if persistence:
        demand = min(
            demand,
            multi_job_demand(task_j, n_jobs)
            + ctx.cpro.rho_window(
                task_j, task_i, n_jobs, t, carry_in=remote, budget=ctx.budget
            ),
        )
    if remote:
        return (
            demand,
            n_jobs * ctx.crpd.gamma(task_i, task_j),
            carried_out_accesses(ctx, task_i, task_j, t, n_jobs),
        )
    if ctx.crpd.approach is CrpdApproach.ECB_UNION_MULTISET:
        crpd = ctx.crpd.multiset_window(
            task_i, task_j, t, ctx.response_time, budget=ctx.budget
        )
    else:
        crpd = n_jobs * ctx.crpd.gamma(task_i, task_j)
    return demand, crpd, 0


def _w_sum_fast_p(est: list, rows: tuple, t: int, d_mem: int, drop_pcb: bool) -> int:
    """Fused persistence-aware :math:`\\sum_l \\hat{W}` over persistence rows.

    ``rows`` are persistence rows of
    :meth:`~repro.model.interference.InterferenceTable.rows`; each adds
    the remote :func:`pair_terms` sum with Eq. (10) and (14) in closed
    form, reading :math:`R_l` from the estimate list ``est``.
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
    """Fused baseline :math:`\\sum_l W` over baseline rows.

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
    """Fused persistence-aware :math:`\\sum_l \\hat{W}` for a multiset pair.

    :func:`_w_sum_fast_p` over extended persistence rows, with a member's
    grouped overlap rows, where present, charging the carry-in multiset
    CPRO of :func:`~repro.persistence.cpro.overlap_groups_window` in
    place of ``(n - 1) * evictable``.  The CRPD stays per-job ECB-union
    (``gamma``), as in :func:`pair_terms`.
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
    Persistence-aware (Lemma 2) when ``ctx.persistence`` is set.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    persistence = ctx.persistence
    return sum(
        sum(pair_terms(ctx, task_k, task_l, t, remote=True, persistence=persistence))
        for task_l in ctx.taskset.hep_on_core(task_k, core_y)
    )


def bao_low(ctx: AnalysisContext, core_y: int, task_k: Task, t: int) -> int:
    """Remote-core accesses of priority lower than ``task_k`` (Eq. 7).

    Needed by the FP bus: lower-priority accesses can each block at most one
    higher-priority access.  The paper keeps this term persistence oblivious
    (plain :math:`W`); set ``ctx.persistence_in_low`` to apply the — equally
    sound, slightly tighter — persistence-aware :math:`\\hat{W}` instead.
    """
    if t < 0:
        raise AnalysisError(f"window length must be non-negative, got {t}")
    persistence = ctx.persistence and ctx.persistence_in_low
    return sum(
        sum(pair_terms(ctx, task_k, task_l, t, remote=True, persistence=persistence))
        for task_l in ctx.taskset.lp_on_core(task_k, core_y)
    )
