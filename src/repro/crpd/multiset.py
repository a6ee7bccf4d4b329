"""ECB-Union *Multiset* CRPD bound (Altmeyer, Davis, Maiza, RTS 2012).

The per-job ECB-union bound of Eq. (2) charges *every* job of the
preempting task :math:`\\tau_j` with the worst affected task's reload cost.
The multiset refinement observes that an intermediate task :math:`\\tau_g`
can only be preempted by :math:`\\tau_j` as often as :math:`\\tau_g`
actually executes inside the analysed window, and each of its jobs at most
:math:`E_j(R_g)` times.  Formally, the total CRPD charged to
:math:`\\tau_j`'s jobs inside a window of length :math:`t` is the sum of
the :math:`E_j(t)` largest elements of the multiset

.. math::

    M_{i,j}(t) = \\biguplus_{g \\in \\Gamma_x \\cap aff(i,j)}
        \\Big\\{ \\underbrace{c_g, \\dots, c_g}_{E_j(R_g) \\cdot E_g(t)} \\Big\\},
    \\qquad
    c_g = \\Big| UCB_g \\cap \\bigcup_{h \\in \\Gamma_x \\cap hep(j)} ECB_h \\Big|

where :math:`R_g` is :math:`\\tau_g`'s current response-time estimate.
Because the multiset may contain fewer than :math:`E_j(t)` elements, the
bound can fall well below :math:`E_j(t) \\cdot \\gamma_{i,j,x}` — it never
exceeds it.

This is an *extension* beyond the DATE 2020 paper (which fixes the plain
ECB-union approach); it plugs into the same-core bound :math:`BAS` when
:class:`~repro.crpd.approaches.CrpdApproach.ECB_UNION_MULTISET` is
selected.  Remote-core terms keep per-job ECB-union CRPD (the multiset
construction has no published remote-window counterpart).

Performance note: because :math:`M_{i,j}(t)` reads the response-time
estimates :math:`R_g` of *same-core* tasks, this approach is **not**
window oblivious — a task's Eq. (19) right-hand side depends on its
neighbours' (and its own) current estimates, not just on remote cores.
The analysis therefore keeps the outer loop's remote-epoch convergence
shortcut off for multiset runs (see ``AnalysisContext.window_oblivious``
in :mod:`repro.businterference.context`).  The exclusion is
load-bearing: skipping a multiset task on "no remote change" evidence can
declare convergence at a non-fixed point (caught by the fault-injection
suite via the ``warm-start-identity`` oracle).  The bound itself runs on
the fused BAT evaluator like every other approach: the bitmask kernel
compiles the static entries of every (preempting task, priority cut)
once (:meth:`~repro.model.interference.InterferenceTable.
crpd_multiset_cuts`) and the greedy sum of
:func:`multiset_window_from_pairs` reads the estimates from the
evaluator's slot list.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.model.task import Task, TaskSet

#: Static per-pair multiset data: ``(cost, period_g, task_g)`` triples for
#: every affected task with a nonzero reload cost, sorted by decreasing
#: cost so the greedy take below needs no per-call sort.
MultisetPairData = Tuple[Tuple[int, int, Task], ...]


def _ceil_div(numerator: int, denominator: int) -> int:
    return -((-numerator) // denominator)


def multiset_pair_data(
    taskset: TaskSet, task_i: Task, task_j: Task
) -> MultisetPairData:
    """Window-independent part of the multiset bound for one task pair.

    The per-affected-task reload cost :math:`c_g` and the periods entering
    the multiplicities depend only on the (static) task set, so they are
    extracted once per pair; :func:`multiset_window_from_pairs` then
    evaluates the window-dependent greedy sum from them.
    """
    core = task_j.core
    affected = taskset.aff_on_core(task_i, task_j, core)
    if not affected:
        return ()
    evicting = taskset.hep_ecb_union(task_j, core)
    entries = [
        (cost, int(task_g.period), task_g)
        for task_g in affected
        if (cost := len(taskset.frozen_blocks(task_g).ucbs & evicting)) > 0
    ]
    entries.sort(key=lambda entry: entry[0], reverse=True)
    return tuple(entries)


def multiset_window_from_pairs(
    entries: Tuple[Tuple[int, int, object], ...],
    period_j: int,
    window: int,
    response_time_of: Callable[[object], int],
) -> int:
    """Greedy evaluation of the multiset bound from precomputed pair data.

    Sums the :math:`E_j(t)` largest multiset elements: walk the per-task
    costs in decreasing order, each available with multiplicity
    :math:`E_j(R_g) \\cdot E_g(t)`, until the preemption budget is spent.
    The third field of an entry is whatever ``response_time_of`` maps to
    :math:`R_g`: the affected task in :func:`multiset_pair_data`, its
    estimate slot in the bitmask kernel's
    :meth:`~repro.model.interference.InterferenceTable.crpd_multiset_cuts`.
    """
    if window <= 0 or not entries:
        return 0
    remaining = _ceil_div(window, period_j)
    total = 0
    for cost, period_g, task_g in entries:
        if remaining <= 0:
            break
        multiplicity = _ceil_div(window, period_g) * _ceil_div(
            response_time_of(task_g), period_j
        )
        if multiplicity <= 0:
            continue
        take = min(remaining, multiplicity)
        total += take * cost
        remaining -= take
    return total


def ecb_union_multiset_window(
    taskset: TaskSet,
    task_i: Task,
    task_j: Task,
    window: int,
    response_time_of: Callable[[Task], int],
) -> int:
    """Total CRPD accesses charged to ``task_j``'s jobs in ``window``.

    Args:
        taskset: the task set under analysis.
        task_i: the task whose busy window is analysed (on ``task_j.core``).
        task_j: the (higher-priority) preempting task.
        window: window length in cycles.
        response_time_of: current WCRT estimate accessor (the outer loop's
            estimates; monotonically refined exactly like Eq. 5/6 uses
            :math:`R_l`).
    """
    return multiset_window_from_pairs(
        multiset_pair_data(taskset, task_i, task_j),
        int(task_j.period),
        window,
        response_time_of,
    )
