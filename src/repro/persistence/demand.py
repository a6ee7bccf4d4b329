"""Multi-job memory access demand under cache persistence (Eq. 10).

A persistent cache block (PCB) of a task is "a memory block used by the task
that, once loaded in the cache, will never be evicted or invalidated by the
task itself" (Rashid et al., ECRTS 2016).  When a task executes in isolation
each PCB is therefore loaded from main memory *at most once* across all its
jobs, so the total demand of :math:`n` successive jobs is bounded by

.. math::

    \\hat{MD}_i(n) = \\min( n \\cdot MD_i,\\; n \\cdot MD^r_i + |PCB_i| )

The first argument of the ``min`` is the classic persistence-oblivious bound;
the second charges every job only its residual demand plus one cold load of
every PCB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.model.task import Task


@dataclass
class FaultHooks:
    """Test-only unsoundness injection points.

    The soundness fuzzer (:mod:`repro.verify`) must be able to prove it
    would catch a real analysis bug.  These flags let a test deliberately
    break a bound; they are consulted by :func:`multi_job_demand` and by
    the fused fast paths of :mod:`repro.businterference.requests`, and must
    never be set outside :func:`repro.verify.faults.inject_fault`.

    Attributes:
        drop_pcb_term: drop the ``|PCB|`` cold-load term from Eq. 10,
            turning the persistence-aware multi-job demand into the
            unsound ``n * MDr``.
    """

    drop_pcb_term: bool = False


#: Process-global fault state (all flags off in normal operation).
FAULTS = FaultHooks()


def multi_job_demand(task: Task, n_jobs: int) -> int:
    """Upper bound :math:`\\hat{MD}(n)` on the memory requests of ``n_jobs``
    successive jobs of ``task`` executing in isolation (Eq. 10).

    Returns 0 for ``n_jobs == 0``; raises for negative job counts.
    """
    if n_jobs < 0:
        raise AnalysisError(f"n_jobs must be non-negative, got {n_jobs}")
    pcb_term = 0 if FAULTS.drop_pcb_term else len(task.pcbs)
    return min(n_jobs * task.md, n_jobs * task.md_r + pcb_term)
