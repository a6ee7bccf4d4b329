"""Configuration of a schedulability analysis run."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crpd.approaches import CrpdApproach
from repro.errors import AnalysisError
from repro.persistence.cpro import CproApproach


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the WCRT analysis (Sec. IV).

    Attributes:
        persistence: use the cache-persistence-aware bounds of Lemmas 1-2
            instead of the baseline Eq. (1)/(3) of Davis et al.
        crpd_approach: CRPD bound used for :math:`\\gamma` (paper: ECB-union).
        cpro_approach: CPRO bound used for :math:`\\hat{\\rho}`
            (paper: CPRO-union).
        persistence_in_low: extend persistence awareness to the FP bus's
            lower-priority remote term (off in the paper; see Eq. 7).
        tdma_slot_alignment: charge each access one extra slot of TDMA
            waiting.  Eq. (9) implicitly assumes requests are issued at
            slot boundaries; against a bus that serves a request anywhere
            inside the owner's window, each access can additionally wait
            out the unusable tail of a window.  Off by default (faithful
            to the paper); the simulator validation enables it.
        max_outer_iterations: bound on the outer loop that resolves the
            circular dependency between task response times.
        max_inner_iterations: bound on the per-task fixed point of Eq. (19).
        memoization: cache the window-level interference terms
            (:math:`W`, :math:`BAO`, :math:`BAO_{low}`, multiset CRPD) on
            their inputs plus the epoch of the response-time estimates they
            read.  Bit-identical results either way — the un-memoized path
            exists as the reference for the differential correctness test
            and costs a multiple of the run time.
        bitset_kernel: evaluate the cache-set intersection/union terms
            (Eq. 2 CRPD, Eq. 14 CPRO, the multiset refinements) from the
            task set's precompiled
            :class:`~repro.model.interference.InterferenceTable` — packed
            integer AND+popcount operations, compiled once into per-cut
            CRPD/CPRO values — instead of ``frozenset`` algebra per pair.
            Bit-identical results either way — the set-based path is
            retained as the reference for the ``bitset-identity``
            differential oracle of :mod:`repro.verify`.
        array_kernel: evaluate each task's bus-access total through the
            fused evaluator (:func:`repro.businterference.arbiters.
            make_bat`): one specialised closure over row slices of the
            interference table instead of the per-term, memoized
            :math:`BAS`/:math:`BAO` entry points, for every CRPD/CPRO
            approach pair (the multiset refinements included).  Gates
            only the fused evaluator — the table itself serves every
            bitmask-kernel analysis.  Exact integer arithmetic either way,
            so results are bit-identical to the per-term path, which is
            retained as the reference for the ``batch-identity``
            differential oracle and is the only one that consults the
            memo caches.  Requires ``bitset_kernel`` and ``memoization``;
            ignored without them.
        lockstep_kernel: read by nothing.  Kept only because
            ``perfbench/metrics.py`` sets it by name (its reference
            configuration and ``run.py --ablate``); the sweep journal's
            fingerprint leaves it out.
        warm_start: seed each task's response-time iteration from the
            converged estimates of a previous analysis of the *same*
            (task set, platform, config) triple, re-verifying the fixed
            point instead of re-deriving it from the cold isolated-WCET
            seeds.  Monotonicity of Eq. (19) makes re-verification exact:
            a converged map passes one outer round unchanged; any change
            (non-convergence) falls back to a cold run.  Results are
            bit-identical to a cold run except for ``outer_iterations``
            in the perf counters.  Seeds are only kept for schedulable
            results — an unschedulable run leaves a partially-refined map
            whose replay would not be order-independent.
    """

    persistence: bool = True
    crpd_approach: CrpdApproach = CrpdApproach.ECB_UNION
    cpro_approach: CproApproach = CproApproach.UNION
    persistence_in_low: bool = False
    tdma_slot_alignment: bool = False
    max_outer_iterations: int = 64
    max_inner_iterations: int = 4096
    memoization: bool = True
    bitset_kernel: bool = True
    array_kernel: bool = True
    lockstep_kernel: bool = True
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.max_outer_iterations <= 0:
            raise AnalysisError(
                f"max_outer_iterations must be positive, "
                f"got {self.max_outer_iterations}"
            )
        if self.max_inner_iterations <= 0:
            raise AnalysisError(
                f"max_inner_iterations must be positive, "
                f"got {self.max_inner_iterations}"
            )

    def with_persistence(self, persistence: bool) -> "AnalysisConfig":
        """Copy of this configuration with persistence toggled."""
        return replace(self, persistence=persistence)


#: The paper's persistence-aware analysis (Lemmas 1-2 + ECB-union + CPRO-union).
PERSISTENCE_AWARE = AnalysisConfig(persistence=True)

#: The baseline analysis of Davis et al. (CRPD only, no persistence).
BASELINE = AnalysisConfig(persistence=False)
