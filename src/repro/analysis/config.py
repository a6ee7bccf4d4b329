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
        memoization, bitset_kernel, array_kernel: select the kernel.
            All three on (the default) run the production kernel: each
            task's :math:`BAT` is one fused pass over the integer rows the
            task set's :class:`~repro.model.interference.InterferenceTable`
            compiles per priority cut (``make_bat`` in
            :mod:`repro.businterference.arbiters`).  Any of them off runs
            the reference (:attr:`reference`): the per-term transcription
            of Eq. (1)-(18) in :mod:`repro.businterference.requests` over
            the ``frozenset`` CRPD/CPRO calculators, which builds no table.
            Results are bit-identical either way (the ``kernel-identity``
            oracle of :mod:`repro.verify`).  The three names stay, although
            only their conjunction matters, because outside readers name
            them: perfbench's ``REFERENCE_OFF`` and ``run.py --ablate``,
            the service wire protocol's ``_CONFIG_FIELDS``, the
            ``tests/corpus`` case files and the sweep journal's
            fingerprint.
        lockstep_kernel: read by nothing.  Kept only because
            ``perfbench/metrics.py`` sets it by name (its reference
            configuration and ``run.py --ablate``); the sweep journal's
            fingerprint leaves it out.
        warm_start: replay the stored result of a previous cold analysis
            of the *same* (task set, platform, config) triple after
            checking it: one outer round over the stored estimates must
            find ``f(r) <= r`` for every task, the test the inner loop
            stops at; any failure falls back to a cold run.  Results are
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

    @property
    def reference(self) -> bool:
        """Whether this configuration runs the reference kernel."""
        return not (self.memoization and self.bitset_kernel and self.array_kernel)

    def with_persistence(self, persistence: bool) -> "AnalysisConfig":
        """Copy of this configuration with persistence toggled."""
        return replace(self, persistence=persistence)


#: The paper's persistence-aware analysis (Lemmas 1-2 + ECB-union + CPRO-union).
PERSISTENCE_AWARE = AnalysisConfig(persistence=True)

#: The baseline analysis of Davis et al. (CRPD only, no persistence).
BASELINE = AnalysisConfig(persistence=False)
