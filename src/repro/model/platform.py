"""Hardware platform model.

The paper (Sec. II) considers a multicore platform with ``m`` identical
timing-compositional cores.  Each core owns a private direct-mapped L1
instruction cache; all cores share a single memory bus to main memory, and
one bus transaction (a cache-line refill) takes ``d_mem`` time units.

Time units
----------
Everywhere in this library, time is expressed in *processor cycles*.  The
paper's experiments use a default memory latency of 5 µs; following the
units convention documented in ``DESIGN.md`` we model the processor at
2 MHz, i.e. 1 cycle = 500 ns and 5 µs = 10 cycles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.errors import ModelError
from repro.model.blocks import MAX_CACHE_SETS

#: Processor frequency assumed by the units convention (cycles per second).
#: 2 MHz puts the paper's default memory latency of 5 us at 10 cycles, which
#: pins down the two unit choices documented in DESIGN.md: (a) the request
#: counts obtained from Table I's cycle-valued MD columns use the same
#: latency (so the paper's period formula ``T = (PD + MD)/U`` with MD in
#: cycles coincides with the generator's ``T = (PD + md * d_mem)/U`` at the
#: default latency), and (b) set-based overheads (CRPD/CPRO, measured in
#: cache sets) stay small relative to the per-job request counts — matching
#: the paper's own worked example, where gamma = 2 against MD = 8.
PROCESSOR_HZ = 2_000_000

#: Number of cycles per microsecond under the units convention.
CYCLES_PER_US = PROCESSOR_HZ // 1_000_000


def microseconds_to_cycles(us: float) -> int:
    """Convert a duration in microseconds to processor cycles.

    >>> microseconds_to_cycles(5)
    10
    """
    return int(round(us * CYCLES_PER_US))


def cycles_to_microseconds(cycles: float) -> float:
    """Convert a duration in processor cycles to microseconds.

    >>> cycles_to_microseconds(10)
    5.0
    """
    return cycles / CYCLES_PER_US


class BusPolicy(enum.Enum):
    """Memory bus arbitration policies analysed in the paper.

    * ``FP`` -- fixed priority: bus requests inherit the priority of the
      requesting task (work conserving), Eq. (7).
    * ``RR`` -- round robin with ``slot_size`` consecutive memory access
      slots per core (work conserving), Eq. (8).
    * ``TDMA`` -- time division multiple access with ``slot_size`` slots per
      core per cycle of length ``num_cores * slot_size`` (non-work
      conserving), Eq. (9).
    * ``PERFECT`` -- an idealised contention-free bus used as an upper bound
      on achievable schedulability ("perfect bus" line in Fig. 2).
    """

    FP = "fp"
    RR = "rr"
    TDMA = "tdma"
    PERFECT = "perfect"

    @property
    def is_work_conserving(self) -> bool:
        """Whether the arbiter never idles the bus while requests are pending."""
        return self in (BusPolicy.FP, BusPolicy.RR, BusPolicy.PERFECT)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a private direct-mapped instruction cache.

    The paper's default platform has 256 cache sets with 32-byte lines
    (8 KiB per core).  Since the cache is direct mapped, a memory block
    ``b`` (a line-sized, line-aligned chunk of the address space) maps to
    cache set ``b % num_sets``.

    Attributes:
        num_sets: number of cache sets (= number of lines for direct mapped).
        block_size: line size in bytes.
    """

    num_sets: int = 256
    block_size: int = 32

    def __post_init__(self) -> None:
        if self.num_sets <= 0:
            raise ModelError(f"num_sets must be positive, got {self.num_sets}")
        if self.block_size <= 0:
            raise ModelError(f"block_size must be positive, got {self.block_size}")
        if self.num_sets & (self.num_sets - 1):
            raise ModelError(
                f"num_sets must be a power of two, got {self.num_sets}"
            )
        if self.block_size & (self.block_size - 1):
            raise ModelError(
                f"block_size must be a power of two, got {self.block_size}"
            )
        if self.num_sets > MAX_CACHE_SETS:
            # Every set index of the cache must pack into a block set.
            raise ModelError(
                f"num_sets must be at most {MAX_CACHE_SETS}, got {self.num_sets}"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total cache capacity in bytes."""
        return self.num_sets * self.block_size

    def block_of_address(self, address: int) -> int:
        """Memory block index containing a byte ``address``."""
        if address < 0:
            raise ModelError(f"address must be non-negative, got {address}")
        return address // self.block_size

    def set_of_block(self, block: int) -> int:
        """Cache set a memory block maps to (direct mapped: ``block % S``)."""
        if block < 0:
            raise ModelError(f"block index must be non-negative, got {block}")
        return block % self.num_sets

    def set_of_address(self, address: int) -> int:
        """Cache set a byte address maps to."""
        return self.set_of_block(self.block_of_address(address))

    def with_num_sets(self, num_sets: int) -> "CacheGeometry":
        """Return a copy of this geometry with a different set count."""
        return replace(self, num_sets=num_sets)


@dataclass(frozen=True)
class Platform:
    """A multicore platform as described in Sec. II of the paper.

    Attributes:
        num_cores: number of identical cores (``m``); paper default 4.
        cache: geometry of each core's private L1 instruction cache.
        d_mem: worst-case duration of one main-memory access, in cycles;
            paper default 5 µs = 10 cycles.
        bus_policy: memory bus arbitration policy.
        slot_size: number of consecutive memory access slots per core for
            the RR and TDMA arbiters (``s`` in Eq. (8)/(9)); paper default 2.
            Ignored by the FP and perfect arbiters.
    """

    num_cores: int = 4
    cache: CacheGeometry = field(default_factory=CacheGeometry)
    d_mem: int = microseconds_to_cycles(5)
    bus_policy: BusPolicy = BusPolicy.FP
    slot_size: int = 2

    def __post_init__(self) -> None:
        # ``not 0 < x < inf`` also rejects NaN, which compares false both
        # ways.
        for name in ("num_cores", "d_mem", "slot_size"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ModelError(
                    f"{name} must be positive and finite, got {value}"
                )
        if not isinstance(self.bus_policy, BusPolicy):
            raise ModelError(f"bus_policy must be a BusPolicy, got {self.bus_policy!r}")

    @property
    def tdma_cycle_slots(self) -> int:
        """Length of one TDMA cycle in slots (``L * s`` with ``L = m``)."""
        return self.num_cores * self.slot_size

    @property
    def cores(self) -> range:
        """Iterable of core identifiers ``0 .. m-1``."""
        return range(self.num_cores)

    def with_bus_policy(self, policy: BusPolicy) -> "Platform":
        """Return a copy of this platform with a different bus arbiter."""
        return replace(self, bus_policy=policy)

    def with_d_mem(self, d_mem: int) -> "Platform":
        """Return a copy of this platform with a different memory latency."""
        return replace(self, d_mem=d_mem)

    def with_num_cores(self, num_cores: int) -> "Platform":
        """Return a copy of this platform with a different core count."""
        return replace(self, num_cores=num_cores)

    def with_slot_size(self, slot_size: int) -> "Platform":
        """Return a copy of this platform with a different RR/TDMA slot size."""
        return replace(self, slot_size=slot_size)

    def with_cache(self, cache: CacheGeometry) -> "Platform":
        """Return a copy of this platform with a different cache geometry."""
        return replace(self, cache=cache)
