"""Packed cache-block sets: the one representation of ECB/UCB/PCB sets.

Every CRPD/CPRO quantity the analysis evaluates — :math:`\\gamma` of
Eq. (2), the CPRO eviction count of Eq. (14), the reload costs of the
multiset refinements — is a cardinality ``|A ∩ (B_1 ∪ ... ∪ B_k)|`` over
*cache set indices*.  The classic trick of the CRPD tooling lineage
(Altmeyer & Davis's ECB/UCB analyses) is to pack each block set into an
integer bitmask — bit ``b`` set iff cache set ``b`` is touched — so an
intersection cardinality is one ``&`` plus one popcount
(``int.bit_count()``) and a union over a task group a fold of ``|``.
Python's arbitrary-precision integers make this exact at any cache size:
indices past 63 spill into further limbs of the same integer.

:class:`BlockSet` makes that mask the representation.  A task's block
sets are packed once, where they are generated or parsed, and the
production kernel's :class:`~repro.model.interference.InterferenceTable`
reads the masks as they are.  A block set holds one ``int`` and nothing
else, about a hundred bytes against several kilobytes for the
``frozenset`` of a few hundred indices, and it pickles as that ``int``.
It is still a set to every other reader: an immutable
:class:`collections.abc.Set` that iterates in ascending order and
compares and hashes equal to the ``frozenset`` of its members.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator

from repro.errors import ModelError

#: Cache set indices must lie below this bound, so the largest mask is
#: 128 KiB (a direct-mapped cache of 64-byte lines this large holds
#: 64 MiB).  An index is checked against it before it is ever shifted.
MAX_CACHE_SETS = 1 << 20


def _pack(indices: Iterable[int]) -> int:
    """The bitmask of ``indices``, checked as :class:`BlockSet` says."""
    if not isinstance(indices, (list, tuple)):
        indices = list(indices)
    if not indices:
        return 0
    if not {int}.issuperset(map(type, indices)):
        raise ModelError(
            f"cache set indices must be ints, got "
            f"{next(i for i in indices if type(i) is not int)!r}"
        )
    if max(indices) >= MAX_CACHE_SETS:
        raise ModelError(
            f"a cache set index is too large to pack (indices must be "
            f"below {MAX_CACHE_SETS})"
        )
    mask = 0
    try:
        for index in indices:
            mask |= 1 << index
    except ValueError:  # a negative shift count
        raise ModelError("cache set indices must be non-negative") from None
    return mask


class BlockSet(Set):
    """An immutable set of cache set indices, packed into one ``int``.

    ``BlockSet(indices)`` packs any iterable of indices: each must be an
    ``int`` (a ``bool`` is not), non-negative and below
    :data:`MAX_CACHE_SETS`, else :class:`~repro.errors.ModelError` is
    raised: a wrong type or a size before any shift, so no mask outgrows
    :data:`MAX_CACHE_SETS` bits, and a negative index at its own shift,
    which fails before it allocates.  A repeated index is one member.
    :meth:`from_mask` takes the mask itself.  Set algebra between block
    sets is integer algebra on their masks and returns a block set.
    Against any other :class:`collections.abc.Set` the operators and
    comparisons act as the ``frozenset`` of the members would, so
    ``BlockSet({1, 2}) == frozenset({1, 2})`` and both hash alike.
    """

    __slots__ = ("_mask",)

    def __init__(self, indices: Iterable[int] = ()) -> None:
        self._mask = _pack(indices)

    @staticmethod
    def from_mask(mask: int) -> "BlockSet":
        """The block set whose members are the set bits of ``mask``.

        ``mask`` must be a non-negative ``int`` below
        ``2 ** MAX_CACHE_SETS``.
        """
        if type(mask) is not int or mask < 0 or mask >> MAX_CACHE_SETS:
            raise ModelError(
                f"a block set mask must be a non-negative int of at most "
                f"{MAX_CACHE_SETS} bits"
            )
        return _block_set(mask)

    @property
    def mask(self) -> int:
        """The packed members: bit ``b`` is set iff ``b`` is a member."""
        return self._mask

    def __reduce__(self):
        return (_block_set, (self._mask,))

    # -- the Set protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        # Character ``b`` of the reversed binary digits is bit ``b``.
        digits = bin(self._mask)[:1:-1]
        index = digits.find("1")
        while index >= 0:
            yield index
            index = digits.find("1", index + 1)

    def __contains__(self, index: object) -> bool:
        if isinstance(index, int):
            return index >= 0 and (self._mask >> index) & 1 == 1
        # Other probes (1.0, "1", ...) match as they would in a frozenset.
        return index in frozenset(self)

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        if not self._mask:
            return "BlockSet()"
        return "BlockSet({%s})" % ", ".join(map(str, self))

    # -- comparisons and algebra ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockSet):
            return self._mask == other._mask
        if isinstance(other, Set):
            return frozenset(self) == other
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, BlockSet):
            return self._mask & ~other._mask == 0
        if isinstance(other, Set):
            return frozenset(self) <= other
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, BlockSet):
            return self._mask != other._mask and self <= other
        if isinstance(other, Set):
            return frozenset(self) < other
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, BlockSet):
            return other._mask & ~self._mask == 0
        if isinstance(other, Set):
            return frozenset(self) >= other
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, BlockSet):
            return self._mask != other._mask and self >= other
        if isinstance(other, Set):
            return frozenset(self) > other
        return NotImplemented

    def __and__(self, other):
        if isinstance(other, BlockSet):
            return _block_set(self._mask & other._mask)
        if isinstance(other, Set):
            return frozenset(self) & other
        return NotImplemented

    def __or__(self, other):
        if isinstance(other, BlockSet):
            return _block_set(self._mask | other._mask)
        if isinstance(other, Set):
            return frozenset(self) | other
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, BlockSet):
            return _block_set(self._mask & ~other._mask)
        if isinstance(other, Set):
            return frozenset(self) - other
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, BlockSet):
            return _block_set(self._mask ^ other._mask)
        if isinstance(other, Set):
            return frozenset(self) ^ other
        return NotImplemented

    # Reached only when the left operand is not a block set.
    def __rand__(self, other):
        if isinstance(other, Set):
            return other & frozenset(self)
        return NotImplemented

    def __ror__(self, other):
        if isinstance(other, Set):
            return other | frozenset(self)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Set):
            return other - frozenset(self)
        return NotImplemented

    def __rxor__(self, other):
        if isinstance(other, Set):
            return other ^ frozenset(self)
        return NotImplemented


def _block_set(mask: int) -> BlockSet:
    """A block set over ``mask``, unchecked: masks of set algebra and
    pickles, which valid block sets produced."""
    blocks = object.__new__(BlockSet)
    blocks._mask = mask
    return blocks
