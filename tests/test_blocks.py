"""Unit and property tests of the packed block set (:mod:`repro.model.blocks`).

A :class:`~repro.model.blocks.BlockSet` must be indistinguishable from the
``frozenset`` of its members to every reader: set algebra in both operand
orders, comparisons, hashing, membership and iteration order.  What packing
accepts and rejects is pinned directly.
"""

import operator
import pickle
import pickletools
from collections.abc import Set

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model.blocks import MAX_CACHE_SETS, BlockSet

#: Random cache set indices, across several 64-bit words and past the
#: 256 sets of the paper's cache.
indices = st.frozensets(st.integers(min_value=0, max_value=1100), max_size=80)


@st.composite
def pairs(draw):
    """Two index sets that overlap, nest or coincide often enough."""
    a = draw(indices)
    shared = draw(st.frozensets(st.sampled_from(sorted(a)))) if a else a
    b = shared | draw(indices)
    if draw(st.booleans()):
        b |= a
    return a, b


ALGEBRA = [operator.and_, operator.or_, operator.sub, operator.xor]
COMPARISONS = [
    operator.le, operator.lt, operator.ge, operator.gt, operator.eq,
    operator.ne,
]


def _no_frozenset(payload: bytes) -> bool:
    """Whether a pickle builds no ``frozenset`` and names none."""
    for opcode, argument, _ in pickletools.genops(payload):
        if opcode.name == "FROZENSET" or argument == "frozenset":
            return False
    return True


class TestMatchesFrozenset:
    @given(pairs())
    def test_algebra_in_both_operand_orders(self, pair):
        a, b = pair
        packed_a, packed_b = BlockSet(a), BlockSet(b)
        for op in ALGEBRA:
            expected = op(a, b)
            assert type(op(packed_a, packed_b)) is BlockSet
            for left, right in (
                (packed_a, packed_b), (packed_a, b), (a, packed_b)
            ):
                result = op(left, right)
                assert result == expected, (op, left, right)
                assert frozenset(result) == expected

    @given(pairs())
    def test_comparisons_in_both_operand_orders(self, pair):
        a, b = pair
        packed_a, packed_b = BlockSet(a), BlockSet(b)
        for compare in COMPARISONS:
            expected = compare(a, b)
            for left, right in (
                (packed_a, packed_b), (packed_a, b), (a, packed_b)
            ):
                assert compare(left, right) is expected, (compare, a, b)
        assert packed_a.isdisjoint(packed_b) == a.isdisjoint(b)
        assert packed_a.isdisjoint(b) == a.isdisjoint(b)

    @given(indices)
    def test_hash_len_iteration_and_extremes(self, a):
        packed = BlockSet(a)
        assert hash(packed) == hash(a)
        assert len(packed) == len(a)
        assert bool(packed) == bool(a)
        assert list(packed) == sorted(a)
        assert packed.mask == sum(1 << b for b in a)
        if a:
            assert (min(packed), max(packed)) == (min(a), max(a))
        else:
            with pytest.raises(ValueError):
                min(packed)

    @given(
        indices,
        st.lists(
            st.one_of(
                st.integers(min_value=-5, max_value=1105),
                st.integers(max_value=-1),
                st.integers(min_value=10**9),
                st.just(2**70),
                st.floats(allow_nan=False, min_value=-2, max_value=1102),
                st.booleans(),
                st.text(max_size=2),
                st.none(),
                st.tuples(st.integers(0, 3)),
            ),
            max_size=12,
        ),
    )
    def test_membership_of_any_probe(self, a, probes):
        packed = BlockSet(a)
        for probe in list(probes) + sorted(a)[:4]:
            assert (probe in packed) == (probe in a), probe

    def test_unhashable_probe_raises_like_a_frozenset(self):
        with pytest.raises(TypeError):
            [1] in frozenset({1})
        with pytest.raises(TypeError):
            [1] in BlockSet({1})

    @given(indices)
    def test_pickles_as_its_mask(self, a):
        packed = BlockSet(a)
        payload = pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(payload)
        assert type(clone) is BlockSet and clone == packed == a
        assert _no_frozenset(payload)

    def test_is_an_immutable_set(self):
        packed = BlockSet({1, 2})
        assert isinstance(packed, Set)
        assert {packed: "x"}[frozenset({1, 2})] == "x"
        with pytest.raises(AttributeError):
            packed.extra = 1
        assert not hasattr(packed, "__dict__")
        assert repr(packed) == "BlockSet({1, 2})"
        assert repr(BlockSet()) == "BlockSet()"


class TestPackingEdges:
    """What packing accepts and rejects (the word-boundary and table
    edges are in ``tests/test_bitset.py::TestMaskPacking``)."""

    def test_repeated_index_is_one_member(self):
        assert BlockSet([3, 1, 3]) == {1, 3} and len(BlockSet([3, 3])) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1, -1], "non-negative"),
            ([1.5], "must be ints"),
            ([True], "must be ints"),
            (["1"], "must be ints"),
            ([MAX_CACHE_SETS], "too large to pack"),
            ([10**10], "too large to pack"),
            ([1 << 20_000], "too large to pack"),
        ],
        ids=["negative", "float", "bool", "string", "limit", "10**10",
             "2**20000"],
    )
    def test_unpackable_indices_rejected(self, bad, message):
        with pytest.raises(ModelError, match=message):
            BlockSet(bad)
        with pytest.raises(ModelError, match=message):
            BlockSet(iter(bad))

    @pytest.mark.parametrize(
        "mask",
        [-1, 1.0, True, 1 << MAX_CACHE_SETS],
        ids=["negative", "float", "bool", "past-the-limit"],
    )
    def test_bad_masks_rejected(self, mask):
        with pytest.raises(ModelError, match="mask"):
            BlockSet.from_mask(mask)
