"""Property tests for the column store's grouping kernel.

The reference is :func:`numpy.unique` with ``return_index``,
``return_inverse`` and ``return_counts`` — a stable-sort grouping that
lives here only.  The kernel must match it bit-for-bit, dtypes included,
on both sides of the dense limit, across the ``2^31`` radix where packed
keys widen from int32 to int64, and through the ``2^62`` re-compression
in :meth:`ColumnStore.packed_key`.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_relations import random_relation
from repro.discovery.miner import mine_jointree
from repro.relations.columns import _MAX_PACK, ColumnStore, _dense_limit
from repro.relations.io import read_csv
from repro.relations.relation import Relation, _distinct_row_indices
from repro.relations.schema import RelationSchema

#: Cardinalities mixing constant columns with wide ones, so small stores
#: land on both sides of the dense limit (1024 below 256 rows).
CARDS = st.sampled_from([1, 2, 3, 7, 40, 300, 1 << 21])


def make_store(columns, cards):
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    row_list = tuple(zip(*(c.tolist() for c in columns)))
    return ColumnStore.from_identity_codes(row_list, columns, cards)


@st.composite
def stores(draw, max_rows=60):
    cards = draw(st.lists(CARDS, min_size=1, max_size=4))
    n = draw(st.integers(0, max_rows))
    # Few distinct codes per column, so wide subsets still repeat keys.
    columns = []
    for card in cards:
        pool = draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=5))
        column = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        columns.append(column)
    positions = draw(
        st.lists(st.integers(0, len(cards) - 1), min_size=1, unique=True)
    )
    return make_store(columns, cards), tuple(positions)


def reference(key):
    _, first_index, gids, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return gids, first_index, counts


def assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


def assert_groups_match_reference(store, positions):
    group = store.groups(positions)
    gids, first_index, counts = reference(store.packed_key(positions))
    assert_same(group.gids, gids)
    assert_same(group.first_index, first_index)
    assert_same(group.counts, counts)


def assert_counts_and_cells_match(store, positions, counts_first):
    """``counts`` and the cell record agree with the reference, in either
    call order (the cell record is narrowed, so values are compared)."""
    store.clear_cache()
    if counts_first:
        counts = store.counts(positions)
        cells = store.cells(positions)
    else:
        cells = store.cells(positions)
        counts = store.counts(positions)
    _, first_index, expected = reference(store.packed_key(positions))
    assert_same(counts, expected)
    np.testing.assert_array_equal(cells.first_index, first_index)
    np.testing.assert_array_equal(cells.counts, expected)
    assert cells.first_index.dtype == cells.counts.dtype == np.int32


def reference_distinct(arr):
    if arr.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    _, first_index = np.unique(arr, axis=0, return_index=True)
    return np.sort(first_index)


@settings(max_examples=150, deadline=None)
@given(stores())
def test_groups_match_unique(case):
    store, positions = case
    assert_groups_match_reference(store, positions)


@settings(max_examples=150, deadline=None)
@given(stores(), st.booleans())
def test_counts_equal_and_share_group_counts(case, counts_first):
    store, positions = case
    assert_counts_and_cells_match(store, positions, counts_first)


@settings(max_examples=100, deadline=None)
@given(stores())
def test_counts_only_builds_no_group_index(case):
    store, positions = case
    store.counts(positions)
    assert positions not in store._cells


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).flatmap(
        lambda cards: st.tuples(
            st.just(cards),
            st.lists(
                st.tuples(*(st.integers(0, c - 1) for c in cards)), max_size=40
            ),
        )
    )
)
def test_distinct_row_indices_match_unique(case):
    cards, rows = case
    arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(cards))
    keep = _distinct_row_indices(arr, cards)
    assert_same(keep, reference_distinct(arr))


class TestEdgeCases:
    @pytest.mark.parametrize("counts_first", [True, False])
    def test_empty_store(self, counts_first):
        store = make_store([[], []], [0, 0])
        assert_groups_match_reference(store, (0, 1))
        assert_counts_and_cells_match(store, (0, 1), counts_first)
        assert len(store.counts((0,))) == 0

    @pytest.mark.parametrize("counts_first", [True, False])
    def test_single_row(self, counts_first):
        store = make_store([[3], [0]], [4, 1])
        assert_groups_match_reference(store, (0, 1))
        assert_counts_and_cells_match(store, (0, 1), counts_first)
        assert store.counts((1,)).tolist() == [1]

    def test_constant_columns(self):
        store = make_store([[0] * 5, [2, 0, 2, 1, 0], [0] * 5], [1, 3, 1])
        for positions in [(0,), (0, 2), (0, 1, 2), (2, 1)]:
            assert_groups_match_reference(store, positions)
            assert_counts_and_cells_match(store, positions, True)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("counts_first", [True, False])
    def test_radix_at_and_past_the_dense_limit(self, extra, counts_first):
        n = 300
        limit = _dense_limit(n)
        card = limit + extra  # one column whose radix is limit or limit+1
        rng = np.random.default_rng(5)
        codes = rng.choice([0, 7, card // 2, card - 1], size=n)
        store = make_store([codes], [card])
        assert_groups_match_reference(store, (0,))
        assert_counts_and_cells_match(store, (0,), counts_first)

    def test_repack_past_two_to_the_62(self):
        card = 1 << 21
        assert card**3 >= _MAX_PACK
        rng = np.random.default_rng(3)
        columns = [
            rng.choice([0, 1, card - 2, card - 1], size=80) for _ in range(3)
        ]
        store = make_store(columns, [card] * 3)
        for positions in [(0, 1, 2), (2, 0, 1)]:
            assert_groups_match_reference(store, positions)
            assert_counts_and_cells_match(store, positions, True)
            assert_counts_and_cells_match(store, positions, False)
        rows = np.stack(columns, axis=1)
        assert _distinct_row_indices(rows, [card] * 3) is None
        assert_same(
            _distinct_row_indices(rows[:, :2], [card] * 2),
            reference_distinct(rows[:, :2]),
        )


def row_oracle(store, positions):
    """``(gids, first_index, counts)`` by a row-at-a-time pass (int64).

    Identity-coded rows are their codes, so sorted value tuples are the
    packed-key order.
    """
    keys = [tuple(row[p] for p in positions) for row in store.row_list]
    order = sorted(set(keys))
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    tally = Counter(keys)
    gid = {key: g for g, key in enumerate(order)}
    return (
        np.array([gid[key] for key in keys], dtype=np.int64),
        np.array([first[key] for key in order], dtype=np.int64),
        np.array([tally[key] for key in order], dtype=np.int64),
    )


class TestInt32Widening:
    """Keys pack in int32 while the radix is below 2^31 and in int64 past
    it; where that happens must not show in any result."""

    @pytest.mark.parametrize(
        "cards, key_dtype",
        [
            ([1 << 16, (1 << 15) - 1], np.int32),  # radix 2^31 - 2^16
            ([1 << 16, 1 << 15], np.int64),  # radix 2^31
            ([1 << 16, (1 << 15) + 1], np.int64),  # radix 2^31 + 2^16
            ([1 << 10, 1 << 10, 1 << 11], np.int64),  # widens at the third
            ([1 << 21, 1 << 21, (1 << 20) + 1], np.int64),  # past 2^62
        ],
    )
    def test_counts_cells_groups_match_row_oracle(self, cards, key_dtype):
        rng = np.random.default_rng(len(cards) + cards[-1] % 7)
        pools = [[0, 1, card // 2, card - 1] for card in cards]
        rows = list(
            dict.fromkeys(
                tuple(int(rng.choice(pool)) for pool in pools) for _ in range(90)
            )
        )
        columns = [np.array(column) for column in zip(*rows)]
        store = make_store(columns, cards)
        names = [f"A{j}" for j in range(len(cards))]
        relation = Relation(RelationSchema.from_names(names), rows)
        every = tuple(range(len(cards)))
        for positions in [every, every[::-1]]:
            assert store.packed_key(positions).dtype == key_dtype
            gids, first_index, counts = row_oracle(store, positions)
            assert_same(store.counts(positions), counts)
            group = store.groups(positions)
            assert_same(group.gids, gids)
            assert_same(group.first_index, first_index)
            assert_same(group.counts, counts)
            cells = store.cells(positions)
            np.testing.assert_array_equal(cells.first_index, first_index)
            np.testing.assert_array_equal(cells.counts, counts)
            assert cells.counts.dtype == np.int32
        naive = relation.projection_counts_naive(names)
        assert sorted(naive.values()) == sorted(store.counts(every).tolist())

    def test_every_constructor_stores_int32_codes(self, tmp_path):
        rows = [(1, "x", 2.5), (1, "y", 0.5), (3, "x", None), (10**12, "z", 0.5)]
        store = ColumnStore(tuple(rows), 3)  # unique, unique, dict coding
        identity = make_store([[0, 3, 3], [1, 0, 2]], [4, 3])
        coded = ColumnStore.from_coded_columns(
            None, [np.array([1, 0, 1], dtype=np.int64)], [2], [["a", "b"]]
        )
        path = tmp_path / "t.csv"
        path.write_text("A,B\n1,x\n2,y\n2,x\n")
        loaded = read_csv(path).columns()
        for each in (store, identity, coded, loaded):
            assert {codes.dtype for codes in each.codes} == {np.dtype(np.int32)}

    def test_column_of_2_to_the_31_values_stays_int64(self):
        store = make_store([[0, (1 << 31) - 1], [1, 0]], [1 << 31, 2])
        assert store.codes[0].dtype == np.int64
        assert store.codes[1].dtype == np.int32
        assert store.packed_key((1, 0)).dtype == np.int64
        assert store.counts((0, 1)).tolist() == [1, 1]


def reachable_array_bytes(obj, skip) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` through containers."""
    if id(obj) in skip:
        return 0
    skip.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(reachable_array_bytes(item, skip) for item in obj)
    return 0


def test_cached_bytes_after_mining_stay_below_the_codes():
    """Mining touches every attribute subset; what the store keeps for them
    must be O(groups) per subset, not O(N), so it stays below the codes."""
    rng = np.random.default_rng(11)
    relation = random_relation({f"A{i}": 6 for i in range(10)}, 20_000, rng)
    mine_jointree(relation, threshold=0.05)
    store = relation.columns()
    code_bytes = sum(codes.nbytes for codes in store.codes)
    skip = {id(store.codes), id(store.row_list)} | {id(c) for c in store.codes}
    cached = sum(
        reachable_array_bytes(getattr(store, slot), skip)
        for slot in type(store).__slots__
    )
    assert cached <= code_bytes
