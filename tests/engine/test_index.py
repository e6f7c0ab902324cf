"""Tests for hash and ordered indexes."""

import pytest

from repro.engine.errors import CatalogError
from repro.engine.index import HashIndex, OrderedIndex, create_index
from repro.engine.schema import Column, TableSchema
from repro.engine.table import HeapTable
from repro.engine.types import DataType


def make_table(rows=()):
    table = HeapTable(
        TableSchema(
            "t",
            [
                Column("id", DataType.INTEGER, nullable=False, primary_key=True),
                Column("v", DataType.TEXT),
                Column("n", DataType.FLOAT),
            ],
        )
    )
    for row in rows:
        table.insert(row)
    return table


ROWS = [
    (1, "apple", 1.0),
    (2, "banana", 2.5),
    (3, "apple", 3.0),
    (4, None, None),
    (5, "cherry", 2.5),
]


class TestHashIndex:
    def test_builds_from_existing_rows(self):
        table = make_table(ROWS)
        index = HashIndex("i", table, "v")
        assert index.lookup("apple") == [1, 3]
        assert index.lookup("banana") == [2]
        assert index.lookup("durian") == []

    def test_tracks_inserts(self):
        table = make_table()
        index = HashIndex("i", table, "v")
        table.insert((1, "kiwi", 0.0))
        assert index.lookup("kiwi") == [1]

    def test_tracks_deletes(self):
        table = make_table(ROWS)
        index = HashIndex("i", table, "v")
        table.delete(1)
        assert index.lookup("apple") == [3]

    def test_tracks_updates(self):
        table = make_table(ROWS)
        index = HashIndex("i", table, "v")
        table.update(2, (2, "apple", 2.5))
        assert sorted(index.lookup("apple")) == [1, 2, 3]
        assert index.lookup("banana") == []

    def test_null_keys_tracked(self):
        table = make_table(ROWS)
        index = HashIndex("i", table, "v")
        assert index.lookup(None) == [4]

    def test_detach_stops_tracking(self):
        table = make_table(ROWS)
        index = HashIndex("i", table, "v")
        index.detach()
        table.insert((9, "apple", 0.0))
        assert index.lookup("apple") == [1, 3]


class TestOrderedIndex:
    def test_lookup_equality(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.lookup(2.5) == [2, 5]

    def test_lookup_null_returns_nothing(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.lookup(None) == []

    def test_range_inclusive(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.range(low=1.0, high=2.5) == [1, 2, 5]

    def test_range_exclusive_bounds(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.range(low=1.0, high=2.5, low_inclusive=False) == [2, 5]
        assert index.range(low=1.0, high=2.5, high_inclusive=False) == [1]

    def test_range_unbounded_sides(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.range(low=2.5) == [2, 5, 3]
        assert index.range(high=1.0) == [1]
        # NULLs never appear in ranges.
        assert 4 not in index.range()

    def test_range_excludes_nulls_entirely(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.range() == [1, 2, 5, 3]

    def test_min_max_keys(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        assert index.min_key() == 1.0
        assert index.max_key() == 3.0

    def test_min_max_empty(self):
        index = OrderedIndex("i", make_table(), "n")
        assert index.min_key() is None and index.max_key() is None

    def test_tracks_update_of_key(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        table.update(1, (1, "apple", 9.9))
        assert index.max_key() == 9.9
        assert index.lookup(1.0) == []

    def test_update_to_null_moves_out_of_order(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        table.update(1, (1, "apple", None))
        assert index.lookup(1.0) == []
        assert 1 not in index.range()

    def test_int_float_equivalence(self):
        table = make_table([(1, "a", 2.0)])
        index = OrderedIndex("i", table, "n")
        assert index.lookup(2) == [1]

    def test_delete_maintains_order(self):
        table = make_table(ROWS)
        index = OrderedIndex("i", table, "n")
        table.delete(2)
        assert index.range(low=1.0, high=3.0) == [1, 5, 3]


class TestCreateIndexFactory:
    def test_kinds(self):
        table = make_table()
        assert create_index("a", table, "v", "hash").kind == "hash"
        assert create_index("b", table, "v", "ordered").kind == "ordered"

    def test_unknown_kind_raises(self):
        with pytest.raises(CatalogError):
            create_index("c", make_table(), "v", "btree")

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            create_index("d", make_table(), "missing")


def walked_lookup(index, key):
    """The entry walk ``OrderedIndex.lookup`` used before it sliced."""
    import bisect

    from repro.engine.types import sort_key

    if key is None:
        return []
    target = sort_key(key)
    low = bisect.bisect_left(index._keys, (target, 0))
    result = []
    for value, rowid in index._entries[low:]:
        if sort_key(value) != target:
            break
        result.append(rowid)
    return result


class TestOrderedLookupBySlice:
    """``lookup`` returns one slice between two bisects: the rowids the
    entry walk returns, in the same order."""

    PROBES = [1, 1.0, True, False, 0, 2, 2.5, 7, -3, None, "x", float("nan")]

    def numbers(self):
        table = HeapTable(
            TableSchema(
                "t",
                [
                    Column("id", DataType.INTEGER, primary_key=True),
                    Column("i", DataType.INTEGER),
                    Column("f", DataType.FLOAT),
                    Column("b", DataType.BOOLEAN),
                ],
            )
        )
        for rowid in range(1, 41):
            table.insert(
                (
                    rowid,
                    None if rowid % 9 == 0 else rowid % 4,
                    None if rowid % 7 == 0 else (rowid % 5) / 2,
                    rowid % 3 == 0,
                )
            )
        return table

    def assert_same(self, index):
        for key in self.PROBES:
            assert index.lookup(key) == walked_lookup(index, key), key

    def test_duplicates_mixed_numbers_nulls_and_absent_keys(self):
        table = self.numbers()
        for column in ("i", "f", "b"):
            index = OrderedIndex(f"o_{column}", table, column)
            self.assert_same(index)
        index = OrderedIndex("o_i", table, "i")
        assert index.lookup(1) == index.lookup(1.0) != []
        assert index.lookup(True) == []  # a bool is not the int 1
        assert index.lookup(7) == [] and index.lookup(None) == []

    def test_after_updates_and_deletes(self):
        table = self.numbers()
        index = OrderedIndex("o_f", table, "f")
        for rowid in range(1, 41, 3):
            row = table.get(rowid)
            table.update(rowid, (row[0], row[1], (rowid % 3) / 2, row[3]))
        for rowid in range(2, 41, 5):
            table.delete(rowid)
        self.assert_same(index)
        assert index.lookup(0.5) == sorted(
            rowid for rowid, row in table.scan() if row[2] == 0.5
        )

    def test_a_nan_entry_keeps_the_walk(self):
        table = self.numbers()
        index = OrderedIndex("o_f", table, "f")
        nan = float("nan")
        table.update(5, (5, 1, nan, False))
        assert index._nans == 1
        self.assert_same(index)
        table.delete(5)
        assert index._nans == 0
        self.assert_same(index)
