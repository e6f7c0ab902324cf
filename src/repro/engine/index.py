"""Secondary indexes: hash (equality) and ordered (range).

Indexes subscribe to their table's mutation stream, so they stay
consistent automatically. The ordered index keeps a sorted key list with
binary-search insertion — O(log n) search, O(n) insert worst case — which
is ample for the workloads in this reproduction while remaining simple
and correct.

Concurrency audit: ``lookup``/``lookup_in``/``range`` are pure reads.
Indexes are built eagerly in ``__init__`` (CREATE INDEX runs under the
engine's exclusive write side) and updated only via the mutation stream,
which also fires under the write side — there is no lazily-built state
for a reader to trip over, so no read-to-write lock upgrade is needed.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .errors import CatalogError
from .table import HeapTable, Row
from .types import SQLValue, sort_key


class Index:
    """Base class: an index over a single column of a heap table."""

    kind = "abstract"

    def __init__(self, name: str, table: HeapTable, column: str):
        self.name = name
        self.table = table
        self.column = table.schema.column(column).name
        self._position = table.schema.position(column)
        # Build from existing rows, then subscribe for future changes.
        for rowid, row in table.scan():
            self._add(row[self._position], rowid)
        table.subscribe(self._on_mutation)

    def detach(self) -> None:
        """Stop tracking the table (used when dropping the index)."""
        self.table.unsubscribe(self._on_mutation)

    def attach(self) -> None:
        """Track the table again after :meth:`detach` (an undone DROP;
        the table cannot have changed while it was out of the catalog)."""
        self.table.subscribe(self._on_mutation)

    def _on_mutation(
        self, event: str, rowid: int, row: Row, old: Optional[Row] = None
    ) -> None:
        key = row[self._position]
        if event == "insert":
            self._add(key, rowid)
        elif event == "delete":
            self._remove(key, rowid)
        elif event == "update":
            # The observer receives the new row; find and remove the old
            # entry for this rowid, then add the new one.
            self._remove_rowid(rowid)
            self._add(key, rowid)

    # Subclass interface -----------------------------------------------------

    def _add(self, key: SQLValue, rowid: int) -> None:
        raise NotImplementedError

    def _remove(self, key: SQLValue, rowid: int) -> None:
        raise NotImplementedError

    def _remove_rowid(self, rowid: int) -> None:
        raise NotImplementedError

    def lookup(self, key: SQLValue) -> List[int]:
        """Return rowids whose indexed column equals ``key``."""
        raise NotImplementedError


class HashIndex(Index):
    """Equality-only index backed by a dict of key -> rowid set."""

    kind = "hash"

    def __init__(self, name: str, table: HeapTable, column: str):
        self._buckets: Dict[SQLValue, Set[int]] = {}
        self._by_rowid: Dict[int, SQLValue] = {}
        super().__init__(name, table, column)

    def _add(self, key: SQLValue, rowid: int) -> None:
        self._buckets.setdefault(key, set()).add(rowid)
        self._by_rowid[rowid] = key

    def _remove(self, key: SQLValue, rowid: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[key]
        self._by_rowid.pop(rowid, None)

    def _remove_rowid(self, rowid: int) -> None:
        key = self._by_rowid.get(rowid)
        if rowid in self._by_rowid:
            self._remove(key, rowid)

    def lookup(self, key: SQLValue) -> List[int]:
        return sorted(self._buckets.get(key, ()))

    def __repr__(self) -> str:
        return f"HashIndex({self.name!r} on {self.table.name}.{self.column})"


class OrderedIndex(Index):
    """Sorted index supporting equality and range lookups.

    NULL keys are excluded from range scans (SQL semantics: comparisons
    with NULL are unknown) but are still tracked for equality via
    :meth:`lookup` with ``key=None`` returning nothing, matching the
    behaviour of ``WHERE col = NULL`` (never true).
    """

    kind = "ordered"

    def __init__(self, name: str, table: HeapTable, column: str):
        self._keys: List[Tuple] = []  # sort_key(value)
        self._entries: List[Tuple[SQLValue, int]] = []  # parallel (value, rowid)
        self._by_rowid: Dict[int, SQLValue] = {}
        self._nulls: Set[int] = set()
        #: NaN entries in ``_keys``: they compare false with every key,
        #: so while one is held the list is not bisect-ordered.
        self._nans = 0
        super().__init__(name, table, column)

    def _add(self, key: SQLValue, rowid: int) -> None:
        if key is None:
            self._nulls.add(rowid)
            self._by_rowid[rowid] = None
            return
        composite = (sort_key(key), rowid)
        position = bisect.bisect_left(self._keys, composite)
        self._keys.insert(position, composite)
        self._entries.insert(position, (key, rowid))
        self._by_rowid[rowid] = key
        self._nans += key != key

    def _remove(self, key: SQLValue, rowid: int) -> None:
        if key is None:
            self._nulls.discard(rowid)
            self._by_rowid.pop(rowid, None)
            return
        composite = (sort_key(key), rowid)
        position = bisect.bisect_left(self._keys, composite)
        if position < len(self._keys) and self._keys[position] == composite:
            del self._keys[position]
            del self._entries[position]
            self._nans -= key != key
        self._by_rowid.pop(rowid, None)

    def _remove_rowid(self, rowid: int) -> None:
        if rowid in self._by_rowid:
            self._remove(self._by_rowid[rowid], rowid)

    def lookup(self, key: SQLValue) -> List[int]:
        """Rowids of the entries whose ``sort_key`` equals ``key``'s, in
        index order: one slice between two bisects, or, while a NaN
        breaks the bisect order, the entries walked from the first."""
        if key is None:
            return []
        target = sort_key(key)
        if not self._nans and key == key:
            keys = self._keys
            low = bisect.bisect_left(keys, (target, 0))
            high = bisect.bisect_right(keys, (target, float("inf")))
            return [rowid for _, rowid in self._entries[low:high]]
        low = bisect.bisect_left(self._keys, (target, 0))
        result = []
        for position in range(low, len(self._keys)):
            value, rowid = self._entries[position]
            if sort_key(value) != target:
                break
            result.append(rowid)
        return result

    def range(
        self,
        low: Optional[SQLValue] = None,
        high: Optional[SQLValue] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[int]:
        """Return rowids with indexed value in the given range.

        ``None`` bounds are unbounded on that side. NULL values never
        match a range.
        """
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, (sort_key(low), 0))
        else:
            start = bisect.bisect_right(self._keys, (sort_key(low), float("inf")))
        result = []
        high_key = sort_key(high) if high is not None else None
        for position in range(start, len(self._keys)):
            value, rowid = self._entries[position]
            value_key = sort_key(value)
            if high_key is not None:
                if high_inclusive and value_key > high_key:
                    break
                if not high_inclusive and value_key >= high_key:
                    break
            result.append(rowid)
        return result

    def min_key(self) -> Optional[SQLValue]:
        """Smallest non-NULL indexed value, or None if empty."""
        return self._entries[0][0] if self._entries else None

    def max_key(self) -> Optional[SQLValue]:
        """Largest non-NULL indexed value, or None if empty."""
        return self._entries[-1][0] if self._entries else None

    def __repr__(self) -> str:
        return f"OrderedIndex({self.name!r} on {self.table.name}.{self.column})"


def create_index(
    name: str, table: HeapTable, column: str, kind: str = "ordered"
) -> Index:
    """Factory: build a ``hash`` or ``ordered`` index on ``table.column``."""
    if kind == "hash":
        return HashIndex(name, table, column)
    if kind == "ordered":
        return OrderedIndex(name, table, column)
    raise CatalogError(f"unknown index kind {kind!r}")
