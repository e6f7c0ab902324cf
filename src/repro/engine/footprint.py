"""A large statement's footprint: its ``touched`` tuples as rowid arrays.

The delay guard prices and records every ``(table, rowid)`` pair a
SELECT touched (§2.3's per-tuple counts). For a scan or a join that is
thousands of pairs, and building, hashing and caching one Python tuple
per pair costs more than the pricing itself. From :data:`FOOTPRINT_FROM`
tuples up, the columnar executor returns ``touched`` as a
:class:`Footprint` instead: the same pairs, in the same order, held as
an int64 rowid array and (across several tables) an int8 table code per
element. The count store (:mod:`repro.core.counts`) looks the rowids up
through :class:`SlotIndex` and the result cache stores the arrays, so
no tuple is built on that path.

A footprint is still a ``Sequence[Tuple[str, int]]``: iterating,
indexing, ``len``, ``==`` against a list and ``list + footprint`` all
give exactly the list the row tier builds, with Python ``int`` rowids.
Any consumer that iterates (forensics, the cluster router's owner
split, the per-key pricing branch) materialises that list, once, on
first use. Smaller statements keep today's plain list.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import islice, repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

#: A SELECT touching at least this many tuples returns a
#: :class:`Footprint`. It is the count store's batch/per-key split
#: (:data:`repro.core.popularity.SMALL_BATCH` is this number): below
#: it, pricing and recording go key by key over a list anyway, so a
#: footprint would only add a conversion.
FOOTPRINT_FROM = 48


class Footprint(Sequence):
    """Immutable ``touched`` pairs as arrays, in the row tier's order.

    Attributes:
        tables: the distinct table keys, in order of first use.
        rowids: read-only int64 rowid per pair.
        codes: read-only int8 index into ``tables`` per pair, or None
            when every pair is of ``tables[0]``.
    """

    __slots__ = ("tables", "rowids", "codes", "_pairs")

    def __init__(
        self,
        tables: Tuple[str, ...],
        rowids: np.ndarray,
        codes: Optional[np.ndarray] = None,
    ):
        rowids.flags.writeable = False
        if codes is not None:
            codes.flags.writeable = False
        self.tables = tuple(tables)
        self.rowids = rowids
        self.codes = codes
        self._pairs: Optional[List[Tuple[str, int]]] = None

    def share(self) -> "Footprint":
        """A new footprint over the same read-only arrays, with no
        materialised list: what the result cache stores and hands out,
        so no consumer's list ever lives in (or leaves) the cache."""
        return Footprint(self.tables, self.rowids, self.codes)

    def pairs_at(self, positions: np.ndarray) -> List[Tuple[str, int]]:
        """The pairs at ``positions`` (an index array), in that order."""
        if self._pairs is not None:
            return list(map(self._pairs.__getitem__, positions.tolist()))
        return self._pairs_of(
            self.rowids[positions],
            None if self.codes is None else self.codes[positions],
        )

    def _pairs_of(self, rowids: np.ndarray, codes) -> List[Tuple[str, int]]:
        if codes is None:
            return list(zip(repeat(self.tables[0]), rowids.tolist()))
        tables = map(self.tables.__getitem__, codes.tolist())
        return list(zip(tables, rowids.tolist()))

    def _list(self) -> List[Tuple[str, int]]:
        if self._pairs is None:
            self._pairs = self._pairs_of(self.rowids, self.codes)
        return self._pairs

    def __len__(self) -> int:
        return len(self.rowids)

    def __iter__(self):
        return iter(self._list())

    def __getitem__(self, index):
        return self._list()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Footprint):
            other = other._list()
        if isinstance(other, list):
            return self._list() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  (a list is not hashable)

    def __add__(self, other) -> List[Tuple[str, int]]:
        return self._list() + list(other)

    def __radd__(self, other) -> List[Tuple[str, int]]:
        return list(other) + self._list()

    def __repr__(self) -> str:
        return (
            f"Footprint({len(self)} tuples over {list(self.tables)!r})"
        )


#: A :meth:`SlotIndex._gather` answer: the arrays cannot tell, so the
#: dict must.
_ASK = -2
_NONE = np.empty(0, dtype=np.intp)


class SlotIndex:
    """Slot lookup of a :class:`Footprint` against a ``key -> slot``
    dict (:class:`~repro.core.counts.InMemoryCountStore`'s), through
    ``rowid -> slot`` arrays per table derived from that dict.

    The arrays are a cache of the dict, never an authority. They hold
    only keys that are a plain ``(str, int)`` pair with a non-negative
    rowid below its table's bound, ``4 × (that table's keys) + 1024``,
    so their memory is O(tracked keys) whatever a rowid's value. The
    dict answers, on that key alone, every position the arrays cannot:
    a rowid past the bound, and, once the dict holds any other pair
    (``('t', True)`` and ``('t', np.int64(3))`` hash and compare like
    ``('t', 1)`` and ``('t', 3)``), every position the arrays miss. So
    the arrays may miss but never give a wrong slot; with only plain
    pairs in the dict, a miss below a table's bound, or in a table
    with no key, is an unseen key, and costs no dict read.

    The dict only grows by appending (the store replaces it on
    ``clear``, and then builds a new index), so the arrays catch up by
    walking just the keys added since the last walk, newest first, and
    a key past its table's bound waits in a heap until the bound passes
    it. A walk costs about five dict reads a key, so it waits until the
    pairs looked up since the last one outnumber the keys to walk, and
    until then lookups read the dict, as a list would.
    """

    __slots__ = (
        "source", "_walked", "_credit", "_exotic", "_arrays", "_keys", "_waiting"
    )

    def __init__(self, source: Dict[object, int]):
        self.source = source
        self._walked = 0
        #: pairs looked up since the last walk.
        self._credit = 0
        #: whether the dict holds a pair that is not a plain one.
        self._exotic = False
        self._arrays: Dict[str, np.ndarray] = {}
        #: table -> plain keys walked, which sets its bound.
        self._keys: Dict[str, int] = {}
        #: table -> heap of the ``(rowid, slot)`` pairs past its bound.
        self._waiting: Dict[str, List[Tuple[int, int]]] = {}

    def lookup(self, footprint: Footprint) -> np.ndarray:
        """Each pair's slot in ``source`` (-1 for an unseen key), as an
        intp array."""
        fresh = len(self.source) - self._walked
        if fresh:
            self._credit += len(footprint)
            if fresh > self._credit:
                return self._from_dict(footprint, len(footprint))
            self._walk(islice(reversed(self.source.items()), fresh))
            self._walked = len(self.source)
            self._credit = 0
        found = self._gather(footprint)
        ask = np.flatnonzero(found < 0 if self._exotic else found == _ASK)
        if len(ask):
            found[ask] = self._from_dict(footprint.pairs_at(ask), len(ask))
        return found

    def _from_dict(self, keys, count: int) -> np.ndarray:
        return np.fromiter(
            map(self.source.get, keys, repeat(-1)), dtype=np.intp, count=count
        )

    def _walk(self, items) -> None:
        added: Dict[str, List[Tuple[int, int]]] = {}
        for key, slot in items:
            if not isinstance(key, tuple) or len(key) != 2:
                continue  # equal to no pair
            table, rowid = key
            if (
                type(key) is tuple
                and type(table) is str
                and type(rowid) is int
                and rowid >= 0
            ):
                added.setdefault(table, []).append((rowid, slot))
            else:
                self._exotic = True
        for table, pairs in added.items():
            self._keys[table] = count = self._keys.get(table, 0) + len(pairs)
            bound = 4 * count + 1024
            waiting = self._waiting.setdefault(table, [])
            placed = []
            for pair in pairs:
                if pair[0] < bound:
                    placed.append(pair)
                else:
                    heappush(waiting, pair)
            while waiting and waiting[0][0] < bound:
                placed.append(heappop(waiting))
            if placed:
                self._place(table, np.array(placed, dtype=np.intp), bound)

    def _place(self, table: str, pairs: np.ndarray, bound: int) -> None:
        """Write ``(rowid, slot)`` rows into the table's array, growing
        it (up to ``bound``) to hold the largest rowid."""
        rowids, slots = pairs.T
        array = self._arrays.get(table)
        size = 0 if array is None else len(array)
        needed = int(rowids.max()) + 1
        if needed > size:
            grown = np.full(min(bound, max(needed, 2 * size)), -1, np.intp)
            if array is not None:
                grown[:size] = array
            self._arrays[table] = array = grown
        array[rowids] = slots

    def _gather(self, footprint: Footprint) -> np.ndarray:
        """Each pair's slot from the arrays, -1 for no plain key there.

        A table's walked plain keys are in its array or, past its
        bound, waiting: so a rowid between the array's end and the
        bound (or past it, with none waiting) holds no plain key
        either, and a negative one never does. ``_ASK`` marks rowids
        past a bound that keys are waiting beyond.
        """
        rowids, codes = footprint.rowids, footprint.codes
        found = np.full(len(rowids), -1, dtype=np.intp)
        for code, table in enumerate(footprint.tables):
            if table not in self._keys:
                continue  # no plain key of this table
            at = slice(None) if codes is None else np.flatnonzero(codes == code)
            wanted = rowids[at]
            array = self._arrays.get(table, _NONE)
            if len(wanted) and wanted.min() >= 0 and wanted.max() < len(array):
                found[at] = array[wanted]
                continue
            hits = np.full(len(wanted), -1, dtype=np.intp)
            inside = (wanted >= 0) & (wanted < len(array))
            hits[inside] = array[wanted[inside]]
            if self._waiting[table]:
                hits[wanted >= 4 * self._keys[table] + 1024] = _ASK
            found[at] = hits
        return found
