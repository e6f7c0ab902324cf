"""Columnar table views, maintained under writes.

A :class:`ColumnBatch` is the column-major view of one
:class:`~repro.engine.table.HeapTable`: a rowid list in scan
(insertion) order plus one Python value list per column, with optional
numpy acceleration arrays built lazily per column.

The view is **not immutable**: it is owned by its table and kept equal
to ``ColumnBatch.from_table(table)`` by :meth:`ColumnBatch.apply`, which
``HeapTable._notify`` calls once per row mutation. A point read after a
write therefore costs what it cost before the write, instead of a
re-transposition of the whole table.

Safety argument (why no reader sees a half-patched or stale view):

* The only mutator is ``_notify``, and every path into it (SQL DML,
  ``insert_rows``, rollback, journal replay) holds the write side of
  ``Database.rwlock``. Readers hold the read side for the whole of
  ``executor.execute``, so a patch never overlaps a statement.
* Nothing outlives the statement: a ``ResultSet`` holds fresh lists of
  row tuples, rowids and ``touched`` pairs, never a batch list or array
  (compiled filters and ``Tri`` masks that alias one die with the
  statement). A ``touched`` footprint gathered from the rowid array
  (:meth:`ColumnBatch.numpy_rowids`) is a fancy-indexed copy, never a
  view of it.
* ``apply`` stamps ``version`` last. A patch that raises, meets an
  event it does not know, or exceeds the copy budget below makes the
  table *drop* the batch; ``HeapTable.column_batch`` then rebuilds
  from the heap. There is no path on which a partial patch is read.

What still pays the full build: the first read of a table (none exists
during a bulk load or recovery, so set-up pays nothing for this), and
the first read after a dropped batch.

Why rollback patches correctly: ``UndoLog`` undoes through the same
``HeapTable`` methods. Undoing an INSERT is a ``delete``; undoing an
UPDATE is an ``update``; undoing a DELETE is ``restore``, which puts
the row back at the *end* of the row dict's scan order — exactly an
append here. After such a ``restore`` the rowids are no longer
ascending, which only changes how :meth:`ColumnBatch.position_of`
searches.

Cost rule: no single-row patch does Python-level O(table) work on a
batch whose rowids ascend. UPDATE is O(columns). INSERT appends to the
lists (amortised O(1)) and, like DELETE (``del list[i]``,
``np.delete``), copies built numpy arrays at C level: 10-17 us per
50k-row column. :data:`MAX_UNREAD_COPIES` bounds those O(n) copies
between two reads, so a bulk DELETE or a bulk load into a table that
has a batch drops it after a constant number instead of going
quadratic. The int64 rowid array counts as one more numpy array: it is
built only by a statement that needs it (an aggregated SELECT's
footprint, or an index probe of :data:`~repro.engine.footprint.
FOOTPRINT_FROM` candidates or more), and once built an INSERT appends
to it and a DELETE copies it like any numpy column.

Numpy arrays are only ever used where they are provably exact, when
built and when patched alike:

* INTEGER columns materialise an ``int64`` array (NULLs as 0 plus a
  separate null mask) **only when every value fits int64** — Python
  ints are unbounded, and silently wrapping one would corrupt
  comparisons and therefore ``touched`` and delay pricing. numpy
  raises ``OverflowError`` rather than wrap; a column that raises it
  reports no numpy array and the compiler keeps it on the exact
  object tier. When the offending value is later overwritten or
  deleted the verdict is forgotten and re-derived on the next read.
* FLOAT columns are ``float64`` exactly (the schema layer already
  coerces stored values to Python floats).
* BOOLEAN columns are ``bool``.
* TEXT columns never get a numpy array; string predicates run on the
  object tier.

The view holds references to the same value objects the heap does (no
deep copy).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..types import DataType, SQLValue

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: How many O(n) copies (a DELETE; an INSERT while numpy arrays exist)
#: a batch takes between two reads before its table drops it instead.
#: One copy costs on the order of 1/100 of a full build of the same
#: table, so what a bulk statement spends on patches before the drop
#: stays under the cost of the rebuild it ends with.
MAX_UNREAD_COPIES = 64

#: dtype -> (numpy dtype, value standing in for NULL under the mask)
_NP_FORMS = {
    DataType.INTEGER: (_np.int64, 0),
    DataType.FLOAT: (_np.float64, 0.0),
    DataType.BOOLEAN: (_np.bool_, False),
}


class ColumnBatch:
    """Column-major view of a heap table, patched in place under writes.

    Attributes:
        version: the table version this view reflects.
        table_key: lower-cased table name (the ``touched`` key).
        rowids: rowids in scan order.
        columns: one value list per column, parallel to ``rowids``.
        column_names: lower-cased column names, in schema order.
        dtypes: each column's :class:`~repro.engine.types.DataType`.
        unread_copies: O(n) patches applied since the last read (see
            :data:`MAX_UNREAD_COPIES`); the owning table resets it.
    """

    __slots__ = (
        "version",
        "table_key",
        "rowids",
        "columns",
        "column_names",
        "dtypes",
        "unread_copies",
        "_ascending",
        "_position",
        "_np_cache",
        "_np_rowids",
    )

    def __init__(
        self,
        version: int,
        table_key: str,
        rowids: List[int],
        columns: List[List[SQLValue]],
        column_names: List[str],
        dtypes: List[DataType],
    ):
        self.version = version
        self.table_key = table_key
        self.rowids = rowids
        self.columns = columns
        self.column_names = column_names
        self.dtypes = dtypes
        self.unread_copies = 0
        #: heap rowids ascend in scan order (per-shard strided ones
        #: too) unless a lower rowid was placed at the end, as rollback
        #: of a DELETE (``restore``) and the router's merged database
        #: (``copy_from``) do. Rowids are unique, so sorted means
        #: strictly so.
        self._ascending = rowids == sorted(rowids)
        #: rowid -> position; only ever built for non-ascending rowids.
        self._position: Optional[Dict[int, int]] = None
        #: column index -> (values array, null mask) or (None, None)
        #: when the column cannot be represented exactly.
        self._np_cache: Dict[int, Tuple[object, object]] = {}
        #: read-only int64 rowids: None until built, False when a rowid
        #: does not fit int64.
        self._np_rowids = None

    @classmethod
    def from_table(cls, table) -> "ColumnBatch":
        """The one full build: transpose the heap as it is now."""
        schema = table.schema
        names = [column.name.lower() for column in schema.columns]
        dtypes = [column.dtype for column in schema.columns]
        # One comprehension per column: less than half the time of one
        # pass over the rows that appends value by value.
        rowids: List[int] = [rowid for rowid, _ in table.scan()]
        columns: List[List[SQLValue]] = [
            [row[index] for _, row in table.scan()]
            for index in range(len(names))
        ]
        return cls(
            version=table.version,
            table_key=table.name.lower(),
            rowids=rowids,
            columns=columns,
            column_names=names,
            dtypes=dtypes,
        )

    def __len__(self) -> int:
        return len(self.rowids)

    def position_of(self, rowid: int) -> Optional[int]:
        """Scan-order position of ``rowid`` in this view, if present."""
        rowids = self.rowids
        if self._ascending:
            position = bisect_left(rowids, rowid)
            if position < len(rowids) and rowids[position] == rowid:
                return position
            return None
        positions = self._position
        if positions is None:
            positions = {rid: i for i, rid in enumerate(rowids)}
            self._position = positions
        return positions.get(rowid)

    def positions_of(self, rowids: Sequence[int]):
        """:meth:`position_of` of each rowid, in order, as an intp array;
        absent rowids are skipped. One ``searchsorted`` when the rowids
        ascend and fit int64, the scalar lookup otherwise."""
        array = self.numpy_rowids() if self._ascending else None
        if array is not None:
            try:
                wanted = _np.array(rowids, dtype=_np.int64)
            except OverflowError:  # the scalar lookup below skips it
                wanted = None
            if wanted is not None:
                at = _np.searchsorted(array, wanted)
                found = at < len(array)
                found[found] = array[at[found]] == wanted[found]
                return at[found]
        positions = [p for p in map(self.position_of, rowids) if p is not None]
        return _np.array(positions, dtype=_np.intp)

    def numpy_rowids(self):
        """The rowids as a read-only int64 array, or None when one does
        not fit int64. Built on first use; INSERT and DELETE then patch
        it (see the module docstring's cost rule)."""
        array = self._np_rowids
        if array is None:
            try:
                array = _np.array(self.rowids, dtype=_np.int64)
            except OverflowError:
                array = False
            else:
                array.flags.writeable = False
            self._np_rowids = array
        return None if array is False else array

    # -- maintenance under writes ---------------------------------------------

    def apply(
        self,
        event: str,
        rowid: int,
        row: Tuple[SQLValue, ...],
        old: Optional[Tuple[SQLValue, ...]],
        version: int,
    ) -> bool:
        """Patch one ``HeapTable._notify`` event in; stamp ``version``.

        Returns False — leaving the view unusable, the caller must drop
        it — for an unknown event, a rowid that is not where the event
        says, or once :data:`MAX_UNREAD_COPIES` is exceeded. Only call
        under the engine's write lock.
        """
        if event == "update":
            position = self.position_of(rowid)
            if position is None or old is None:
                return False
            self._overwrite(position, row, old)
        elif event == "insert":
            grows_arrays = isinstance(self._np_rowids, _np.ndarray) or any(
                values is not None for values, _ in self._np_cache.values()
            )
            if grows_arrays and not self._copy_allowed():
                return False
            self._append(rowid, row)
        elif event == "delete":
            position = self.position_of(rowid)
            if position is None or not self._copy_allowed():
                return False
            self._remove(position, row)
        else:
            return False
        self.version = version
        return True

    def _copy_allowed(self) -> bool:
        """Count one O(n) copy against :data:`MAX_UNREAD_COPIES`."""
        self.unread_copies += 1
        return self.unread_copies <= MAX_UNREAD_COPIES

    def _append(self, rowid: int, row: Tuple[SQLValue, ...]) -> None:
        rowids = self.rowids
        if self._ascending and rowids and rowid < rowids[-1]:
            self._ascending = False
        if self._position is not None:
            self._position[rowid] = len(rowids)
        rowids.append(rowid)
        for column, value in zip(self.columns, row):
            column.append(value)
        if isinstance(self._np_rowids, _np.ndarray):
            self._np_rowids = _read_only_or_unfit(
                _np.append, self._np_rowids, rowid
            )
        for index, (values, nulls) in list(self._np_cache.items()):
            if values is None:
                continue  # one more value cannot make a column exact
            np_dtype, null_fill = _NP_FORMS[self.dtypes[index]]
            value = row[index]
            try:
                cell = _np.array(
                    [null_fill if value is None else value], dtype=np_dtype
                )
            except OverflowError:
                self._np_cache[index] = (None, None)
                continue
            self._np_cache[index] = (
                _np.append(values, cell),
                _np.append(nulls, value is None),
            )

    def _overwrite(
        self,
        position: int,
        row: Tuple[SQLValue, ...],
        old: Tuple[SQLValue, ...],
    ) -> None:
        for column, value in zip(self.columns, row):
            column[position] = value
        for index, (values, nulls) in list(self._np_cache.items()):
            if values is None:
                self._forget_if_overflowing(index, old[index])
                continue
            value = row[index]
            _, null_fill = _NP_FORMS[self.dtypes[index]]
            try:
                values[position] = null_fill if value is None else value
            except OverflowError:
                self._np_cache[index] = (None, None)
                continue
            nulls[position] = value is None

    def _remove(self, position: int, row: Tuple[SQLValue, ...]) -> None:
        del self.rowids[position]
        for column in self.columns:
            del column[position]
        if not self._ascending:
            self._position = None  # every later position shifted
        if self._np_rowids is False:
            self._np_rowids = None  # the unfit rowid may have left
        elif self._np_rowids is not None:
            self._np_rowids = _read_only_or_unfit(
                _np.delete, self._np_rowids, position
            )
        for index, (values, nulls) in list(self._np_cache.items()):
            if values is None:
                self._forget_if_overflowing(index, row[index])
            else:
                self._np_cache[index] = (
                    _np.delete(values, position),
                    _np.delete(nulls, position),
                )

    def _forget_if_overflowing(self, index: int, departing: SQLValue) -> None:
        """An INTEGER column sits on the object tier because a value is
        outside int64. When such a value leaves, the column may be
        exact again: forget the verdict so :meth:`numpy_column`
        re-derives it at the next read."""
        if (
            self.dtypes[index] is DataType.INTEGER
            and departing is not None
            and not _INT64_MIN <= departing <= _INT64_MAX
        ):
            del self._np_cache[index]

    # -- numpy tier --------------------------------------------------------------

    def numpy_column(self, index: int):
        """``(values, null_mask)`` numpy arrays for one column, or
        ``(None, None)`` when no exact representation exists.

        Lazily built and cached per column. Racing readers may build
        the same arrays twice; the cache assignment is atomic and the
        results identical, so the race is benign.
        """
        cached = self._np_cache.get(index)
        if cached is not None:
            return cached
        built = self._build_numpy(index)
        self._np_cache[index] = built
        return built

    def _build_numpy(self, index: int):
        form = _NP_FORMS.get(self.dtypes[index])
        if form is None:  # TEXT: object tier only
            return (None, None)
        np_dtype, null_fill = form
        values = self.columns[index]
        try:
            filled = _np.fromiter(
                (null_fill if value is None else value for value in values),
                dtype=np_dtype,
                count=len(values),
            )
        except OverflowError:
            # A value outside int64 cannot be held exactly: this
            # column stays on the object tier.
            return (None, None)
        nulls = _np.fromiter(
            (value is None for value in values),
            dtype=bool,
            count=len(values),
        )
        return (filled, nulls)

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({self.table_key!r}, rows={len(self.rowids)}, "
            f"version={self.version})"
        )


def _read_only_or_unfit(patch, array, argument):
    """``patch(array, argument)`` as a new read-only array, or False
    when the result cannot be int64."""
    try:
        patched = patch(array, _np.int64(argument))
    except OverflowError:
        return False
    patched.flags.writeable = False
    return patched
