"""Heap tables with stable row identifiers.

A :class:`HeapTable` stores validated row tuples keyed by a monotonically
increasing row id. Row ids are stable across updates (an UPDATE keeps the
row id), which is what lets the delay layer track per-tuple popularity
and update counts without caring about value churn.

Concurrency audit: ``scan``/``get``/``lookup_pk``/``rowids`` never
mutate table state — reads under the engine's shared read lock are safe
against each other. ``scan`` iterates the live row dict, so it must not
interleave with a mutator: the engine guarantees that by running
INSERT/UPDATE/DELETE/DDL under the exclusive write side. The same
exclusion is what lets ``_notify`` patch the table's columnar view in
place (see :mod:`repro.engine.vectorized.columns`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstraintError
from .schema import TableSchema
from .types import SQLValue

Row = Tuple[SQLValue, ...]


class HeapTable:
    """An insert-ordered collection of rows with stable integer row ids."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 1
        self._rowid_stride = 1
        #: monotonic mutation counter: bumped on every insert/update/
        #: delete/restore. The columnar view carries the version it
        #: reflects.
        self._version = 0
        #: columnar view (built by :meth:`column_batch`, patched by
        #: :meth:`_notify`), valid while its version matches ``_version``.
        self._column_batch = None
        #: what became of the view, for the guard's registry: full
        #: builds, single-row patches, and drops (patch impossible or
        #: over budget). Patches and drops happen under the write lock
        #: and are exact; readers racing to build may undercount a build.
        self.batch_builds = 0
        self.batch_patches = 0
        self.batch_drops = 0
        self._pk_index: Optional[Dict[SQLValue, int]] = (
            {} if schema.primary_key else None
        )
        self._pk_position = (
            schema.position(schema.primary_key) if schema.primary_key else -1
        )
        #: observers notified as (event, rowid, row, old_row) on every
        #: mutation; events are "insert", "update", "delete". ``row`` is
        #: the new row ("delete" passes the removed row); ``old_row`` is
        #: the prior row for "update", else None. Indexes and the
        #: transaction undo log both subscribe here.
        self._observers: List[
            Callable[[str, int, Row, Optional[Row]], None]
        ] = []

    # -- observer plumbing -------------------------------------------------

    def subscribe(
        self, observer: Callable[[str, int, Row, Optional[Row]], None]
    ) -> None:
        """Register a mutation observer (called after each change)."""
        # Replace the list, never change it in place: a notification
        # already iterating it must not see an (un)subscribe.
        self._observers = self._observers + [observer]

    def unsubscribe(
        self, observer: Callable[[str, int, Row, Optional[Row]], None]
    ) -> None:
        """Remove a previously registered observer."""
        observers = list(self._observers)
        observers.remove(observer)
        self._observers = observers

    def _notify(
        self, event: str, rowid: int, row: Row, old: Optional[Row] = None
    ) -> None:
        self._version += 1
        batch = self._column_batch
        if batch is not None:
            # The heap already holds the change; bring the view along.
            # Whatever the patch cannot do exactly costs only a rebuild.
            try:
                patched = batch.apply(event, rowid, row, old, self._version)
            except Exception:
                patched = False
            if patched:
                self.batch_patches += 1
            else:
                self._column_batch = None
                self.batch_drops += 1
        for observer in self._observers:
            observer(event, rowid, row, old)

    # -- rowid allocation ---------------------------------------------------

    def configure_rowids(self, offset: int, stride: int) -> None:
        """Restrict new rowids to the residue class ``offset + 1 (mod stride)``.

        Shard ``offset`` of an ``stride``-way cluster allocates rowids
        ``offset + 1, offset + 1 + stride, offset + 1 + 2 * stride, ...`` so
        rowids are globally unique across shards and a rowid's owner can be
        recovered as ``(rowid - 1) % stride``. The defaults (offset 0,
        stride 1) reproduce the classic ``1, 2, 3, ...`` sequence exactly.

        ``_next_rowid`` is realigned *upward* onto the residue class, which
        also repairs the allocator after a snapshot load (persistence sets
        it to ``max + 1`` without stride awareness).
        """
        if stride < 1:
            raise ValueError(f"rowid stride must be >= 1, got {stride}")
        if not 0 <= offset < stride:
            raise ValueError(
                f"rowid offset must be in [0, {stride}), got {offset}"
            )
        self._rowid_stride = stride
        base = offset + 1
        if self._next_rowid <= base:
            self._next_rowid = base
        else:
            over = (self._next_rowid - base) % stride
            if over:
                self._next_rowid += stride - over

    # -- basic accessors ----------------------------------------------------

    @property
    def name(self) -> str:
        """The table name from the schema."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, rowid: int) -> bool:
        return rowid in self._rows

    def get(self, rowid: int) -> Optional[Row]:
        """Return the row stored at ``rowid`` or None."""
        return self._rows.get(rowid)

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(rowid, row)`` pairs in insertion order.

        Mutating the table during a scan is not supported; materialize
        first if the caller needs to mutate (the executor does this for
        UPDATE/DELETE).
        """
        return iter(self._rows.items())

    def rowids(self) -> List[int]:
        """Return a snapshot list of all current row ids."""
        return list(self._rows.keys())

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Sequence[SQLValue]) -> int:
        """Validate and insert a positional row; return its new rowid."""
        row = self.schema.validate_row(values)
        if self._pk_index is not None:
            key = row[self._pk_position]
            if key in self._pk_index:
                raise ConstraintError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        rowid = self._next_rowid
        self._next_rowid += self._rowid_stride
        self._rows[rowid] = row
        if self._pk_index is not None:
            self._pk_index[row[self._pk_position]] = rowid
        self._notify("insert", rowid, row)
        return rowid

    def update(self, rowid: int, values: Sequence[SQLValue]) -> Row:
        """Replace the row at ``rowid`` with a validated new row."""
        if rowid not in self._rows:
            raise ConstraintError(f"no row {rowid} in table {self.name!r}")
        row = self.schema.validate_row(values)
        self._replace(rowid, row)
        return row

    def _replace(self, rowid: int, row: Row) -> None:
        old_row = self._rows[rowid]
        if self._pk_index is not None:
            old_key = old_row[self._pk_position]
            new_key = row[self._pk_position]
            if new_key != old_key and new_key in self._pk_index:
                raise ConstraintError(
                    f"duplicate primary key {new_key!r} in table {self.name!r}"
                )
            del self._pk_index[old_key]
            self._pk_index[new_key] = rowid
        self._rows[rowid] = row
        self._notify("update", rowid, row, old_row)

    def delete(self, rowid: int) -> Row:
        """Remove and return the row at ``rowid``."""
        if rowid not in self._rows:
            raise ConstraintError(f"no row {rowid} in table {self.name!r}")
        row = self._rows.pop(rowid)
        if self._pk_index is not None:
            del self._pk_index[row[self._pk_position]]
        self._notify("delete", rowid, row)
        return row

    def restore(self, rowid: int, values: Sequence[SQLValue]) -> None:
        """Re-insert a row at a specific rowid (transaction rollback).

        The rowid must be free; primary-key uniqueness is enforced.
        Observers see an ordinary "insert", keeping indexes consistent.
        """
        self._place(rowid, self.schema.validate_row(values))

    def copy_from(self, source: "HeapTable") -> None:
        """Take every row of ``source`` in at its own rowid.

        For a heap with the same column definitions (the router's
        merged read view, a follower seeded from its primary): the rows
        were validated when ``source`` stored them, so only what can
        clash between two heaps — rowid and primary key — is checked.
        """
        if source.schema.columns != self.schema.columns:
            raise ConstraintError(
                f"table {self.name!r} cannot copy rows of a table with "
                "different columns"
            )
        for rowid, row in source.scan():
            self._place(rowid, row)

    def mirror(self, event: str, rowid: int, row: Row) -> None:
        """Apply another heap's row event (:meth:`subscribe`) to this
        :meth:`copy_from` copy of it, checking only what copy_from does."""
        if event == "insert":
            self._place(rowid, row)
        elif event == "update":
            self._replace(rowid, row)
        else:
            self.delete(rowid)

    def _place(self, rowid: int, row: Row) -> None:
        if rowid in self._rows:
            raise ConstraintError(
                f"rowid {rowid} already occupied in table {self.name!r}"
            )
        if self._pk_index is not None:
            key = row[self._pk_position]
            if key in self._pk_index:
                raise ConstraintError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index[key] = rowid
        self._rows[rowid] = row
        if rowid >= self._next_rowid:
            # Stay on the allocator's residue class even when the restored
            # rowid belongs to another shard's class (cross-shard merges).
            stride = self._rowid_stride
            self._next_rowid += (
                (rowid + 1 - self._next_rowid + stride - 1) // stride
            ) * stride
        self._notify("insert", rowid, row)

    # -- columnar access -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (one bump per row mutation)."""
        return self._version

    def column_batch(self):
        """The columnar view of this table at its current version.

        Built lazily on the first read and from then on patched by
        every mutation (:meth:`_notify`), so it is rebuilt only after
        a patch had to drop it. Reads under the engine's shared lock
        may race to build it; the builders produce identical views
        from identical state, so the last assignment winning is benign.
        """
        batch = self._column_batch
        if batch is not None and batch.version == self._version:
            batch.unread_copies = 0
            return batch
        from .vectorized.columns import ColumnBatch

        batch = ColumnBatch.from_table(self)
        self._column_batch = batch
        self.batch_builds += 1
        return batch

    # -- primary key fast path ---------------------------------------------

    def lookup_pk(self, key: SQLValue) -> Optional[int]:
        """Return the rowid holding primary key ``key``, if any."""
        if self._pk_index is None:
            return None
        return self._pk_index.get(key)

    def __repr__(self) -> str:
        return f"HeapTable({self.name!r}, rows={len(self)})"
