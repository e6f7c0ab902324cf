"""Catalog: the collection of tables and indexes forming a database.

Concurrency audit: lookups (``table``, ``indexes_for``, ``index_on``,
``table_names``) never mutate catalog state, so any number may run under
the engine's shared read lock; ``create_*``/``drop_*`` mutate the name
maps and run only under the write side (CREATE/DROP statements are
classified as writers by :meth:`repro.engine.database.Database.execute`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import CatalogError
from .index import Index, create_index
from .schema import TableSchema
from .table import HeapTable


class Catalog:
    """Named tables plus their secondary indexes.

    Table and index names are case-insensitive. The catalog owns index
    lifecycle: dropping a table detaches and removes its indexes.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, HeapTable] = {}
        self._indexes: Dict[str, Index] = {}
        self._indexes_by_table: Dict[str, List[Index]] = {}
        self._rowid_offset = 0
        self._rowid_stride = 1

    def set_rowid_allocation(self, offset: int, stride: int) -> None:
        """Configure strided rowid allocation for all (and future) tables.

        Cluster shards call this once before serving traffic so each shard
        hands out rowids from a disjoint residue class (see
        :meth:`repro.engine.table.HeapTable.configure_rowids`). Applies to
        every existing table and is inherited by tables created later —
        including tables recreated during journal replay.
        """
        for table in self._tables.values():
            table.configure_rowids(offset, stride)
        self._rowid_offset = offset
        self._rowid_stride = stride

    # -- tables ------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, if_not_exists: bool = False
    ) -> HeapTable:
        """Create and return a new heap table for ``schema``."""
        key = schema.name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {schema.name!r} already exists")
        table = HeapTable(schema)
        if self._rowid_stride != 1:
            table.configure_rowids(self._rowid_offset, self._rowid_stride)
        self._tables[key] = table
        self._indexes_by_table[key] = []
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        """Drop a table and all of its indexes.

        Returns True if a table was dropped. With ``if_exists`` a missing
        table is a no-op returning False; otherwise it raises.
        """
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return False
            raise CatalogError(f"no table named {name!r}")
        for index in self._indexes_by_table.pop(key, []):
            index.detach()
            del self._indexes[index.name.lower()]
        del self._tables[key]
        return True

    def copy_tables_from(
        self, source: "Catalog"
    ) -> List[Tuple[HeapTable, HeapTable]]:
        """Copy every table of ``source`` in (rows at their own rowids,
        into a same-named table if one exists; no indexes) and return the
        ``(source heap, copy)`` pairs. Caller holds ``source``'s read view.
        """
        pairs = []
        for heap in source.tables():
            copy = self.create_table(heap.schema, if_not_exists=True)
            copy.copy_from(heap)
            pairs.append((heap, copy))
        return pairs

    def table(self, name: str) -> HeapTable:
        """Look up a table by name or raise CatalogError."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if a table with this name exists."""
        return name.lower() in self._tables

    def tables(self) -> List[HeapTable]:
        """All heap tables, in creation order."""
        return list(self._tables.values())

    def table_names(self) -> List[str]:
        """Names of all tables, in creation order."""
        return [table.name for table in self._tables.values()]

    # -- indexes ------------------------------------------------------------

    def create_index(
        self, name: str, table_name: str, column: str, kind: str = "ordered"
    ) -> Index:
        """Create a secondary index; it is kept in sync automatically."""
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        index = create_index(name, table, column, kind)
        self._indexes[key] = index
        self._indexes_by_table[table_name.lower()].append(index)
        return index

    def drop_index(self, name: str) -> None:
        """Drop an index by name."""
        key = name.lower()
        if key not in self._indexes:
            raise CatalogError(f"no index named {name!r}")
        index = self._indexes.pop(key)
        index.detach()
        self._indexes_by_table[index.table.name.lower()].remove(index)

    def indexes_for(self, table_name: str) -> List[Index]:
        """All indexes on the given table (empty list if none)."""
        return list(self._indexes_by_table.get(table_name.lower(), []))

    def index_on(
        self, table_name: str, column: str, kind: Optional[str] = None
    ) -> Optional[Index]:
        """Find an index on ``table.column``, optionally of a given kind."""
        target = column.lower()
        for index in self.indexes_for(table_name):
            if index.column.lower() != target:
                continue
            if kind is None or index.kind == kind:
                return index
        return None


class CatalogScope:
    """The catalog's name maps as they stood before one DDL statement.

    The DDL counterpart of a DML statement's
    :class:`~repro.engine.transactions.UndoLog` scope, with the same
    ``rollback``/``commit`` verbs. :meth:`rollback` puts the maps back:
    a dropped table returns with its rows and its indexes re-attached,
    a created table or index goes. Until :meth:`commit`, the scope
    holds what a DROP removed, so a statement whose journal append
    fails leaves the catalog as it found it.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._saved = (
            dict(catalog._tables),
            dict(catalog._indexes),
            {key: list(found) for key, found in catalog._indexes_by_table.items()},
        )

    def rollback(self) -> None:
        """Restore the maps saved when the scope opened."""
        catalog = self._catalog
        tables, indexes, by_table = self._saved
        for name, index in catalog._indexes.items():
            if indexes.get(name) is not index:
                index.detach()
        for name, index in indexes.items():
            if catalog._indexes.get(name) is not index:
                index.attach()
        catalog._tables = tables
        catalog._indexes = indexes
        catalog._indexes_by_table = by_table

    def commit(self) -> None:
        """Keep the statement's effects; let the saved maps go."""
        self._saved = None
