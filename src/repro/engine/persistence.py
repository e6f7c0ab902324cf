"""Durability: save and load databases, import and export CSV.

The engine is in-memory by design (the delay experiments run on
synthetic data), but a production deployment needs its catalog to
survive restarts. This module serialises an entire
:class:`~repro.engine.database.Database` — schemas, rows, rowids, and
index definitions — to a single JSON document, and restores it with
rowids preserved (the delay layer keys its popularity counts by rowid,
so stability across restarts matters).

CSV import/export is provided for moving data in and out of other
systems.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from .catalog import Catalog
from .database import Database
from .errors import CatalogError, EngineError
from .schema import Column, TableSchema
from .types import DataType, SQLValue

#: Format identifier written into every save file.
FORMAT = "repro-engine-v1"


class PersistenceError(EngineError):
    """Raised when a save file is missing, malformed, or incompatible."""


def atomic_write_json(
    path: Union[str, Path], payload: Dict, indent: Optional[int] = None
) -> None:
    """Write JSON so that ``path`` always holds a complete document.

    The payload is written to a temporary file *in the same directory*
    (so the final rename cannot cross filesystems), fsync'd, and moved
    into place with :func:`os.replace` — atomic on POSIX. A crash at any
    point leaves either the previous file or the new one, never a torn
    mix; the directory is fsync'd afterwards so the rename itself is
    durable.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    handle_fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(handle_fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _column_to_dict(column: Column) -> Dict:
    return column.to_dict()


def _column_from_dict(payload: Dict) -> Column:
    return Column.from_dict(payload)


def dump_database(database: Database) -> Dict:
    """Serialise a database to a JSON-compatible dictionary.

    Takes the write side of the engine lock: the dump must be a
    point-in-time snapshot, and taking the exclusive side (rather than
    a shared read view) lets the writer-preference guarantee it starts
    promptly even under a steady stream of readers.
    """
    with database.write_txn():
        tables = []
        for heap in database.catalog.tables():
            tables.append(
                {
                    "name": heap.schema.name,
                    "columns": [
                        _column_to_dict(column)
                        for column in heap.schema.columns
                    ],
                    "rows": [
                        {"rowid": rowid, "values": list(row)}
                        for rowid, row in heap.scan()
                    ],
                    "next_rowid": heap._next_rowid,
                }
            )
        indexes = []
        for name in database.catalog.table_names():
            for index in database.catalog.indexes_for(name):
                indexes.append(
                    {
                        "name": index.name,
                        "table": index.table.name,
                        "column": index.column,
                        "kind": index.kind,
                    }
                )
        return {"format": FORMAT, "tables": tables, "indexes": indexes}


def load_database(payload: Dict) -> Database:
    """Rebuild a database from :func:`dump_database` output.

    Rowids are restored exactly, so guard-layer state keyed on
    ``(table, rowid)`` remains valid across a save/load cycle.
    """
    if payload.get("format") != FORMAT:
        raise PersistenceError(
            f"unsupported save format {payload.get('format')!r}; "
            f"expected {FORMAT!r}"
        )
    database = Database()
    with database.write_txn():
        return _load_into(database, payload)


def _load_into(database: Database, payload: Dict) -> Database:
    """Populate ``database`` from a payload; caller holds its write side."""
    for table_payload in payload.get("tables", []):
        schema = TableSchema(
            table_payload["name"],
            [
                _column_from_dict(column)
                for column in table_payload["columns"]
            ],
        )
        heap = database.catalog.create_table(schema)
        for row_payload in table_payload["rows"]:
            rowid = row_payload["rowid"]
            # Restore with original rowids: validate through insert,
            # then re-key. Insert assigns sequential ids, so replay in
            # rowid order and fix the internal map directly.
            heap.insert(row_payload["values"])
        # Re-key rowids to the saved ones (insert assigned 1..n in
        # saved order, which may differ after deletions pre-save).
        saved_ids = [row["rowid"] for row in table_payload["rows"]]
        _rekey(heap, saved_ids, table_payload.get("next_rowid"))
    for index_payload in payload.get("indexes", []):
        database.catalog.create_index(
            index_payload["name"],
            index_payload["table"],
            index_payload["column"],
            index_payload["kind"],
        )
    return database


def _rekey(heap, saved_ids: List[int], next_rowid: Optional[int]) -> None:
    """Replace sequential insert rowids with the saved rowids."""
    current_ids = heap.rowids()
    if current_ids == saved_ids:
        if next_rowid is not None:
            heap._next_rowid = max(heap._next_rowid, next_rowid)
        return
    rows = {rowid: heap.get(rowid) for rowid in current_ids}
    heap._rows.clear()
    if heap._pk_index is not None:
        heap._pk_index.clear()
    for assigned, saved in zip(current_ids, saved_ids):
        row = rows[assigned]
        heap._rows[saved] = row
        if heap._pk_index is not None:
            heap._pk_index[row[heap._pk_position]] = saved
    top = max(saved_ids, default=0) + 1
    heap._next_rowid = max(top, next_rowid or 0)


def save_database(database: Database, path: Union[str, Path]) -> None:
    """Write a database to ``path`` as JSON, atomically.

    Uses :func:`atomic_write_json`: a crash mid-save leaves the previous
    good snapshot intact rather than a truncated JSON document.
    """
    payload = dump_database(database)
    atomic_write_json(path, payload, indent=1)


def open_database(path: Union[str, Path]) -> Database:
    """Load a database previously written by :func:`save_database`."""
    file_path = Path(path)
    if not file_path.exists():
        raise PersistenceError(f"no save file at {file_path}")
    try:
        payload = json.loads(file_path.read_text())
    except json.JSONDecodeError as error:
        raise PersistenceError(f"corrupt save file: {error}") from error
    return load_database(payload)


# -- CSV ----------------------------------------------------------------------


def export_csv(
    database: Database, table: str, path: Union[str, Path]
) -> int:
    """Write one table to CSV (header row + data); returns row count.

    The scan runs under the engine's shared read lock, so the exported
    file is a consistent point-in-time view even with concurrent
    writers. NULLs are written as empty fields; a TEXT value that is
    itself an empty string round-trips as empty too — use the JSON
    format when that distinction matters.
    """
    with database.read_view():
        heap = database.catalog.table(table)
        count = 0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(heap.schema.column_names())
            for _rowid, row in heap.scan():
                writer.writerow(
                    ["" if value is None else value for value in row]
                )
                count += 1
        return count


def import_csv(
    database: Database,
    table: str,
    path: Union[str, Path],
    create: bool = False,
) -> int:
    """Load CSV rows into ``table``; returns the number inserted.

    With ``create=True`` a new all-TEXT table is created from the
    header. Otherwise the target table must exist and values are parsed
    into each column's declared type (empty fields become NULL).

    Every record is checked and parsed *before* anything is inserted: a
    ragged record (fewer or more fields than the header) or an
    unparsable value raises :class:`PersistenceError` naming the line,
    and the table is untouched. The inserts then run as one atomic bulk
    load through :meth:`~repro.engine.database.Database.insert_rows` —
    under the engine's exclusive write lock, maintaining secondary
    indexes through the ordinary mutation stream, and journalled when a
    write-ahead journal is attached.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise PersistenceError(f"no CSV file at {file_path}")
    with open(file_path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise PersistenceError("CSV file is empty") from None
        records = []
        for line, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise PersistenceError(
                    f"CSV line {line} has {len(record)} field(s), "
                    f"header has {len(header)}"
                )
            records.append((line, record))
    with database.write_txn():
        if create:
            if database.catalog.has_table(table):
                raise CatalogError(f"table {table!r} already exists")
            database.create_table(
                TableSchema(
                    table, [Column(name, DataType.TEXT) for name in header]
                )
            )
        heap = database.catalog.table(table)
        schema = heap.schema
        if len(header) != len(schema):
            raise PersistenceError(
                f"CSV has {len(header)} columns, table {table!r} has "
                f"{len(schema)}"
            )
        rows = []
        for line, record in records:
            try:
                rows.append(
                    [
                        _parse_csv_value(text, schema.columns[position].dtype)
                        for position, text in enumerate(record)
                    ]
                )
            except (ValueError, PersistenceError) as error:
                raise PersistenceError(
                    f"CSV line {line}: {error}"
                ) from error
        database.insert_rows(table, rows)
        return len(rows)


def _parse_csv_value(text: str, dtype: DataType) -> SQLValue:
    if text == "":
        return None
    if dtype is DataType.INTEGER:
        return int(text)
    if dtype is DataType.FLOAT:
        return float(text)
    if dtype is DataType.BOOLEAN:
        lowered = text.strip().lower()
        if lowered in ("true", "1", "t", "yes"):
            return True
        if lowered in ("false", "0", "f", "no"):
            return False
        raise PersistenceError(f"cannot parse boolean from {text!r}")
    return text
