"""Crash recovery building blocks: journal replay.

:func:`replay_journal` re-applies a journal's surviving records *after*
a snapshot's ``journal_seq``, so a crash between "snapshot replaced"
and "journal truncated" cannot double-apply: those records' sequence
numbers are at or below the snapshot's recorded high-water mark and are
skipped. :func:`replay_entry` re-applies one record; replication's
apply path reuses it. Each replayed record reports which table and
rowids it touched (and the timestamp it originally committed at), so
the delay guard's update-rate trackers can be rebuilt faithfully.

Checkpointing and the one restore path live in the service layer
(:meth:`repro.service.DataProviderService.checkpoint` and
:meth:`~repro.service.DataProviderService.recover`): a snapshot is the
whole service state — data, learned popularity and accounts — never
the database alone.

Torn journal tails are truncated, not fatal — see
:mod:`repro.engine.journal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .database import Database
from .errors import JournalError
from .journal import JournalScan, scan_journal
from .schema import Column, TableSchema


@dataclass(frozen=True)
class ReplayedEntry:
    """One journal record re-applied during recovery.

    Attributes:
        seq: the record's journal sequence number.
        kind: ``"sql"``, ``"rows"``, or ``"schema"``.
        table: the driving table the record touched, if any.
        rowids: rowids the re-applied mutation affected (inserted,
            updated, or deleted) — the keys the guard's update trackers
            are rebuilt from.
        ts: service-clock timestamp the record was originally committed
            at, when the journal was stamped with one.
        tracked: whether the statement originally passed through the
            delay guard — only these re-feed the guard's update
            trackers on recovery.
    """

    seq: int
    kind: str
    table: Optional[str]
    rowids: Tuple[int, ...]
    ts: Optional[float]
    tracked: bool = False


@dataclass
class RecoveryReport:
    """What a recovery pass did, for operators and metrics.

    Attributes:
        snapshot_loaded: whether a snapshot file was found and loaded.
        snapshot_seq: the journal ``seq`` the snapshot covered (0 when
            none, or when the snapshot predates checkpointing).
        replayed_statements: journal records re-applied.
        skipped_records: records at or below ``snapshot_seq``, already
            contained in the snapshot (non-zero exactly when a crash hit
            the checkpoint's snapshot/truncate window).
        torn_bytes_truncated: invalid trailing journal bytes dropped.
        last_seq: highest journal sequence number seen.
        duration_seconds: wall-clock time recovery took.
        entries: per-record replay details, in journal order.
    """

    snapshot_loaded: bool = False
    snapshot_seq: int = 0
    replayed_statements: int = 0
    skipped_records: int = 0
    torn_bytes_truncated: int = 0
    last_seq: int = 0
    duration_seconds: float = 0.0
    entries: List[ReplayedEntry] = field(default_factory=list)


def replay_entry(database: Database, payload: Dict) -> ReplayedEntry:
    """Re-apply one journal payload to ``database``.

    Dispatches on the payload's ``"k"`` discriminator:

    - ``"sql"`` — re-execute the recorded SQL text.
    - ``"rows"`` — re-run a bulk load (:meth:`Database.insert_rows`).
    - ``"schema"`` — re-create a table from its serialised columns.

    An unknown kind raises :class:`JournalError`: it means the journal
    was written by newer code, and silently skipping it would recover a
    diverged database.
    """
    kind = payload.get("k")
    seq = int(payload.get("seq", 0))
    ts = payload.get("ts")
    tracked = bool(payload.get("g"))
    if kind == "sql":
        result = database.execute(payload["sql"])
        return ReplayedEntry(
            seq=seq,
            kind=kind,
            table=result.table,
            rowids=tuple(result.rowids),
            ts=ts,
            tracked=tracked,
        )
    if kind == "rows":
        rowids = database.insert_rows(payload["table"], payload["rows"])
        return ReplayedEntry(
            seq=seq,
            kind=kind,
            table=payload["table"],
            rowids=tuple(rowids),
            ts=ts,
            tracked=tracked,
        )
    if kind == "schema":
        database.create_table(
            TableSchema(
                payload["table"],
                [Column.from_dict(column) for column in payload["columns"]],
            )
        )
        return ReplayedEntry(
            seq=seq, kind=kind, table=payload["table"], rowids=(), ts=ts
        )
    raise JournalError(f"unknown journal record kind {kind!r}")


def replay_journal(
    database: Database,
    journal_path: Union[str, Path],
    after_seq: int = 0,
) -> Tuple[List[ReplayedEntry], JournalScan]:
    """Re-apply a journal's records with ``seq > after_seq``.

    The database must not have a journal attached — replayed statements
    must not be re-journalled. Returns the replayed entries (in journal
    order) and the underlying scan, whose ``torn``/byte counts feed the
    recovery report.
    """
    if database.journal is not None:
        raise JournalError(
            "detach the journal before replay: re-applying records "
            "would re-journal them"
        )
    scan = scan_journal(journal_path)
    entries = []
    for record in scan.records:
        if record.seq <= after_seq:
            continue
        entries.append(replay_entry(database, record.payload))
    return entries, scan

