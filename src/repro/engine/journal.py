"""Append-only write-ahead journal of committed mutating statements.

The snapshot format in :mod:`repro.engine.persistence` makes state
survive a *clean* shutdown; this module makes it survive a crash. A
:class:`WriteAheadJournal` records every committed mutating statement
(and the bulk-load operations that bypass SQL) as a length- and
checksum-framed record, fsync'd before the caller is told the statement
succeeded. Recovery (:mod:`repro.engine.durability`) loads the latest
valid snapshot and re-executes the journal's tail.

File layout::

    RWAL1\\n                          6-byte magic
    [u32 length][u32 crc32][payload]  repeated; payload is UTF-8 JSON

Each payload carries a monotonically increasing ``seq``. Sequence
numbers keep increasing across :meth:`WriteAheadJournal.truncate`, and
snapshots record the last ``seq`` they include — so a crash *between*
"snapshot replaced" and "journal truncated" is harmless: recovery skips
records the snapshot already contains instead of double-applying them.

Torn tails are expected, not fatal: a crash mid-append leaves a partial
frame (short header, short payload, or checksum mismatch). Scanning
stops at the first invalid frame and reports the last valid byte
offset; reopening the journal truncates the tail there. Anything after
a bad frame is unrecoverable by design — records are only meaningful as
a prefix, matching the commit order they were written in.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..testing.faults import fire

from .errors import JournalError

#: File magic; bumping it invalidates old journals explicitly.
MAGIC = b"RWAL1\n"

#: Frame header: payload byte length, then crc32 of the payload.
_HEADER = struct.Struct(">II")

#: Upper bound on a single record; a "length" above this is treated as
#: corruption rather than attempted as an allocation.
MAX_RECORD_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record.

    Attributes:
        seq: the record's sequence number (monotonic across truncation).
        payload: the decoded JSON payload (includes ``seq``).
        offset: byte offset of the frame's first header byte.
    """

    seq: int
    payload: Dict
    offset: int


@dataclass
class JournalScan:
    """Result of scanning a journal file front to back.

    Attributes:
        records: every valid record, in write order.
        valid_bytes: offset one past the last valid frame — the length
            recovery should truncate the file to.
        total_bytes: the file's actual size.
        torn: True when trailing bytes after ``valid_bytes`` were
            invalid (torn append or corruption).
    """

    records: List[JournalRecord] = field(default_factory=list)
    valid_bytes: int = len(MAGIC)
    total_bytes: int = 0
    torn: bool = False

    @property
    def last_seq(self) -> int:
        """Highest sequence number seen (0 for an empty journal)."""
        return self.records[-1].seq if self.records else 0


def scan_journal(path: Union[str, Path]) -> JournalScan:
    """Read every valid record from a journal file.

    Stops at the first invalid frame (short header, short payload,
    oversized length, checksum mismatch, or undecodable payload) and
    marks the scan ``torn``; everything before it is returned. A missing
    file scans as empty; a file that exists but does not start with the
    journal magic raises :class:`JournalError` — that is a wrong file,
    not a torn one.
    """
    file_path = Path(path)
    if not file_path.exists():
        return JournalScan(total_bytes=0, valid_bytes=0)
    data = file_path.read_bytes()
    scan = JournalScan(total_bytes=len(data))
    if len(data) < len(MAGIC):
        # A torn initial header write: nothing valid yet.
        scan.valid_bytes = 0
        scan.torn = len(data) > 0
        return scan
    if data[: len(MAGIC)] != MAGIC:
        raise JournalError(
            f"{file_path} is not a write-ahead journal (bad magic)"
        )
    offset = len(MAGIC)
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            scan.torn = True
            break
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or start + length > len(data):
            scan.torn = True
            break
        payload_bytes = data[start : start + length]
        if zlib.crc32(payload_bytes) & 0xFFFFFFFF != checksum:
            scan.torn = True
            break
        try:
            payload = json.loads(payload_bytes.decode("utf-8"))
            seq = int(payload["seq"])
        except (ValueError, KeyError, UnicodeDecodeError):
            scan.torn = True
            break
        scan.records.append(JournalRecord(seq=seq, payload=payload, offset=offset))
        offset = start + length
        scan.valid_bytes = offset
    return scan


class WriteAheadJournal:
    """Durable, append-only record of committed mutating operations.

    Opening an existing journal validates its magic, truncates any torn
    tail (counted in :attr:`torn_bytes_truncated`), and continues the
    sequence numbering after the highest surviving record. Appends are
    framed, written, and — with ``sync=True`` (the default) — fsync'd
    before returning, so a statement acknowledged to a client is
    recoverable.

    Thread-safe: appends take an internal lock. In this engine every
    append already happens under the database's exclusive write lock,
    but the journal does not rely on that.

    Args:
        path: journal file location (created if missing).
        clock: optional time source; when given, appended payloads are
            stamped with ``ts`` (the guard's update trackers are
            restored from these timestamps on recovery).
        sync: fsync after every append batch. Turning this off trades
            crash durability of the newest records for throughput.
    """

    def __init__(
        self,
        path: Union[str, Path],
        clock=None,
        sync: bool = True,
    ):
        self.path = Path(path)
        self.clock = clock
        self.sync = sync
        self._lock = threading.Lock()
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.torn_bytes_truncated = 0
        #: set when a failed append could not be cut back out
        self._broken = False
        scan = scan_journal(self.path)
        self._next_seq = scan.last_seq + 1
        self._size = scan.valid_bytes if self.path.exists() else len(MAGIC)
        if not self.path.exists() or scan.total_bytes < len(MAGIC):
            # Fresh file (or a torn initial header): start from magic.
            self._file = open(self.path, "wb")
            self._file.write(MAGIC)
            self._file.flush()
            self._fsync()
            self._size = len(MAGIC)
            if scan.total_bytes:
                self.torn_bytes_truncated += scan.total_bytes
        else:
            self._file = open(self.path, "r+b")
            if scan.torn:
                self.torn_bytes_truncated += scan.total_bytes - scan.valid_bytes
                self._file.truncate(scan.valid_bytes)
                self._fsync()
            self._file.seek(scan.valid_bytes)

    # -- introspection -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent append (0 when none yet)."""
        return self._next_seq - 1

    @property
    def size_bytes(self) -> int:
        """Current journal length in bytes (magic included)."""
        return self._size

    # -- appending ---------------------------------------------------------

    def append(self, payload: Dict) -> int:
        """Frame, write, and (if ``sync``) fsync one record.

        Returns the record's sequence number. The payload must be
        JSON-serialisable; ``seq`` (and ``ts`` when a clock is attached)
        are added to it.
        """
        return self.append_many([payload])[-1]

    def append_many(self, payloads: Sequence[Dict]) -> List[int]:
        """Append several records with a single fsync (commit batches).

        Returns their sequence numbers. An empty batch is a no-op.
        """
        if not payloads:
            return []
        with self._lock:
            self._check_open()
            sequences = []
            frames = []
            for payload in payloads:
                record = dict(payload)
                record["seq"] = self._next_seq
                if self.clock is not None and "ts" not in record:
                    record["ts"] = self.clock.now()
                body = json.dumps(record, separators=(",", ":")).encode("utf-8")
                frames.append(
                    _HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF)
                    + body
                )
                sequences.append(self._next_seq)
                self._next_seq += 1
            blob = b"".join(frames)
            try:
                self._write(blob)
            except BaseException:
                self._next_seq = sequences[0]
                raise
            self._size += len(blob)
            self.records_written += len(frames)
            self.bytes_written += len(blob)
            return sequences

    def append_replica(self, payload: Dict) -> int:
        """Append one *already-sequenced* record (replication apply path).

        Followers persist the primary's shipped payloads verbatim: the
        incoming ``seq`` (and ``ts``) are kept, not re-assigned, so the
        follower's journal file is byte-identical to the primary's
        committed prefix — which is what makes post-failover
        journal-fingerprint checks meaningful. Sequence numbering for
        any *local* appends after a promotion continues above the
        highest replicated record.
        """
        seq = int(payload["seq"])
        with self._lock:
            self._check_open()
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            frame = (
                _HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body
            )
            self._write(frame)
            self._size += len(frame)
            self.records_written += 1
            self.bytes_written += len(frame)
            self._next_seq = max(self._next_seq, seq + 1)
            return seq

    # -- checkpoint support --------------------------------------------------

    def truncate(self) -> None:
        """Drop every record (after a successful snapshot).

        The file is cut back to its magic header and fsync'd; sequence
        numbering continues, so records appended later stay strictly
        above any ``journal_seq`` a snapshot recorded.
        """
        with self._lock:
            self._check_open()
            self._file.truncate(len(MAGIC))
            self._file.seek(len(MAGIC))
            self._fsync()
            self._size = len(MAGIC)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def _write(self, blob: bytes) -> None:
        """Write, flush and (if ``sync``) fsync one batch of frames.

        On an error the file is cut back to its size before the batch,
        so no reader or recovery ever sees a frame its writer was told
        failed. If the cut fails too, the journal refuses every later
        append: what the file ends with is no longer known.
        """
        try:
            self._file.write(blob)
            self._file.flush()
            if self.sync:
                self._fsync()
        except BaseException:
            try:
                try:
                    self._file.close()  # drops the fd even if flushing fails
                except OSError:
                    pass
                self._file = open(self.path, "r+b")
                self._file.truncate(self._size)
                self._file.seek(self._size)
                self._fsync()
            except BaseException:
                self._broken = True
                if not self._file.closed:
                    self._file.close()
            raise

    def _check_open(self) -> None:
        if self._broken:
            raise JournalError(
                f"journal {self.path} could not undo a failed append; "
                "it takes no more appends"
            )
        if self._file.closed:
            raise JournalError(f"journal {self.path} is closed")

    def _fsync(self) -> None:
        fire("journal.fsync")
        os.fsync(self._file.fileno())
        self.fsyncs += 1

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadJournal({str(self.path)!r}, last_seq={self.last_seq}, "
            f"bytes={self._size})"
        )


class JournalFollower:
    """Incremental tail reader over a live journal file.

    Replication ships *committed* WAL frames: the primary's journal is
    the authoritative commit record, so the shipping side simply tails
    the file, decoding any newly appended complete frames on each
    :meth:`poll`. A partial trailing frame (a commit racing the poll)
    is left in place — the offset does not advance past it, and the
    next poll retries from the same point.

    Truncation-aware: a checkpoint cuts the journal back to its magic
    header while sequence numbers keep increasing, so when the file
    shrinks below the follower's offset the reader rewinds to the
    magic and relies on the ``seq > last_seq`` filter to skip anything
    it already delivered.

    Args:
        path: the journal file to tail (may not exist yet).
        after_seq: deliver only records with ``seq`` strictly above
            this (a follower resuming from a snapshot passes the
            snapshot's ``journal_seq``).
    """

    def __init__(self, path: Union[str, Path], after_seq: int = 0):
        self.path = Path(path)
        self.last_seq = after_seq
        self._offset = 0
        #: lifetime counters, for replication health.
        self.records_delivered = 0
        self.truncations_seen = 0

    def poll(self, limit: Optional[int] = None) -> List[JournalRecord]:
        """Decode and return frames appended since the last poll.

        ``limit`` caps the bytes read, the writer's
        :attr:`WriteAheadJournal.size_bytes`: a frame past it is
        written but not yet synced, and is cut back out if its fsync
        fails.
        """
        if not self.path.exists():
            return []
        size = self.path.stat().st_size
        if limit is not None:
            size = min(size, limit)
        if size < max(self._offset, len(MAGIC)):
            # Checkpoint truncation (or a fresh file): rewind.
            if self._offset > len(MAGIC):
                self.truncations_seen += 1
            self._offset = 0
            if size < len(MAGIC):
                return []
        if self._offset < len(MAGIC):
            self._offset = len(MAGIC)
        with open(self.path, "rb") as handle:
            if handle.read(len(MAGIC)) != MAGIC:
                raise JournalError(
                    f"{self.path} is not a write-ahead journal (bad magic)"
                )
            handle.seek(self._offset)
            data = handle.read(size - self._offset)
        records: List[JournalRecord] = []
        cursor = 0
        while cursor + _HEADER.size <= len(data):
            length, checksum = _HEADER.unpack_from(data, cursor)
            start = cursor + _HEADER.size
            if length > MAX_RECORD_BYTES or start + length > len(data):
                break  # partial or torn tail; retry next poll
            body = data[start : start + length]
            if zlib.crc32(body) & 0xFFFFFFFF != checksum:
                break
            try:
                payload = json.loads(body.decode("utf-8"))
                seq = int(payload["seq"])
            except (ValueError, KeyError, UnicodeDecodeError):
                break
            if seq > self.last_seq:
                records.append(
                    JournalRecord(
                        seq=seq,
                        payload=payload,
                        offset=self._offset + cursor,
                    )
                )
                self.last_seq = seq
            cursor = start + length
        self._offset += cursor
        self.records_delivered += len(records)
        return records


def fingerprint_journal(
    path: Union[str, Path], upto_seq: Optional[int] = None
) -> str:
    """SHA-256 over a journal's framed records (magic excluded).

    With ``upto_seq``, only frames at or below that sequence number are
    hashed — the committed-prefix fingerprint a promoted follower must
    match against the dead primary's on-disk journal.
    """
    digest = hashlib.sha256()
    scan = scan_journal(path)
    data = Path(path).read_bytes() if Path(path).exists() else b""
    for index, record in enumerate(scan.records):
        if upto_seq is not None and record.seq > upto_seq:
            break
        end = (
            scan.records[index + 1].offset
            if index + 1 < len(scan.records)
            else scan.valid_bytes
        )
        digest.update(data[record.offset : end])
    return digest.hexdigest()
