"""Structured audit events with a non-blocking background JSONL writer.

The paper's §2.4 storefront argument assumes the operator can *see*
what the defense did — which queries were served, what each one was
charged, who was refused, when a forensic flag tripped. This module is
the durable record of those decisions: schema-versioned JSON events,
one per line, written by a background thread so the serving path never
waits on a disk.

Three pieces:

* :class:`BackgroundJsonlWriter` — a bounded queue drained by one
  daemon thread into a size-rotated JSONL file. ``submit`` never
  blocks: a full queue drops the record and counts the drop (audit
  completeness is sacrificed before serving latency, and the loss is
  visible in ``dropped_total``). The write path fires the
  ``audit.write`` fault point so chaos tests can model a slow or
  failing disk.
* :class:`AuditLog` — the event-level API: ``emit(kind, **fields)``
  stamps schema version, wall-clock time, and an optional correlation
  ``trace_id`` linking the event to its
  :class:`~repro.obs.tracing.QueryTrace`.
* :func:`iter_audit_events` — the replayable reader: yields events
  oldest-first across the rotated file set, skipping torn or corrupt
  lines (a crash mid-write must not make the whole log unreadable).

Event kinds currently emitted by the stack: ``query_served``,
``query_cached``, ``query_denied``, ``query_deadline_aborted``,
``query_shed``, ``delay_priced``, ``checkpoint``, ``recovery``,
``forensic_flag``, ``forensic_flag_cleared``.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

from ..testing.faults import fire

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditLog",
    "BackgroundJsonlWriter",
    "iter_audit_events",
]

#: Version stamped into every record as ``"v"``; bump on breaking
#: changes to the envelope (``ts``/``event``/``trace_id`` semantics).
AUDIT_SCHEMA_VERSION = 1

#: Sentinel instructing the writer thread to exit.
_STOP = object()


class BackgroundJsonlWriter:
    """Writes dict records as JSON lines from a background thread.

    Args:
        path: target file. Rotation renames it to ``path.1``,
            ``path.2``, ... (newest first) once ``max_bytes`` is
            reached; at most ``max_files`` files are kept in total.
        max_bytes: size threshold that triggers a rotation.
        max_files: total files retained (active + rotated); the oldest
            is deleted when rotation would exceed it.
        max_queue: bounded submission queue. ``submit`` on a full
            queue drops the record, increments ``dropped_total``, and
            returns False — it never blocks the caller.

    Counters (read without a lock; single-writer-thread updated):
        ``written_total`` — records durably handed to the OS.
        ``dropped_total`` — records sacrificed to the queue bound.
        ``write_errors_total`` — records lost to I/O failures.
        ``rotations_total`` — completed rotations.
        ``bytes_written_total`` — bytes appended across rotations.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 32 * 1024 * 1024,
        max_files: int = 4,
        max_queue: int = 4096,
    ):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.path = str(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self.written_total = 0
        self.dropped_total = 0
        self.write_errors_total = 0
        self.rotations_total = 0
        self.bytes_written_total = 0
        self._file = None
        self._file_bytes = 0
        self._closed = False
        # submitted/completed drive flush(): completed counts records
        # the worker fully processed (written, errored, or skipped).
        self._submitted = 0
        self._completed = 0
        self._done = threading.Condition()
        self._thread = threading.Thread(
            target=self._run, name="repro-audit-writer", daemon=True
        )
        self._thread.start()

    # -- producer side (any thread, never blocks) ---------------------------

    def submit(self, record: Dict) -> bool:
        """Enqueue one record; False when the queue bound dropped it."""
        if self._closed:
            return False
        with self._done:
            try:
                self._queue.put_nowait(record)
            except queue.Full:
                self.dropped_total += 1
                return False
            self._submitted += 1
            return True

    @property
    def queue_depth(self) -> int:
        """Records accepted but not yet written."""
        return self._queue.qsize()

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until everything submitted so far has been processed."""
        with self._done:
            target = self._submitted
            deadline = time.monotonic() + timeout
            while self._completed < target:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._done.wait(remaining)
            return True

    def close(self, timeout: float = 10.0) -> None:
        """Flush pending records, stop the thread, close the file."""
        if self._closed:
            return
        self._closed = True
        self.flush(timeout)
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout)

    # -- worker side (the one background thread) ----------------------------

    def _run(self) -> None:
        while True:
            record = self._queue.get()
            if record is _STOP:
                break
            self._write(record)
            if self._queue.empty():
                self._flush_file()
            with self._done:
                self._completed += 1
                self._done.notify_all()
        self._flush_file()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    def _write(self, record: Dict) -> None:
        try:
            fire("audit.write")
            line = json.dumps(record, separators=(",", ":")) + "\n"
            handle = self._open()
            handle.write(line)
            self._file_bytes += len(line)
            self.bytes_written_total += len(line)
            self.written_total += 1
            if self._file_bytes >= self.max_bytes:
                self._rotate()
        except Exception:
            # A failing disk loses this record, never the server: the
            # loss is counted, and the next record tries again.
            self.write_errors_total += 1
            self._file = None

    def _open(self):
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
            self._file_bytes = self._file.tell()
        return self._file

    def _flush_file(self) -> None:
        if self._file is not None:
            try:
                self._file.flush()
            except OSError:
                self.write_errors_total += 1
                self._file = None

    def _rotate(self) -> None:
        """path -> path.1 -> path.2 ... dropping the oldest."""
        try:
            self._file.close()
        except OSError:
            pass
        self._file = None
        self._file_bytes = 0
        oldest = f"{self.path}.{self.max_files - 1}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for index in range(self.max_files - 2, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        if self.max_files > 1 and os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")
        elif os.path.exists(self.path):
            os.unlink(self.path)
        self.rotations_total += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for metrics and tests."""
        return {
            "written": self.written_total,
            "dropped": self.dropped_total,
            "write_errors": self.write_errors_total,
            "rotations": self.rotations_total,
            "bytes_written": self.bytes_written_total,
            "queue_depth": self.queue_depth,
        }


class AuditLog:
    """Schema-versioned audit events over a background JSONL writer.

    Args:
        path: JSONL destination (rotated; see
            :class:`BackgroundJsonlWriter`).
        max_bytes / max_files / max_queue: writer bounds.
        clock: wall-clock source for the ``ts`` stamp (``time.time``
            by default; injectable for deterministic tests).
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 32 * 1024 * 1024,
        max_files: int = 4,
        max_queue: int = 4096,
        clock: Callable[[], float] = time.time,
    ):
        self.writer = BackgroundJsonlWriter(
            path,
            max_bytes=max_bytes,
            max_files=max_files,
            max_queue=max_queue,
        )
        self.path = self.writer.path
        self._clock = clock
        self._lock = threading.Lock()
        self.emitted_by_kind: Dict[str, int] = {}
        self._m_events = None

    def emit(
        self, kind: str, /, trace_id: Optional[str] = None, **fields
    ) -> bool:
        """Emit one event; returns False when the queue bound dropped it.

        ``kind`` is positional-only so an event may carry a field of
        that name (``cluster_broadcast`` does).

        The envelope is ``{"v": 1, "ts": <unix time>, "event": kind}``
        plus ``trace_id`` when given; ``fields`` are merged in after,
        so an event can never clobber the envelope keys.
        """
        record: Dict = dict(fields)
        record["v"] = AUDIT_SCHEMA_VERSION
        record["ts"] = self._clock()
        record["event"] = kind
        if trace_id is not None:
            record["trace_id"] = trace_id
        with self._lock:
            self.emitted_by_kind[kind] = (
                self.emitted_by_kind.get(kind, 0) + 1
            )
        if self._m_events is not None:
            self._m_events.inc(kind=kind)
        return self.writer.submit(record)

    def register_metrics(self, registry) -> None:
        """Expose writer health through a shared metrics registry."""
        writer = self.writer
        self._m_events = registry.counter(
            "audit_events_total",
            "Audit events emitted, by kind (includes dropped)",
            ("kind",),
        )
        registry.counter(
            "audit_records_written_total",
            "Audit records durably handed to the OS",
        ).set_function(lambda: writer.written_total)
        registry.counter(
            "audit_records_dropped_total",
            "Audit records dropped by the bounded queue "
            "(completeness sacrificed before serving latency)",
        ).set_function(lambda: writer.dropped_total)
        registry.counter(
            "audit_write_errors_total",
            "Audit records lost to I/O failures",
        ).set_function(lambda: writer.write_errors_total)
        registry.counter(
            "audit_rotations_total", "Audit log rotations completed"
        ).set_function(lambda: writer.rotations_total)
        registry.counter(
            "audit_bytes_written_total",
            "Bytes appended to the audit log across rotations",
        ).set_function(lambda: writer.bytes_written_total)
        registry.gauge(
            "audit_queue_depth",
            "Audit records accepted but not yet written",
        ).set_function(lambda: writer.queue_depth)

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until everything emitted so far is on disk."""
        return self.writer.flush(timeout)

    def close(self) -> None:
        """Flush and stop the background writer."""
        self.writer.close()

    def replay(self) -> Iterator[Dict]:
        """Yield this log's events oldest-first across rotations."""
        return iter_audit_events(
            self.path, max_files=self.writer.max_files
        )

    def stats(self) -> Dict[str, int]:
        """Writer counters plus per-kind emission counts."""
        payload = self.writer.stats()
        with self._lock:
            payload["by_kind"] = dict(self.emitted_by_kind)
        return payload


def iter_audit_events(
    path: str, max_files: int = 16
) -> Iterator[Dict]:
    """Replay audit events from ``path`` and its rotated siblings.

    Oldest events first: ``path.N`` (largest N) down to ``path``
    itself. Tolerant by design — a file vanishing mid-read (concurrent
    rotation) and corrupt or torn lines (crash mid-write) are skipped,
    never fatal. Only dict records are yielded.
    """
    candidates: List[str] = [
        f"{path}.{index}" for index in range(max_files - 1, 0, -1)
    ]
    candidates.append(str(path))
    for candidate in candidates:
        try:
            with open(candidate, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(record, dict):
                        yield record
        except OSError:
            continue
