"""Query-lifecycle tracing: per-stage spans with a bounded trace buffer.

Every statement served by the guard passes through the same lifecycle —
parse, account check, engine execution, delay computation, accounting,
sleep — and the paper's claims live in the *ratios* between those
stages: accounting must stay a small fraction of engine time (Table 5)
while the sleep stage is where the defense actually bites. A
:class:`QueryTrace` records one such lifecycle as a list of
:class:`Span` (name, offset, duration); the :class:`Tracer` keeps a ring
buffer of the most recent traces (bounded memory — a long-running server
never accumulates them) and can mirror every finished trace to a
JSON-lines sink for offline analysis.

Traces are cheap: the guard's pipeline reads ``perf_counter`` once per
stage boundary for its timing buckets anyway, and the list of
``(stage, start, end)`` tuples it keeps is handed to the trace as its
span list (``events=``), so tracing adds no clock read and no copy.
Span recording is deliberately allocation-lean — stages are kept as
plain tuples of atomics (which the cyclic GC untracks) and only
materialised into :class:`Span` objects when read. The dominant cost of tracing every
query is not the instruction path but garbage-collector pressure from
objects retained in the ring; keeping the retained graph GC-invisible
is what keeps the overhead benchmark inside its budget.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Dict, IO, List, Optional, Union

from .audit import BackgroundJsonlWriter

__all__ = ["Span", "QueryTrace", "Tracer"]

#: SQL stored on a trace is truncated to this many characters.
SQL_LIMIT = 200

# Correlation ids: "<pid hex>-<counter hex>" is unique within a process
# tree and cheap to mint (one atomic counter bump, no RNG, no clock).
# Audit events carry the same id, so one query's trace and its audit
# records can be joined offline.
_TRACE_ID_PREFIX = f"{os.getpid():x}"
_trace_counter = itertools.count(1)


class Span:
    """One lifecycle stage: name, offset from trace start, duration."""

    __slots__ = ("name", "offset", "duration")

    def __init__(self, name: str, offset: float, duration: float):
        self.name = name
        self.offset = offset
        self.duration = duration

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "offset": self.offset,
            "duration": self.duration,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms)"


class QueryTrace:
    """The recorded lifecycle of one statement through the guard.

    Attributes:
        kind: trace kind (``"query"``).
        trace_id: process-unique correlation id; audit events carry the
            same id so the trace and its audit records can be joined.
        identity: the requesting identity, when known.
        sql: the statement text (truncated), when given as text.
        started_at: wall-clock UNIX time when the trace began.
        spans: per-stage :class:`Span` list, in execution order.
        status: ``"ok"``, ``"denied"``, or ``"error"``.
        reason: denial reason or error text, when not ok.
        delay: the delay charged (seconds of simulated or real sleep).
        rows: result rows returned (SELECT only).
        duration: total wall-clock seconds from start to finish.
    """

    __slots__ = (
        "kind",
        "_serial",
        "identity",
        "sql",
        "started_at",
        "_events",
        "status",
        "reason",
        "delay",
        "rows",
        "duration",
        "_perf_start",
    )

    def __init__(
        self,
        kind: str = "query",
        identity: Optional[str] = None,
        sql: Optional[str] = None,
        events: Optional[List[tuple]] = None,
    ):
        self.kind = kind
        self._serial = next(_trace_counter)
        self.identity = identity
        if sql is not None and len(sql) > SQL_LIMIT:
            sql = sql[:SQL_LIMIT]
        self.sql = sql or None
        self.started_at = time.time()
        # (name, perf_start, perf_end) tuples, possibly a list the
        # caller keeps appending to. Tuples of atomics get untracked by
        # the cyclic GC, so a ring full of finished traces costs the
        # collector almost nothing to traverse.
        self._events: List[tuple] = [] if events is None else events
        self.status = "ok"
        self.reason: Optional[str] = None
        self.delay = 0.0
        self.rows = 0
        self.duration = 0.0
        self._perf_start = time.perf_counter()

    @property
    def trace_id(self) -> str:
        """The correlation id, spelled only when someone reads it."""
        return f"{_TRACE_ID_PREFIX}-{self._serial:x}"

    # -- recording ---------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record one stage from two ``perf_counter`` readings."""
        self._events.append((name, start, end))

    @property
    def spans(self) -> List[Span]:
        """Per-stage :class:`Span` list, materialised from the raw events."""
        base = self._perf_start
        return [
            Span(name, start - base, end - start)
            for name, start, end in self._events
        ]

    def finish(
        self,
        status: str = "ok",
        reason: Optional[str] = None,
        delay: float = 0.0,
        rows: int = 0,
    ) -> "QueryTrace":
        """Close the trace, stamping totals and outcome."""
        self.status = status
        self.reason = reason
        self.delay = delay
        self.rows = rows
        self.duration = time.perf_counter() - self._perf_start
        return self

    def extend(self, name: str, start: float, end: float) -> None:
        """Append a span after :meth:`finish` and stretch the duration.

        For lifecycle work served by an outer layer after the traced
        body returned — the canonical case is :class:`DelayServer`
        serving the sleep outside its statement lock: the guard's trace
        is already finished and retained, and the server appends the
        observed sleep so the recorded lifecycle still covers the full
        wall-clock the client experienced. The span list is replaced,
        not appended to: the pipeline's stage watch may still hold the
        list it recorded, which must stay the stages it ran.
        """
        self._events = [*self._events, (name, start, end)]
        self.duration = end - self._perf_start

    # -- reading -----------------------------------------------------------

    def stage_seconds(self) -> Dict[str, float]:
        """Total duration per stage name (stages can repeat)."""
        stages: Dict[str, float] = {}
        for name, start, end in self._events:
            stages[name] = stages.get(name, 0.0) + (end - start)
        return stages

    def span_total(self) -> float:
        """Sum of all span durations (~= duration; gaps are untraced)."""
        return sum(end - start for _, start, end in self._events)

    def to_dict(self) -> Dict:
        payload: Dict = {
            "kind": self.kind,
            "trace_id": self.trace_id,
            "status": self.status,
            "started_at": self.started_at,
            "duration": self.duration,
            "delay": self.delay,
            "rows": self.rows,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.identity is not None:
            payload["identity"] = self.identity
        if self.sql is not None:
            payload["sql"] = self.sql
        if self.reason is not None:
            payload["reason"] = self.reason
        return payload

    def __repr__(self) -> str:
        return (
            f"QueryTrace({self.status}, {len(self._events)} spans, "
            f"delay={self.delay:.4g})"
        )


class Tracer:
    """Collects finished traces into a bounded ring buffer.

    Args:
        capacity: how many recent traces to retain (older ones fall off
            the ring — memory stays bounded on a long-running server).
        sink: optional JSON-lines destination — a path or any writable
            text file object. Every finished trace is written as one
            JSON line. A *path* sink is served by a
            :class:`~repro.obs.audit.BackgroundJsonlWriter`: the
            serving thread only enqueues (bounded, non-blocking — a
            slow or full disk drops traces and counts the drop instead
            of stalling queries), and the file is size-rotated. A
            *file-object* sink stays synchronous and unrotated — the
            caller owns its lifecycle and flushing discipline (tests
            pass ``io.StringIO``).
        sink_max_bytes / sink_max_files / sink_max_queue: rotation and
            queue bounds for a path sink (ignored for file objects).
    """

    def __init__(
        self,
        capacity: int = 256,
        sink: Optional[Union[str, IO[str]]] = None,
        sink_max_bytes: int = 32 * 1024 * 1024,
        sink_max_files: int = 4,
        sink_max_queue: int = 4096,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: "deque[QueryTrace]" = deque(maxlen=capacity)
        self._finished = 0
        self._sink_file: Optional[IO[str]] = (
            sink if sink is not None and not isinstance(sink, str) else None
        )
        self.sink_writer: Optional[BackgroundJsonlWriter] = (
            BackgroundJsonlWriter(
                sink,
                max_bytes=sink_max_bytes,
                max_files=sink_max_files,
                max_queue=sink_max_queue,
            )
            if isinstance(sink, str)
            else None
        )

    # -- recording ---------------------------------------------------------

    def start(
        self,
        kind: str = "query",
        identity: Optional[str] = None,
        sql: Optional[str] = None,
    ) -> QueryTrace:
        """Begin a trace (not retained until :meth:`finish`)."""
        return QueryTrace(kind=kind, identity=identity, sql=sql)

    def finish(self, trace: QueryTrace) -> None:
        """Retain a finished trace and mirror it to the sink, if any."""
        with self._lock:
            self._ring.append(trace)
            self._finished += 1
            if self._sink_file is not None:
                self._sink_file.write(json.dumps(trace.to_dict()) + "\n")
                self._sink_file.flush()
        # Outside the lock: submit is its own synchronisation and never
        # blocks, so a stalled disk cannot hold the trace lock either.
        if self.sink_writer is not None:
            self.sink_writer.submit(trace.to_dict())

    def close(self) -> None:
        """Flush and stop a path sink (file-object sinks are the caller's)."""
        if self.sink_writer is not None:
            self.sink_writer.close()

    # -- reading -----------------------------------------------------------

    @property
    def finished_total(self) -> int:
        """Traces finished over the tracer's lifetime (not just retained)."""
        with self._lock:
            return self._finished

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def recent(self, limit: int = 20) -> List[QueryTrace]:
        """The most recent traces, newest first."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            items = list(self._ring)
        return list(reversed(items))[:limit]

    def to_json(self, limit: int = 20) -> List[Dict]:
        """Recent traces as JSON-compatible dicts, newest first."""
        return [trace.to_dict() for trace in self.recent(limit)]

    def clear(self) -> None:
        """Drop retained traces (the lifetime counter is kept)."""
        with self._lock:
            self._ring.clear()
