"""Trace replay: drive a guarded database with a workload trace.

Two replay paths produce identical guard state:

* ``mode="sql"`` pushes every event through the guard's SQL front door —
  full fidelity, used by integration tests and small experiments.
* ``mode="fast"`` performs the same accounting (policy delay, count
  recording, clock advance, update metadata) directly against the
  guard's trackers, skipping SQL parsing and execution. This is what
  makes replaying the 725,091-request Calgary trace cheap enough to
  sweep six decay rates in a benchmark run. Equivalence of the two
  paths is asserted by tests (``tests/sim/test_replay_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.errors import AccessDenied, ConfigError
from ..core.guard import DelayGuard
from ..workloads.generators import select_sql, update_sql
from ..workloads.traces import Trace
from .metrics import DelayDistribution


@dataclass
class ReplayReport:
    """What happened during a trace replay.

    Attributes:
        queries / updates / marks: events replayed by kind.
        denied: queries refused by account limits.
        user_delays: distribution of per-query delays charged to the
            legitimate workload.
        started_at / finished_at: clock times bracketing the replay.
    """

    queries: int = 0
    updates: int = 0
    marks: int = 0
    denied: int = 0
    user_delays: DelayDistribution = field(default_factory=DelayDistribution)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def median_delay(self) -> float:
        """Median per-query delay over the replay."""
        return self.user_delays.median

    @property
    def duration(self) -> float:
        """Simulated seconds the replay spanned."""
        return self.finished_at - self.started_at


class TraceReplayer:
    """Replays a :class:`~repro.workloads.traces.Trace` against a guard.

    Args:
        guard: the guarded database (table must already be loaded).
        table: the relation the trace's items live in.
        mode: "fast" (default) or "sql" — see module docstring.
        boundary_decay: decay factor applied to the popularity tracker
            at every "mark" event (the §4.2 weekly-boundary decay).
            None leaves marks as pure annotations.
        identity: account to attribute queries to (sql mode only).
    """

    def __init__(
        self,
        guard: DelayGuard,
        table: str,
        mode: str = "fast",
        boundary_decay: Optional[float] = None,
        identity: Optional[str] = None,
    ):
        if mode not in ("fast", "sql"):
            raise ConfigError(f"mode must be 'fast' or 'sql', got {mode!r}")
        if boundary_decay is not None and boundary_decay < 1.0:
            raise ConfigError(
                f"boundary_decay must be >= 1.0, got {boundary_decay}"
            )
        self.guard = guard
        self.table = table
        self.mode = mode
        self.boundary_decay = boundary_decay
        self.identity = identity
        self._item_to_rowid: Optional[Dict[int, int]] = None
        self._versions: Dict[int, int] = {}

    # -- mapping -------------------------------------------------------------

    def _rowid_of(self, item: int) -> int:
        if self._item_to_rowid is None:
            heap = self.guard.database.catalog.table(self.table)
            position = heap.schema.position("id")
            self._item_to_rowid = {
                row[position]: rowid for rowid, row in heap.scan()
            }
        try:
            return self._item_to_rowid[item]
        except KeyError:
            raise ConfigError(
                f"trace item {item} not present in table {self.table!r}"
            ) from None

    # -- replay ----------------------------------------------------------------

    def replay(self, trace: Trace, limit: Optional[int] = None) -> ReplayReport:
        """Replay ``trace`` (optionally only its first ``limit`` events)."""
        report = ReplayReport(started_at=self.guard.clock.now())
        for position, event in enumerate(trace):
            if limit is not None and position >= limit:
                break
            if event.think_time:
                self.guard.clock.advance(event.think_time)
            if event.kind == "mark":
                report.marks += 1
                if self.boundary_decay is not None:
                    self.guard.popularity.apply_decay(self.boundary_decay)
                continue
            if event.kind == "query":
                self._replay_query(event.item, report)
            elif event.kind == "update":
                self._replay_update(event.item, report)
            else:  # pragma: no cover - Trace prevents this
                raise ConfigError(f"unknown event kind {event.kind!r}")
        report.finished_at = self.guard.clock.now()
        return report

    def _replay_query(self, item: int, report: ReplayReport) -> None:
        if self.mode == "sql":
            try:
                guarded = self.guard.execute(
                    select_sql(self.table, item), identity=self.identity
                )
            except AccessDenied:
                report.denied += 1
                return
            report.queries += 1
            report.user_delays.observe(guarded.delay)
            return
        # fast path: same accounting as DelayGuard.execute for a
        # single-tuple SELECT, without SQL.
        guard = self.guard
        key = (self.table.lower(), self._rowid_of(item))
        delay = guard.policy.delay_for(key)
        guard.popularity.record(key)
        guard.stats.note_query(delay, 0.0, 0.0)
        guard.stats.note_select(delay, 1)
        if delay > 0:
            guard.clock.sleep(delay)
        report.queries += 1
        report.user_delays.observe(delay)

    def _replay_update(self, item: int, report: ReplayReport) -> None:
        if self.mode == "sql":
            version = self._versions.get(item, 0) + 1
            self._versions[item] = version
            self.guard.execute(
                update_sql(self.table, item, version), identity=self.identity
            )
            report.updates += 1
            return
        guard = self.guard
        key = (self.table.lower(), self._rowid_of(item))
        now = guard.clock.now()
        guard.update_rates.record_update(key)
        guard.last_update_times[key] = now
        guard.stats.note_query(0.0, 0.0, 0.0)
        report.updates += 1
